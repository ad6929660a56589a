#include "tmark/hin/hin_builder.h"

#include <gtest/gtest.h>

#include "tmark/common/check.h"

namespace tmark::hin {
namespace {

Hin SmallHin() {
  HinBuilder b(3, 4);
  b.AddClass("A");
  b.AddClass("B");
  const std::size_t r0 = b.AddRelation("friend");
  const std::size_t r1 = b.AddRelation("cites");
  b.AddUndirectedEdge(r0, 0, 1);
  b.AddDirectedEdge(r1, 2, 0, 2.0);  // node 2 cites node 0
  b.SetLabel(0, 0);
  b.SetLabel(1, 1);
  b.SetLabel(1, 0);  // multi-label
  b.AddFeature(0, 0, 1.0);
  b.AddFeature(0, 3, 2.0);
  b.AddFeature(2, 1, 1.0);
  return std::move(b).Build();
}

TEST(HinBuilderTest, BasicShape) {
  const Hin hin = SmallHin();
  EXPECT_EQ(hin.num_nodes(), 3u);
  EXPECT_EQ(hin.num_relations(), 2u);
  EXPECT_EQ(hin.num_classes(), 2u);
  EXPECT_EQ(hin.feature_dim(), 4u);
  EXPECT_EQ(hin.relation_name(1), "cites");
  EXPECT_EQ(hin.class_name(0), "A");
}

TEST(HinBuilderTest, UndirectedEdgeIsSymmetric) {
  const Hin hin = SmallHin();
  EXPECT_DOUBLE_EQ(hin.relation(0).At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(hin.relation(0).At(1, 0), 1.0);
}

TEST(HinBuilderTest, DirectedEdgeUsesTensorConvention) {
  // AddDirectedEdge(k, src=2, dst=0): stored at A[dst=0, src=2].
  const Hin hin = SmallHin();
  EXPECT_DOUBLE_EQ(hin.relation(1).At(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(hin.relation(1).At(2, 0), 0.0);
}

TEST(HinBuilderTest, SelfLoopAddedOnce) {
  HinBuilder b(2, 1);
  const std::size_t k = b.AddRelation("self");
  b.AddUndirectedEdge(k, 1, 1);
  const Hin hin = std::move(b).Build();
  EXPECT_DOUBLE_EQ(hin.relation(0).At(1, 1), 1.0);
  EXPECT_EQ(hin.relation(0).NumNonZeros(), 1u);
}

TEST(HinBuilderTest, LabelsSortedAndDeduplicated) {
  const Hin hin = SmallHin();
  EXPECT_EQ(hin.labels(1), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(hin.HasLabel(1, 0));
  EXPECT_TRUE(hin.HasLabel(1, 1));
  EXPECT_FALSE(hin.HasLabel(0, 1));
  EXPECT_EQ(hin.PrimaryLabel(1), 0u);
  EXPECT_TRUE(hin.labels(2).empty());
  EXPECT_THROW(hin.PrimaryLabel(2), CheckError);
}

TEST(HinBuilderTest, SetLabelDuplicateIgnored) {
  HinBuilder b(1, 1);
  b.AddClass("A");
  b.SetLabel(0, 0);
  b.SetLabel(0, 0);
  const Hin hin = std::move(b).Build();
  EXPECT_EQ(hin.labels(0).size(), 1u);
}

TEST(HinBuilderTest, FeaturesAccumulate) {
  HinBuilder b(1, 2);
  b.AddClass("A");
  b.AddFeature(0, 1, 1.0);
  b.AddFeature(0, 1, 2.0);
  const Hin hin = std::move(b).Build();
  EXPECT_DOUBLE_EQ(hin.features().At(0, 1), 3.0);
}

TEST(HinBuilderTest, BoundsChecks) {
  HinBuilder b(2, 2);
  b.AddClass("A");
  const std::size_t k = b.AddRelation("r");
  EXPECT_THROW(b.AddDirectedEdge(k + 1, 0, 1), CheckError);
  EXPECT_THROW(b.AddDirectedEdge(k, 0, 2), CheckError);
  EXPECT_THROW(b.AddDirectedEdge(k, 0, 1, 0.0), CheckError);
  EXPECT_THROW(b.SetLabel(0, 1), CheckError);
  EXPECT_THROW(b.AddFeature(0, 2, 1.0), CheckError);
}

TEST(HinBuilderTest, AggregatedRelationSums) {
  HinBuilder b(2, 1);
  b.AddClass("A");
  const std::size_t r0 = b.AddRelation("a");
  const std::size_t r1 = b.AddRelation("b");
  b.AddDirectedEdge(r0, 0, 1, 1.5);
  b.AddDirectedEdge(r1, 0, 1, 2.5);
  const Hin hin = std::move(b).Build();
  EXPECT_DOUBLE_EQ(hin.AggregatedRelation().At(1, 0), 4.0);
  EXPECT_EQ(hin.NumLinks(), 2u);
}

TEST(HinBuilderTest, NodesWithLabels) {
  const Hin hin = SmallHin();
  EXPECT_EQ(hin.NodesWithLabels(), (std::vector<std::size_t>{0, 1}));
}

TEST(HinBuilderTest, EdgeCountTracksBufferedEdges) {
  HinBuilder b(3, 1);
  const std::size_t k = b.AddRelation("r");
  EXPECT_EQ(b.EdgeCount(k), 0u);
  b.AddUndirectedEdge(k, 0, 1);
  EXPECT_EQ(b.EdgeCount(k), 2u);  // both directions buffered
}

}  // namespace
}  // namespace tmark::hin
