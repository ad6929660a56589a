#include "tmark/datasets/paper_example.h"

#include <gtest/gtest.h>

#include "tmark/hin/feature_similarity.h"
#include "tmark/tensor/transition_tensors.h"

namespace tmark::datasets {
namespace {

TEST(PaperExampleTest, StructureMatchesSection32) {
  const hin::Hin hin = MakePaperExample();
  EXPECT_EQ(hin.num_nodes(), 4u);
  EXPECT_EQ(hin.num_relations(), 3u);
  EXPECT_EQ(hin.num_classes(), 2u);
  EXPECT_EQ(hin.relation_name(0), "co-author");
  EXPECT_EQ(hin.relation_name(1), "citation");
  EXPECT_EQ(hin.relation_name(2), "same conference");
  // co-author p1 -- p2 symmetric.
  EXPECT_DOUBLE_EQ(hin.relation(0).At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(hin.relation(0).At(1, 0), 1.0);
  // citations: p3 cites p2 and p4; p4 cites p1 (stored at (cited, citing)).
  EXPECT_DOUBLE_EQ(hin.relation(1).At(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(hin.relation(1).At(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(hin.relation(1).At(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(hin.relation(1).At(2, 1), 0.0);  // directed
  // same conference p2 -- p3.
  EXPECT_DOUBLE_EQ(hin.relation(2).At(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(hin.relation(2).At(2, 1), 1.0);
}

TEST(PaperExampleTest, TensorHasSevenEntries) {
  const hin::Hin hin = MakePaperExample();
  EXPECT_EQ(hin.NumLinks(), 7u);
}

TEST(PaperExampleTest, CosineMatrixMatchesSection43) {
  const hin::Hin hin = MakePaperExample();
  const hin::FeatureSimilarity sim =
      hin::FeatureSimilarity::Build(hin.features());
  // C = [[1,0,0,1],[0,1,1,0],[0,1,1,0],[1,0,0,1]].
  EXPECT_DOUBLE_EQ(sim.Cosine(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(sim.Cosine(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(sim.Cosine(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(sim.Cosine(2, 3), 0.0);
}

TEST(PaperExampleTest, TransitionOColumnsNormalized) {
  const hin::Hin hin = MakePaperExample();
  const tensor::TransitionTensors t =
      tensor::TransitionTensors::Build(hin.relations());
  // Column (j=2, k=1): p3's citations go to p2 and p4 with weight 1/2 each
  // (Fig. 3's O).
  EXPECT_DOUBLE_EQ(t.OEntry(1, 2, 1), 0.5);
  EXPECT_DOUBLE_EQ(t.OEntry(3, 2, 1), 0.5);
  // Column (j=1, k=0): p2's only co-author link goes to p1.
  EXPECT_DOUBLE_EQ(t.OEntry(0, 1, 0), 1.0);
}

TEST(PaperExampleTest, TransitionRFibersNormalized) {
  const hin::Hin hin = MakePaperExample();
  const tensor::TransitionTensors t =
      tensor::TransitionTensors::Build(hin.relations());
  // Pair (0, 1) (p1 <- p2) is linked only by co-author -> R = 1 there.
  EXPECT_DOUBLE_EQ(t.REntry(0, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.REntry(0, 1, 1), 0.0);
  // Pair (1, 2) (p2 <- p3) carries citation + same conference, 1/2 each
  // (Fig. 4's R).
  EXPECT_DOUBLE_EQ(t.REntry(1, 2, 1), 0.5);
  EXPECT_DOUBLE_EQ(t.REntry(1, 2, 2), 0.5);
}

TEST(PaperExampleTest, LabeledNodesAndTruth) {
  const hin::Hin hin = MakePaperExample();
  const auto labeled = PaperExampleLabeledNodes();
  ASSERT_EQ(labeled.size(), 2u);
  EXPECT_TRUE(hin.HasLabel(labeled[0], 0));  // p1 = DM
  EXPECT_TRUE(hin.HasLabel(labeled[1], 1));  // p2 = CV
  const auto truth = PaperExampleHeldOutTruth();
  EXPECT_EQ(truth, (std::vector<std::size_t>{1, 0}));
}

}  // namespace
}  // namespace tmark::datasets
