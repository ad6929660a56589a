// Weighted-HIN coverage: edge weights must flow through the tensor
// normalizations into classification — the paper's tensor is "nonnegative",
// not binary, and real corpora carry multiplicities (two authors sharing
// three papers).

#include <gtest/gtest.h>

#include "tmark/core/tmark.h"
#include "tmark/hin/hin_builder.h"
#include "tmark/tensor/transition_tensors.h"

namespace tmark {
namespace {

/// Two labeled anchors (0 = A, 1 = B) and one contested node 2 connected to
/// both, with an adjustable weight toward each side.
hin::Hin ContestedHin(double weight_to_a, double weight_to_b) {
  hin::HinBuilder b(5, 2);
  b.AddClass("A");
  b.AddClass("B");
  const std::size_t k = b.AddRelation("r");
  b.AddUndirectedEdge(k, 0, 3);  // A-side companion
  b.AddUndirectedEdge(k, 1, 4);  // B-side companion
  b.AddUndirectedEdge(k, 2, 0, weight_to_a);
  b.AddUndirectedEdge(k, 2, 1, weight_to_b);
  b.AddFeature(0, 0, 1.0);
  b.AddFeature(3, 0, 1.0);
  b.AddFeature(1, 1, 1.0);
  b.AddFeature(4, 1, 1.0);
  b.AddFeature(2, 0, 1.0);
  b.AddFeature(2, 1, 1.0);  // contested node looks like both
  b.SetLabel(0, 0);
  b.SetLabel(1, 1);
  b.SetLabel(3, 0);
  b.SetLabel(4, 1);
  b.SetLabel(2, 0);  // ground truth irrelevant here
  return std::move(b).Build();
}

TEST(WeightedHinTest, HeavierEdgeWinsTheContestedNode) {
  const std::vector<std::size_t> labeled = {0, 1};
  core::TMarkConfig config;
  config.gamma = 0.0;  // isolate the link signal
  {
    core::TMarkClassifier clf(config);
    clf.Fit(ContestedHin(5.0, 1.0), labeled);
    EXPECT_EQ(clf.PredictSingleLabel()[2], 0u);  // pulled toward A
  }
  {
    core::TMarkClassifier clf(config);
    clf.Fit(ContestedHin(1.0, 5.0), labeled);
    EXPECT_EQ(clf.PredictSingleLabel()[2], 1u);  // pulled toward B
  }
}

TEST(WeightedHinTest, WeightsChangeTransitionProbabilities) {
  const hin::Hin hin = ContestedHin(3.0, 1.0);
  const tensor::TransitionTensors t =
      tensor::TransitionTensors::Build(hin.relations());
  // Column j = 2 (walking out of the contested node): 3:1 split between the
  // anchors (nodes 0 and 1).
  EXPECT_DOUBLE_EQ(t.OEntry(0, 2, 0), 0.75);
  EXPECT_DOUBLE_EQ(t.OEntry(1, 2, 0), 0.25);
}

TEST(WeightedHinTest, DuplicateEdgesAccumulateLikeWeights) {
  // Adding the same unit edge three times equals one weight-3 edge.
  hin::HinBuilder b1(3, 1);
  b1.AddClass("A");
  const std::size_t k1 = b1.AddRelation("r");
  for (int rep = 0; rep < 3; ++rep) b1.AddDirectedEdge(k1, 0, 1);
  b1.AddDirectedEdge(k1, 2, 1);
  const hin::Hin three_edges = std::move(b1).Build();

  hin::HinBuilder b2(3, 1);
  b2.AddClass("A");
  const std::size_t k2 = b2.AddRelation("r");
  b2.AddDirectedEdge(k2, 0, 1, 3.0);
  b2.AddDirectedEdge(k2, 2, 1);
  const hin::Hin weighted = std::move(b2).Build();

  EXPECT_DOUBLE_EQ(three_edges.relation(0).ToDense().MaxAbsDiff(
                       weighted.relation(0).ToDense()),
                   0.0);
}

}  // namespace
}  // namespace tmark
