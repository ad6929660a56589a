#include "tmark/hin/feature_similarity.h"

#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "tmark/common/check.h"
#include "tmark/common/random.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/vector_ops.h"

namespace tmark::hin {
namespace {

la::SparseMatrix RandomFeatures(std::size_t n, std::size_t d, double density,
                                Rng* rng) {
  std::vector<la::Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      if (rng->Bernoulli(density)) {
        trips.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j),
                         rng->Uniform(0.1, 3.0)});
      }
    }
  }
  return la::SparseMatrix::FromTriplets(n, d, std::move(trips));
}

// Panels two columns wider than the width under test, so a kernel that
// read or wrote past the leading `width` columns, or mixed up the column
// stride with the width, would show.
constexpr std::size_t kExtraColumns = 2;

TEST(FeatureSimilarityTest, CosineOfIdenticalRowsIsOne) {
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 2.0}, {0, 2, 1.0}, {1, 0, 4.0}, {1, 2, 2.0}});
  const FeatureSimilarity sim = FeatureSimilarity::Build(f);
  EXPECT_NEAR(sim.Cosine(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(sim.Cosine(0, 0), 1.0, 1e-12);
}

TEST(FeatureSimilarityTest, CosineOfOrthogonalRowsIsZero) {
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {1, 1, 5.0}});
  const FeatureSimilarity sim = FeatureSimilarity::Build(f);
  EXPECT_DOUBLE_EQ(sim.Cosine(0, 1), 0.0);
}

TEST(FeatureSimilarityTest, CosineMatchesClosedForm) {
  // f0 = (1, 1), f1 = (1, 0) -> cos = 1/sqrt(2).
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  const FeatureSimilarity sim = FeatureSimilarity::Build(f);
  EXPECT_NEAR(sim.Cosine(0, 1), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(FeatureSimilarityTest, DenseColumnsAreStochastic) {
  Rng rng(5);
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(RandomFeatures(9, 6, 0.5, &rng));
  const la::DenseMatrix w = sim.Dense();
  const la::Vector sums = w.ColumnSums();
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-10);
}

TEST(FeatureSimilarityTest, ApplyMatchesDense) {
  Rng rng(6);
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(RandomFeatures(11, 7, 0.4, &rng));
  const la::DenseMatrix dense = sim.Dense();
  for (const std::size_t width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::size_t stride = width + kExtraColumns;
    la::DenseMatrix x(11, stride);
    for (std::size_t i = 0; i < 11; ++i) {
      for (std::size_t c = 0; c < stride; ++c) {
        x.At(i, c) = rng.Uniform(0.0, 1.0);
      }
    }
    la::DenseMatrix y(11, stride, -1.0);
    la::PanelWorkspace ws;
    sim.ApplyPanel(x, width, &y, &ws);
    for (std::size_t c = 0; c < stride; ++c) {
      if (c >= width) {
        for (std::size_t i = 0; i < 11; ++i) EXPECT_EQ(y.At(i, c), -1.0);
        continue;
      }
      const la::Vector slow = dense.MatVec(x.Col(c));
      for (std::size_t i = 0; i < 11; ++i) {
        EXPECT_NEAR(y.At(i, c), slow[i], 1e-10);
      }
    }
  }
}

TEST(FeatureSimilarityTest, ApplyPreservesSimplex) {
  Rng rng(7);
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(RandomFeatures(15, 8, 0.3, &rng));
  for (const std::size_t width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::size_t stride = width + kExtraColumns;
    la::DenseMatrix x(15, stride);
    for (std::size_t c = 0; c < stride; ++c) {
      la::SetColumn(la::UniformProbability(15), c, &x);
    }
    la::DenseMatrix y(15, stride);
    la::PanelWorkspace ws;
    for (int step = 0; step < 4; ++step) {
      sim.ApplyPanel(x, width, &y, &ws);
      std::swap(x, y);
      for (std::size_t c = 0; c < width; ++c) {
        EXPECT_TRUE(la::IsProbabilityVector(x.Col(c), 1e-9));
      }
    }
  }
}

TEST(FeatureSimilarityTest, ZeroFeatureNodeIsDanglingUniform) {
  // Node 2 has no features.
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      3, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  const FeatureSimilarity sim = FeatureSimilarity::Build(f);
  ASSERT_EQ(sim.dangling_nodes().size(), 1u);
  EXPECT_EQ(sim.dangling_nodes()[0], 2u);
  // All of node 2's mass is spread uniformly, in every active column.
  for (const std::size_t width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    la::DenseMatrix e(3, width + kExtraColumns);
    for (std::size_t c = 0; c < e.cols(); ++c) e.At(2, c) = 1.0;
    la::DenseMatrix y(3, e.cols());
    la::PanelWorkspace ws;
    sim.ApplyPanel(e, width, &y, &ws);
    for (std::size_t c = 0; c < width; ++c) {
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(y.At(i, c), 1.0 / 3.0, 1e-12);
      }
    }
  }
}

TEST(FeatureSimilarityTest, MatchesPaperExampleW) {
  // Sec. 4.3's W for the 4-node example: node pairs (p1, p4) and (p2, p3)
  // are identical, cross pairs orthogonal -> each column is 0.5 on the pair.
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      4, 2, {{0, 0, 1.0}, {3, 0, 1.0}, {1, 1, 1.0}, {2, 1, 1.0}});
  const la::DenseMatrix w = FeatureSimilarity::Build(f).Dense();
  const la::DenseMatrix expected = la::DenseMatrix::FromRows({
      {0.5, 0.0, 0.0, 0.5},
      {0.0, 0.5, 0.5, 0.0},
      {0.0, 0.5, 0.5, 0.0},
      {0.5, 0.0, 0.0, 0.5},
  });
  EXPECT_LT(w.MaxAbsDiff(expected), 1e-12);
}

TEST(FeatureSimilarityTest, RejectsNegativeFeatures) {
  const la::SparseMatrix f =
      la::SparseMatrix::FromTriplets(1, 1, {{0, 0, -1.0}});
  EXPECT_THROW(FeatureSimilarity::Build(f), CheckError);
}

}  // namespace
}  // namespace tmark::hin
