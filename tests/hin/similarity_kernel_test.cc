#include "tmark/hin/similarity_kernel.h"

#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "tmark/common/check.h"
#include "tmark/hin/feature_similarity.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/vector_ops.h"

namespace tmark::hin {
namespace {

TEST(SimilarityKernelTest, NamesRoundTrip) {
  for (SimilarityKernel kernel :
       {SimilarityKernel::kCosine, SimilarityKernel::kBinaryCosine,
        SimilarityKernel::kTfIdfCosine, SimilarityKernel::kDotProduct}) {
    EXPECT_EQ(SimilarityKernelFromString(ToString(kernel)), kernel);
  }
}

TEST(SimilarityKernelTest, UnknownNameThrows) {
  EXPECT_THROW(SimilarityKernelFromString("euclidean"), CheckError);
}

la::SparseMatrix CountFeatures() {
  // node 0: word0 x4; node 1: word0 x1; node 2: word1 x2, word2 x2.
  return la::SparseMatrix::FromTriplets(
      3, 3, {{0, 0, 4.0}, {1, 0, 1.0}, {2, 1, 2.0}, {2, 2, 2.0}});
}

TEST(SimilarityKernelTest, BinaryCosineIgnoresCounts) {
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(CountFeatures(), SimilarityKernel::kBinaryCosine);
  // With binarization nodes 0 and 1 are identical.
  EXPECT_NEAR(sim.Cosine(0, 1), 1.0, 1e-12);
  EXPECT_EQ(sim.kernel(), SimilarityKernel::kBinaryCosine);
}

TEST(SimilarityKernelTest, DotProductKeepsMagnitude) {
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(CountFeatures(), SimilarityKernel::kDotProduct);
  // <f0, f1> = 4, <f0, f0> = 16: magnitudes matter.
  EXPECT_NEAR(sim.Cosine(0, 1), 4.0, 1e-12);
  EXPECT_NEAR(sim.Cosine(0, 0), 16.0, 1e-12);
}

TEST(SimilarityKernelTest, TfIdfDownweightsUbiquitousWords) {
  // Word 0 appears in every document (idf small); word 1 in one document.
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      3, 2,
      {{0, 0, 1.0}, {1, 0, 1.0}, {2, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});
  const FeatureSimilarity tfidf =
      FeatureSimilarity::Build(f, SimilarityKernel::kTfIdfCosine);
  const FeatureSimilarity plain =
      FeatureSimilarity::Build(f, SimilarityKernel::kCosine);
  // Node 2 shares only the ubiquitous word with node 0 -> tf-idf similarity
  // drops below plain cosine.
  EXPECT_LT(tfidf.Cosine(0, 2), plain.Cosine(0, 2));
  // Nodes 0 and 1 share everything -> still 1 under both.
  EXPECT_NEAR(tfidf.Cosine(0, 1), 1.0, 1e-12);
}

// Panels two columns wider than the width under test, so a kernel that
// read or wrote past the leading `width` columns would show.
constexpr std::size_t kExtraColumns = 2;

TEST(SimilarityKernelTest, AllKernelsPreserveSimplex) {
  const la::SparseMatrix f = CountFeatures();
  for (SimilarityKernel kernel :
       {SimilarityKernel::kCosine, SimilarityKernel::kBinaryCosine,
        SimilarityKernel::kTfIdfCosine, SimilarityKernel::kDotProduct}) {
    const FeatureSimilarity sim = FeatureSimilarity::Build(f, kernel);
    for (const std::size_t width : {1u, 3u}) {
      SCOPED_TRACE("width " + std::to_string(width));
      const std::size_t stride = width + kExtraColumns;
      la::DenseMatrix x(3, stride);
      for (std::size_t c = 0; c < stride; ++c) {
        la::SetColumn(la::UniformProbability(3), c, &x);
      }
      la::DenseMatrix y(3, stride);
      la::PanelWorkspace ws;
      for (int step = 0; step < 3; ++step) {
        sim.ApplyPanel(x, width, &y, &ws);
        std::swap(x, y);
        for (std::size_t c = 0; c < width; ++c) {
          EXPECT_TRUE(la::IsProbabilityVector(x.Col(c), 1e-9))
              << ToString(kernel);
        }
      }
    }
  }
}

TEST(SimilarityKernelTest, ApplyMatchesDenseForAllKernels) {
  const la::SparseMatrix f = CountFeatures();
  const la::Vector columns[] = {{0.2, 0.5, 0.3}, {0.7, 0.1, 0.2},
                                {0.0, 0.0, 1.0}};
  for (SimilarityKernel kernel :
       {SimilarityKernel::kCosine, SimilarityKernel::kBinaryCosine,
        SimilarityKernel::kTfIdfCosine, SimilarityKernel::kDotProduct}) {
    const FeatureSimilarity sim = FeatureSimilarity::Build(f, kernel);
    const la::DenseMatrix dense = sim.Dense();
    for (const std::size_t width : {1u, 3u}) {
      SCOPED_TRACE("width " + std::to_string(width));
      la::DenseMatrix x(3, width + kExtraColumns);
      for (std::size_t c = 0; c < width; ++c) {
        la::SetColumn(columns[c], c, &x);
      }
      la::DenseMatrix y(3, x.cols());
      la::PanelWorkspace ws;
      sim.ApplyPanel(x, width, &y, &ws);
      for (std::size_t c = 0; c < width; ++c) {
        const la::Vector slow = dense.MatVec(columns[c]);
        for (std::size_t i = 0; i < 3; ++i) {
          EXPECT_NEAR(y.At(i, c), slow[i], 1e-10) << ToString(kernel);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tmark::hin
