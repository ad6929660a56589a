// Fixed-point properties of T-Mark (Theorems 1-3) on generated and
// degenerate HINs, across thread counts and — via the `sanitize` ctest label
// this path carries — under TSAN/ASAN builds. For each shape, seed and
// thread count, a fit on one labeled node per class must leave:
//
//   * every x and z column on the simplex: the engine re-projects after
//     each step, because the z = (sum x)^2 coupling amplifies rounding
//     error cubically per iteration;
//   * every entry finite and non-negative;
//   * the same answer, bit for bit, at 1 and at 4 threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tmark/core/tmark.h"
#include "tmark/hin/hin.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/parallel/thread_pool.h"
#include "hin_shapes.h"

namespace tmark {
namespace {

/// Every column of `p` sums to one within 1e-12, and every entry is finite
/// and non-negative.
void ExpectSimplexColumns(const la::DenseMatrix& p, const char* what) {
  for (std::size_t c = 0; c < p.cols(); ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < p.rows(); ++r) {
      const double v = p.At(r, c);
      ASSERT_TRUE(std::isfinite(v) && v >= 0.0)
          << what << "(" << r << ", " << c << ") = " << v;
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << what << " column " << c;
  }
}

bool BitIdentical(const la::DenseMatrix& a, const la::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

class FixedPointPropertyTest : public ::testing::TestWithParam<HinShape> {};

TEST_P(FixedPointPropertyTest, StaysOnTheSimplexAndAgreesAcrossThreadCounts) {
  ThreadCountGuard guard;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const hin::Hin hin = GetParam().make(seed);
    const std::vector<std::size_t> labeled = OneLabeledNodePerClass(hin);
    ASSERT_EQ(labeled.size(), hin.num_classes());
    std::vector<core::TMarkClassifier> fits(2);
    for (std::size_t t = 0; t < fits.size(); ++t) {
      const int threads = t == 0 ? 1 : 4;
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      parallel::SetNumThreads(threads);
      fits[t].Fit(hin, labeled);
      ExpectSimplexColumns(fits[t].Confidences(), "x");
      ExpectSimplexColumns(fits[t].LinkImportance(), "z");
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(BitIdentical(fits[0].Confidences(), fits[1].Confidences()));
    EXPECT_TRUE(
        BitIdentical(fits[0].LinkImportance(), fits[1].LinkImportance()));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FixedPointPropertyTest,
                         ::testing::ValuesIn(HinShapes()), HinShapeName);

}  // namespace
}  // namespace tmark
