// Determinism integration tests: a T-Mark fit must produce bit-identical
// confidences, link importances, and residual traces at every thread count
// (TMARK_NUM_THREADS=1 vs 8), and the chunked scatter kernels must be
// exactly reproducible across thread counts on inputs large enough to
// split into multiple chunks.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "tmark/common/random.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/parallel/thread_pool.h"

namespace tmark {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetNumThreads(0); }
};

hin::Hin MakeTestHin() {
  datasets::SyntheticHinConfig config;
  config.num_nodes = 220;
  config.class_names = {"A", "B", "C", "D"};
  config.relations = {{"r0", 0.85, 0.0, 3.0, {}, false},
                      {"r1", 0.6, 0.2, 2.0, {}, true}};
  config.seed = 99;
  return datasets::GenerateSyntheticHin(config);
}

std::vector<std::size_t> EveryThird(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) labeled.push_back(i);
  return labeled;
}

TEST(ParallelFitTest, SerialAndParallelFitsAreBitIdentical) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  parallel::SetNumThreads(1);
  core::TMarkClassifier serial_clf;
  serial_clf.Fit(hin, labeled);

  parallel::SetNumThreads(8);
  core::TMarkClassifier parallel_clf;
  parallel_clf.Fit(hin, labeled);

  EXPECT_DOUBLE_EQ(
      serial_clf.Confidences().MaxAbsDiff(parallel_clf.Confidences()), 0.0);
  EXPECT_DOUBLE_EQ(
      serial_clf.LinkImportance().MaxAbsDiff(parallel_clf.LinkImportance()),
      0.0);
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    EXPECT_EQ(serial_clf.RankRelationsForClass(c),
              parallel_clf.RankRelationsForClass(c));
  }

  ASSERT_EQ(serial_clf.Traces().size(), parallel_clf.Traces().size());
  for (std::size_t c = 0; c < serial_clf.Traces().size(); ++c) {
    const core::ConvergenceTrace& s = serial_clf.Traces()[c];
    const core::ConvergenceTrace& p = parallel_clf.Traces()[c];
    EXPECT_EQ(s.class_index, c);
    EXPECT_EQ(p.class_index, c);
    EXPECT_EQ(s.converged, p.converged);
    ASSERT_EQ(s.residuals.size(), p.residuals.size());
    for (std::size_t t = 0; t < s.residuals.size(); ++t) {
      EXPECT_EQ(s.residuals[t], p.residuals[t]);  // exact, not approximate
    }
  }
}

TEST(ParallelFitTest, ScatterKernelIsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // Large enough that TransposeMatMulPanel splits into several chunks.
  constexpr std::size_t kRows = 40000;
  constexpr std::size_t kCols = 900;
  Rng rng(7);
  std::vector<la::Triplet> trips;
  trips.reserve(kRows * 3);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (int e = 0; e < 3; ++e) {
      trips.push_back({static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(rng.UniformInt(kCols)),
                       rng.Uniform()});
    }
  }
  const la::SparseMatrix m =
      la::SparseMatrix::FromTriplets(kRows, kCols, std::move(trips));
  la::Vector x(kRows);
  for (double& v : x) v = rng.Uniform() * 2.0 - 1.0;
  la::DenseMatrix xp(kRows, 1);
  la::SetColumn(x, 0, &xp);
  la::PanelWorkspace ws;

  parallel::SetNumThreads(1);
  la::DenseMatrix serial(kCols, 1);
  m.TransposeMatMulPanel(xp, 1, &serial, &ws);
  const double serial_bilinear = m.Bilinear(x, la::Vector(kCols, 0.5));
  parallel::SetNumThreads(8);
  la::DenseMatrix parallel8(kCols, 1);
  m.TransposeMatMulPanel(xp, 1, &parallel8, &ws);
  const double parallel_bilinear = m.Bilinear(x, la::Vector(kCols, 0.5));

  for (std::size_t c = 0; c < kCols; ++c) {
    EXPECT_EQ(serial.At(c, 0), parallel8.At(c, 0)) << "column " << c;
  }
  EXPECT_EQ(serial_bilinear, parallel_bilinear);
}

}  // namespace
}  // namespace tmark
