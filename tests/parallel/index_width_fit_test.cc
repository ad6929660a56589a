// Bit-identity of the merged-view fit across offset widths: with the
// adaptive index arrays forced to 64-bit offsets (la::SetForceWideIndexArrays,
// the only way a test reaches the wide path), a fit must equal the compact
// 32-bit fit bit for bit at every thread count.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/la/index_array.h"
#include "tmark/parallel/thread_pool.h"

namespace tmark {
namespace {

// Restores every global knob the test touches, so a failing assertion
// cannot leak a forced-wide build into later tests.
struct KnobGuard {
  ~KnobGuard() {
    parallel::SetNumThreads(0);
    la::SetForceWideIndexArrays(false);
  }
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

struct FitOutputs {
  la::DenseMatrix confidences;
  la::DenseMatrix link_importance;
  std::vector<core::ConvergenceTrace> traces;
};

FitOutputs RunFit(const hin::Hin& hin, const std::vector<std::size_t>& labeled,
                  const core::TMarkConfig& config, int threads) {
  parallel::SetNumThreads(threads);
  core::TMarkClassifier clf(config);
  clf.Fit(hin, labeled);
  return {clf.Confidences(), clf.LinkImportance(), clf.Traces()};
}

void ExpectBitIdentical(const FitOutputs& golden, const FitOutputs& other) {
  EXPECT_DOUBLE_EQ(golden.confidences.MaxAbsDiff(other.confidences), 0.0);
  EXPECT_DOUBLE_EQ(golden.link_importance.MaxAbsDiff(other.link_importance),
                   0.0);
  ASSERT_EQ(golden.traces.size(), other.traces.size());
  for (std::size_t c = 0; c < golden.traces.size(); ++c) {
    const core::ConvergenceTrace& g = golden.traces[c];
    const core::ConvergenceTrace& o = other.traces[c];
    EXPECT_EQ(g.converged, o.converged);
    ASSERT_EQ(g.residuals.size(), o.residuals.size()) << "class " << c;
    for (std::size_t t = 0; t < g.residuals.size(); ++t) {
      EXPECT_EQ(g.residuals[t], o.residuals[t])  // exact, not approximate
          << "class " << c << " iteration " << t;
    }
  }
}

TEST(IndexWidthFitTest, ForcedWideIndexArraysAreBitIdentical) {
  KnobGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);
  const core::TMarkConfig config;

  const FitOutputs compact = RunFit(hin, labeled, config, 1);
  la::SetForceWideIndexArrays(true);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(compact, RunFit(hin, labeled, config, threads));
  }
}

}  // namespace
}  // namespace tmark
