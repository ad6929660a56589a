// Golden bit-identity tests for the batched fit engine: a batched Fit must
// equal the per-class Fit (which parallel_fit_test.cc already pins to the
// seed serial results) bit for bit — exact ==, no tolerance — across every
// similarity kernel, thread counts {1, 4}, warm starts, ICA on/off,
// multi-chunk reductions, and iteration-capped (unconverged) runs.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/hin_builder.h"
#include "tmark/hin/similarity_kernel.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/parallel/parallel_for.h"
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

// A HIN with exactly q classes. The synthetic generator requires q >= 2, so
// the single-class case (pure scalar-tail panel width) is built by hand:
// a ring + chords over two relations with simple planted features.
hin::Hin MakeHinWithClasses(std::size_t q) {
  if (q >= 2) {
    datasets::SyntheticHinConfig gen;
    gen.num_nodes = 150;
    for (std::size_t c = 0; c < q; ++c) {
      gen.class_names.push_back("class" + std::to_string(c));
    }
    gen.relations = {{"r0", 0.85, 0.0, 3.0, {}, false},
                     {"r1", 0.6, 0.2, 2.0, {}, true}};
    gen.seed = 400 + q;
    return datasets::GenerateSyntheticHin(gen);
  }
  constexpr std::size_t n = 60;
  constexpr std::size_t d = 12;
  hin::HinBuilder builder(n, d);
  builder.AddClass("only");
  const std::size_t r0 = builder.AddRelation("ring");
  const std::size_t r1 = builder.AddRelation("chords");
  for (std::size_t i = 0; i < n; ++i) {
    builder.AddUndirectedEdge(r0, i, (i + 1) % n);
    builder.AddDirectedEdge(r1, i, (i * 7 + 3) % n, 1.0 + (i % 3) * 0.5);
    builder.AddFeature(i, i % d, 2.0);
    builder.AddFeature(i, (i * 5 + 1) % d, 1.0);
    builder.SetLabel(i, 0);
  }
  return std::move(builder).Build();
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
  std::vector<std::vector<std::size_t>> rankings;
};

FitOutputs RunFit(const hin::Hin& hin, const std::vector<std::size_t>& labeled,
                  const core::TMarkConfig& config, int threads,
                  bool warm_refit) {
  parallel::SetNumThreads(threads);
  core::TMarkClassifier clf(config);
  clf.Fit(hin, labeled);
  if (warm_refit) clf.Refit(hin, labeled);
  FitOutputs out{clf.Confidences(), clf.LinkImportance(), clf.Traces(), {}};
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    out.rankings.push_back(clf.RankRelationsForClass(c));
  }
  return out;
}

void ExpectBitIdentical(const FitOutputs& golden, const FitOutputs& other) {
  EXPECT_DOUBLE_EQ(golden.confidences.MaxAbsDiff(other.confidences), 0.0);
  EXPECT_DOUBLE_EQ(golden.link_importance.MaxAbsDiff(other.link_importance),
                   0.0);
  EXPECT_EQ(golden.rankings, other.rankings);
  ASSERT_EQ(golden.traces.size(), other.traces.size());
  for (std::size_t c = 0; c < golden.traces.size(); ++c) {
    const core::ConvergenceTrace& g = golden.traces[c];
    const core::ConvergenceTrace& o = other.traces[c];
    EXPECT_EQ(g.class_index, o.class_index);
    EXPECT_EQ(g.converged, o.converged);
    ASSERT_EQ(g.residuals.size(), o.residuals.size()) << "class " << c;
    for (std::size_t t = 0; t < g.residuals.size(); ++t) {
      EXPECT_EQ(g.residuals[t], o.residuals[t])  // exact, not approximate
          << "class " << c << " iteration " << t;
    }
  }
}

TEST(BatchedFitTest, MatchesPerClassAcrossKernelsAndThreadCounts) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  for (const hin::SimilarityKernel kernel :
       {hin::SimilarityKernel::kCosine, hin::SimilarityKernel::kBinaryCosine,
        hin::SimilarityKernel::kTfIdfCosine,
        hin::SimilarityKernel::kDotProduct}) {
    SCOPED_TRACE("kernel " + hin::ToString(kernel));
    core::TMarkConfig per_class;
    per_class.similarity = kernel;
    per_class.fit_mode = core::FitMode::kPerClass;
    core::TMarkConfig batched = per_class;
    batched.fit_mode = core::FitMode::kBatched;

    const FitOutputs golden = RunFit(hin, labeled, per_class, 1, false);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectBitIdentical(golden, RunFit(hin, labeled, batched, threads, false));
    }
    // The per-class engine at 4 threads must also still hit the golden
    // serial results (regression guard alongside parallel_fit_test.cc).
    ExpectBitIdentical(golden, RunFit(hin, labeled, per_class, 4, false));
  }
}

// Large enough that the z-update reductions split into several
// kBilinearReduceGrain-row chunks, so the ordered fold of their partials,
// run on 4 threads, is pinned to the per-class engine too.
TEST(BatchedFitTest, MultiChunkReductionsMatchPerClass) {
  ThreadCountGuard guard;
  datasets::SyntheticHinConfig config;
  config.num_nodes = 800;
  config.class_names = {"A", "B", "C", "D"};
  config.relations = {{"r0", 0.85, 0.0, 3.0, {}, false},
                      {"r1", 0.6, 0.2, 2.0, {}, true}};
  config.seed = 123;
  const hin::Hin hin = datasets::GenerateSyntheticHin(config);
  ASSERT_GT(parallel::NumFixedChunks(hin.num_nodes(),
                                     la::SparseMatrix::kBilinearReduceGrain),
            1u);
  const std::vector<std::size_t> labeled = EveryThird(hin);

  core::TMarkConfig per_class;
  per_class.fit_mode = core::FitMode::kPerClass;
  core::TMarkConfig batched = per_class;
  batched.fit_mode = core::FitMode::kBatched;

  const FitOutputs golden = RunFit(hin, labeled, per_class, 1, false);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, batched, threads, false));
    ExpectBitIdentical(golden, RunFit(hin, labeled, per_class, threads, false));
  }
}

TEST(BatchedFitTest, MatchesPerClassWithIcaDisabled) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  core::TMarkConfig per_class;
  per_class.ica_update = false;  // TensorRrCc mode: no restart refresh.
  per_class.fit_mode = core::FitMode::kPerClass;
  core::TMarkConfig batched = per_class;
  batched.fit_mode = core::FitMode::kBatched;

  const FitOutputs golden = RunFit(hin, labeled, per_class, 1, false);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, batched, threads, false));
  }
}

TEST(BatchedFitTest, WarmStartRefitIsBitIdentical) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  core::TMarkConfig per_class;
  per_class.fit_mode = core::FitMode::kPerClass;
  core::TMarkConfig batched = per_class;
  batched.fit_mode = core::FitMode::kBatched;

  // Refit seeds every chain from the previous stationary panel; warm traces
  // are short (a handful of iterations), which exercises the early-retire
  // compaction path of the batched engine.
  const FitOutputs golden = RunFit(hin, labeled, per_class, 1, true);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, batched, threads, true));
  }
}

// Class counts chosen to hit every micro-kernel tail shape: q=1 (pure scalar
// tail), 2, 3 (2+1), 5 (4+1), 7 (4+2+1), and 9 (one 8-block + scalar tail).
// The blocked SIMD panel kernels must stay bit-identical to the per-class
// engine at every width, including the odd ones.
TEST(BatchedFitTest, OddAndTailClassWidthsMatchPerClass) {
  ThreadCountGuard guard;
  for (const std::size_t q : {1u, 2u, 3u, 5u, 7u, 9u}) {
    SCOPED_TRACE("classes " + std::to_string(q));
    const hin::Hin hin = MakeHinWithClasses(q);
    const std::vector<std::size_t> labeled = EveryThird(hin);

    core::TMarkConfig per_class;
    per_class.fit_mode = core::FitMode::kPerClass;
    core::TMarkConfig batched = per_class;
    batched.fit_mode = core::FitMode::kBatched;

    const FitOutputs golden = RunFit(hin, labeled, per_class, 1, false);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectBitIdentical(golden, RunFit(hin, labeled, batched, threads, false));
    }
  }
}

TEST(BatchedFitTest, IterationCappedUnconvergedRunsMatch) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  // Cap the iterations so no class converges: every column survives to the
  // end of the panel loop and is written out by the post-loop path.
  core::TMarkConfig per_class;
  per_class.max_iterations = 4;
  per_class.epsilon = 1e-300;
  per_class.fit_mode = core::FitMode::kPerClass;
  core::TMarkConfig batched = per_class;
  batched.fit_mode = core::FitMode::kBatched;

  const FitOutputs golden = RunFit(hin, labeled, per_class, 1, false);
  for (const core::ConvergenceTrace& trace : golden.traces) {
    EXPECT_FALSE(trace.converged);
    EXPECT_EQ(trace.residuals.size(), 4u);
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, batched, threads, false));
  }
}

}  // namespace
}  // namespace tmark
