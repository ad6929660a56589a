// Golden bit-identity tests for the panel fixed-point engine: a Fit, which
// runs all q classes as the columns of one core::PanelFixedPoint, must equal
// each class run alone at width 1 through the same engine, with the same
// label restart and ICA refresh, bit for bit — exact ==, no tolerance —
// across every similarity kernel, thread counts {1, 4}, warm starts, ICA
// on/off, multi-chunk reductions, odd and tail panel widths, and
// iteration-capped (unconverged) runs.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "tmark/core/panel_fixed_point.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/hin_builder.h"
#include "tmark/hin/label_vector.h"
#include "tmark/hin/similarity_kernel.h"
#include "tmark/la/panel.h"
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

/// One engine panel whose chain s carries class classes[s], with the fit's
/// label restart and ICA refresh (Eq. 12). Chain s starts from
/// starts[s]'s stationary columns when that is non-null (a warm start, as
/// Refit does) and cold otherwise. Writes each class's outputs into *out.
void RunChains(const hin::Hin& hin, const std::vector<std::size_t>& labeled,
               const core::TMarkConfig& config,
               const core::PreparedOperators& ops,
               const std::vector<std::size_t>& classes,
               const std::vector<const FitOutputs*>& starts, FitOutputs* out) {
  const std::size_t n = hin.num_nodes();
  const std::size_t m = hin.num_relations();
  core::PanelFixedPoint engine;
  engine.Reset(n, m, classes.size());
  for (std::size_t s = 0; s < classes.size(); ++s) {
    const std::size_t c = classes[s];
    const la::Vector l = hin::InitialLabelVector(hin, labeled, c);
    la::SetColumn(l, s, &engine.restart());
    if (starts[s] != nullptr) {
      la::SetColumn(starts[s]->confidences.Col(c), s, &engine.start_x());
      la::SetColumn(starts[s]->link_importance.Col(c), s, &engine.start_z());
    } else {
      la::SetColumn(l, s, &engine.start_x());
      la::SetColumn(la::UniformProbability(m), s, &engine.start_z());
    }
  }
  core::PanelFixedPoint::Options options;
  options.alpha = config.alpha;
  options.beta = config.beta();
  options.epsilon = config.epsilon;
  options.max_iterations = config.max_iterations;
  la::Vector x_col;
  la::Vector l_col;
  std::vector<bool> known;
  core::PanelFixedPoint::Refresh ica;
  if (config.ica_update) {
    ica = [&](std::size_t chain, const la::DenseMatrix& x, std::size_t slot,
              la::DenseMatrix* restart) {
      la::ExtractColumn(x, slot, &x_col);
      hin::UpdatedLabelVectorInto(hin, labeled, classes[chain], x_col,
                                  config.lambda, &l_col, &known);
      la::SetColumn(l_col, slot, restart);
    };
  }
  engine.Run(
      ops, options,
      [&](std::size_t chain, const la::DenseMatrix& x, const la::DenseMatrix& z,
          std::size_t slot) {
        const std::size_t c = classes[chain];
        for (std::size_t i = 0; i < n; ++i) {
          out->confidences.At(i, c) = x.At(i, slot);
        }
        for (std::size_t k = 0; k < m; ++k) {
          out->link_importance.At(k, c) = z.At(k, slot);
        }
      },
      ica);
  for (std::size_t s = 0; s < classes.size(); ++s) {
    core::ConvergenceTrace& trace = out->traces[classes[s]];
    trace.class_index = classes[s];
    trace.residuals = engine.residuals(s);
    trace.converged = engine.converged(s);
  }
}

FitOutputs EmptyOutputs(const hin::Hin& hin) {
  return {la::DenseMatrix(hin.num_nodes(), hin.num_classes()),
          la::DenseMatrix(hin.num_relations(), hin.num_classes()),
          std::vector<core::ConvergenceTrace>(hin.num_classes()),
          {}};
}

void AddRankings(FitOutputs* out) {
  for (std::size_t c = 0; c < out->link_importance.cols(); ++c) {
    out->rankings.push_back(
        la::ArgSortDescending(out->link_importance.Col(c)));
  }
}

/// The golden run: every class alone, as a width-1 chain of the engine.
/// `warm` (optional) seeds each chain from a previous fit's stationary
/// columns, as Refit does.
FitOutputs RunEachClassAlone(const hin::Hin& hin,
                             const std::vector<std::size_t>& labeled,
                             const core::TMarkConfig& config, int threads,
                             const FitOutputs* warm = nullptr) {
  parallel::SetNumThreads(threads);
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, config.similarity);
  FitOutputs out = EmptyOutputs(hin);
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    RunChains(hin, labeled, config, ops, {c}, {warm}, &out);
  }
  AddRankings(&out);
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
    core::TMarkConfig config;
    config.similarity = kernel;

    const FitOutputs golden = RunEachClassAlone(hin, labeled, config, 1);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, false));
    }
    // The width-1 runs at 4 threads must also still hit the serial golden.
    ExpectBitIdentical(golden, RunEachClassAlone(hin, labeled, config, 4));
  }
}

// Large enough that the z-update reductions split into several
// kBilinearReduceGrain-row chunks, so the ordered fold of their partials,
// run on 4 threads, is pinned to the width-1 runs too.
TEST(BatchedFitTest, MultiChunkReductionsMatchPerClass) {
  ThreadCountGuard guard;
  datasets::SyntheticHinConfig generator;
  generator.num_nodes = 800;
  generator.class_names = {"A", "B", "C", "D"};
  generator.relations = {{"r0", 0.85, 0.0, 3.0, {}, false},
                         {"r1", 0.6, 0.2, 2.0, {}, true}};
  generator.seed = 123;
  const hin::Hin hin = datasets::GenerateSyntheticHin(generator);
  ASSERT_GT(parallel::NumFixedChunks(hin.num_nodes(),
                                     la::SparseMatrix::kBilinearReduceGrain),
            1u);
  const std::vector<std::size_t> labeled = EveryThird(hin);
  const core::TMarkConfig config;

  const FitOutputs golden = RunEachClassAlone(hin, labeled, config, 1);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, false));
    ExpectBitIdentical(golden,
                       RunEachClassAlone(hin, labeled, config, threads));
  }
}

TEST(BatchedFitTest, MatchesPerClassWithIcaDisabled) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  core::TMarkConfig config;
  config.ica_update = false;  // TensorRrCc mode: no restart refresh.

  const FitOutputs golden = RunEachClassAlone(hin, labeled, config, 1);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, false));
  }
}

TEST(BatchedFitTest, WarmStartRefitIsBitIdentical) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);
  const core::TMarkConfig config;

  // Refit seeds every chain from the previous stationary panel; warm traces
  // are short (a handful of iterations), which exercises the early-retire
  // compaction path of the engine.
  const FitOutputs cold = RunEachClassAlone(hin, labeled, config, 1);
  const FitOutputs golden = RunEachClassAlone(hin, labeled, config, 1, &cold);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, true));
  }
}

// Class counts chosen to hit every micro-kernel tail shape: q=1 (pure scalar
// tail), 2, 3 (2+1), 5 (4+1), 7 (4+2+1), and 9 (one 8-block + scalar tail).
// The blocked SIMD panel kernels must give every column the bits of its
// width-1 run at every width, including the odd ones.
TEST(BatchedFitTest, OddAndTailClassWidthsMatchPerClass) {
  ThreadCountGuard guard;
  for (const std::size_t q : {1u, 2u, 3u, 5u, 7u, 9u}) {
    SCOPED_TRACE("classes " + std::to_string(q));
    const hin::Hin hin = MakeHinWithClasses(q);
    const std::vector<std::size_t> labeled = EveryThird(hin);
    const core::TMarkConfig config;

    const FitOutputs golden = RunEachClassAlone(hin, labeled, config, 1);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, false));
    }
  }
}

// Chains that retire at different iterations: class 0 starts at its own
// stationary columns while the others start cold. With ICA off class 0
// retires first, so the engine compacts the last active column into its
// slot while the rest run on (a restart column left behind by the
// compaction would show); with ICA on the raw label restart of the first
// two iterations pulls it off that point and it retires last. Every chain
// must still equal its width-1 run.
TEST(BatchedFitTest, StaggeredRetirementMatchesPerClass) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);
  const std::size_t q = hin.num_classes();
  std::vector<std::size_t> all(q);
  for (std::size_t c = 0; c < q; ++c) all[c] = c;

  for (const bool ica_update : {false, true}) {
    SCOPED_TRACE(ica_update ? "ICA on" : "ICA off");
    core::TMarkConfig config;
    config.ica_update = ica_update;
    const FitOutputs cold = RunEachClassAlone(hin, labeled, config, 1);
    std::vector<const FitOutputs*> starts(q, nullptr);
    starts[0] = &cold;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      parallel::SetNumThreads(threads);
      const core::PreparedOperators ops =
          core::PreparedOperators::Build(hin, config.similarity);
      FitOutputs golden = EmptyOutputs(hin);
      for (std::size_t c = 0; c < q; ++c) {
        RunChains(hin, labeled, config, ops, {c}, {starts[c]}, &golden);
      }
      AddRankings(&golden);
      FitOutputs panel = EmptyOutputs(hin);
      RunChains(hin, labeled, config, ops, all, starts, &panel);
      AddRankings(&panel);
      ASSERT_NE(golden.traces[0].residuals.size(),
                golden.traces[1].residuals.size());
      ExpectBitIdentical(golden, panel);
    }
  }
}

TEST(BatchedFitTest, IterationCappedUnconvergedRunsMatch) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  // Cap the iterations so no class converges: every column survives to the
  // end of the panel loop and is written out by the post-loop path.
  core::TMarkConfig config;
  config.max_iterations = 4;
  config.epsilon = 1e-300;

  const FitOutputs golden = RunEachClassAlone(hin, labeled, config, 1);
  for (const core::ConvergenceTrace& trace : golden.traces) {
    EXPECT_FALSE(trace.converged);
    EXPECT_EQ(trace.residuals.size(), 4u);
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, false));
  }
}

}  // namespace
}  // namespace tmark
