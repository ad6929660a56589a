// End-to-end cost of T-Mark, validating the O(q T D) analysis of Sec. 4.5
// and the ablation of the design choices called out in DESIGN.md:
//   * runtime scales linearly in nodes (D ~ n for fixed density),
//   * linearly in the number of classes q,
//   * the ICA update (T-Mark) costs little over TensorRrCc,
//   * one width-q fit (all classes as the columns of the panel fixed-point
//     engine) costs less than q width-1 fits, each class alone
//     (docs/PERFORMANCE.md; gated by scripts/check_fit_engine.py).
//
// Besides the google-benchmark timings, main() always runs the width
// comparison on the DBLP synthetic preset and records it as the
// "fit-engine comparison" table of the TMARK_BENCH_JSON dump — run with
// --benchmark_filter=^$ to get just that section.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"

#include "tmark/common/string_util.h"
#include "tmark/core/panel_fixed_point.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/core/tensor_rrcc.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/presets.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/eval/experiment.h"
#include "tmark/hin/label_vector.h"
#include "tmark/la/panel.h"

namespace {

using namespace tmark;

hin::Hin MakeHin(std::size_t n, std::size_t q, std::uint64_t seed) {
  datasets::SyntheticHinConfig config;
  config.num_nodes = n;
  for (std::size_t c = 0; c < q; ++c) {
    config.class_names.push_back("C" + std::to_string(c));
  }
  config.vocab_size = 40 * q;
  config.words_per_node = 15.0;
  config.feature_signal = 0.75;
  config.seed = seed;
  for (int k = 0; k < 4; ++k) {
    datasets::RelationSpec spec;
    spec.name = "r" + std::to_string(k);
    spec.same_class_prob = 0.8;
    spec.edges_per_member = 3.0;
    config.relations.push_back(spec);
  }
  return datasets::GenerateSyntheticHin(config);
}

std::vector<std::size_t> ThirdLabeled(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) labeled.push_back(i);
  return labeled;
}

void BM_TMarkFit_Nodes(benchmark::State& state) {
  const hin::Hin hin =
      MakeHin(static_cast<std::size_t>(state.range(0)), 3, 51);
  const auto labeled = ThirdLabeled(hin);
  for (auto _ : state) {
    core::TMarkClassifier clf;
    clf.Fit(hin, labeled);
    benchmark::DoNotOptimize(clf.Confidences());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(hin.NumLinks()));
}
BENCHMARK(BM_TMarkFit_Nodes)->Arg(250)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_TMarkFit_Classes(benchmark::State& state) {
  const hin::Hin hin =
      MakeHin(600, static_cast<std::size_t>(state.range(0)), 53);
  const auto labeled = ThirdLabeled(hin);
  for (auto _ : state) {
    core::TMarkClassifier clf;
    clf.Fit(hin, labeled);
    benchmark::DoNotOptimize(clf.Confidences());
  }
}
BENCHMARK(BM_TMarkFit_Classes)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TensorRrCcFit(benchmark::State& state) {
  // Ablation: T-Mark without the ICA update (the ICDM'17 predecessor).
  const hin::Hin hin =
      MakeHin(static_cast<std::size_t>(state.range(0)), 3, 51);
  const auto labeled = ThirdLabeled(hin);
  for (auto _ : state) {
    core::TensorRrCcClassifier clf;
    clf.Fit(hin, labeled);
    benchmark::DoNotOptimize(clf.Confidences());
  }
}
BENCHMARK(BM_TensorRrCcFit)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_StratifiedSplit(benchmark::State& state) {
  const hin::Hin hin = MakeHin(2000, 4, 55);
  Rng rng(57);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::StratifiedSplit(hin, 0.3, &rng));
  }
}
BENCHMARK(BM_StratifiedSplit);

/// One cold fit, width q: all classes as the columns of one engine.
/// Returns the column iterations.
std::size_t FitAllClasses(const hin::Hin& hin,
                          const std::vector<std::size_t>& labeled,
                          const core::PreparedOperators& ops,
                          const core::TMarkConfig& config) {
  core::TMarkClassifier clf(config);
  clf.Fit(hin, ops, labeled);
  benchmark::DoNotOptimize(clf.Confidences());
  std::size_t iterations = 0;
  for (const core::ConvergenceTrace& trace : clf.Traces()) {
    iterations += trace.residuals.size();
  }
  return iterations;
}

/// Class `c` of the same cold fit alone, width 1: one engine chain with the
/// fit's label restart and ICA refresh. Returns its iterations.
std::size_t FitClassAlone(const hin::Hin& hin,
                          const std::vector<std::size_t>& labeled,
                          const core::PreparedOperators& ops,
                          const core::TMarkConfig& config, std::size_t c) {
  obs::ScopedTimer timer(bench::kWidth1FitHistogram);
  const std::size_t n = hin.num_nodes();
  const std::size_t m = hin.num_relations();
  core::PanelFixedPoint engine;
  engine.Reset(n, m, 1);
  const la::Vector l = hin::InitialLabelVector(hin, labeled, c);
  la::SetColumn(l, 0, &engine.restart());
  la::SetColumn(l, 0, &engine.start_x());
  la::SetColumn(la::UniformProbability(m), 0, &engine.start_z());
  core::PanelFixedPoint::Options options;
  options.alpha = config.alpha;
  options.beta = config.beta();
  options.epsilon = config.epsilon;
  options.max_iterations = config.max_iterations;
  options.phase_timers = true;
  la::Vector x_col, l_col;
  std::vector<bool> known;
  const core::PanelFixedPoint::Refresh ica =
      [&](std::size_t, const la::DenseMatrix& x, std::size_t slot,
          la::DenseMatrix* restart) {
        la::ExtractColumn(x, slot, &x_col);
        hin::UpdatedLabelVectorInto(hin, labeled, c, x_col, config.lambda,
                                    &l_col, &known);
        la::SetColumn(l_col, slot, restart);
      };
  la::Vector confidences;
  engine.Run(
      ops, options,
      [&](std::size_t, const la::DenseMatrix& x, const la::DenseMatrix&,
          std::size_t slot) { la::ExtractColumn(x, slot, &confidences); },
      ica);
  benchmark::DoNotOptimize(confidences.data());
  return engine.residuals(0).size();
}

/// The width comparison on the DBLP synthetic preset with prebuilt
/// operators: one width-q fit (all q classes in one panel) against q
/// width-1 fits (each class alone), recorded as a table in the
/// TMARK_BENCH_JSON dump. The width-q fit and the q width-1 fits alternate
/// within this process (bench::TimeAlternating); the gate compares medians.
/// Every column is bit-identical at any width, so the iteration counts
/// agree.
void RunFitEngineComparison() {
  datasets::PresetOptions preset;
  const hin::Hin hin = *datasets::MakePreset("dblp", preset);
  const auto labeled = ThirdLabeled(hin);
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
  const core::TMarkConfig config;
  const std::size_t q = hin.num_classes();

  // Side 0 is the width-q fit, side 1 + c class c alone.
  std::size_t width_q_iterations = 0;
  std::vector<std::size_t> width_1_iterations(q);
  std::vector<std::function<void()>> sides = {
      [&] { width_q_iterations = FitAllClasses(hin, labeled, ops, config); }};
  for (std::size_t c = 0; c < q; ++c) {
    sides.push_back([&, c] {
      width_1_iterations[c] = FitClassAlone(hin, labeled, ops, config, c);
    });
  }
  const std::vector<std::vector<double>> ms = bench::TimeAlternating(sides);

  const std::string threads = std::to_string(parallel::NumThreads());
  const std::string host_cores =
      std::to_string(std::thread::hardware_concurrency());
  std::vector<std::string> headers = {"engine",     "class",
                                      "threads",    "host_cores",
                                      "fit_ms_min", "fit_ms_median",
                                      "iterations"};
  eval::TablePrinter table(headers);
  std::vector<std::vector<std::string>> rows;
  const auto add_row = [&](const std::string& engine, const std::string& cls,
                           const std::vector<double>& runs,
                           std::size_t iterations) {
    std::vector<std::string> row = {
        engine,
        cls,
        threads,
        host_cores,
        FormatDouble(*std::min_element(runs.begin(), runs.end()), 3),
        FormatDouble(bench::Median(runs), 3),
        std::to_string(iterations)};
    rows.push_back(row);
    table.AddRow(std::move(row));
  };
  add_row("width_q", "all", ms[0], width_q_iterations);
  for (std::size_t c = 0; c < q; ++c) {
    add_row("width_1", std::to_string(c), ms[1 + c], width_1_iterations[c]);
  }
  std::cout << "fit-engine comparison (dblp synthetic preset, "
            << hin.num_nodes() << " nodes, " << q
            << " classes, prebuilt operators; one width-q fit vs each class "
               "alone at width 1, alternating, "
            << ms[0].size() << " rounds)\n";
  table.Print(std::cout);
  if (bench::BenchObsSession* session = bench::BenchObsSession::active()) {
    session->RecordTable(
        {"fit-engine comparison", std::move(headers), std::move(rows)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  tmark::bench::BenchObsSession obs_session(argv[0]);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RunFitEngineComparison();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
