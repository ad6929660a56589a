// Scaling-curve bench for the million-node regime (docs/PERFORMANCE.md
// "Scaling"): fixed-iteration fit cost and structure memory versus node
// count on the constant-average-degree synthetic family
// (datasets::ScalingSyntheticConfig — the same graphs `tmark_cli generate
// --preset synthetic:<n>` emits).
//
// Two tables go into the TMARK_BENCH_JSON dump (and stdout):
//   * "scaling curve"  — per (n, threads) fit wall time and ms/iter of the
//     index contractions on their fixed row-chunk grid, with the host's
//     core count beside the thread count. Fits are bit-identical across
//     thread counts, so iteration counts match within each n;
//     scripts/check_scaling_bench.py checks that.
//   * "scaling memory" — compact (adaptive 32-bit) vs forced-wide (64-bit)
//     bytes of the adjacency (the HIN's relation CSR matrices) and of the
//     operators (O and R: one shared index plus two value arrays), from
//     the analytic byte accounting (SparseMatrix::StructureBytes /
//     TransitionTensors::StorageBytes).
//     The analytic numbers are the gated quantity because VmHWM is monotone
//     per process; the peak-RSS column is recorded as context only.
//
// Knobs: TMARK_SCALING_NODES (comma list, default "100000,1000000") and
// TMARK_SCALING_THREADS (comma list, default "1,4"). The ctest gate runs a
// reduced TMARK_SCALING_NODES so CI stays fast; the committed
// docs/bench/perf_scaling*.json dumps use the defaults.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"

#include "tmark/common/string_util.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/la/index_array.h"
#include "tmark/obs/mem.h"
#include "tmark/tensor/transition_tensors.h"

namespace {

using namespace tmark;

std::vector<std::size_t> EnvSizeList(const char* name,
                                     std::vector<std::size_t> fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  std::vector<std::size_t> values;
  const char* p = env;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) return fallback;  // Unparsable: keep the defaults whole.
    values.push_back(static_cast<std::size_t>(v));
    p = *end == ',' ? end + 1 : end;
    if (end != p && *end != ',') return fallback;
  }
  return values.empty() ? fallback : values;
}

std::string MiB(std::size_t bytes) {
  return FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
}

/// Restores every global knob this bench sweeps.
struct KnobGuard {
  ~KnobGuard() {
    parallel::SetNumThreads(0);
    la::SetForceWideIndexArrays(false);
  }
};

struct StructureBytesReport {
  std::size_t nnz = 0;
  std::size_t adjacency_bytes = 0;  ///< The HIN's relation CSR matrices.
  std::size_t operator_bytes = 0;   ///< O and R: one index, two value arrays.
  std::size_t index_bits = 0;
};

StructureBytesReport MeasureStructures(const hin::Hin& hin) {
  const tensor::TransitionTensors tensors =
      tensor::TransitionTensors::Build(hin.relations());
  StructureBytesReport report;
  report.nnz = tensors.index().num_entries();
  for (const la::SparseMatrix& a : hin.relations()) {
    report.adjacency_bytes += a.StructureBytes();
  }
  report.operator_bytes = tensors.StorageBytes();
  report.index_bits = tensors.index().IndexBits();
  return report;
}

void RunScalingStudy() {
  KnobGuard guard;
  const std::vector<std::size_t> sizes =
      EnvSizeList("TMARK_SCALING_NODES", {100'000, 1'000'000});
  const std::vector<std::size_t> thread_counts =
      EnvSizeList("TMARK_SCALING_THREADS", {1, 4});

  const std::string host_cores =
      std::to_string(std::thread::hardware_concurrency());
  std::vector<std::string> curve_headers = {
      "n",          "threads",     "host_cores", "fit_ms",
      "iterations", "ms_per_iter", "peak_rss_mb"};
  std::vector<std::vector<std::string>> curve_rows;
  std::vector<std::string> mem_headers = {
      "n",     "nnz",
      "adjacency_compact_bytes", "adjacency_wide_bytes",
      "operator_compact_bytes",  "operator_wide_bytes",
      "index_bits"};
  std::vector<std::vector<std::string>> mem_rows;

  for (const std::size_t n : sizes) {
    const hin::Hin hin = datasets::GenerateSyntheticHin(
        datasets::ScalingSyntheticConfig(n, /*seed=*/7));
    std::vector<std::size_t> labeled;
    for (std::size_t i = 0; i < n; i += 3) labeled.push_back(i);

    // Memory: the same structures under compact (adaptive) and forced-wide
    // offsets. Analytic byte accounting, not RSS — see the header comment.
    // The HIN is regenerated under the force-wide knob because downstream
    // builds inherit structure arrays from the relation matrices, which are
    // assembled at generation time.
    const StructureBytesReport compact = MeasureStructures(hin);
    la::SetForceWideIndexArrays(true);
    const StructureBytesReport wide =
        MeasureStructures(datasets::GenerateSyntheticHin(
            datasets::ScalingSyntheticConfig(n, /*seed=*/7)));
    la::SetForceWideIndexArrays(false);
    mem_rows.push_back({std::to_string(n), std::to_string(compact.nnz),
                        std::to_string(compact.adjacency_bytes),
                        std::to_string(wide.adjacency_bytes),
                        std::to_string(compact.operator_bytes),
                        std::to_string(wide.operator_bytes),
                        std::to_string(compact.index_bits)});

    // Timing: prebuilt operators, fixed 8-iteration chains (epsilon below
    // any reachable residual) so every thread count runs the identical
    // workload; the cap also keeps the million-node cells affordable.
    const core::PreparedOperators ops =
        core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
    core::TMarkConfig config;
    config.max_iterations = 8;
    config.epsilon = 1e-300;
    for (const std::size_t threads : thread_counts) {
      parallel::SetNumThreads(threads);
      std::size_t iterations = 0;
      const bench::BenchTimer::Timing timing = bench::BenchTimer::Time([&] {
        core::TMarkClassifier clf(config);
        clf.Fit(hin, ops, labeled);
        iterations = 0;
        for (const core::ConvergenceTrace& t : clf.Traces()) {
          iterations += t.residuals.size();
        }
        benchmark::DoNotOptimize(clf.Confidences());
      });
      const auto rss = obs::ReadPeakRssBytes();
      curve_rows.push_back(
          {std::to_string(n), std::to_string(threads), host_cores,
           FormatDouble(timing.min_ms, 2), std::to_string(iterations),
           FormatDouble(timing.min_ms / static_cast<double>(iterations), 5),
           rss.ok() ? MiB(*rss) : "n/a"});
    }
  }

  const auto emit = [](const std::string& title,
                       const std::vector<std::string>& headers,
                       const std::vector<std::vector<std::string>>& rows) {
    std::cout << title << "\n";
    eval::TablePrinter printer(headers);
    for (const std::vector<std::string>& row : rows) {
      printer.AddRow(std::vector<std::string>(row));
    }
    printer.Print(std::cout);
    if (bench::BenchObsSession* session = bench::BenchObsSession::active()) {
      session->RecordTable({title, headers, rows});
    }
  };
  emit("scaling curve", curve_headers, curve_rows);
  emit("scaling memory", mem_headers, mem_rows);
}

}  // namespace

int main(int argc, char** argv) {
  tmark::bench::BenchObsSession obs_session(argv[0]);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RunScalingStudy();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
