#ifndef TMARK_BENCH_COMMON_H_
#define TMARK_BENCH_COMMON_H_

// Shared helpers for the table/figure reproduction binaries. Each binary
// regenerates one table or figure of the paper; TMARK_BENCH_TRIALS and
// TMARK_BENCH_SCALE (see eval::BenchTrials / eval::BenchScale) trade
// fidelity for wall-clock.
//
// Setting TMARK_BENCH_JSON=<path> additionally enables the obs subsystem
// for the run and writes a machine-readable dump — every printed table's
// cells, the metrics-registry snapshot (per-phase fit timings, residual
// series, nnz gauges, ...), and the trace-span tree — as one JSON document
// (schema: docs/OBSERVABILITY.md, validated by scripts/check_bench_json.py).
// Each bench main() constructs one BenchObsSession to opt in; with the env
// var unset the session and all instrumentation are inert.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "tmark/common/string_util.h"
#include "tmark/eval/experiment.h"
#include "tmark/la/microkernel.h"
#include "tmark/eval/table_printer.h"
#include "tmark/hin/hin.h"
#include "tmark/obs/chrome_trace.h"
#include "tmark/obs/json_export.h"
#include "tmark/obs/logging.h"
#include "tmark/obs/mem.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/prof.h"
#include "tmark/obs/trace.h"
#include "tmark/parallel/thread_pool.h"

namespace tmark::bench {

/// Histogram timing fits that run the fixed-point engine without a
/// classifier (so without tmark.fit.total_ms); the profile's overhead
/// estimate counts their time beside the classifier fits'.
inline constexpr const char* kWidth1FitHistogram = "bench.fit.width1_ms";

/// One recorded table: the title plus the printed cells, verbatim.
struct RecordedTable {
  std::string title;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

/// Per-binary observability session. When TMARK_BENCH_JSON names a file,
/// the constructor turns the metrics registry and tracer on and the
/// destructor writes the bench JSON document there; otherwise the session
/// is a no-op. Construct exactly one, first thing in main().
///
/// Two sibling env vars ride on the same session: TMARK_TRACE_CHROME=<path>
/// writes the span tree as a Perfetto-loadable Chrome trace, and
/// TMARK_PROFILE_JSON=<path> enables the kernel profiler and writes a
/// tmark-profile-v1 document (regions, attribution, overhead estimate).
/// All three sinks compose.
class BenchObsSession {
 public:
  explicit BenchObsSession(const char* binary = "") : binary_(binary) {
    const char* path = std::getenv("TMARK_BENCH_JSON");
    if (path != nullptr && *path != '\0') path_ = path;
    const char* chrome = std::getenv("TMARK_TRACE_CHROME");
    if (chrome != nullptr && *chrome != '\0') chrome_path_ = chrome;
    const char* profile = std::getenv("TMARK_PROFILE_JSON");
    if (profile != nullptr && *profile != '\0') profile_path_ = profile;
    if (path_.empty() && chrome_path_.empty() && profile_path_.empty()) {
      return;
    }
    obs::Registry::Instance().set_enabled(true);
    obs::Tracer::Instance().set_enabled(true);
    if (!profile_path_.empty()) {
      obs::prof::Profiler::Instance().set_enabled(true);
    }
    obs::SetGauge("parallel.threads",
                  static_cast<double>(parallel::NumThreads()));
    active_instance_ = this;
  }

  ~BenchObsSession() {
    if (active_instance_ != this) return;
    active_instance_ = nullptr;
    if (!profile_path_.empty()) WriteProfileJson();
    if (!chrome_path_.empty()) {
      const std::string doc =
          obs::SpansToChromeTrace(obs::Tracer::Instance().FinishedCopy());
      if (!obs::WriteTextFile(chrome_path_, doc)) {
        obs::LogError("bench.chrome_trace_write_failed",
                      {{"path", chrome_path_}});
      }
    }
    if (!path_.empty()) WriteJson();
  }

  BenchObsSession(const BenchObsSession&) = delete;
  BenchObsSession& operator=(const BenchObsSession&) = delete;

  /// The session of this binary, or nullptr when JSON mode is off.
  static BenchObsSession* active() { return active_instance_; }

  void RecordTable(RecordedTable table) {
    tables_.push_back(std::move(table));
  }

 private:
  void WriteJson() {
    // Refresh the peak-RSS gauge just before the snapshot so the dump
    // carries the run's true memory high-water mark.
    obs::RecordPeakRss();
    obs::JsonWriter writer;
    writer.BeginObject();
    writer.Key("schema").Value("tmark-bench-v1");
    writer.Key("binary").Value(binary_);
    // Effective compile flags (from the build system) + the SIMD pragma
    // flavor, so committed dumps say what build produced them.
#ifdef TMARK_BUILD_FLAGS
    writer.Key("build_flags").Value(TMARK_BUILD_FLAGS);
#endif
    writer.Key("simd").Value(la::mk::SimdAnnotation());
    writer.Key("tables").BeginArray();
    for (const RecordedTable& table : tables_) {
      writer.BeginObject();
      writer.Key("title").Value(table.title);
      writer.Key("headers").BeginArray();
      for (const std::string& h : table.headers) writer.Value(h);
      writer.EndArray();
      writer.Key("rows").BeginArray();
      for (const std::vector<std::string>& row : table.rows) {
        writer.BeginArray();
        for (const std::string& cell : row) writer.Value(cell);
        writer.EndArray();
      }
      writer.EndArray();
      writer.EndObject();
    }
    writer.EndArray();
    writer.Key("metrics");
    obs::WriteMetrics(writer, obs::Registry::Instance().Snapshot());
    const std::vector<obs::SpanNode> spans =
        obs::Tracer::Instance().FinishedCopy();
    // Per-kernel exclusive-time table derived from the span tree: in a
    // single-threaded trace the self_ms of all rows sums to the total
    // root-span time, so fit costs can be attributed without
    // post-processing (concurrent sibling spans overlap, so at higher
    // thread counts the sum can exceed it).
    writer.Key("attribution");
    obs::WriteAttribution(writer, obs::prof::ComputeAttribution(spans));
    writer.Key("spans");
    obs::WriteSpans(writer, spans);
    writer.EndObject();
    if (!obs::WriteTextFile(path_, writer.TakeString())) {
      obs::LogError("bench.json_write_failed", {{"path", path_}});
    } else {
      obs::LogInfo("bench.json_written", {{"path", path_}});
    }
  }

  void WriteProfileJson() {
    const obs::prof::ProfileSnapshot profile =
        obs::prof::Profiler::Instance().Snapshot();
    obs::ProfileOverhead overhead;
    for (const obs::prof::RegionTotals& region : profile.regions) {
      overhead.region_calls += region.calls;
    }
    // The region calls come from the fits, so they are charged to the time
    // of every fit that made them: classifier fits record
    // tmark.fit.total_ms, and the width-1 engine runs of bench_perf_tmark's
    // fit-engine comparison record kWidth1FitHistogram.
    for (const obs::HistogramSnapshot& h :
         obs::Registry::Instance().Snapshot().histograms) {
      if (h.name == "tmark.fit.total_ms" || h.name == kWidth1FitHistogram) {
        overhead.workload_ms += h.sum;
      }
    }
    // Per-call cost of a *disabled* region (profiling is forced off inside
    // the measurement), scaled by this run's region calls over its fit
    // time: the estimated always-on overhead the <2% gate checks.
    overhead.disabled_ns_per_region =
        obs::prof::MeasureDisabledRegionCostNs(2'000'000);
    const std::string doc = obs::ProfileToJson(
        binary_, static_cast<std::uint64_t>(parallel::NumThreads()), profile,
        obs::prof::ComputeAttribution(obs::Tracer::Instance().FinishedCopy()),
        overhead);
    if (!obs::WriteTextFile(profile_path_, doc)) {
      obs::LogError("bench.profile_write_failed", {{"path", profile_path_}});
    } else {
      obs::LogInfo("bench.profile_written", {{"path", profile_path_}});
    }
  }

  inline static BenchObsSession* active_instance_ = nullptr;
  std::string binary_;
  std::string path_;
  std::string chrome_path_;
  std::string profile_path_;
  std::vector<RecordedTable> tables_;
};

/// Prints the paper-style sweep table: one row per training fraction, one
/// column per method, plus (optionally) the paper's reported T-Mark column
/// for eyeball comparison. In JSON mode the cells are also recorded into
/// the active BenchObsSession.
inline void PrintSweepTable(const hin::Hin& hin,
                            const std::vector<std::string>& methods,
                            const eval::SweepConfig& config,
                            const std::vector<double>& paper_tmark,
                            const std::string& metric_name) {
  std::vector<eval::MethodSweep> sweeps;
  sweeps.reserve(methods.size());
  for (const std::string& method : methods) {
    obs::LogInfo("bench.fit", {{"method", method}});
    sweeps.push_back(eval::RunSweep(hin, method, config));
  }
  std::vector<std::string> headers = {"Percentage"};
  for (const std::string& m : methods) headers.push_back(m);
  if (!paper_tmark.empty()) headers.push_back("[paper T-Mark]");
  eval::TablePrinter table(headers);
  std::vector<std::vector<std::string>> recorded_rows;
  for (std::size_t f = 0; f < config.train_fractions.size(); ++f) {
    std::vector<std::string> row = {
        FormatDouble(config.train_fractions[f], 1)};
    for (const eval::MethodSweep& sweep : sweeps) {
      row.push_back(FormatDouble(sweep.cells[f].mean, 3));
    }
    if (!paper_tmark.empty()) {
      row.push_back(FormatDouble(paper_tmark[f], 3));
    }
    recorded_rows.push_back(row);
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "(" << metric_name << ", mean over " << config.trials
            << " trials; paper column: reported values for T-Mark)\n";
  if (BenchObsSession* session = BenchObsSession::active()) {
    session->RecordTable(
        {metric_name, std::move(headers), std::move(recorded_rows)});
  }
}

/// Scales a node count by TMARK_BENCH_SCALE with a sane floor.
inline std::size_t ScaledNodes(std::size_t base) {
  const double scaled = static_cast<double>(base) * eval::BenchScale();
  return scaled < 60.0 ? 60 : static_cast<std::size_t>(scaled);
}

/// Median of `runs` (the mean of the middle two for an even count).
inline double Median(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  const std::size_t mid = runs.size() / 2;
  return runs.size() % 2 == 1 ? runs[mid] : 0.5 * (runs[mid - 1] + runs[mid]);
}

/// Warm-up/repeat timing loop for the table benches: runs the workload
/// TMARK_BENCH_WARMUP times untimed (default 0), then TMARK_BENCH_REPEATS
/// times timed (default 1), and reports min and median wall-clock. Min and
/// median are stable across the fleet where a single run is not — speedup
/// claims in docs/PERFORMANCE.md quote them.
class BenchTimer {
 public:
  struct Timing {
    double min_ms = 0.0;
    double median_ms = 0.0;
    int repeats = 1;
  };

  static int Warmup() { return EnvCount("TMARK_BENCH_WARMUP", 0); }
  static int Repeats() { return EnvCount("TMARK_BENCH_REPEATS", 1); }

  template <typename Fn>
  static Timing Time(Fn&& fn) {
    const int warmup = Warmup();
    const int repeats = std::max(1, Repeats());
    for (int i = 0; i < warmup; ++i) fn();
    std::vector<double> runs;
    runs.reserve(static_cast<std::size_t>(repeats));
    for (int i = 0; i < repeats; ++i) {
      obs::Stopwatch watch;
      fn();
      runs.push_back(watch.ElapsedMs());
    }
    Timing timing;
    timing.min_ms = *std::min_element(runs.begin(), runs.end());
    timing.median_ms = Median(std::move(runs));
    timing.repeats = repeats;
    return timing;
  }

 private:
  static int EnvCount(const char* name, int fallback) {
    const char* env = std::getenv(name);
    if (env == nullptr) return fallback;
    const int v = std::atoi(env);
    return v >= 0 ? v : fallback;
  }
};

/// Times workloads that a gate compares against each other. Each side runs
/// once untimed as a warm-up; then max(9, TMARK_BENCH_REPEATS) rounds run
/// every side once, in order on even rounds and in reverse on odd ones.
/// Drift, a disturbance or a migration then lands on both sides of a round
/// instead of on one side's whole block, so per-round ratios and medians
/// compare like with like. Returns each side's per-round times in ms.
inline std::vector<std::vector<double>> TimeAlternating(
    const std::vector<std::function<void()>>& sides) {
  for (const std::function<void()>& side : sides) side();
  const int rounds = std::max(9, BenchTimer::Repeats());
  std::vector<std::vector<double>> ms(sides.size());
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < sides.size(); ++i) {
      const std::size_t s = r % 2 == 0 ? i : sides.size() - 1 - i;
      obs::Stopwatch watch;
      sides[s]();
      ms[s].push_back(watch.ElapsedMs());
    }
  }
  return ms;
}

/// Median over rounds of numerator[r] / denominator[r]: the per-round
/// ratios of two sides timed by TimeAlternating.
inline double MedianRatio(const std::vector<double>& numerator,
                          const std::vector<double>& denominator) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < numerator.size(); ++r) {
    ratios.push_back(numerator[r] / denominator[r]);
  }
  return Median(std::move(ratios));
}

/// Pins the calling thread to the vCPU it is running on, and restores its
/// previous affinity on destruction. A single-threaded timing table then
/// cannot migrate between vCPUs that run the same code at different speeds
/// halfway through a comparison. Only the calling thread is affected; where
/// pinning is unavailable the guard does nothing.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu() {
#if defined(__linux__)
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
#endif
  }
  ~PinToCurrentCpu() {
#if defined(__linux__)
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
#endif
  }

  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
#if defined(__linux__)
  cpu_set_t saved_;
#endif
  bool pinned_ = false;
};

}  // namespace tmark::bench

/// Replacement for BENCHMARK_MAIN() that threads the google-benchmark run
/// through a BenchObsSession, so TMARK_BENCH_JSON also works for the perf
/// binaries. Requires <benchmark/benchmark.h> at the expansion site.
#define TMARK_BENCH_MAIN()                                                  \
  int main(int argc, char** argv) {                                         \
    tmark::bench::BenchObsSession obs_session(argv[0]);                     \
    ::benchmark::Initialize(&argc, argv);                                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    ::benchmark::RunSpecifiedBenchmarks();                                  \
    ::benchmark::Shutdown();                                                \
    return 0;                                                               \
  }                                                                         \
  static_assert(true, "require a trailing semicolon")

#endif  // TMARK_BENCH_COMMON_H_
