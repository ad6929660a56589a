#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// The benchmark's calls into each layer's public functions, timed from
// here: the cold path (hin io -> eval split -> core fingerprint -> core
// build (tensor + hin similarity) -> core fit -> core model_io write) and
// the probes of the serve engine, the wire protocol, and the update path.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/hin/hin.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/serve/protocol.h"
#include "util.h"

namespace perfbench {

/// Fixed job settings, identical to `tmark_cli rank`'s defaults.
inline constexpr double kTrainFraction = 0.3;
inline constexpr std::uint64_t kSplitSeed = 13;

/// Every generated update reweights this share of the stored links and
/// replaces this share of the feature rows.
inline constexpr double kDeltaEdgeShare = 0.001;
inline constexpr double kDeltaRowShare = 0.001;

/// Entries asked for by every rank/topk request.
inline constexpr std::size_t kRankEntries = 10;

tmark::core::TMarkConfig JobConfig();

/// What the cold path leaves behind for the probes that follow it.
struct ColdState {
  tmark::hin::Hin hin;
  std::vector<std::size_t> labeled;
  std::shared_ptr<const tmark::core::PreparedOperators> ops;
  std::optional<tmark::core::TMarkClassifier> classifier;
};

struct ColdResult {
  std::vector<Span> spans;  ///< spans[0] is the job; the rest nest under it.
  double wall_ms = 0.0;     ///< Load start to write end.
  double cpu_ms = 0.0;      ///< Process CPU from start to write end.
  double fit_cpu_ms = 0.0;  ///< Process CPU during the fit stage.
  double peak_rss_mb = 0.0;
  double load_rss_mb = 0.0;  ///< VmHWM right after the load.
  double accuracy = 0.0;     ///< Held-out accuracy of the fitted model.
  std::size_t fit_iters = 0;
  std::uint64_t hin_bytes = 0;
  std::uint64_t model_bytes = 0;
  std::size_t links = 0;
  /// Registry readings, filled when metrics are enabled.
  double merged_mb = 0.0;
  double shards = 0.0;
};

/// One cold job: LoadHinFromFile -> StratifiedSplit -> FingerprintOperators
/// (the operator-cache check `TMarkClassifier::Fit` makes) ->
/// PreparedOperators::BuildShared -> Fit -> SaveTMarkModelToFile, one call
/// per layer, each recorded as a span. With the tracer enabled the
/// program's own tensor and similarity build spans are nested under the
/// build span. Returns false (with `error`) when a call fails.
bool RunColdPath(const std::string& hin_path, const std::string& model_path,
                 const std::string& id, ColdState* state, ColdResult* result,
                 std::string* error);

/// Held-out accuracy of per-node predictions, scored like
/// eval::EvaluateClassifier: labeled nodes outside the training set,
/// prediction against the primary label.
double HeldOutAccuracy(const tmark::hin::Hin& hin,
                       const std::vector<std::size_t>& labeled,
                       const std::vector<std::size_t>& predicted);

/// Top-k entries of a score vector in the order the scheduler answers
/// (score descending, index ascending on ties).
std::vector<tmark::serve::ScoredEntry> TopK(const std::vector<double>& values,
                                            std::size_t k);

struct EngineProbe {
  double w1_ms = 0.0;  ///< Median wall time of one width-1 Run.
  double w4_ms = 0.0;  ///< Median wall time of one width-4 Run.
  double w1_cpu_ms = 0.0;
  double w4_cpu_ms = 0.0;
  double iters = 0.0;  ///< Mean iterations per seed walk.
};

/// Times in-process PanelQueryEngine::Run at widths 1 and 4 on `ops`,
/// with seeds drawn from `seed`; runs at least `min_runs` of each width and
/// keeps going until `min_ms` of wall time per width.
EngineProbe ProbeEngine(const tmark::core::PreparedOperators& ops,
                        std::uint64_t seed, int min_runs, double min_ms);

/// Microseconds per ParseRequest + FormatResponse of a k=10 walk reply.
double ProbeProtocolUs(std::size_t num_nodes);

struct UpdateProbe {
  double load_ms = 0.0;      ///< Median LoadHinDeltaFromFile.
  double validate_ms = 0.0;  ///< Median HinDelta::Validate.
  double update_ms = 0.0;    ///< Median TMarkClassifier::Update.
  double patch_ms = 0.0;     ///< Median operator patch inside Update.
  double iters = 0.0;        ///< Mean fixed-point iterations per Update.
};

/// Replays delta files through the update path of a fitted classifier:
/// load, validate, then Update (which patches the operators and warm-starts
/// the fit). Needs the registry enabled for the patch time.
bool ProbeUpdates(const std::vector<std::string>& delta_paths,
                  ColdState* state, UpdateProbe* probe, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
