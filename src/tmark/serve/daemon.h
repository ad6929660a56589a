#ifndef TMARK_SERVE_DAEMON_H_
#define TMARK_SERVE_DAEMON_H_

// In-process serving daemon: owns the HIN, the fitted TMarkClassifier, the
// published ServingBundle, and the batching scheduler. The socket server
// (server.h), the CLI `serve` command, and the closed-loop serving bench
// all drive this one class; the socket layer only adds framing.
//
// Lifecycle: Init() builds the operators once (via the classifier's
// fingerprint cache), fits, publishes generation 1, and starts the
// scheduler. Queries then flow through Execute. An `update` request loads
// a HinDelta, validates it synchronously, and refreshes in the background
// (TMarkClassifier::Update — operator patch + warm restart with
// delta-aware retirement hints) while queries keep being served from the
// previous bundle, flagged stale; the refreshed bundle is published
// atomically, fingerprint-stamped from the post-delta operators
// (docs/SERVING.md "Degradation").

#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tmark/common/status.h"
#include "tmark/core/tmark.h"
#include "tmark/hin/hin.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/serve/batcher.h"
#include "tmark/serve/bundle.h"
#include "tmark/serve/protocol.h"
#include "tmark/serve/query_engine.h"

namespace tmark::serve {

struct DaemonOptions {
  core::TMarkConfig config;  ///< Fit hyper-parameters + engine choice.
  BatcherOptions batcher;
  /// Seed-walk knobs; alpha/gamma default to `config`'s values when the
  /// caller leaves them at their own defaults (see MakeQueryOptions).
  QueryEngineOptions query;
};

class ServingDaemon {
 public:
  /// Takes ownership of the network; `labeled` is the training set every
  /// (re)fit uses.
  ServingDaemon(hin::Hin hin, std::vector<std::size_t> labeled,
                DaemonOptions options);
  ~ServingDaemon();

  ServingDaemon(const ServingDaemon&) = delete;
  ServingDaemon& operator=(const ServingDaemon&) = delete;

  /// Cold fit + first publish + scheduler start. Must be called (once)
  /// before Execute.
  Status Init();

  /// Serves one request of any kind. classify/rank/topk go to the
  /// scheduler; update loads + validates the delta file synchronously
  /// (typed errors come back on this call), then refreshes in the
  /// background and answers immediately with the generation the refresh
  /// will replace.
  Result<Response> Execute(const Request& request);

  /// Synchronous update: apply `delta`, warm-refresh, publish. Queries
  /// served meanwhile (from other threads) see the previous bundle with
  /// stale = true.
  Status ApplyUpdate(const hin::HinDelta& delta);

  /// Background update; kFailedPrecondition when one is already running.
  /// Returns the view the refresh is about to replace, stale, taken before
  /// the refresh thread starts (so it can never be the refreshed bundle).
  Result<BundleHolder::View> BeginUpdate(hin::HinDelta delta);

  /// Joins a running background update (no-op otherwise) and returns its
  /// status (OK when none ran).
  Status WaitForUpdate();

  const BundleHolder& bundles() const { return bundles_; }
  BatchingScheduler& scheduler() { return scheduler_; }
  const hin::Hin& hin() const { return hin_; }

 private:
  /// Snapshot of the classifier's current state as the next generation.
  std::shared_ptr<const ServingBundle> MakeBundle();

  hin::Hin hin_;
  const std::vector<std::size_t> labeled_;
  DaemonOptions options_;
  core::TMarkClassifier classifier_;

  BundleHolder bundles_;
  BatchingScheduler scheduler_;

  /// Serializes updates: hin_ and classifier_ are only touched by Init and
  /// by the (single) update in flight. Queries never read them — they read
  /// the immutable published bundle.
  std::mutex update_mu_;
  std::thread update_thread_;
  bool update_running_ = false;  ///< Guarded by update_mu_.
  Status last_update_status_;    ///< Guarded by update_mu_.
  std::uint64_t next_generation_ = 1;  ///< Guarded by update_mu_.
  bool initialized_ = false;
};

/// QueryEngineOptions matching a fit config (alpha/gamma/epsilon/
/// max_iterations carried over).
QueryEngineOptions MakeQueryOptions(const core::TMarkConfig& config);

}  // namespace tmark::serve

#endif  // TMARK_SERVE_DAEMON_H_
