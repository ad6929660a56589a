#include "tmark/serve/daemon.h"

#include <string>
#include <utility>

#include "tmark/obs/logging.h"
#include "tmark/obs/metrics.h"

namespace tmark::serve {

QueryEngineOptions MakeQueryOptions(const core::TMarkConfig& config) {
  QueryEngineOptions options;
  options.alpha = config.alpha;
  options.gamma = config.gamma;
  options.epsilon = config.epsilon;
  options.max_iterations = config.max_iterations;
  return options;
}

ServingDaemon::ServingDaemon(hin::Hin hin, std::vector<std::size_t> labeled,
                             DaemonOptions options)
    : hin_(std::move(hin)),
      labeled_(std::move(labeled)),
      options_(options),
      classifier_(options.config),
      scheduler_(options.batcher, options.query, &bundles_) {}

ServingDaemon::~ServingDaemon() {
  WaitForUpdate();
  // scheduler_ (declared after bundles_) stops its worker in its own
  // destructor before bundles_ goes away.
}

Status ServingDaemon::Init() {
  std::lock_guard<std::mutex> lock(update_mu_);
  if (initialized_) {
    return FailedPreconditionError("daemon is already initialized");
  }
  if (labeled_.empty()) {
    return InvalidArgumentError("serving needs a non-empty training set");
  }
  for (const std::size_t node : labeled_) {
    if (node >= hin_.num_nodes()) {
      return InvalidArgumentError("labeled node " + std::to_string(node) +
                                  " out of range [0, " +
                                  std::to_string(hin_.num_nodes()) + ")");
    }
  }
  classifier_.Fit(hin_, labeled_);
  bundles_.Publish(MakeBundle());
  scheduler_.Start();
  initialized_ = true;
  obs::LogInfo("serve.daemon_ready",
               {{"nodes", std::to_string(hin_.num_nodes())},
                {"classes", std::to_string(hin_.num_classes())},
                {"generation", std::to_string(bundles_.generation())}});
  return Status::Ok();
}

std::shared_ptr<const ServingBundle> ServingDaemon::MakeBundle() {
  auto bundle = std::make_shared<ServingBundle>();
  bundle->ops = classifier_.prepared_operators();
  bundle->confidences = classifier_.Confidences();
  bundle->link_importance = classifier_.LinkImportance();
  bundle->fingerprint = bundle->ops->fingerprint();
  bundle->generation = next_generation_++;
  return bundle;
}

Result<Response> ServingDaemon::Execute(const Request& request) {
  if (request.kind != RequestKind::kUpdate) {
    return scheduler_.Execute(request);
  }
  obs::IncrCounter("serve.requests");
  TMARK_ASSIGN_OR_RETURN(hin::HinDelta delta,
                         hin::LoadHinDeltaFromFile(request.path));
  // Answer with the generation the background refresh is about to replace;
  // stale = true tells the client a refresh window is open.
  TMARK_ASSIGN_OR_RETURN(const BundleHolder::View view,
                         BeginUpdate(std::move(delta)));
  Response response;
  response.kind = RequestKind::kUpdate;
  response.stale = view.stale;
  response.generation = view.bundle->generation;
  response.fingerprint = view.bundle->fingerprint;
  return response;
}

Status ServingDaemon::ApplyUpdate(const hin::HinDelta& delta) {
  std::lock_guard<std::mutex> lock(update_mu_);
  if (!initialized_) {
    return FailedPreconditionError("daemon is not initialized");
  }
  if (update_running_) {
    return FailedPreconditionError("an update is already running");
  }
  if (update_thread_.joinable()) update_thread_.join();
  bundles_.BeginRefresh();
  const Status status = classifier_.Update(&hin_, delta, labeled_);
  if (!status.ok()) {
    bundles_.AbortRefresh();
    obs::IncrCounter("serve.update.failed");
    return status;
  }
  bundles_.Publish(MakeBundle());
  obs::IncrCounter("serve.update.applied");
  return Status::Ok();
}

Result<BundleHolder::View> ServingDaemon::BeginUpdate(hin::HinDelta delta) {
  std::lock_guard<std::mutex> lock(update_mu_);
  if (!initialized_) {
    return FailedPreconditionError("daemon is not initialized");
  }
  if (update_running_) {
    return FailedPreconditionError("an update is already running");
  }
  // Validate synchronously so the caller gets the typed error; the
  // background thread then re-validates inside TMarkClassifier::Update
  // against the same (quiescent) network.
  TMARK_RETURN_IF_ERROR(delta.Validate(hin_));
  if (update_thread_.joinable()) update_thread_.join();
  update_running_ = true;
  bundles_.BeginRefresh();
  const BundleHolder::View view = bundles_.Acquire();
  update_thread_ = std::thread([this, moved = std::move(delta)] {
    // hin_/classifier_/next_generation_ are exclusively this thread's
    // until update_running_ flips back under the mutex: every other writer
    // checks update_running_ under update_mu_ first.
    Status status = classifier_.Update(&hin_, moved, labeled_);
    if (status.ok()) {
      bundles_.Publish(MakeBundle());
      obs::IncrCounter("serve.update.applied");
    } else {
      bundles_.AbortRefresh();
      obs::IncrCounter("serve.update.failed");
      obs::LogWarn("serve.update_failed", {{"status", status.ToString()}});
    }
    std::lock_guard<std::mutex> inner(update_mu_);
    last_update_status_ = std::move(status);
    update_running_ = false;
  });
  return view;
}

Status ServingDaemon::WaitForUpdate() {
  std::thread finished;
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    if (update_thread_.joinable()) finished = std::move(update_thread_);
  }
  if (finished.joinable()) finished.join();
  std::lock_guard<std::mutex> lock(update_mu_);
  return last_update_status_;
}

}  // namespace tmark::serve
