// tmark_cli — command-line front end for the T-Mark library.
//
//   tmark_cli generate --preset dblp --nodes 500 --seed 7 --out net.hin
//   tmark_cli info     --hin net.hin
//   tmark_cli classify --hin net.hin --method T-Mark --train-fraction 0.3
//   tmark_cli rank     --hin net.hin --alpha 0.8 --gamma 0.6 --top 5
//
// `generate` writes a synthetic HIN in the tmark-hin text format; the other
// commands load any file in that format, so real corpora can be converted
// once and then driven entirely from here.
//
// Error contract (docs/ERRORS.md): every untrusted input — flags, HIN
// files, model files — is validated through the tmark::Status layer. A bad
// flag prints `error: ...` plus usage and exits 2; an unreadable or
// malformed file prints a single `error: ...` line to stderr and exits 2.
// No input can abort the process or leak a raw exception. Failed loads are
// counted in the `io.errors{code}` metrics, visible via --metrics-json.
//
// Observability (any command): --log-level debug|info|warn|error|off,
// --metrics-json FILE (dump the metrics-registry snapshot on exit),
// --trace-json FILE (dump the trace-span tree on exit), --trace-chrome
// FILE (dump the span tree as a Perfetto-loadable Chrome trace), and
// --profile-json FILE (dump a tmark-profile-v1 kernel-attribution
// document). The trace sinks compose: one run can write any subset. See
// docs/OBSERVABILITY.md.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "tmark/baselines/registry.h"
#include "tmark/common/status.h"
#include "tmark/common/strict_parse.h"
#include "tmark/core/model_io.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/presets.h"
#include "tmark/eval/experiment.h"
#include "tmark/hin/hin_io.h"
#include "tmark/obs/chrome_trace.h"
#include "tmark/obs/json_export.h"
#include "tmark/obs/logging.h"
#include "tmark/obs/prof.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/serve/daemon.h"
#include "tmark/serve/server.h"

#include <csignal>

namespace {

using namespace tmark;

/// Bad command-line input (unknown flag value, malformed number, ...);
/// reported as a usage error, exit code 2, instead of a raw exception.
class FlagError : public std::runtime_error {
 public:
  explicit FlagError(const std::string& what) : std::runtime_error(what) {}
};

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const Result<double> v = ParseFiniteDouble(it->second);
    if (!v.ok()) {
      throw FlagError("invalid value '" + it->second + "' for --" + key +
                      " (expected a finite number)");
    }
    return *v;
  }
  std::size_t GetSize(const std::string& key, std::size_t fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const Result<std::size_t> v = ParseIndex(it->second);
    if (!v.ok()) {
      throw FlagError("invalid value '" + it->second + "' for --" + key +
                      " (expected a non-negative integer)");
    }
    return *v;
  }
};

Args Parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw FlagError("expected --flag, got '" + key + "'");
    }
    if (i + 1 >= argc) {
      throw FlagError("missing value for " + key);
    }
    args.flags[key.substr(2)] = argv[i + 1];
  }
  // Each command accepts the flags Usage() documents for it plus the
  // global ones; a misspelled flag would otherwise be ignored and its
  // default used without a word. Unknown commands fall through to Usage().
  static const std::set<std::string> kGlobalFlags = {
      "log-level",    "metrics-json", "trace-json",
      "trace-chrome", "profile-json", "threads"};
  static const std::map<std::string, std::set<std::string>> kCommandFlags = {
      {"generate", {"preset", "nodes", "seed", "out"}},
      {"info", {"hin"}},
      {"classify",
       {"hin", "method", "train-fraction", "alpha", "gamma", "seed"}},
      {"rank",
       {"hin", "train-fraction", "alpha", "gamma", "top", "seed",
        "save-model", "model"}},
      {"serve",
       {"hin", "serve-socket", "serve-port", "train-fraction", "alpha",
        "gamma", "seed", "batch-window-us", "max-batch", "max-queue",
        "max-requests"}},
  };
  const auto command = kCommandFlags.find(args.command);
  if (command != kCommandFlags.end()) {
    for (const auto& [key, value] : args.flags) {
      if (command->second.count(key) == 0 && kGlobalFlags.count(key) == 0) {
        throw FlagError("unknown flag --" + key + " for " + args.command);
      }
    }
  }
  return args;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tmark_cli <command> [--flag value ...]\n"
               "  generate --preset "
               "dblp|movies|nus1|nus2|acm|example|synthetic:<n>\n"
               "           [--nodes N] [--seed S] --out FILE\n"
               "  info     --hin FILE\n"
               "  classify --hin FILE [--method NAME] [--train-fraction F]\n"
               "           [--alpha A] [--gamma G] [--seed S]\n"
               "  rank     --hin FILE [--train-fraction F] [--alpha A]\n"
               "           [--gamma G] [--top K] [--seed S]\n"
               "           [--save-model FILE | --model FILE]\n"
               "  serve    --hin FILE --serve-socket PATH | --serve-port N\n"
               "           [--train-fraction F] [--alpha A] [--gamma G]\n"
               "           [--seed S] [--batch-window-us U] [--max-batch B]\n"
               "           [--max-queue Q] [--max-requests R]\n"
               "           (see docs/SERVING.md; tmark_served is the\n"
               "            standalone daemon with the same protocol)\n"
               "global flags (any command):\n"
               "  --log-level debug|info|warn|error|off\n"
               "  --metrics-json FILE   dump metrics snapshot on exit\n"
               "  --trace-json FILE     dump trace spans on exit\n"
               "  --trace-chrome FILE   dump Chrome trace (Perfetto) on "
               "exit\n"
               "  --profile-json FILE   dump tmark-profile-v1 attribution "
               "on exit\n"
               "  --threads N           worker threads for fit kernels\n"
               "                        (default: TMARK_NUM_THREADS or all "
               "cores)\n");
  return 2;
}

/// Collapses control characters so the `error:` contract stays one line
/// even if a hostile path or token sneaks one in.
std::string OneLine(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  return out;
}

/// Applies --log-level and switches the obs subsystem on when a JSON dump
/// was requested. Returns after the command so main can write the files.
struct ObsFlags {
  std::string metrics_json;
  std::string trace_json;
  std::string trace_chrome;
  std::string profile_json;

  explicit ObsFlags(const Args& args)
      : metrics_json(args.Get("metrics-json", "")),
        trace_json(args.Get("trace-json", "")),
        trace_chrome(args.Get("trace-chrome", "")),
        profile_json(args.Get("profile-json", "")) {
    const std::string level = args.Get("log-level", "");
    if (!level.empty()) {
      const auto parsed = obs::ParseLogLevel(level);
      if (!parsed.has_value()) {
        throw FlagError("invalid value '" + level +
                        "' for --log-level (expected "
                        "debug|info|warn|error|off)");
      }
      obs::Logger::Instance().set_level(*parsed);
    }
    if (!metrics_json.empty()) obs::Registry::Instance().set_enabled(true);
    if (!trace_json.empty() || !trace_chrome.empty()) {
      obs::Registry::Instance().set_enabled(true);
      obs::Tracer::Instance().set_enabled(true);
    }
    if (!profile_json.empty()) {
      obs::Registry::Instance().set_enabled(true);
      obs::Tracer::Instance().set_enabled(true);
      obs::prof::Profiler::Instance().set_enabled(true);
    }
    if (args.flags.count("threads") != 0) {
      const std::string& raw = args.flags.at("threads");
      const std::size_t threads = parallel::ParseThreadCount(raw.c_str());
      if (threads == 0) {
        throw FlagError("invalid value '" + raw +
                        "' for --threads (expected a positive integer)");
      }
      parallel::SetNumThreads(threads);
    }
    // Recorded after the registry toggles so JSON dumps carry it.
    obs::SetGauge("parallel.threads",
                  static_cast<double>(parallel::NumThreads()));
  }

  /// Writes the requested dumps; true unless a file could not be written.
  bool Flush() const {
    bool ok = true;
    if (!metrics_json.empty()) {
      const std::string doc =
          obs::MetricsToJson(obs::Registry::Instance().Snapshot());
      if (!obs::WriteTextFile(metrics_json, doc)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     metrics_json.c_str());
        ok = false;
      }
    }
    if (!trace_json.empty()) {
      const std::string doc =
          obs::SpansToJson(obs::Tracer::Instance().FinishedCopy());
      if (!obs::WriteTextFile(trace_json, doc)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_json.c_str());
        ok = false;
      }
    }
    if (!trace_chrome.empty()) {
      const std::string doc =
          obs::SpansToChromeTrace(obs::Tracer::Instance().FinishedCopy());
      if (!obs::WriteTextFile(trace_chrome, doc)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     trace_chrome.c_str());
        ok = false;
      }
    }
    if (!profile_json.empty()) {
      const obs::prof::ProfileSnapshot profile =
          obs::prof::Profiler::Instance().Snapshot();
      const std::vector<obs::SpanNode> spans =
          obs::Tracer::Instance().FinishedCopy();
      obs::ProfileOverhead overhead;
      for (const obs::prof::RegionTotals& region : profile.regions) {
        overhead.region_calls += region.calls;
      }
      // Workload = total fit time, when this run fitted anything.
      const obs::MetricsSnapshot metrics = obs::Registry::Instance().Snapshot();
      for (const obs::HistogramSnapshot& h : metrics.histograms) {
        if (h.name == "tmark.fit.total_ms") overhead.workload_ms = h.sum;
      }
      overhead.disabled_ns_per_region =
          obs::prof::MeasureDisabledRegionCostNs(2'000'000);
      const std::string doc = obs::ProfileToJson(
          "tmark_cli", static_cast<std::uint64_t>(parallel::NumThreads()),
          profile, obs::prof::ComputeAttribution(spans), overhead);
      if (!obs::WriteTextFile(profile_json, doc)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     profile_json.c_str());
        ok = false;
      }
    }
    return ok;
  }
};

/// Loads --hin through the Status boundary; the flag is required.
Result<hin::Hin> LoadHinFlag(const Args& args) {
  const std::string path = args.Get("hin", "");
  if (path.empty()) {
    return InvalidArgumentError(args.command +
                                " requires --hin FILE (tmark-hin format)");
  }
  return hin::LoadHinFromFile(path);
}

Status Generate(const Args& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    return InvalidArgumentError("generate requires --out FILE");
  }
  datasets::PresetOptions options;
  options.num_nodes = args.GetSize("nodes", 0);  // 0 = preset default
  options.seed = args.GetSize("seed", 7);
  TMARK_ASSIGN_OR_RETURN(const hin::Hin hin,
                         datasets::MakePreset(args.Get("preset", "dblp"),
                                              options));
  TMARK_RETURN_IF_ERROR(hin::SaveHinToFile(hin, out));
  std::printf("wrote %s: %zu nodes, %zu relations, %zu classes, %zu links\n",
              out.c_str(), hin.num_nodes(), hin.num_relations(),
              hin.num_classes(), hin.NumLinks());
  return Status::Ok();
}

Status Info(const Args& args) {
  TMARK_ASSIGN_OR_RETURN(const hin::Hin hin, LoadHinFlag(args));
  std::printf("nodes:       %zu\n", hin.num_nodes());
  std::printf("relations:   %zu\n", hin.num_relations());
  std::printf("classes:     %zu\n", hin.num_classes());
  std::printf("feature dim: %zu\n", hin.feature_dim());
  std::printf("links:       %zu stored entries\n", hin.NumLinks());
  std::printf("labeled:     %zu nodes\n", hin.NodesWithLabels().size());
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < hin.num_nodes(); ++i) {
      if (hin.HasLabel(i, c)) ++count;
    }
    std::printf("  class %-28s %zu nodes\n",
                (hin.class_name(c) + ":").c_str(), count);
  }
  return Status::Ok();
}

Status Classify(const Args& args) {
  TMARK_ASSIGN_OR_RETURN(const hin::Hin hin, LoadHinFlag(args));
  const std::string method = args.Get("method", "T-Mark");
  const double fraction = args.GetDouble("train-fraction", 0.3);
  if (fraction <= 0.0 || fraction > 1.0) {
    return InvalidArgumentError("--train-fraction must be in (0, 1]");
  }
  auto clf = baselines::TryMakeClassifier(method,
                                          args.GetDouble("alpha", 0.8),
                                          args.GetDouble("gamma", 0.6));
  if (clf == nullptr) {
    return InvalidArgumentError("unknown method '" + method + "'");
  }
  Rng rng(args.GetSize("seed", 13));
  const auto labeled = eval::StratifiedSplit(hin, fraction, &rng);
  const double acc =
      eval::EvaluateClassifier(hin, clf.get(), labeled, false, 0.5);
  std::printf("%s: held-out accuracy %.4f  (%zu labeled of %zu)\n",
              method.c_str(), acc, labeled.size(), hin.num_nodes());
  return Status::Ok();
}

Status Rank(const Args& args) {
  TMARK_ASSIGN_OR_RETURN(const hin::Hin hin, LoadHinFlag(args));
  const double fraction = args.GetDouble("train-fraction", 0.3);
  const std::size_t top = args.GetSize("top", 5);
  const std::string model_path = args.Get("model", "");
  core::TMarkConfig config;
  config.alpha = args.GetDouble("alpha", 0.8);
  config.gamma = args.GetDouble("gamma", 0.6);
  core::TMarkClassifier clf(config);
  if (!model_path.empty()) {
    TMARK_ASSIGN_OR_RETURN(clf, core::LoadTMarkModelFromFile(model_path));
  } else {
    Rng rng(args.GetSize("seed", 13));
    const auto labeled = eval::StratifiedSplit(hin, fraction, &rng);
    clf.Fit(hin, labeled);
  }
  const std::string save_path = args.Get("save-model", "");
  if (!save_path.empty()) {
    TMARK_RETURN_IF_ERROR(core::SaveTMarkModelToFile(clf, save_path));
    std::printf("saved fitted model to %s\n", save_path.c_str());
  }
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    std::printf("%s:\n", hin.class_name(c).c_str());
    const auto ranking = clf.RankRelationsForClass(c);
    for (std::size_t r = 0; r < top && r < ranking.size(); ++r) {
      std::printf("  %2zu. %-24s z = %.4f\n", r + 1,
                  hin.relation_name(ranking[r]).c_str(),
                  clf.LinkImportance().At(ranking[r], c));
    }
  }
  return Status::Ok();
}

serve::SocketServer* g_server = nullptr;

void HandleSigint(int) {
  if (g_server != nullptr) g_server->RequestStop();
}

Status Serve(const Args& args) {
  TMARK_ASSIGN_OR_RETURN(hin::Hin hin, LoadHinFlag(args));
  const std::string socket_path = args.Get("serve-socket", "");
  const std::size_t port = args.GetSize("serve-port", 0);
  if (socket_path.empty() && args.flags.count("serve-port") == 0) {
    return InvalidArgumentError(
        "serve requires --serve-socket PATH or --serve-port N");
  }
  if (port > 65535) {
    return InvalidArgumentError("--serve-port must be at most 65535");
  }
  const double fraction = args.GetDouble("train-fraction", 0.3);
  if (fraction <= 0.0 || fraction > 1.0) {
    return InvalidArgumentError("--train-fraction must be in (0, 1]");
  }
  serve::DaemonOptions options;
  options.config.alpha = args.GetDouble("alpha", 0.8);
  options.config.gamma = args.GetDouble("gamma", 0.6);
  options.batcher.batch_window_us = args.GetSize("batch-window-us", 200);
  options.batcher.max_batch = args.GetSize("max-batch", 16);
  options.batcher.max_queue = args.GetSize("max-queue", 256);
  if (options.batcher.max_batch == 0) {
    return InvalidArgumentError("--max-batch must be >= 1");
  }
  if (options.batcher.max_queue == 0) {
    return InvalidArgumentError("--max-queue must be >= 1");
  }
  options.query = serve::MakeQueryOptions(options.config);
  Rng rng(args.GetSize("seed", 13));
  const auto labeled = eval::StratifiedSplit(hin, fraction, &rng);
  serve::ServingDaemon daemon(std::move(hin), labeled, options);
  TMARK_RETURN_IF_ERROR(daemon.Init());
  serve::ServerOptions server_options;
  server_options.unix_socket = socket_path;
  server_options.tcp_port = static_cast<int>(port);
  server_options.max_requests = args.GetSize("max-requests", 0);
  serve::SocketServer server(&daemon, server_options);
  // Handlers before Start, as in tmark_served: a signal that arrives once
  // the socket answers must stop the server cleanly.
  g_server = &server;
  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);
  const Status started = server.Start();
  if (started.ok()) {
    const std::string endpoint =
        socket_path.empty() ? "127.0.0.1:" + std::to_string(server.port())
                            : socket_path;
    std::printf("serving on %s (batch window %zu us, max batch %zu, "
                "max queue %zu)\n",
                endpoint.c_str(), options.batcher.batch_window_us,
                options.batcher.max_batch, options.batcher.max_queue);
    std::fflush(stdout);
    server.Wait();
  }
  g_server = nullptr;
  server.Stop();
  return started;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Parse(argc, argv);
    const ObsFlags obs_flags(args);
    Status status;
    if (args.command == "generate") {
      status = Generate(args);
    } else if (args.command == "info") {
      status = Info(args);
    } else if (args.command == "classify") {
      status = Classify(args);
    } else if (args.command == "rank") {
      status = Rank(args);
    } else if (args.command == "serve") {
      status = Serve(args);
    } else {
      return Usage();
    }
    int rc = 0;
    if (!status.ok()) {
      // The single-line error contract for untrusted input: exit 2.
      std::fprintf(stderr, "error: %s\n",
                   OneLine(status.ToString()).c_str());
      rc = 2;
    }
    // Requested telemetry dumps are written even when the command failed —
    // that is precisely when the io.errors counters matter.
    if (!obs_flags.Flush() && rc == 0) rc = 1;
    return rc;
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return Usage();
  } catch (const std::exception& e) {
    // Internal bug (contract violation) — not an input error: exit 1.
    std::fprintf(stderr, "error: %s\n", OneLine(e.what()).c_str());
    return 1;
  }
}
