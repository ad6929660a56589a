// tmark_served — warm-operator serving daemon for T-Mark (docs/SERVING.md).
//
//   tmark_served --hin net.hin --serve-socket /tmp/tmark.sock
//   tmark_served --hin net.hin --serve-port 7421 --batch-window-us 200
//
// Loads the HIN once, fits the classifier, pins the prepared operators,
// and answers classify/rank/topk/update requests over the length-prefixed
// line protocol (serve/protocol.h). Concurrent rank/topk queries are
// coalesced into panel kernels by the batching scheduler; `update` applies
// a HinDelta in the background while queries keep being served from the
// previous bundle, flagged stale.
//
// Error contract (docs/ERRORS.md): flag errors print usage and exit 2;
// load/fit errors print a single `error:` line and exit 2. Per-request
// errors go back to the client as `error <CODE> <message>` frames and
// never bring the daemon down.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "tmark/common/status.h"
#include "tmark/common/strict_parse.h"
#include "tmark/eval/experiment.h"
#include "tmark/hin/hin_io.h"
#include "tmark/obs/json_export.h"
#include "tmark/obs/logging.h"
#include "tmark/obs/metrics.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/serve/daemon.h"
#include "tmark/serve/server.h"

namespace {

using namespace tmark;

class FlagError : public std::runtime_error {
 public:
  explicit FlagError(const std::string& what) : std::runtime_error(what) {}
};

struct Args {
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
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw FlagError("expected --flag, got '" + key + "'");
    }
    if (i + 1 >= argc) {
      throw FlagError("missing value for " + key);
    }
    args.flags[key.substr(2)] = argv[i + 1];
  }
  // The flags Usage() documents; a misspelled one would otherwise be
  // ignored and its default used without a word.
  static const std::set<std::string> kFlags = {
      "hin",          "serve-socket", "serve-port",      "train-fraction",
      "alpha",        "gamma",        "seed",            "batch-window-us",
      "max-batch",    "max-queue",    "max-requests",    "log-level",
      "metrics-json", "threads"};
  for (const auto& [key, value] : args.flags) {
    if (kFlags.count(key) == 0) throw FlagError("unknown flag --" + key);
  }
  return args;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: tmark_served --hin FILE --serve-socket PATH | --serve-port N\n"
      "  --hin FILE            network to serve (tmark-hin format)\n"
      "  --serve-socket PATH   Unix-domain listening socket\n"
      "  --serve-port N        loopback TCP port (0 = kernel-assigned)\n"
      "  --train-fraction F    training split for the initial fit "
      "(default 0.3)\n"
      "  --alpha A --gamma G   T-Mark hyper-parameters (defaults 0.8, 0.6)\n"
      "  --seed S              split seed (default 13)\n"
      "  --batch-window-us U   coalescing window (default 200; 0 = off)\n"
      "  --max-batch B         panel width cap per batch (default 16)\n"
      "  --max-queue Q         admission bound before kResourceExhausted\n"
      "                        rejections (default 256)\n"
      "  --max-requests R      exit after R requests (default 0 = run "
      "until SIGINT)\n"
      "  --log-level L         debug|info|warn|error|off\n"
      "  --metrics-json FILE   dump serve.* metrics snapshot on exit\n"
      "  --threads N           worker threads for fit kernels\n"
      "protocol: docs/SERVING.md (length-prefixed frames;\n"
      "  classify <node> | rank <node> <k> | topk <node> <k> | "
      "update <delta-file>)\n");
  return 2;
}

std::string OneLine(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  return out;
}

serve::SocketServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();
}

Status Run(const Args& args) {
  const std::string hin_path = args.Get("hin", "");
  if (hin_path.empty()) {
    return InvalidArgumentError(
        "tmark_served requires --hin FILE (tmark-hin format)");
  }
  const std::string socket_path = args.Get("serve-socket", "");
  const std::size_t port = args.GetSize("serve-port", 0);
  if (socket_path.empty() && args.flags.count("serve-port") == 0) {
    return InvalidArgumentError(
        "tmark_served requires --serve-socket PATH or --serve-port N");
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

  TMARK_ASSIGN_OR_RETURN(hin::Hin hin, hin::LoadHinFromFile(hin_path));
  Rng rng(args.GetSize("seed", 13));
  const std::vector<std::size_t> labeled =
      eval::StratifiedSplit(hin, fraction, &rng);
  serve::ServingDaemon daemon(std::move(hin), labeled, options);
  TMARK_RETURN_IF_ERROR(daemon.Init());

  serve::ServerOptions server_options;
  server_options.unix_socket = socket_path;
  server_options.tcp_port = static_cast<int>(port);
  server_options.max_requests = args.GetSize("max-requests", 0);
  serve::SocketServer server(&daemon, server_options);
  // The handlers go in before Start: a signal that arrives once the socket
  // answers must stop the daemon cleanly, not kill it by the default
  // action. A stop requested before Start is kept.
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const Status started = server.Start();
  if (started.ok()) {
    const std::string endpoint =
        socket_path.empty() ? "127.0.0.1:" + std::to_string(server.port())
                            : socket_path;
    std::printf("tmark_served: %zu nodes, %zu classes; listening on %s\n",
                daemon.hin().num_nodes(), daemon.hin().num_classes(),
                endpoint.c_str());
    std::fflush(stdout);
    server.Wait();
  }
  g_server = nullptr;
  server.Stop();
  TMARK_RETURN_IF_ERROR(started);
  return daemon.WaitForUpdate();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Parse(argc, argv);
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
    const std::string metrics_json = args.Get("metrics-json", "");
    if (!metrics_json.empty()) obs::Registry::Instance().set_enabled(true);
    if (args.flags.count("threads") != 0) {
      const std::string& raw = args.flags.at("threads");
      const std::size_t threads = parallel::ParseThreadCount(raw.c_str());
      if (threads == 0) {
        throw FlagError("invalid value '" + raw +
                        "' for --threads (expected a positive integer)");
      }
      parallel::SetNumThreads(threads);
    }

    const Status status = Run(args);
    int rc = 0;
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", OneLine(status.ToString()).c_str());
      rc = 2;
    }
    if (!metrics_json.empty()) {
      const std::string doc =
          obs::MetricsToJson(obs::Registry::Instance().Snapshot());
      if (!obs::WriteTextFile(metrics_json, doc)) {
        std::fprintf(stderr, "error: cannot write %s\n", metrics_json.c_str());
        if (rc == 0) rc = 1;
      }
    }
    return rc;
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return Usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", OneLine(e.what()).c_str());
    return 1;
  }
}
