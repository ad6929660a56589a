// perfbench_tool — the native half of the repository benchmark
// (perfbench/README.md). run.py drives it; each subcommand prints one JSON
// object as its last stdout line.
//
//   job      one cold batch job (load -> split -> build -> fit -> write)
//   deltas   a sequence of state-changing HinDelta files for a network
//   verify   correctness gates over a serving run's answers, plus (traced)
//            the layer probes on the workload's network
//   loadgen  open-loop load against a running tmark_served

#include <cstdio>
#include <exception>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "deltas.h"
#include "layers.h"
#include "loadgen.h"
#include "tmark/common/random.h"
#include "tmark/core/model_io.h"
#include "tmark/eval/experiment.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/hin/hin_io.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/serve/daemon.h"
#include "tmark/serve/query_engine.h"
#include "util.h"

namespace perfbench {
namespace {

using tmark::core::TMarkClassifier;

void ApplyThreads(const Flags& flags) {
  const long long threads = flags.GetInt("threads", 0);
  if (threads > 0) {
    tmark::parallel::SetNumThreads(static_cast<std::size_t>(threads));
  }
}

void EnableTracing() {
  tmark::obs::Registry::Instance().set_enabled(true);
  tmark::obs::Tracer::Instance().set_enabled(true);
}

double SpanMs(const std::vector<Span>& spans, const std::string& name) {
  for (const Span& s : spans) {
    if (s.name == name) return s.end_ms - s.start_ms;
  }
  return 0.0;
}

double SelfMs(const std::vector<Span>& spans, const std::string& name) {
  const std::vector<double> self = SelfTimesMs(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) return self[i];
  }
  return 0.0;
}

/// The layer metrics every traced run reports, under their benchmark names.
std::string LayersJson(const ColdResult& cold, const EngineProbe& engine,
                       double protocol_us, const UpdateProbe& update) {
  const double load_ms = SpanMs(cold.spans, "hin.load");
  const double fit_ms = SpanMs(cold.spans, "core.fit");
  const double threads =
      static_cast<double>(tmark::parallel::NumThreads());
  return JsonObject()
      .Num("hin.load_ms", load_ms)
      .Num("hin.load_mb_s",
           load_ms > 0.0 ? static_cast<double>(cold.hin_bytes) / 1048576.0 /
                               (load_ms / 1e3)
                         : 0.0)
      .Num("hin.load_rss_mb", cold.load_rss_mb)
      .Num("tensor.build_ms", SpanMs(cold.spans, "tensor.transition.build"))
      .Num("hin.similarity_ms", SpanMs(cold.spans, "hin.similarity.build"))
      .Num("tensor.merged_mb", cold.merged_mb)
      .Num("tensor.shards", cold.shards)
      .Num("core.fingerprint_ms", SpanMs(cold.spans, "core.fingerprint"))
      .Num("core.build_ms", SelfMs(cold.spans, "core.build"))
      .Num("core.fit_ms", fit_ms)
      .Num("core.fit_iters", static_cast<double>(cold.fit_iters))
      .Num("core.fit_ms_per_iter",
           cold.fit_iters > 0 ? fit_ms / static_cast<double>(cold.fit_iters)
                              : 0.0)
      .Num("parallel.fit_busy",
           fit_ms > 0.0 ? cold.fit_cpu_ms / (fit_ms * threads) : 0.0)
      .Num("core.write_ms", SpanMs(cold.spans, "core.write"))
      .Num("core.write_mb", static_cast<double>(cold.model_bytes) / 1048576.0)
      .Num("serve.engine_ms.w1", engine.w1_ms)
      .Num("serve.engine_ms.w4", engine.w4_ms)
      .Num("serve.engine_cpu_ms.w1", engine.w1_cpu_ms)
      .Num("serve.engine_cpu_ms.w4", engine.w4_cpu_ms)
      .Num("serve.engine_iters", engine.iters)
      .Num("serve.protocol_us", protocol_us)
      .Num("hin.delta_load_ms", update.load_ms)
      .Num("hin.delta_validate_ms", update.validate_ms)
      .Num("core.update_ms", update.update_ms)
      .Num("core.update_patch_ms", update.patch_ms)
      .Num("core.update_iters", update.iters)
      .Text();
}

/// Engine, protocol and update probes on a finished cold path. Uses the
/// given delta files, or writes one generated delta to `scratch_delta`.
bool RunProbes(std::vector<std::string> deltas,
               const std::string& scratch_delta, std::uint64_t seed,
               ColdState* state, EngineProbe* engine, double* protocol_us,
               UpdateProbe* update, std::string* error) {
  const bool big = state->hin.num_nodes() > 20000;
  *engine = ProbeEngine(*state->ops, seed, big ? 2 : 10, big ? 0.0 : 300.0);
  *protocol_us = ProbeProtocolUs(state->hin.num_nodes());
  if (deltas.empty()) {
    std::mt19937_64 rng(seed);
    const tmark::hin::HinDelta delta = MakeUpdateDelta(state->hin, &rng);
    const tmark::Status saved =
        tmark::hin::SaveHinDeltaToFile(delta, scratch_delta);
    if (!saved.ok()) {
      *error = saved.ToString();
      return false;
    }
    deltas.push_back(scratch_delta);
  }
  if (deltas.size() > 3) deltas.resize(3);
  return ProbeUpdates(deltas, state, update, error);
}

int Job(const Flags& flags) {
  ApplyThreads(flags);
  const bool traced = flags.GetInt("trace", 0) != 0;
  if (traced) EnableTracing();
  const std::string model = flags.Require("model");
  ColdState state;
  ColdResult cold;
  std::string error;
  const CpuJiffies host0 = ReadCpuJiffies();
  if (!RunColdPath(flags.Require("hin"), model, flags.Get("id", "0"), &state,
                   &cold, &error)) {
    std::fprintf(stderr, "job failed: %s\n", error.c_str());
    return 1;
  }
  const double steal_pct = StealPct(host0, ReadCpuJiffies());
  JsonObject out;
  if (flags.GetInt("gate", 0) != 0) {
    // Gate: the written model reloads to exactly the in-memory posteriors.
    const tmark::Result<TMarkClassifier> reloaded =
        tmark::core::LoadTMarkModelFromFile(model);
    bool same = reloaded.ok();
    if (same) {
      const auto& a = state.classifier->Confidences();
      const auto& b = reloaded->Confidences();
      const auto& za = state.classifier->LinkImportance();
      const auto& zb = reloaded->LinkImportance();
      same = a.rows() == b.rows() && a.cols() == b.cols() &&
             za.rows() == zb.rows() && za.cols() == zb.cols();
      for (std::size_t i = 0; same && i < a.rows(); ++i) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
          if (a.At(i, c) != b.At(i, c)) same = false;
        }
      }
      for (std::size_t k = 0; same && k < za.rows(); ++k) {
        for (std::size_t c = 0; c < za.cols(); ++c) {
          if (za.At(k, c) != zb.At(k, c)) same = false;
        }
      }
    }
    out.Bool("reload_ok", same);
  }
  if (traced) {
    EngineProbe engine;
    UpdateProbe update;
    double protocol_us = 0.0;
    if (!RunProbes({}, model + ".delta", 17, &state, &engine, &protocol_us,
                   &update, &error)) {
      std::fprintf(stderr, "probe failed: %s\n", error.c_str());
      return 1;
    }
    out.Raw("layers", LayersJson(cold, engine, protocol_us, update));
  }
  char accuracy[16];
  std::snprintf(accuracy, sizeof accuracy, "%.4f", cold.accuracy);
  out.Num("wall_ms", cold.wall_ms)
      .Num("cpu_ms", cold.cpu_ms)
      .Num("peak_rss_mb", cold.peak_rss_mb)
      .Num("accuracy", cold.accuracy)
      .Str("accuracy_4", accuracy)
      .Int("nodes", static_cast<long long>(state.hin.num_nodes()))
      .Int("links", static_cast<long long>(cold.links))
      .Int("hin_bytes", static_cast<long long>(cold.hin_bytes))
      .Int("threads", static_cast<long long>(tmark::parallel::NumThreads()))
      .Int("fit_iters", static_cast<long long>(cold.fit_iters))
      .Num("steal_pct", steal_pct)
      .Raw("spans", SpansJson(cold.spans))
      .Raw("self_ms", JsonNumberArray(SelfTimesMs(cold.spans)));
  std::printf("%s\n", out.Text().c_str());
  return 0;
}

int Deltas(const Flags& flags) {
  tmark::Result<tmark::hin::Hin> loaded =
      tmark::hin::LoadHinFromFile(flags.Require("hin"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  tmark::hin::Hin hin = std::move(loaded.value());
  std::mt19937_64 rng(static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
  const std::string prefix = flags.Require("out-prefix");
  std::vector<std::string> files;
  std::vector<double> bytes;
  std::vector<double> ops;
  for (long long i = 0; i < flags.GetInt("count", 1); ++i) {
    const tmark::hin::HinDelta delta = MakeUpdateDelta(hin, &rng);
    const std::string path = prefix + std::to_string(i) + ".delta";
    tmark::Status status = tmark::hin::SaveHinDeltaToFile(delta, path);
    // Each delta must land on the network as its predecessors left it.
    if (status.ok()) status = hin.ApplyDelta(delta);
    if (!status.ok()) {
      std::fprintf(stderr, "delta %lld: %s\n", i, status.ToString().c_str());
      return 1;
    }
    files.push_back(JsonString(path));
    bytes.push_back(static_cast<double>(FileBytes(path)));
    ops.push_back(static_cast<double>(delta.size()));
  }
  std::string list = "[";
  for (std::size_t i = 0; i < files.size(); ++i) {
    list += (i > 0 ? "," : "") + files[i];
  }
  std::printf("%s\n", JsonObject()
                          .Raw("files", list + "]")
                          .Raw("bytes", JsonNumberArray(bytes))
                          .Raw("ops", JsonNumberArray(ops))
                          .Text()
                          .c_str());
  return 0;
}

/// Splits a "<request>\t<response>" or "<node>\t<response>" line.
bool SplitTab(const std::string& line, std::string* left, std::string* right) {
  const std::size_t tab = line.find('\t');
  if (tab == std::string::npos) return false;
  *left = line.substr(0, tab);
  *right = line.substr(tab + 1);
  return true;
}

int Verify(const Flags& flags) {
  ApplyThreads(flags);
  const bool traced = flags.GetInt("trace", 0) != 0;
  const std::string hin_path = flags.Require("hin");
  const std::vector<std::string> deltas =
      SplitString(flags.Get("deltas", ""), ',');
  const long long applied = flags.GetInt("applied", 0);
  ColdState state;
  ColdResult cold;
  std::string error;
  if (traced) {
    EnableTracing();
    if (!RunColdPath(hin_path, flags.Require("model"), "verify", &state,
                     &cold, &error)) {
      std::fprintf(stderr, "verify cold path failed: %s\n", error.c_str());
      return 1;
    }
  } else {
    tmark::Result<tmark::hin::Hin> loaded =
        tmark::hin::LoadHinFromFile(hin_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    state.hin = std::move(loaded.value());
    tmark::Rng rng(kSplitSeed);
    state.labeled =
        tmark::eval::StratifiedSplit(state.hin, kTrainFraction, &rng);
  }
  const tmark::core::TMarkConfig config = JobConfig();
  JsonObject out;

  // Gate: served walk answers equal in-process width-1 engine answers,
  // byte for byte on the %.17g wire text.
  const std::string sample_path = flags.Get("walk-sample", "");
  if (!sample_path.empty()) {
    if (state.ops == nullptr) {
      state.ops = tmark::core::PreparedOperators::BuildShared(
          state.hin, config.similarity);
    }
    tmark::serve::PanelQueryEngine engine(
        tmark::serve::MakeQueryOptions(config));
    std::ifstream in(sample_path);
    std::string line;
    std::string request_text;
    std::string served;
    long long checked = 0;
    long long mismatched = 0;
    while (std::getline(in, line)) {
      if (!SplitTab(line, &request_text, &served)) continue;
      const tmark::Result<tmark::serve::Request> request =
          tmark::serve::ParseRequest(request_text);
      if (!request.ok() || request->node >= state.hin.num_nodes()) {
        ++mismatched;
        continue;
      }
      std::vector<tmark::serve::SeedQueryResult> results;
      engine.Run(*state.ops, {request->node}, &results);
      tmark::serve::Response expected;
      expected.kind = request->kind;
      expected.node = request->node;
      expected.generation = 1;
      expected.fingerprint = state.ops->fingerprint();
      const tmark::la::Vector& scores =
          request->kind == tmark::serve::RequestKind::kRank ? results[0].z
                                                            : results[0].x;
      expected.entries = TopK(
          std::vector<double>(scores.begin(), scores.end()), request->top_k);
      ++checked;
      if (tmark::serve::FormatResponse(expected) != served) ++mismatched;
    }
    out.Raw("walk_gate", JsonObject()
                             .Int("checked", checked)
                             .Int("mismatched", mismatched)
                             .Bool("ok", checked > 0 && mismatched == 0)
                             .Text());
  }

  // Gate: after the last applied delta the daemon serves the fingerprint
  // of the input with the same deltas applied.
  tmark::hin::Hin replay = state.hin;
  for (long long i = 0; i < applied; ++i) {
    const std::string& path = deltas.at(static_cast<std::size_t>(i));
    tmark::Result<tmark::hin::HinDelta> delta =
        tmark::hin::LoadHinDeltaFromFile(path);
    const tmark::Status status =
        delta.ok() ? replay.ApplyDelta(delta.value()) : delta.status();
    if (!status.ok()) {
      std::fprintf(stderr, "replay: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  const std::uint64_t expected_fingerprint =
      tmark::core::FingerprintOperators(replay, config.similarity);

  const std::string classify_path = flags.Get("classify", "");
  if (!classify_path.empty()) {
    std::vector<std::size_t> predicted(state.hin.num_nodes(),
                                       state.hin.num_classes());
    std::ifstream in(classify_path);
    std::string line;
    std::string node_text;
    std::string served;
    long long answers = 0;
    long long bad = 0;
    while (std::getline(in, line)) {
      if (!SplitTab(line, &node_text, &served)) continue;
      const std::size_t node = std::stoull(node_text);
      const tmark::Result<tmark::serve::Response> response =
          tmark::serve::ParseResponse(served);
      ++answers;
      if (!response.ok() || node >= predicted.size() ||
          response->entries.empty() ||
          response->fingerprint != expected_fingerprint ||
          response->generation != static_cast<std::uint64_t>(1 + applied)) {
        ++bad;
        continue;
      }
      predicted[node] = response->entries[0].index;
    }
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof fingerprint, "%llu",
                  static_cast<unsigned long long>(expected_fingerprint));
    out.Raw("served_gate",
            JsonObject()
                .Int("answers", answers)
                .Int("bad", bad)
                .Str("expected_fingerprint", fingerprint)
                .Bool("ok", answers == static_cast<long long>(
                                           state.hin.num_nodes()) &&
                                bad == 0)
                .Text());
    out.Num("accuracy",
            HeldOutAccuracy(state.hin, state.labeled, predicted));
  }

  if (traced) {
    EngineProbe engine;
    UpdateProbe update;
    double protocol_us = 0.0;
    if (!RunProbes(deltas, flags.Require("model") + ".delta", 17, &state,
                   &engine, &protocol_us, &update, &error)) {
      std::fprintf(stderr, "probe failed: %s\n", error.c_str());
      return 1;
    }
    out.Raw("layers", LayersJson(cold, engine, protocol_us, update))
        .Raw("spans", SpansJson(cold.spans));
  }
  out.Int("nodes", static_cast<long long>(state.hin.num_nodes()))
      .Int("links", static_cast<long long>(state.hin.NumLinks()))
      .Int("hin_bytes", static_cast<long long>(FileBytes(hin_path)))
      .Int("threads", static_cast<long long>(tmark::parallel::NumThreads()));
  std::printf("%s\n", out.Text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool job|deltas|verify|loadgen --flag "
                 "value ...\n");
    return 2;
  }
  try {
    const std::string command = argv[1];
    const perfbench::Flags flags(argc, argv, 2);
    if (command == "job") return perfbench::Job(flags);
    if (command == "deltas") return perfbench::Deltas(flags);
    if (command == "verify") return perfbench::Verify(flags);
    if (command == "loadgen") return perfbench::RunLoadgen(flags);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
