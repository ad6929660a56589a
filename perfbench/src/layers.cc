#include "layers.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <utility>

#include "tmark/common/random.h"
#include "tmark/core/model_io.h"
#include "tmark/eval/experiment.h"
#include "tmark/hin/hin_io.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"
#include "tmark/serve/daemon.h"
#include "tmark/serve/query_engine.h"

namespace perfbench {

using tmark::core::PreparedOperators;
using tmark::core::TMarkClassifier;

tmark::core::TMarkConfig JobConfig() { return tmark::core::TMarkConfig{}; }

namespace {

std::size_t FitIterations(const TMarkClassifier& classifier) {
  std::size_t iters = 0;
  for (const auto& trace : classifier.Traces()) {
    iters = std::max(iters, trace.residuals.size());
  }
  return iters;
}

/// Moves the program's finished root spans named in `names` under
/// `parent`, translating tracer time into NowMs time.
void AdoptTracerSpans(const std::vector<std::string>& names, int parent,
                      const std::string& id, double tracer_offset_ms,
                      std::vector<Span>* spans) {
  for (const tmark::obs::SpanNode& node :
       tmark::obs::Tracer::Instance().TakeFinished()) {
    if (std::find(names.begin(), names.end(), node.name) == names.end()) {
      continue;
    }
    const double start = node.start_ms + tracer_offset_ms;
    spans->push_back(
        Span{node.name, start, start + node.duration_ms, parent, id});
  }
}

}  // namespace

bool RunColdPath(const std::string& hin_path, const std::string& model_path,
                 const std::string& id, ColdState* state, ColdResult* result,
                 std::string* error) {
  const bool traced = tmark::obs::TracingEnabled();
  const double tracer_offset =
      traced ? NowMs() - tmark::obs::Tracer::Instance().NowMs() : 0.0;
  std::vector<Span>& spans = result->spans;
  spans.clear();
  spans.push_back(Span{"job", NowMs(), 0.0, -1, id});
  const auto begin = [&](const char* name) {
    spans.push_back(Span{name, NowMs(), 0.0, 0, id});
    return static_cast<int>(spans.size()) - 1;
  };
  const auto end = [&](int span) { spans[span].end_ms = NowMs(); };

  int span = begin("hin.load");
  tmark::Result<tmark::hin::Hin> loaded =
      tmark::hin::LoadHinFromFile(hin_path);
  end(span);
  if (!loaded.ok()) {
    *error = loaded.status().ToString();
    return false;
  }
  state->hin = std::move(loaded).value();
  result->load_rss_mb = PeakRssMb();

  span = begin("eval.split");
  tmark::Rng rng(kSplitSeed);
  state->labeled =
      tmark::eval::StratifiedSplit(state->hin, kTrainFraction, &rng);
  end(span);

  const tmark::core::TMarkConfig config = JobConfig();
  span = begin("core.fingerprint");
  const std::uint64_t fingerprint =
      tmark::core::FingerprintOperators(state->hin, config.similarity);
  end(span);

  span = begin("core.build");
  state->ops = PreparedOperators::BuildShared(state->hin, config.similarity);
  end(span);
  if (traced) {
    AdoptTracerSpans({"tensor.transition.build", "hin.similarity.build"}, span,
                     id, tracer_offset, &spans);
  }
  if (state->ops->fingerprint() != fingerprint) {
    *error = "operator fingerprint differs from FingerprintOperators";
    return false;
  }

  span = begin("core.fit");
  const double fit_cpu = ProcessCpuMs();
  state->classifier.emplace(config);
  state->classifier->Fit(state->hin, *state->ops, state->labeled);
  result->fit_cpu_ms = ProcessCpuMs() - fit_cpu;
  end(span);
  if (traced) tmark::obs::Tracer::Instance().Reset();

  span = begin("core.write");
  const tmark::Status saved =
      tmark::core::SaveTMarkModelToFile(*state->classifier, model_path);
  end(span);
  spans[0].end_ms = spans[span].end_ms;
  result->cpu_ms = ProcessCpuMs();
  result->peak_rss_mb = PeakRssMb();
  if (!saved.ok()) {
    *error = saved.ToString();
    return false;
  }

  result->wall_ms = spans[0].end_ms - spans[0].start_ms;
  result->accuracy =
      HeldOutAccuracy(state->hin, state->labeled,
                      state->classifier->PredictSingleLabel());
  result->fit_iters = FitIterations(*state->classifier);
  result->hin_bytes = FileBytes(hin_path);
  result->model_bytes = FileBytes(model_path);
  result->links = state->hin.NumLinks();
  if (tmark::obs::MetricsEnabled()) {
    const tmark::obs::MetricsSnapshot snap =
        tmark::obs::Registry::Instance().Snapshot();
    result->merged_mb =
        GaugeValue(snap, "tensor.merged.bytes") / (1024.0 * 1024.0);
    result->shards = GaugeValue(snap, "tensor.merged.shards");
  }
  return true;
}

double HeldOutAccuracy(const tmark::hin::Hin& hin,
                       const std::vector<std::size_t>& labeled,
                       const std::vector<std::size_t>& predicted) {
  std::vector<bool> in_train(hin.num_nodes(), false);
  for (const std::size_t node : labeled) in_train[node] = true;
  std::size_t tested = 0;
  std::size_t hits = 0;
  for (const std::size_t node : hin.NodesWithLabels()) {
    if (in_train[node]) continue;
    ++tested;
    if (predicted[node] == hin.PrimaryLabel(node)) ++hits;
  }
  return tested == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(tested);
}

std::vector<tmark::serve::ScoredEntry> TopK(const std::vector<double>& values,
                                            std::size_t k) {
  std::vector<std::size_t> idx(values.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  std::vector<tmark::serve::ScoredEntry> entries(k);
  for (std::size_t i = 0; i < k; ++i) {
    entries[i] = tmark::serve::ScoredEntry{idx[i], values[idx[i]]};
  }
  return entries;
}

EngineProbe ProbeEngine(const PreparedOperators& ops, std::uint64_t seed,
                        int min_runs, double min_ms) {
  tmark::serve::PanelQueryEngine engine(
      tmark::serve::MakeQueryOptions(JobConfig()));
  std::mt19937_64 rng(seed);
  EngineProbe probe;
  double iters = 0.0;
  double walks = 0.0;
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    std::vector<double> wall;
    double cpu = 0.0;
    const double start = NowMs();
    while (static_cast<int>(wall.size()) < min_runs ||
           NowMs() - start < min_ms) {
      std::vector<std::size_t> seeds(width);
      for (std::size_t& s : seeds) s = rng() % ops.num_nodes();
      std::vector<tmark::serve::SeedQueryResult> results;
      const double cpu0 = ProcessCpuMs();
      const double t0 = NowMs();
      engine.Run(ops, seeds, &results);
      wall.push_back(NowMs() - t0);
      cpu += ProcessCpuMs() - cpu0;
      for (const auto& r : results) iters += static_cast<double>(r.iterations);
      walks += static_cast<double>(width);
    }
    const double runs = static_cast<double>(wall.size());
    if (width == 1) {
      probe.w1_ms = Quantile(wall, 0.5);
      probe.w1_cpu_ms = cpu / runs;
    } else {
      probe.w4_ms = Quantile(wall, 0.5);
      probe.w4_cpu_ms = cpu / runs;
    }
  }
  probe.iters = walks > 0.0 ? iters / walks : 0.0;
  return probe;
}

double ProbeProtocolUs(std::size_t num_nodes) {
  tmark::serve::Response response;
  response.kind = tmark::serve::RequestKind::kTopK;
  response.generation = 1;
  response.fingerprint = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < 10; ++i) {
    response.entries.push_back(tmark::serve::ScoredEntry{
        (i * 7919) % std::max<std::size_t>(num_nodes, 1),
        1.0 / static_cast<double>(i + 3)});
  }
  const int rounds = 20000;
  std::size_t sink = 0;
  const double t0 = NowMs();
  for (int i = 0; i < rounds; ++i) {
    const std::string payload =
        "topk " + std::to_string(static_cast<std::size_t>(i) % num_nodes) +
        " 10";
    const tmark::Result<tmark::serve::Request> request =
        tmark::serve::ParseRequest(payload);
    if (request.ok()) response.node = request->node;
    sink += tmark::serve::FormatResponse(response).size();
  }
  const double us = (NowMs() - t0) * 1e3 / rounds;
  return sink > 0 ? us : 0.0;
}

bool ProbeUpdates(const std::vector<std::string>& delta_paths,
                  ColdState* state, UpdateProbe* probe, std::string* error) {
  // Hand the operators to the classifier so Update patches them instead of
  // rebuilding, as the daemon's refresh does.
  state->classifier->SetPreparedOperators(std::move(state->ops));
  state->ops.reset();
  std::vector<double> load, validate, update, patch;
  double iters = 0.0;
  for (const std::string& path : delta_paths) {
    double t0 = NowMs();
    tmark::Result<tmark::hin::HinDelta> delta =
        tmark::hin::LoadHinDeltaFromFile(path);
    load.push_back(NowMs() - t0);
    if (!delta.ok()) {
      *error = delta.status().ToString();
      return false;
    }
    t0 = NowMs();
    const tmark::Status valid = delta->Validate(state->hin);
    validate.push_back(NowMs() - t0);
    if (!valid.ok()) {
      *error = valid.ToString();
      return false;
    }
    const double patch0 = HistogramSum(
        tmark::obs::Registry::Instance().Snapshot(), "update.operators_ms");
    t0 = NowMs();
    const tmark::Status updated = state->classifier->Update(
        &state->hin, delta.value(), state->labeled);
    update.push_back(NowMs() - t0);
    if (!updated.ok()) {
      *error = updated.ToString();
      return false;
    }
    patch.push_back(HistogramSum(tmark::obs::Registry::Instance().Snapshot(),
                                 "update.operators_ms") -
                    patch0);
    iters += static_cast<double>(FitIterations(*state->classifier));
  }
  probe->load_ms = Quantile(load, 0.5);
  probe->validate_ms = Quantile(validate, 0.5);
  probe->update_ms = Quantile(update, 0.5);
  probe->patch_ms = Quantile(patch, 0.5);
  probe->iters = delta_paths.empty()
                     ? 0.0
                     : iters / static_cast<double>(delta_paths.size());
  return true;
}

}  // namespace perfbench
