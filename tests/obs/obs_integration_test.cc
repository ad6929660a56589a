// End-to-end check that TMarkClassifier::Fit emits the documented
// telemetry (docs/OBSERVABILITY.md): one tmark.fit root span holding the
// operator build spans and one tmark.fit.batched panel span, residual
// series matching Traces(), and the per-phase timing histograms.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "tmark/core/tmark.h"
#include "tmark/datasets/paper_example.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"

namespace tmark {
namespace {

const std::string* FindField(const obs::SpanNode& span,
                             std::string_view key) {
  for (const auto& [k, v] : span.fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

const obs::HistogramSnapshot* FindHistogram(
    const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Instance().Reset();
    obs::Tracer::Instance().Reset();
    obs::Registry::Instance().set_enabled(true);
    obs::Tracer::Instance().set_enabled(true);
  }
  void TearDown() override {
    obs::Registry::Instance().set_enabled(false);
    obs::Tracer::Instance().set_enabled(false);
    obs::Registry::Instance().Reset();
    obs::Tracer::Instance().Reset();
  }
};

TEST_F(ObsIntegrationTest, ResidualSeriesMatchTracesExactly) {
  const hin::Hin hin = datasets::MakePaperExample();
  core::TMarkClassifier clf;
  clf.Fit(hin, datasets::PaperExampleLabeledNodes());
  const auto& traces = clf.Traces();

  const obs::MetricsSnapshot snap = obs::Registry::Instance().Snapshot();
  std::size_t total_iterations = 0;
  for (std::size_t c = 0; c < traces.size(); ++c) {
    total_iterations += traces[c].residuals.size();
    const std::string name = "tmark.fit.residual.c" + std::to_string(c);
    const auto it =
        std::find_if(snap.series.begin(), snap.series.end(),
                     [&name](const obs::SeriesSnapshot& s) {
                       return s.name == name;
                     });
    ASSERT_NE(it, snap.series.end()) << "missing series " << name;
    ASSERT_EQ(it->values.size(), traces[c].residuals.size());
    for (std::size_t t = 0; t < it->values.size(); ++t) {
      EXPECT_DOUBLE_EQ(it->values[t], traces[c].residuals[t]);
    }
  }

  const auto counter_it =
      std::find_if(snap.counters.begin(), snap.counters.end(),
                   [](const obs::CounterSnapshot& c) {
                     return c.name == "tmark.fit.iterations";
                   });
  ASSERT_NE(counter_it, snap.counters.end());
  EXPECT_EQ(counter_it->value,
            static_cast<std::int64_t>(total_iterations));
}

TEST_F(ObsIntegrationTest, BatchedFitEmitsPanelSpanAndSharedPhaseTimers) {
  const hin::Hin hin = datasets::MakePaperExample();
  core::TMarkClassifier clf;  // default engine is batched
  clf.Fit(hin, datasets::PaperExampleLabeledNodes());
  const auto& traces = clf.Traces();

  const std::vector<obs::SpanNode> roots =
      obs::Tracer::Instance().TakeFinished();
  ASSERT_EQ(roots.size(), 1u);
  const obs::SpanNode& fit = roots[0];
  EXPECT_EQ(fit.name, "tmark.fit");
  ASSERT_NE(FindField(fit, "classes"), nullptr);
  EXPECT_EQ(*FindField(fit, "classes"), std::to_string(hin.num_classes()));

  // The build spans of the transition tensors and the feature walk nest
  // under the fit, beside one panel span whose iteration count is the
  // longest class trace (columns retire early, the panel runs on).
  const obs::SpanNode* batched = nullptr;
  bool saw_tensor_build = false;
  bool saw_similarity_build = false;
  for (const obs::SpanNode& child : fit.children) {
    if (child.name == "tmark.fit.batched") batched = &child;
    if (child.name == "tensor.transition.build") saw_tensor_build = true;
    if (child.name == "hin.similarity.build") saw_similarity_build = true;
  }
  EXPECT_TRUE(saw_tensor_build);
  EXPECT_TRUE(saw_similarity_build);
  ASSERT_NE(batched, nullptr);
  std::size_t longest = 0;
  std::size_t total_iterations = 0;
  for (const core::ConvergenceTrace& trace : traces) {
    longest = std::max(longest, trace.residuals.size());
    total_iterations += trace.residuals.size();
  }
  ASSERT_NE(FindField(*batched, "iterations"), nullptr);
  EXPECT_EQ(*FindField(*batched, "iterations"), std::to_string(longest));

  // Residual series and the iteration counter match the traces exactly,
  // and the phase histograms see one observation per panel iteration.
  const obs::MetricsSnapshot snap = obs::Registry::Instance().Snapshot();
  for (std::size_t c = 0; c < traces.size(); ++c) {
    const std::string name = "tmark.fit.residual.c" + std::to_string(c);
    const auto it =
        std::find_if(snap.series.begin(), snap.series.end(),
                     [&name](const obs::SeriesSnapshot& s) {
                       return s.name == name;
                     });
    ASSERT_NE(it, snap.series.end()) << "missing series " << name;
    ASSERT_EQ(it->values.size(), traces[c].residuals.size());
    for (std::size_t t = 0; t < it->values.size(); ++t) {
      EXPECT_DOUBLE_EQ(it->values[t], traces[c].residuals[t]);
    }
  }
  const auto counter_it =
      std::find_if(snap.counters.begin(), snap.counters.end(),
                   [](const obs::CounterSnapshot& c) {
                     return c.name == "tmark.fit.iterations";
                   });
  ASSERT_NE(counter_it, snap.counters.end());
  EXPECT_EQ(counter_it->value,
            static_cast<std::int64_t>(total_iterations));
  for (const char* name :
       {"tmark.fit.phase.tensor_product_ms", "tmark.fit.phase.feature_walk_ms",
        "tmark.fit.phase.z_update_ms"}) {
    const obs::HistogramSnapshot* h = FindHistogram(snap, name);
    ASSERT_NE(h, nullptr) << "missing histogram " << name;
    EXPECT_EQ(h->count, longest) << name;
  }
  // The ICA restart refresh runs from the third panel iteration onward.
  ASSERT_GT(longest, 2u);
  const obs::HistogramSnapshot* ica =
      FindHistogram(snap, "tmark.fit.phase.ica_update_ms");
  ASSERT_NE(ica, nullptr);
  EXPECT_EQ(ica->count, longest - 2);
  const obs::HistogramSnapshot* total =
      FindHistogram(snap, "tmark.fit.total_ms");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 1u);
}

TEST_F(ObsIntegrationTest, DisabledObsLeavesFitSilent) {
  obs::Registry::Instance().set_enabled(false);
  obs::Tracer::Instance().set_enabled(false);
  const hin::Hin hin = datasets::MakePaperExample();
  core::TMarkClassifier clf;
  clf.Fit(hin, datasets::PaperExampleLabeledNodes());
  EXPECT_TRUE(obs::Tracer::Instance().FinishedCopy().empty());
  const obs::MetricsSnapshot snap = obs::Registry::Instance().Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(snap.series.empty());
}

}  // namespace
}  // namespace tmark
