#include "tmark/core/tmark.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>

#include "tmark/common/check.h"
#include "tmark/core/panel_fixed_point.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/hin/label_vector.h"
#include "tmark/la/panel.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"

namespace tmark::core {

TMarkClassifier::TMarkClassifier(TMarkConfig config) : config_(config) {
  TMARK_CHECK_MSG(config.alpha > 0.0 && config.alpha < 1.0,
                  "alpha must lie in (0, 1)");
  TMARK_CHECK_MSG(config.gamma >= 0.0 && config.gamma <= 1.0,
                  "gamma must lie in [0, 1]");
  TMARK_CHECK_MSG(config.lambda >= 0.0 && config.lambda <= 1.0,
                  "lambda must lie in [0, 1]");
  TMARK_CHECK(config.alpha + config.beta() <= 1.0 + 1e-12);
}

void TMarkClassifier::Fit(const hin::Hin& hin,
                          const std::vector<std::size_t>& labeled) {
  FitInternal(hin, labeled, /*warm_start=*/false, /*external_ops=*/nullptr);
}

void TMarkClassifier::Fit(const hin::Hin& hin, const PreparedOperators& ops,
                          const std::vector<std::size_t>& labeled) {
  FitInternal(hin, labeled, /*warm_start=*/false, &ops);
}

void TMarkClassifier::SetPreparedOperators(
    std::shared_ptr<const PreparedOperators> ops) {
  prepared_ = std::move(ops);
}

void TMarkClassifier::Refit(const hin::Hin& hin,
                            const std::vector<std::size_t>& labeled) {
  const bool compatible = confidences_.rows() == hin.num_nodes() &&
                          confidences_.cols() == hin.num_classes() &&
                          link_importance_.rows() == hin.num_relations();
  FitInternal(hin, labeled, /*warm_start=*/compatible,
              /*external_ops=*/nullptr);
}

Status TMarkClassifier::Update(hin::Hin* hin, const hin::HinDelta& delta,
                               const std::vector<std::size_t>& labeled) {
  TMARK_CHECK(hin != nullptr);
  obs::ScopedTimer update_timer("update.total_ms");
  // Label-only deltas cannot change the operators (labels are excluded from
  // the fingerprint), so one post-mutation fingerprint both validates the
  // held bundle and proves its honesty. Deltas that touch edges or features
  // need the pre-mutation fingerprint: patching a bundle that does not match
  // the network it claims to describe would stamp a fresh fingerprint onto
  // stale content.
  const bool ops_affected =
      !delta.edge_ops().empty() || !delta.feature_updates().empty();
  std::uint64_t pre_fingerprint = 0;
  if (ops_affected && prepared_ != nullptr) {
    pre_fingerprint = FingerprintOperators(*hin, config_.similarity);
  }
  TMARK_RETURN_IF_ERROR(hin->ApplyDelta(delta));
  const PreparedOperators* external = nullptr;
  if (prepared_ != nullptr) {
    if (!ops_affected) {
      if (prepared_->fingerprint() ==
          FingerprintOperators(*hin, config_.similarity)) {
        obs::IncrCounter("ops.cache.hit");
        external = prepared_.get();
      }
    } else if (prepared_->fingerprint() == pre_fingerprint) {
      // Patch instead of rebuild. Copy-on-write: a uniquely-held bundle is
      // patched in place; a shared one is copied first so other holders
      // keep the pre-mutation operators.
      std::shared_ptr<PreparedOperators> mutable_ops;
      if (prepared_.use_count() == 1) {
        mutable_ops = std::const_pointer_cast<PreparedOperators>(prepared_);
      } else {
        mutable_ops = std::make_shared<PreparedOperators>(*prepared_);
      }
      mutable_ops->ApplyDelta(*hin, delta);
      prepared_ = std::move(mutable_ops);
      obs::IncrCounter("ops.cache.hit");
      external = prepared_.get();
    }
  }
  // A stale (or absent) bundle is left for FitInternal, whose fingerprint
  // check rebuilds it and records the ops.cache.miss; a validated one is
  // passed through directly so the refresh skips the O(nnz) re-check.
  const bool compatible = confidences_.rows() == hin->num_nodes() &&
                          confidences_.cols() == hin->num_classes() &&
                          link_importance_.rows() == hin->num_relations();
  if (compatible && !ops_affected && external != nullptr) {
    // Label-only delta against a validated operator bundle: classes the
    // delta provably did not perturb keep their previous stationary
    // columns and skip the iteration loop entirely.
    ComputeRetireHints(*hin, delta, labeled);
  }
  FitInternal(*hin, labeled, /*warm_start=*/compatible, external);
  return Status::Ok();
}

void TMarkClassifier::ComputeRetireHints(
    const hin::Hin& hin, const hin::HinDelta& delta,
    const std::vector<std::size_t>& labeled) {
  retire_hints_.clear();
  const std::size_t n = hin.num_nodes();
  const std::size_t q = hin.num_classes();
  if (last_labeled_.empty() || traces_.size() != q) return;
  std::vector<std::size_t> sorted(labeled);
  std::sort(sorted.begin(), sorted.end());
  // Hints only hold when the training set grew: a node leaving it changes
  // every restart vector in ways the analysis below does not cover.
  if (!std::includes(sorted.begin(), sorted.end(), last_labeled_.begin(),
                     last_labeled_.end())) {
    return;
  }
  std::vector<std::size_t> joined;
  std::set_difference(sorted.begin(), sorted.end(), last_labeled_.begin(),
                      last_labeled_.end(), std::back_inserter(joined));
  // Joined nodes must be explained by the delta's label wave — a training
  // set rearranged for some other reason is outside the hints' contract.
  for (const std::size_t node : joined) {
    const bool in_delta = std::any_of(
        delta.label_adds().begin(), delta.label_adds().end(),
        [node](const hin::LabelAdd& add) { return add.node == node; });
    if (!in_delta) return;
  }

  // perturbed[c] — class c's restart vector may have moved. Conservative
  // union of everything InitialLabelVector / UpdatedLabelVector read.
  std::vector<bool> perturbed(q, false);
  for (std::size_t c = 0; c < q; ++c) {
    if (!traces_[c].converged) perturbed[c] = true;
  }
  // A label landing on a training node enters that class's restart vector.
  for (const hin::LabelAdd& add : delta.label_adds()) {
    if (std::binary_search(sorted.begin(), sorted.end(), add.node)) {
      perturbed[add.cls] = true;
    }
  }
  if (!joined.empty()) {
    // Per class, the previous stationary maximum over the *old* unlabeled
    // nodes — the reference of the ICA acceptance cutoff (Eq. 12).
    std::vector<bool> was_labeled(n, false);
    for (const std::size_t node : last_labeled_) was_labeled[node] = true;
    std::vector<double> max_unlabeled(q, 0.0);
    if (config_.ica_update) {
      for (std::size_t i = 0; i < n; ++i) {
        if (was_labeled[i]) continue;
        for (std::size_t c = 0; c < q; ++c) {
          max_unlabeled[c] = std::max(max_unlabeled[c], confidences_.At(i, c));
        }
      }
    }
    for (const std::size_t v : joined) {
      for (std::size_t c = 0; c < q; ++c) {
        if (hin.HasLabel(v, c)) {
          // v now contributes to l_c as a labeled carrier of c.
          perturbed[c] = true;
        } else if (config_.ica_update) {
          // v leaving the unlabeled pool keeps l_c intact only when it
          // neither set the unlabeled maximum (the cutoff would move) nor
          // sat above the cutoff (it was ICA-accepted and now is not).
          const double xv = confidences_.At(v, c);
          const bool safe = xv < max_unlabeled[c] &&
                            xv <= config_.lambda * max_unlabeled[c];
          if (!safe) perturbed[c] = true;
        }
      }
    }
  }
  bool any_hint = false;
  retire_hints_.assign(q, false);
  for (std::size_t c = 0; c < q; ++c) {
    if (!perturbed[c]) {
      retire_hints_[c] = true;
      any_hint = true;
    }
  }
  if (!any_hint) retire_hints_.clear();
}

void TMarkClassifier::FitInternal(const hin::Hin& hin,
                                  const std::vector<std::size_t>& labeled,
                                  bool warm_start,
                                  const PreparedOperators* external_ops) {
  const std::size_t n = hin.num_nodes();
  const std::size_t m = hin.num_relations();
  const std::size_t q = hin.num_classes();
  TMARK_CHECK(n > 0 && m > 0 && q > 0);
  TMARK_CHECK_MSG(!labeled.empty(), "T-Mark needs at least one labeled node");

  obs::TraceSpan fit_span("tmark.fit");
  fit_span.AddField("nodes", n);
  fit_span.AddField("relations", m);
  fit_span.AddField("classes", q);
  fit_span.AddField("warm_start", warm_start);
  obs::ScopedTimer fit_timer("tmark.fit.total_ms");
  obs::IncrCounter("tmark.fit.calls");

  const PreparedOperators* ops = external_ops;
  if (ops != nullptr) {
    TMARK_CHECK_MSG(ops->num_nodes() == n && ops->num_relations() == m &&
                        ops->kernel() == config_.similarity,
                    "prepared operators do not match the HIN / kernel");
  } else {
    // Fingerprint-checked cache: a repeated Fit on an unchanged HIN (sweep
    // trials, refits) reuses the previous O/R/W builds.
    obs::ScopedTimer prepare_timer("tmark.fit.prepare_ms");
    const std::uint64_t fingerprint =
        FingerprintOperators(hin, config_.similarity);
    if (prepared_ != nullptr && prepared_->fingerprint() == fingerprint) {
      obs::IncrCounter("tmark.fit.operator_cache_hits");
      obs::IncrCounter("ops.cache.hit");
    } else {
      obs::IncrCounter("ops.cache.miss");
      prepared_ = PreparedOperators::BuildShared(hin, config_.similarity);
    }
    ops = prepared_.get();
  }

  const la::DenseMatrix prev_x = std::move(confidences_);
  const la::DenseMatrix prev_z = std::move(link_importance_);
  confidences_ = la::DenseMatrix(n, q);
  link_importance_ = la::DenseMatrix(m, q);
  traces_.assign(q, ConvergenceTrace{});
  for (std::size_t c = 0; c < q; ++c) traces_[c].class_index = c;

  // Consume one-shot retirement hints (Update, label-only deltas): hinted
  // classes keep their previous stationary columns — converged, zero
  // iterations, empty residual trace — and never occupy an engine column.
  std::vector<bool> retired;
  if (warm_start && retire_hints_.size() == q) {
    retired = std::move(retire_hints_);
  }
  retire_hints_.clear();
  std::vector<std::size_t> active;  // Class of each engine chain.
  active.reserve(q);
  for (std::size_t c = 0; c < q; ++c) {
    if (retired.empty() || !retired[c]) {
      active.push_back(c);
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      confidences_.At(i, c) = prev_x.At(i, c);
    }
    for (std::size_t k = 0; k < m; ++k) {
      link_importance_.At(k, c) = prev_z.At(k, c);
    }
    traces_[c].converged = true;
  }
  const std::size_t hinted = q - active.size();
  if (hinted > 0) {
    obs::IncrCounter("update.hinted_classes",
                     static_cast<std::int64_t>(hinted));
    fit_span.AddField("hinted_classes", hinted);
  }

  {
    obs::TraceSpan span("tmark.fit.batched");
    // Chain s carries class active[s]: the restart starts at the label
    // vector, x at the labels (or the previous stationary column when
    // warm, with z likewise), z at the uniform distribution.
    PanelFixedPoint engine;
    engine.Reset(n, m, active.size());
    for (std::size_t s = 0; s < active.size(); ++s) {
      const std::size_t c = active[s];
      const la::Vector l = hin::InitialLabelVector(hin, labeled, c);
      la::SetColumn(l, s, &engine.restart());
      if (warm_start) {
        la::SetColumn(prev_x.Col(c), s, &engine.start_x());
        la::SetColumn(prev_z.Col(c), s, &engine.start_z());
      } else {
        la::SetColumn(l, s, &engine.start_x());
        la::SetColumn(la::UniformProbability(m), s, &engine.start_z());
      }
    }
    PanelFixedPoint::Options options;
    options.alpha = config_.alpha;
    options.beta = config_.beta();
    options.epsilon = config_.epsilon;
    options.max_iterations = config_.max_iterations;
    options.phase_timers = true;
    // The ICA refresh (Eq. 12) is inherently per class; one scratch serves
    // every chain because the engine refreshes them one after another.
    la::Vector ica_x;
    la::Vector ica_l;
    std::vector<bool> ica_known;
    PanelFixedPoint::Refresh ica;
    if (config_.ica_update) {
      ica = [&](std::size_t chain, const la::DenseMatrix& x, std::size_t slot,
                la::DenseMatrix* restart) {
        la::ExtractColumn(x, slot, &ica_x);
        hin::UpdatedLabelVectorInto(hin, labeled, active[chain], ica_x,
                                    config_.lambda, &ica_l, &ica_known);
        la::SetColumn(ica_l, slot, restart);
      };
    }
    const std::size_t iterations = engine.Run(
        *ops, options,
        [&](std::size_t chain, const la::DenseMatrix& x,
            const la::DenseMatrix& z, std::size_t slot) {
          const std::size_t c = active[chain];
          for (std::size_t i = 0; i < n; ++i) {
            confidences_.At(i, c) = x.At(i, slot);
          }
          for (std::size_t k = 0; k < m; ++k) {
            link_importance_.At(k, c) = z.At(k, slot);
          }
        },
        ica);

    std::int64_t column_iterations = 0;
    for (std::size_t s = 0; s < active.size(); ++s) {
      ConvergenceTrace& trace = traces_[active[s]];
      trace.residuals = engine.residuals(s);
      trace.converged = engine.converged(s);
      column_iterations += static_cast<std::int64_t>(trace.residuals.size());
      if (obs::MetricsEnabled()) {
        const std::string series =
            "tmark.fit.residual.c" + std::to_string(active[s]);
        for (const double rho : trace.residuals) {
          obs::AppendSeries(series, rho);
        }
      }
    }
    if (column_iterations > 0) {
      obs::IncrCounter("tmark.fit.iterations", column_iterations);
    }
    std::size_t converged = 0;
    for (const ConvergenceTrace& trace : traces_) converged += trace.converged;
    span.AddField("iterations", iterations);
    span.AddField("converged_classes", converged);
  }
  last_labeled_ = labeled;
  std::sort(last_labeled_.begin(), last_labeled_.end());

  // Convergence diagnostics (Theorems 1-3, Fig. 10): the per-iteration
  // contraction rate rho_{t+1}/rho_t, its geometric-mean estimate, and the
  // predicted iterations a refit at this rate would need to reach
  // tolerance. Computed from the finished traces.
  if (obs::MetricsEnabled()) {
    for (const ConvergenceTrace& trace : traces_) {
      const std::string suffix = ".c" + std::to_string(trace.class_index);
      for (std::size_t t = 1; t < trace.residuals.size(); ++t) {
        if (trace.residuals[t - 1] > 0.0) {
          obs::AppendSeries("tmark.fit.contraction" + suffix,
                            trace.residuals[t] / trace.residuals[t - 1]);
        }
      }
      const double rate = EstimateContractionRate(trace.residuals);
      if (rate > 0.0) {
        obs::SetGauge("tmark.fit.contraction_rate" + suffix, rate);
      }
      const double predicted =
          PredictIterationsToTolerance(trace.residuals, rate, config_.epsilon);
      if (predicted >= 0.0) {
        obs::SetGauge("tmark.fit.predicted_iters" + suffix, predicted);
      }
    }
  }
}

double EstimateContractionRate(const std::vector<double>& residuals) {
  // Walk the trace backwards collecting consecutive positive ratios; stop
  // at the first non-positive residual (a zero residual means exact
  // stationarity, and anything before it predates the contraction regime).
  double log_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t t = residuals.size(); t-- > 1 && count < 8;) {
    if (residuals[t] <= 0.0 || residuals[t - 1] <= 0.0) break;
    log_sum += std::log(residuals[t] / residuals[t - 1]);
    ++count;
  }
  return count > 0 ? std::exp(log_sum / static_cast<double>(count)) : 0.0;
}

double PredictIterationsToTolerance(const std::vector<double>& residuals,
                                    double rate, double epsilon) {
  if (residuals.empty()) return -1.0;
  const double last = residuals.back();
  if (last < epsilon) return 0.0;
  if (!(rate > 0.0) || rate >= 1.0 || !(epsilon > 0.0)) return -1.0;
  return std::ceil(std::log(epsilon / last) / std::log(rate));
}

const la::DenseMatrix& TMarkClassifier::Confidences() const {
  TMARK_CHECK_MSG(confidences_.rows() > 0, "classifier is not fitted");
  return confidences_;
}

const la::DenseMatrix& TMarkClassifier::LinkImportance() const {
  TMARK_CHECK_MSG(link_importance_.rows() > 0, "classifier is not fitted");
  return link_importance_;
}

std::vector<std::size_t> TMarkClassifier::RankRelationsForClass(
    std::size_t c) const {
  const la::DenseMatrix& z = LinkImportance();
  TMARK_CHECK(c < z.cols());
  return la::ArgSortDescending(z.Col(c));
}

}  // namespace tmark::core
