#include "tmark/core/tmark.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>

#include "tmark/common/check.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/hin/label_vector.h"
#include "tmark/la/panel.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"
#include "tmark/parallel/parallel_for.h"

namespace tmark::core {

const char* ToString(FitMode mode) {
  switch (mode) {
    case FitMode::kPerClass:
      return "per_class";
    case FitMode::kBatched:
      return "batched";
  }
  TMARK_CHECK_MSG(false, "unknown FitMode");
  return "";
}

bool TryParseFitMode(std::string_view text, FitMode* mode) {
  TMARK_CHECK(mode != nullptr);
  if (text == "per_class") {
    *mode = FitMode::kPerClass;
    return true;
  }
  if (text == "batched") {
    *mode = FitMode::kBatched;
    return true;
  }
  return false;
}

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
  fit_span.AddField("fit_mode", ToString(config_.fit_mode));
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
  // iterations, empty residual trace — and never enter an engine.
  std::vector<bool> retired;
  if (warm_start && retire_hints_.size() == q) {
    retired = std::move(retire_hints_);
  }
  retire_hints_.clear();
  std::size_t hinted = 0;
  for (std::size_t c = 0; c < q; ++c) {
    if (retired.empty() || !retired[c]) continue;
    for (std::size_t i = 0; i < n; ++i) {
      confidences_.At(i, c) = prev_x.At(i, c);
    }
    for (std::size_t k = 0; k < m; ++k) {
      link_importance_.At(k, c) = prev_z.At(k, c);
    }
    traces_[c].converged = true;
    ++hinted;
  }
  if (hinted > 0) {
    obs::IncrCounter("update.hinted_classes",
                     static_cast<std::int64_t>(hinted));
    fit_span.AddField("hinted_classes", hinted);
  }

  if (config_.fit_mode == FitMode::kBatched) {
    FitBatched(hin, labeled, warm_start, *ops, prev_x, prev_z, retired);
  } else {
    FitPerClass(hin, labeled, warm_start, *ops, prev_x, prev_z, retired,
                &fit_span);
  }
  last_labeled_ = labeled;
  std::sort(last_labeled_.begin(), last_labeled_.end());

  // Convergence diagnostics (Theorems 1-3, Fig. 10): the per-iteration
  // contraction rate rho_{t+1}/rho_t, its geometric-mean estimate, and the
  // predicted iterations a refit at this rate would need to reach
  // tolerance. Engine-independent: computed from the finished traces.
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

void TMarkClassifier::FitPerClass(const hin::Hin& hin,
                                  const std::vector<std::size_t>& labeled,
                                  bool warm_start,
                                  const PreparedOperators& ops,
                                  const la::DenseMatrix& prev_x,
                                  const la::DenseMatrix& prev_z,
                                  const std::vector<bool>& retired,
                                  obs::TraceSpan* fit_span) {
  const std::size_t n = hin.num_nodes();
  const std::size_t m = hin.num_relations();
  const std::size_t q = hin.num_classes();
  const tensor::TransitionTensors& tensors = ops.tensors();
  const hin::FeatureSimilarity& similarity = ops.similarity();

  const double alpha = config_.alpha;
  const double beta = config_.beta();
  const double rel_weight = 1.0 - alpha - beta;
  // Hoisted out of the iteration loops: the per-phase timers below branch
  // on this bool instead of re-reading the registry's atomic (metrics
  // toggles mid-fit are unsupported anyway — see obs::Tracer).
  const bool metrics = obs::MetricsEnabled();

  // The per-class chains are mutually independent (one (x_c, z_c) pair per
  // class) and write disjoint columns of confidences_/link_importance_ and
  // disjoint traces_ slots, so they run in parallel; results are identical
  // to the serial loop. Worker-side spans land in class_nodes and are
  // stitched back under fit_span in class order after the join.
  std::vector<obs::SpanNode> class_nodes(q);
  parallel::ParallelFor(q, /*grain=*/1, [&](std::size_t c) {
    if (!retired.empty() && retired[c]) return;  // Settled by FitInternal.
    obs::TraceSpan class_span("tmark.fit.class", &class_nodes[c]);
    class_span.AddField("class", c);
    obs::ScopedTimer class_timer("tmark.fit.class_ms");
    const std::string residual_series =
        "tmark.fit.residual.c" + std::to_string(c);

    la::Vector l = hin::InitialLabelVector(hin, labeled, c);
    la::Vector x = l;  // Start the walker on the labeled nodes (Sec. 4.3).
    la::Vector z = la::UniformProbability(m);
    if (warm_start) {
      // Seed from the previous stationary point (incremental mode).
      x = prev_x.Col(c);
      z = prev_z.Col(c);
    }

    // Iteration-loop state, hoisted so steady-state iterations reuse warm
    // buffers instead of allocating (swap replaces the old move-from-fresh).
    la::PanelWorkspace ws;
    la::Vector x_next;
    la::Vector z_next;
    la::Vector wx;
    std::vector<bool> ica_known;

    ConvergenceTrace trace;
    trace.class_index = c;
    trace.residuals.reserve(static_cast<std::size_t>(config_.max_iterations));
    for (int t = 1; t <= config_.max_iterations; ++t) {
      if (config_.ica_update && t > 2) {
        obs::ScopedTimer phase("tmark.fit.phase.ica_update_ms", metrics);
        hin::UpdatedLabelVectorInto(hin, labeled, c, x, config_.lambda, &l,
                                    &ica_known);
      }
      {
        obs::ScopedTimer phase("tmark.fit.phase.tensor_product_ms", metrics);
        tensors.ApplyOInto(x, z, &x_next);
        la::Scale(rel_weight, &x_next);
      }
      {
        obs::ScopedTimer phase("tmark.fit.phase.feature_walk_ms", metrics);
        similarity.ApplyInto(x, &ws, &wx);
        la::Axpy(beta, wx, &x_next);
        la::Axpy(alpha, l, &x_next);
      }
      {
        obs::ScopedTimer phase("tmark.fit.phase.z_update_ms", metrics);
        tensors.ApplyRInto(x_next, x_next, &z_next);
        // Simplex re-projection guards against the cubic amplification of
        // rounding error through the z = (sum x)^2 coupling (see MultiRank).
        la::NormalizeL1(&x_next);
        la::NormalizeL1(&z_next);
      }

      const double rho =
          la::L1Distance(x_next, x) + la::L1Distance(z_next, z);
      trace.residuals.push_back(rho);
      obs::IncrCounter("tmark.fit.iterations");
      obs::AppendSeries(residual_series, rho);
      std::swap(x, x_next);
      std::swap(z, z_next);
      if (rho < config_.epsilon) {
        trace.converged = true;
        break;
      }
    }
    class_span.AddField("iterations", trace.residuals.size());
    class_span.AddField("converged", trace.converged);
    for (std::size_t i = 0; i < n; ++i) confidences_.At(i, c) = x[i];
    for (std::size_t k = 0; k < m; ++k) link_importance_.At(k, c) = z[k];
    traces_[c] = std::move(trace);
  });
  for (std::size_t c = 0; c < q; ++c) {
    if (!retired.empty() && retired[c]) continue;  // No span was opened.
    fit_span->AdoptChild(std::move(class_nodes[c]));
  }
}

void TMarkClassifier::FitBatched(const hin::Hin& hin,
                                 const std::vector<std::size_t>& labeled,
                                 bool warm_start,
                                 const PreparedOperators& ops,
                                 const la::DenseMatrix& prev_x,
                                 const la::DenseMatrix& prev_z,
                                 const std::vector<bool>& retired) {
  const std::size_t n = hin.num_nodes();
  const std::size_t m = hin.num_relations();
  const std::size_t q = hin.num_classes();
  const tensor::TransitionTensors& tensors = ops.tensors();
  const hin::FeatureSimilarity& similarity = ops.similarity();

  const double alpha = config_.alpha;
  const double beta = config_.beta();
  const double rel_weight = 1.0 - alpha - beta;
  const bool metrics = obs::MetricsEnabled();

  obs::TraceSpan span("tmark.fit.batched");

  // All iteration state lives in panels sized once per fit: column slot s
  // of X/Z/L carries the chain of class cls[s]. Columns are compacted as
  // classes converge, so the kernels always work on the leading `width`
  // columns (physical stride q).
  la::PanelWorkspace ws;
  la::DenseMatrix x_panel(n, q);
  la::DenseMatrix z_panel(m, q);
  la::DenseMatrix l_panel(n, q);
  la::DenseMatrix x_next(n, q);
  la::DenseMatrix z_next(m, q);
  la::DenseMatrix wx_panel(n, q);
  // Retired classes (retirement hints, FitInternal) never occupy a slot:
  // the panel starts at the width of the still-active classes. Slot s
  // carries class cls[s]; without hints this is the identity layout.
  std::vector<std::size_t> cls;
  cls.reserve(q);
  for (std::size_t c = 0; c < q; ++c) {
    if (retired.empty() || !retired[c]) cls.push_back(c);
  }
  std::size_t width = cls.size();
  std::vector<std::string> series_names(q);
  std::vector<la::Vector> ica_cols(q);  // per-slot ICA extraction scratch
  for (std::size_t s = 0; s < width; ++s) {
    const std::size_t c = cls[s];
    series_names[c] = "tmark.fit.residual.c" + std::to_string(c);
    traces_[c].residuals.reserve(
        static_cast<std::size_t>(config_.max_iterations));
    const la::Vector l = hin::InitialLabelVector(hin, labeled, c);
    la::SetColumn(l, s, &l_panel);
    if (warm_start) {
      la::SetColumn(prev_x.Col(c), s, &x_panel);
      la::SetColumn(prev_z.Col(c), s, &z_panel);
    } else {
      la::SetColumn(l, s, &x_panel);
    }
  }
  if (!warm_start) {
    const double u = 1.0 / static_cast<double>(m);
    for (std::size_t k = 0; k < m; ++k) {
      for (std::size_t s = 0; s < width; ++s) z_panel.At(k, s) = u;
    }
  }

  std::size_t iterations = 0;
  la::Vector rho_x;
  la::Vector rho_z;
  la::Vector x_sums;
  la::Vector z_sums;
  std::vector<bool> ica_known;
  la::Vector ica_l;
  for (int t = 1; t <= config_.max_iterations && width > 0; ++t) {
    if (config_.ica_update && t > 2) {
      obs::ScopedTimer phase("tmark.fit.phase.ica_update_ms", metrics);
      // The ICA refresh is inherently per-class; slots are independent and
      // write disjoint columns of L. Serial over slots so the l/known
      // scratch can be reused (the refresh is a tiny fraction of an
      // iteration; per-slot cost is O(n)).
      for (std::size_t s = 0; s < width; ++s) {
        la::ExtractColumn(x_panel, s, &ica_cols[s]);
        hin::UpdatedLabelVectorInto(hin, labeled, cls[s], ica_cols[s],
                                    config_.lambda, &ica_l, &ica_known);
        la::SetColumn(ica_l, s, &l_panel);
      }
    }
    {
      obs::ScopedTimer phase("tmark.fit.phase.tensor_product_ms", metrics);
      tensors.ApplyOPanel(x_panel, z_panel, width, &x_next, &ws);
    }
    {
      obs::ScopedTimer phase("tmark.fit.phase.feature_walk_ms", metrics);
      similarity.ApplyPanel(x_panel, width, &wx_panel, &ws);
      // Fused combine: x_next = rel*Ox + beta*Wx + alpha*L plus its column
      // sums in one panel sweep (replaces one scale, two axpys, and the
      // sum pass of the x normalization; the rel scale now lands in this
      // phase's timer instead of tensor_product's).
      la::FusedCombineColumns(rel_weight, beta, wx_panel, alpha, l_panel,
                              width, &x_next, &x_sums);
    }
    {
      obs::ScopedTimer phase("tmark.fit.phase.z_update_ms", metrics);
      // ApplyRPanel consumes the unnormalized x_next (per-class order);
      // its column sums are handed in, and z_next's come back from the
      // final correction sweep — no extra panel passes.
      tensors.ApplyRPanel(x_next, x_next, width, &z_next, &ws, &x_sums,
                          &x_sums, &z_sums);
      // Simplex re-projection guards against the cubic amplification of
      // rounding error through the z = (sum x)^2 coupling (see MultiRank).
      // Fused normalize + residual: one sweep each for x and z.
      la::FusedNormalizeDistanceColumns(&x_sums, x_panel, width, &x_next,
                                        &rho_x);
      la::FusedNormalizeDistanceColumns(&z_sums, z_panel, width, &z_next,
                                        &rho_z);
    }
    std::swap(x_panel, x_next);
    std::swap(z_panel, z_next);
    ++iterations;
    obs::IncrCounter("tmark.fit.iterations",
                     static_cast<std::int64_t>(width));

    // Record residuals and retire converged columns. When slot s retires,
    // the last active column moves into it (with its residuals) and the
    // slot is re-processed, so every active column is handled exactly once.
    std::size_t s = 0;
    while (s < width) {
      const double rho = rho_x[s] + rho_z[s];
      const std::size_t c = cls[s];
      traces_[c].residuals.push_back(rho);
      obs::AppendSeries(series_names[c], rho);
      if (rho < config_.epsilon) {
        traces_[c].converged = true;
        for (std::size_t i = 0; i < n; ++i) {
          confidences_.At(i, c) = x_panel.At(i, s);
        }
        for (std::size_t k = 0; k < m; ++k) {
          link_importance_.At(k, c) = z_panel.At(k, s);
        }
        const std::size_t last = width - 1;
        if (s != last) {
          la::MoveColumn(last, s, &x_panel);
          la::MoveColumn(last, s, &z_panel);
          la::MoveColumn(last, s, &l_panel);
          cls[s] = cls[last];
          rho_x[s] = rho_x[last];
          rho_z[s] = rho_z[last];
        }
        --width;
      } else {
        ++s;
      }
    }
  }

  // Columns still active hit the iteration cap without converging.
  for (std::size_t s = 0; s < width; ++s) {
    const std::size_t c = cls[s];
    for (std::size_t i = 0; i < n; ++i) {
      confidences_.At(i, c) = x_panel.At(i, s);
    }
    for (std::size_t k = 0; k < m; ++k) {
      link_importance_.At(k, c) = z_panel.At(k, s);
    }
  }
  std::size_t converged = 0;
  for (const ConvergenceTrace& trace : traces_) converged += trace.converged;
  span.AddField("iterations", iterations);
  span.AddField("converged_classes", converged);
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
