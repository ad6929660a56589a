#include "tmark/core/panel_fixed_point.h"

#include <algorithm>
#include <utility>

#include "tmark/common/check.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"

namespace tmark::core {

void PanelFixedPoint::Reset(std::size_t n, std::size_t m,
                            std::size_t chains) {
  if (x_.rows() != n || x_.cols() < chains) {
    const std::size_t cols = std::max(chains, x_.cols());
    x_ = la::DenseMatrix(n, cols);
    l_ = la::DenseMatrix(n, cols);
    x_next_ = la::DenseMatrix(n, cols);
    wx_ = la::DenseMatrix(n, cols);
  }
  if (z_.rows() != m || z_.cols() < x_.cols()) {
    z_ = la::DenseMatrix(m, x_.cols());
    z_next_ = la::DenseMatrix(m, x_.cols());
  }
  chains_ = chains;
  slot_chain_.resize(chains);
  if (residuals_.size() < chains) residuals_.resize(chains);
  converged_.resize(chains);
}

std::size_t PanelFixedPoint::Run(const PreparedOperators& ops,
                                 const Options& options, const Finish& finish,
                                 const Refresh& refresh) {
  TMARK_CHECK(ops.num_nodes() == x_.rows() &&
              ops.num_relations() == z_.rows());
  const tensor::TransitionTensors& tensors = ops.tensors();
  const hin::FeatureSimilarity& similarity = ops.similarity();
  const double alpha = options.alpha;
  const double beta = options.beta;
  const double rel_weight = 1.0 - alpha - beta;
  // Hoisted out of the loop: the phase timers branch on this bool instead
  // of re-reading the registry's atomic (metrics toggles mid-run are
  // unsupported anyway — see obs::Tracer).
  const bool timed = options.phase_timers && obs::MetricsEnabled();

  std::size_t width = chains_;
  for (std::size_t s = 0; s < width; ++s) {
    slot_chain_[s] = s;
    residuals_[s].clear();
    residuals_[s].reserve(static_cast<std::size_t>(options.max_iterations));
    converged_[s] = 0;
  }
  std::size_t iterations = 0;
  for (int t = 1; t <= options.max_iterations && width > 0; ++t) {
    if (refresh && t > 2) {
      obs::ScopedTimer phase("tmark.fit.phase.ica_update_ms", timed);
      for (std::size_t s = 0; s < width; ++s) {
        refresh(slot_chain_[s], x_, s, &l_);
      }
    }
    {
      obs::ScopedTimer phase("tmark.fit.phase.tensor_product_ms", timed);
      tensors.ApplyOPanel(x_, z_, width, &x_next_, &ws_);
    }
    {
      obs::ScopedTimer phase("tmark.fit.phase.feature_walk_ms", timed);
      similarity.ApplyPanel(x_, width, &wx_, &ws_);
      // Fused combine: x_next = rel*Ox + beta*Wx + alpha*L plus its column
      // sums in one panel sweep.
      la::FusedCombineColumns(rel_weight, beta, wx_, alpha, l_, width,
                              &x_next_, &x_sums_);
    }
    {
      obs::ScopedTimer phase("tmark.fit.phase.z_update_ms", timed);
      // ApplyRPanel consumes the unnormalized x_next; its column sums are
      // handed in, and z_next's come back from the final correction sweep —
      // no extra panel passes.
      tensors.ApplyRPanel(x_next_, x_next_, width, &z_next_, &ws_, &x_sums_,
                          &x_sums_, &z_sums_);
      // Simplex re-projection guards against the cubic amplification of
      // rounding error through the z = (sum x)^2 coupling; the fixed-point
      // property test pins every column to the simplex.
      // Fused normalize + residual: one sweep each for x and z.
      la::FusedNormalizeDistanceColumns(&x_sums_, x_, width, &x_next_,
                                        &rho_x_);
      la::FusedNormalizeDistanceColumns(&z_sums_, z_, width, &z_next_,
                                        &rho_z_);
    }
    std::swap(x_, x_next_);
    std::swap(z_, z_next_);
    ++iterations;

    // Record residuals and retire converged columns. When slot s retires,
    // the last active column moves into it (with its residuals) and the
    // slot is re-processed, so every active column is handled exactly once.
    std::size_t s = 0;
    while (s < width) {
      const double rho = rho_x_[s] + rho_z_[s];
      const std::size_t chain = slot_chain_[s];
      residuals_[chain].push_back(rho);
      if (rho < options.epsilon) {
        converged_[chain] = 1;
        finish(chain, x_, z_, s);
        const std::size_t last = width - 1;
        if (s != last) {
          la::MoveColumn(last, s, &x_);
          la::MoveColumn(last, s, &z_);
          la::MoveColumn(last, s, &l_);
          slot_chain_[s] = slot_chain_[last];
          rho_x_[s] = rho_x_[last];
          rho_z_[s] = rho_z_[last];
        }
        --width;
      } else {
        ++s;
      }
    }
  }

  // Columns still active hit the iteration cap without converging.
  for (std::size_t s = 0; s < width; ++s) {
    finish(slot_chain_[s], x_, z_, s);
  }
  return iterations;
}

}  // namespace tmark::core
