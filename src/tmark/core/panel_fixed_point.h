#ifndef TMARK_CORE_PANEL_FIXED_POINT_H_
#define TMARK_CORE_PANEL_FIXED_POINT_H_

// The fixed-point engine of Algorithm 1, shared by TMarkClassifier (Fit,
// Refit, Update) and the serve query engine (docs/PERFORMANCE.md).
//
// A chain is one walker with its own restart column l:
//
//   x_t = (1 - alpha - beta) * (O x1 x_{t-1} x3 z_{t-1})
//         + beta * W x_{t-1} + alpha * l                         (Eq. 10)
//   z_t = R x1 x_t x2 x_t                                        (Eq. 8)
//
// each followed by its simplex re-projection. The fit runs one chain per
// class with label restarts and the ICA refresh (Eq. 12); serve runs one
// chain per seed with e_seed restarts. All chains of a run advance together
// as the columns of row-major panels through one fused kernel sequence per
// iteration — ApplyOPanel -> ApplyPanel + FusedCombineColumns ->
// ApplyRPanel -> FusedNormalizeDistanceColumns — so each sparse structure
// (O, R, the linked mask, F_hat) is streamed once per iteration for every
// chain. A chain retires when its residual
// rho_t = |x_t - x_{t-1}|_1 + |z_t - z_{t-1}|_1 drops below epsilon: the
// last active column moves into its slot, so the kernels always work on the
// leading `width` columns.
//
// Every panel kernel computes a column with the same floating-point
// operations in the same order whatever the width, the column stride, the
// neighbouring columns or the thread count (la/panel.h), and retirement
// never touches a surviving column. A chain's answer is therefore
// bit-identical whether it runs alone at width 1 or in any panel.

#include <cstddef>
#include <functional>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/vector_ops.h"

namespace tmark::core {

class PanelFixedPoint {
 public:
  struct Options {
    /// Restart weight alpha in (0, 1).
    double alpha = 0.8;
    /// Feature-walk weight beta; the tensor walk gets 1 - alpha - beta.
    double beta = 0.0;
    double epsilon = 1e-8;
    int max_iterations = 100;
    /// Times each phase of an iteration into the tmark.fit.phase.*
    /// histograms while metrics are enabled.
    bool phase_timers = false;
  };

  /// Rewrites the restart column `slot` of *restart for chain `chain` from
  /// its current x(:, slot). Called for every active chain in each
  /// iteration from the third on, before the tensor product.
  using Refresh =
      std::function<void(std::size_t chain, const la::DenseMatrix& x,
                         std::size_t slot, la::DenseMatrix* restart)>;

  /// Receives chain `chain`'s final x(:, slot) and z(:, slot): when it
  /// converges, or after the last iteration when the cap stopped it.
  using Finish =
      std::function<void(std::size_t chain, const la::DenseMatrix& x,
                         const la::DenseMatrix& z, std::size_t slot)>;

  /// Sizes the panels for `chains` chains over n nodes and m relations.
  /// Buffers keep their capacity across calls of the same shape, so an
  /// engine reused for runs no wider than before allocates nothing. Fill
  /// column c of start_x(), start_z() and restart() with chain c's start.
  void Reset(std::size_t n, std::size_t m, std::size_t chains);

  la::DenseMatrix& start_x() { return x_; }
  la::DenseMatrix& start_z() { return z_; }
  la::DenseMatrix& restart() { return l_; }

  /// Runs every chain to tolerance or to the iteration cap and returns the
  /// number of panel iterations. `refresh` may be empty (fixed restarts).
  std::size_t Run(const PreparedOperators& ops, const Options& options,
                  const Finish& finish, const Refresh& refresh = nullptr);

  /// Chain `chain`'s residual rho_t per iteration of the last Run.
  const std::vector<double>& residuals(std::size_t chain) const {
    return residuals_[chain];
  }
  /// Whether chain `chain` reached tolerance in the last Run.
  bool converged(std::size_t chain) const { return converged_[chain] != 0; }

 private:
  std::size_t chains_ = 0;
  la::PanelWorkspace ws_;
  la::DenseMatrix x_;
  la::DenseMatrix z_;
  la::DenseMatrix l_;
  la::DenseMatrix x_next_;
  la::DenseMatrix z_next_;
  la::DenseMatrix wx_;
  std::vector<std::size_t> slot_chain_;  ///< Chain carried by each slot.
  std::vector<std::vector<double>> residuals_;
  std::vector<char> converged_;
  la::Vector rho_x_;
  la::Vector rho_z_;
  la::Vector x_sums_;
  la::Vector z_sums_;
};

}  // namespace tmark::core

#endif  // TMARK_CORE_PANEL_FIXED_POINT_H_
