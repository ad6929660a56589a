#include "tmark/core/multirank.h"

#include <utility>

#include "tmark/common/check.h"
#include "tmark/la/panel.h"

namespace tmark::core {

MultiRankResult MultiRank(const tensor::TransitionTensors& tensors,
                          const MultiRankConfig& config) {
  const std::size_t n = tensors.num_nodes();
  const std::size_t m = tensors.num_relations();
  TMARK_CHECK(n > 0 && m > 0);
  MultiRankResult result;
  // One chain, so every vector is a width-1 panel.
  la::DenseMatrix x(n, 1, 1.0 / static_cast<double>(n));
  la::DenseMatrix z(m, 1, 1.0 / static_cast<double>(m));
  la::DenseMatrix x_next(n, 1);
  la::DenseMatrix z_next(m, 1);
  la::PanelWorkspace ws;
  la::Vector rho_x;
  la::Vector rho_z;
  for (int t = 0; t < config.max_iterations; ++t) {
    tensors.ApplyOPanel(x, z, 1, &x_next, &ws);
    tensors.ApplyRPanel(x_next, x_next, 1, &z_next, &ws);
    // Re-project onto the simplex: the updates preserve the sums exactly in
    // real arithmetic, but the z = (sum x)^2 coupling amplifies rounding
    // error cubically per iteration if left uncorrected.
    la::NormalizeLeadingColumnsL1(1, &x_next);
    la::NormalizeLeadingColumnsL1(1, &z_next);
    la::LeadingColumnL1Distances(x_next, x, 1, &rho_x);
    la::LeadingColumnL1Distances(z_next, z, 1, &rho_z);
    const double rho = rho_x[0] + rho_z[0];
    result.residuals.push_back(rho);
    std::swap(x, x_next);
    std::swap(z, z_next);
    if (rho < config.epsilon) {
      result.converged = true;
      break;
    }
  }
  result.node_scores = x.Col(0);
  result.relation_scores = z.Col(0);
  return result;
}

MultiRankResult MultiRank(const tensor::SparseTensor3& adjacency,
                          const MultiRankConfig& config) {
  return MultiRank(tensor::TransitionTensors::Build(adjacency.slices()),
                   config);
}

}  // namespace tmark::core
