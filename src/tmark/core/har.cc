#include "tmark/core/har.h"

#include <utility>

#include "tmark/common/check.h"
#include "tmark/la/panel.h"
#include "tmark/tensor/transition_tensors.h"

namespace tmark::core {
namespace {

/// Per-slice transpose: entry (i, j, k) -> (j, i, k). The destination-
/// normalized tensor of the transpose is exactly the source-normalized
/// tensor H of the original.
std::vector<la::SparseMatrix> TransposeSlices(const tensor::SparseTensor3& a) {
  std::vector<la::SparseMatrix> slices;
  slices.reserve(a.num_relations());
  for (const la::SparseMatrix& slice : a.slices()) {
    slices.push_back(slice.Transpose());
  }
  return slices;
}

}  // namespace

HarResult HarRank(const tensor::SparseTensor3& adjacency,
                  const HarConfig& config) {
  const std::size_t n = adjacency.num_nodes();
  const std::size_t m = adjacency.num_relations();
  TMARK_CHECK(n > 0 && m > 0);
  TMARK_CHECK(config.alpha >= 0.0 && config.alpha < 1.0);
  TMARK_CHECK(config.beta >= 0.0 && config.beta < 1.0);
  TMARK_CHECK(config.gamma >= 0.0 && config.gamma < 1.0);

  const tensor::TransitionTensors fwd =
      tensor::TransitionTensors::Build(adjacency.slices());
  const tensor::TransitionTensors bwd =
      tensor::TransitionTensors::Build(TransposeSlices(adjacency));

  // One chain per score, so every vector is a width-1 panel; x0, y0 and z0
  // are the uniform priors.
  const la::DenseMatrix x0(n, 1, 1.0 / static_cast<double>(n));
  const la::DenseMatrix y0 = x0;
  const la::DenseMatrix z0(m, 1, 1.0 / static_cast<double>(m));

  HarResult result;
  la::DenseMatrix x = x0, y = y0, z = z0;
  la::DenseMatrix x_next(n, 1), y_next(n, 1), z_next(m, 1);
  la::PanelWorkspace ws;
  la::Vector rho_x, rho_y, rho_z;
  for (int t = 0; t < config.max_iterations; ++t) {
    // Authority from hubs, hubs from authorities, relevance from both.
    fwd.ApplyOPanel(y, z, 1, &x_next, &ws);
    la::ScaleLeadingColumns(1.0 - config.alpha, 1, &x_next);
    la::AxpyLeadingColumns(config.alpha, x0, 1, &x_next);

    bwd.ApplyOPanel(x_next, z, 1, &y_next, &ws);
    la::ScaleLeadingColumns(1.0 - config.beta, 1, &y_next);
    la::AxpyLeadingColumns(config.beta, y0, 1, &y_next);

    fwd.ApplyRPanel(x_next, y_next, 1, &z_next, &ws);
    la::ScaleLeadingColumns(1.0 - config.gamma, 1, &z_next);
    la::AxpyLeadingColumns(config.gamma, z0, 1, &z_next);

    la::NormalizeLeadingColumnsL1(1, &x_next);
    la::NormalizeLeadingColumnsL1(1, &y_next);
    la::NormalizeLeadingColumnsL1(1, &z_next);

    la::LeadingColumnL1Distances(x_next, x, 1, &rho_x);
    la::LeadingColumnL1Distances(y_next, y, 1, &rho_y);
    la::LeadingColumnL1Distances(z_next, z, 1, &rho_z);
    const double rho = rho_x[0] + rho_y[0] + rho_z[0];
    result.residuals.push_back(rho);
    std::swap(x, x_next);
    std::swap(y, y_next);
    std::swap(z, z_next);
    if (rho < config.epsilon) {
      result.converged = true;
      break;
    }
  }
  result.authority = x.Col(0);
  result.hub = y.Col(0);
  result.relevance = z.Col(0);
  return result;
}

}  // namespace tmark::core
