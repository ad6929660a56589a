#ifndef TMARK_HIN_FEATURE_SIMILARITY_H_
#define TMARK_HIN_FEATURE_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "tmark/hin/similarity_kernel.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/la/vector_ops.h"

namespace tmark::hin {

/// The feature-based transition operator W of Sec. 4.2: the column-normalized
/// cosine-similarity matrix of node features,
///
///   C[i,j] = cos(f_i, f_j),   W = C * diag(colsums(C))^{-1}.
///
/// The n x n matrix is never materialized. With F_hat the row-L2-normalized
/// feature matrix, C = F_hat * F_hat^T, so
///
///   W x = F_hat * (F_hat^T * (x ./ colsums)),
///
/// two sparse passes costing O(nnz(F)) per application. Column sums are
/// likewise computed once as F_hat * (F_hat^T * 1). Nodes with all-zero
/// features produce zero columns; those are treated as dangling and mapped to
/// the uniform column 1/n, keeping W column-stochastic.
class FeatureSimilarity {
 public:
  /// Builds the operator from a non-negative n x d feature matrix. All
  /// kernels share the factorized form C = G G^T for a (kernel-dependent)
  /// transformed feature matrix G, so ApplyPanel stays O(nnz(F)) per column.
  static FeatureSimilarity Build(
      const la::SparseMatrix& features,
      SimilarityKernel kernel = SimilarityKernel::kCosine);

  /// Incrementally refreshes the operator after the listed feature rows
  /// were replaced (`features` is the POST-mutation matrix). The row-local
  /// kernels (cosine, binary cosine, dot product) re-transform and
  /// re-normalize only those F_hat rows and then recompute the column sums
  /// in Build's exact serial accumulation order, so the patched operator is
  /// bit-identical to Build(features, kernel()). The tf-idf kernel's global
  /// document frequencies couple every row, so it falls back to a full
  /// rebuild. Returns the number of F_hat rows rewritten.
  std::size_t PatchRows(const la::SparseMatrix& features,
                        const std::vector<std::uint32_t>& rows);

  std::size_t num_nodes() const { return col_sums_.size(); }

  /// Applies W column-wise (la/panel.h): y(:, c) = W x(:, c) for c in
  /// [0, width), streaming F_hat's structure once for all columns; a single
  /// vector is a width-1 panel. Maps probability vectors to probability
  /// vectors. `ws` supplies the n x q and d x q scratch panels and the
  /// scatter partials.
  void ApplyPanel(const la::DenseMatrix& x, std::size_t width,
                  la::DenseMatrix* y, la::PanelWorkspace* ws) const;

  /// W[i][j] materialized densely (ApplyPanel on the identity) — small
  /// inputs / tests only.
  la::DenseMatrix Dense() const;

  /// Pairwise similarity under the chosen kernel (exact cosine for the
  /// default kernel; inner product of transformed rows in general).
  double Cosine(std::size_t i, std::size_t j) const;

  /// Node indices whose feature vector is all-zero (dangling columns of W).
  const std::vector<std::uint32_t>& dangling_nodes() const {
    return dangling_;
  }

  /// The kernel this operator was built with.
  SimilarityKernel kernel() const { return kernel_; }

 private:
  FeatureSimilarity() = default;

  SimilarityKernel kernel_ = SimilarityKernel::kCosine;
  la::SparseMatrix fhat_;     ///< Kernel-transformed features G (n x d).
  la::Vector col_sums_;       ///< colsums(C); 0 for dangling nodes.
  std::vector<std::uint32_t> dangling_;
};

}  // namespace tmark::hin

#endif  // TMARK_HIN_FEATURE_SIMILARITY_H_
