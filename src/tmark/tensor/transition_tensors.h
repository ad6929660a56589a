#ifndef TMARK_TENSOR_TRANSITION_TENSORS_H_
#define TMARK_TENSOR_TRANSITION_TENSORS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "tmark/la/dense_matrix.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/la/vector_ops.h"
#include "tmark/tensor/entry_index.h"

namespace tmark::tensor {

/// Markov transition probability tensors O and R derived from a non-negative
/// HIN adjacency tensor A (Eqs. (1)-(2) of the paper):
///
///   O[i,j,k] = A[i,j,k] / sum_i A[i,j,k]   — probability of visiting node i
///              given the walk is at node j and uses relation k;
///   R[i,j,k] = A[i,j,k] / sum_k A[i,j,k]   — probability of using relation k
///              given a step from node j to node i.
///
/// O and R have exactly A's support, so they share one EntryIndex of A's D
/// stored entries and differ only in their two value arrays.
///
/// Dangling handling follows the paper: a (j,k) column of O whose sum is
/// zero becomes the uniform column 1/n, and an (i,j) fiber of R with no link
/// in any relation becomes the uniform fiber 1/m. Neither uniform block is
/// materialized — the contraction kernels add their contribution as a rank-1
/// correction, keeping every operation O(D) in the stored non-zeros D
/// (Sec. 4.5 complexity analysis).
class TransitionTensors {
 public:
  /// Builds O and R from the relation slices of a non-negative adjacency
  /// tensor (all n x n, at least one).
  static TransitionTensors Build(
      const std::vector<la::SparseMatrix>& relations);

  std::size_t num_nodes() const { return n_; }
  std::size_t num_relations() const { return m_; }

  // Contractions in panel form (la/panel.h): one structure pass for all
  // leading `width` columns, including the implicit dangling corrections
  // column-wise. A single vector is a width-1 panel.

  /// The contraction (O x1_bar x x3_bar z)_i = sum_{j,k} O[i,j,k] x_j z_k
  /// per column, including the dangling-column correction: y(:, c) =
  /// O x1 x(:, c) x3 z(:, c) for c in [0, width). When x and z are
  /// probability vectors the result is again a probability vector
  /// (Theorem 1).
  void ApplyOPanel(const la::DenseMatrix& x, const la::DenseMatrix& z,
                   std::size_t width, la::DenseMatrix* y,
                   la::PanelWorkspace* ws) const;

  /// The contraction (R x1_bar x x2_bar y)_k = sum_{i,j} R[i,j,k] x_i y_j
  /// per column, including the dangling-fiber correction: w(:, c) =
  /// R x1 x(:, c) x2 y(:, c) for c in [0, width). The paper's Eq. (8) uses
  /// y = x; the two-argument form also supports the general bilinear case.
  ///
  /// The optional sum arguments let the fixed-point engine avoid extra
  /// panel sweeps: `x_sums` / `y_sums`, when non-null, supply the leading
  /// column sums of x / y (they MUST equal la::LeadingColumnSums of the
  /// panel — i.e. be accumulated in ascending row order — for
  /// bit-identity; the fused combine pass produces exactly that).
  /// `w_sums`, when non-null,
  /// receives the leading column sums of the finished w, accumulated in
  /// ascending k order during the final correction sweep — the same order
  /// la::LeadingColumnSums / la::Sum would read them.
  void ApplyRPanel(const la::DenseMatrix& x, const la::DenseMatrix& y,
                   std::size_t width, la::DenseMatrix* w,
                   la::PanelWorkspace* ws,
                   const la::Vector* x_sums = nullptr,
                   const la::Vector* y_sums = nullptr,
                   la::Vector* w_sums = nullptr) const;

  /// Entry O[i,j,k] including the implicit dangling value (1/n when column
  /// (j,k) has no links). Intended for tests and the worked example.
  double OEntry(std::size_t i, std::size_t j, std::size_t k) const;

  /// Entry R[i,j,k] including the implicit dangling value (1/m when the
  /// (i,j) pair has no link in any relation).
  double REntry(std::size_t i, std::size_t j, std::size_t k) const;

  /// Dense n x n materialization of slice O(:,:,k), dangling columns filled
  /// in. Small problems / tests / worked example only.
  la::DenseMatrix DenseOSlice(std::size_t k) const;

  /// Dense n x n materialization of slice R(:,:,k).
  la::DenseMatrix DenseRSlice(std::size_t k) const;

  /// Row-major index of A's stored entries, shared by O and R.
  const EntryIndex& index() const { return index_; }
  /// Stored values of O in index order — excludes the implicit dangling
  /// columns.
  const std::vector<double>& o_values() const { return o_; }
  /// Stored values of R in index order — excludes the implicit dangling
  /// fibers.
  const std::vector<double>& r_values() const { return r_; }

  /// Bytes held by the index and both value arrays.
  std::size_t StorageBytes() const;

  /// Per-relation list of dangling source columns j (sum_i A[i,j,k] == 0).
  const std::vector<std::vector<std::uint32_t>>& dangling_columns() const {
    return dangling_cols_;
  }

  /// 0/1 sparse mask of linked (i,j) pairs: sum_k A[i,j,k] > 0.
  const la::SparseMatrix& linked_mask() const { return linked_mask_; }

  /// Names the parts of an adjacency mutation for ApplyPatch: every
  /// relation whose slice changed at all, and every (i, j) pair whose total
  /// link weight sum_k A[i,j,k] changed (each edge add/remove/reweight
  /// lands its pair here). Both lists sorted and unique.
  struct AdjacencyDelta {
    std::vector<std::size_t> relations;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;  ///< (i, j).
  };

  /// Incrementally re-derives O, R, the dangling-column lists, and the
  /// linked mask after the adjacency mutated. Every destination row i of a
  /// changed pair is re-read from the adjacency: its R values re-divide by
  /// their new totals, and a row whose structure changed is re-spliced into
  /// the index once, carrying both value arrays. The edited relations' O
  /// values and dangling lists are then recomputed with the build's
  /// normalization. `adjacency` holds the POST-mutation relation slices
  /// (one per relation, all n x n); requires this operator set was built
  /// from the pre-mutation adjacency and `delta` covers every change. The
  /// patched operators are bit-identical to Build() on the mutated
  /// adjacency. Returns the number of index rows re-read (also added to
  /// the "update.rows_touched" counter).
  std::size_t ApplyPatch(const std::vector<la::SparseMatrix>& adjacency,
                         const AdjacencyDelta& delta);

 private:
  TransitionTensors() : n_(0), m_(0) {}

  /// Rewrites O for every stored entry of relation k from slice `a` (Eq. 1)
  /// and re-lists its dangling columns.
  void NormalizeRelation(std::size_t k, const la::SparseMatrix& a);
  /// Records the tensor.merged.* gauges.
  void RecordGauges() const;

  std::size_t n_;
  std::size_t m_;
  EntryIndex index_;
  std::vector<double> o_;  ///< O value per index entry.
  std::vector<double> r_;  ///< R value per index entry.
  /// For each relation k, the columns j with no stored entry (dangling).
  std::vector<std::vector<std::uint32_t>> dangling_cols_;
  /// 1.0 at every (i,j) that is linked through at least one relation.
  la::SparseMatrix linked_mask_;
};

}  // namespace tmark::tensor

#endif  // TMARK_TENSOR_TRANSITION_TENSORS_H_
