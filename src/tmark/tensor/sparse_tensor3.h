#ifndef TMARK_TENSOR_SPARSE_TENSOR3_H_
#define TMARK_TENSOR_SPARSE_TENSOR3_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tmark/la/sparse_matrix.h"

namespace tmark::tensor {

/// One (i, j, k, value) entry of a 3-way tensor.
struct TensorEntry {
  std::uint32_t i;  ///< First node index (destination of a walk step).
  std::uint32_t j;  ///< Second node index (source of a walk step).
  std::uint32_t k;  ///< Relation (link type) index.
  double value;
};

/// Sparse non-negative 3-way tensor A of size (n x n x m) representing a
/// multi-relational HIN: A[i,j,k] > 0 iff node j links to node i through the
/// k-th relation (Sec. 3.1 of the paper).
///
/// Storage is slice-major: one CSR matrix per relation k (the "front slices"
/// of Fig. 1(b)). The transition tensors built from it (transition_tensors.h)
/// index the same D stored non-zeros row-major for their O(D) contraction
/// kernels (Sec. 4.5).
class SparseTensor3 {
 public:
  /// Empty tensor (0 x 0 x 0).
  SparseTensor3() : n_(0), m_(0) {}

  /// All-zero tensor with n nodes and m relations.
  SparseTensor3(std::size_t n, std::size_t m);

  /// Assembles from entries; duplicates are summed. All values must index
  /// within (n, n, m).
  static SparseTensor3 FromEntries(std::size_t n, std::size_t m,
                                   std::vector<TensorEntry> entries);

  /// Builds from per-relation adjacency slices (all n x n).
  static SparseTensor3 FromSlices(std::vector<la::SparseMatrix> slices);

  /// Number of nodes n (modes 1 and 2).
  std::size_t num_nodes() const { return n_; }
  /// Number of relations m (mode 3).
  std::size_t num_relations() const { return m_; }
  /// Total stored non-zeros D across all slices.
  std::size_t NumNonZeros() const;

  /// Front slice A(:,:,k) as a CSR matrix over (i, j).
  const la::SparseMatrix& Slice(std::size_t k) const;
  /// All m front slices, in relation order.
  const std::vector<la::SparseMatrix>& slices() const { return slices_; }

  /// Entry A[i,j,k]; zero when not stored.
  double At(std::size_t i, std::size_t j, std::size_t k) const;

  /// All stored entries (i, j, k, value), slice by slice.
  std::vector<TensorEntry> Entries() const;

  /// sum_k A[i,j,k] for every stored (i,j) pair, as a sparse n x n matrix.
  /// This is the aggregated single-relational graph used by several
  /// baselines, and the support of the relation-normalization in Eq. (2).
  la::SparseMatrix SumOverRelations() const;

  /// True iff every stored value is non-negative.
  bool IsNonNegative() const;

  /// True iff the aggregated graph, viewed as undirected, is connected —
  /// a practical proxy for the irreducibility assumption of Sec. 3.1.
  bool IsConnectedAggregate() const;

 private:
  std::size_t n_;
  std::size_t m_;
  std::vector<la::SparseMatrix> slices_;
};

}  // namespace tmark::tensor

#endif  // TMARK_TENSOR_SPARSE_TENSOR3_H_
