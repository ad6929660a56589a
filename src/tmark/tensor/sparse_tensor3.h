#ifndef TMARK_TENSOR_SPARSE_TENSOR3_H_
#define TMARK_TENSOR_SPARSE_TENSOR3_H_

#include <cstddef>
#include <cstdint>
#include <utility>
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
/// of Fig. 1(b)). This gives O(D) contraction kernels where D is the number
/// of stored non-zeros, matching the complexity analysis of Sec. 4.5.
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
  la::SparseMatrix& MutableSlice(std::size_t k);

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

  // Multi-RHS panel kernels (la/panel.h): one structure pass over the
  // stored slices updates the leading `width` columns of the output panel.
  // A single vector is a width-1 panel; every column is computed the same
  // way at any width.

  /// mode-1 contraction (the paper's A x1_bar x x3_bar z), column-wise:
  /// y(i, c) = sum_{j,k} A[i,j,k] * x(j, c) * z(k, c) for c in [0, width).
  /// Requires x: n rows, z: m rows, y: n rows, all with equal column
  /// strides >= width. `ws` backs the per-chunk accumulator scratch.
  void ContractMode1Panel(const la::DenseMatrix& x, const la::DenseMatrix& z,
                          std::size_t width, la::DenseMatrix* y,
                          la::PanelWorkspace* ws) const;

  /// mode-3 contraction (the paper's A x1_bar x x2_bar y, x on mode 1 and
  /// y on mode 2), column-wise:
  /// w(k, c) = sum_{i,j} A[i,j,k] * x(i, c) * y(j, c) for c in [0, width).
  /// Requires x, y: n rows, w: m rows. `ws` backs the per-slice bilinear
  /// reduction partials.
  void ContractMode3Panel(const la::DenseMatrix& x, const la::DenseMatrix& y,
                          std::size_t width, la::DenseMatrix* w,
                          la::PanelWorkspace* ws) const;

  /// Builds the merged row-major view the panel contractions traverse (see
  /// MergedView below). Idempotent; invalidated by MutableSlice. The panel
  /// kernels build it lazily on first use from the calling thread, so only
  /// callers that may invoke panel kernels on the same tensor from several
  /// threads concurrently need to prepare it up front
  /// (tensor::TransitionTensors::Build does).
  void PrepareMergedView() const;

  /// Bytes held by the merged view's structure arrays (row_ptr, segments,
  /// col, val). Builds the view when necessary.
  std::size_t MergedViewStorageBytes() const;

  /// Widest offset storage the merged view picked: 32 or 64.
  std::size_t MergedViewIndexBits() const;

  // Row-major merge of all slices: for each row i, one segment per relation
  // k that stores entries in that row (segments ascending in k, entries
  // within a segment in the slice's column order). Both panel contractions
  // iterate (row, relation, column) — mode-1 as y_i += z_k * (sum_j v*x_j),
  // mode-3 as w_k += x_i * (sum_j v*y_j) — so one contiguous stream serves
  // both, replacing m interleaved CSR row probes per row with a single
  // sequential walk (the m ~= 20-relation presets are bound by exactly that
  // probing). The entry values duplicate the slices' storage; the slices
  // stay authoritative for Slice() readers and the incremental patches.
  // Offsets live in adaptive-width IndexArrays (32-bit whenever the segment
  // / entry counts permit — la/index_array.h), roughly halving structure
  // bytes at million-node scale.
  struct MergedView {
    la::IndexArray row_ptr;            ///< n + 1 offsets into seg_k/seg_end.
    std::vector<std::uint32_t> seg_k;  ///< Relation index per segment.
    la::IndexArray seg_end;            ///< Exclusive entry end per segment
                                       ///< (begin = previous segment's end).
    std::vector<std::uint32_t> col;    ///< Column index j per entry.
    std::vector<double> val;           ///< Stored value per entry.
    bool built = false;
  };

  // --- Incremental patch support (hin::HinDelta) --------------------------
  // Unlike MutableSlice, these mutate a slice WITHOUT invalidating a built
  // merged view: only the affected view rows are refreshed. When the edited
  // rows keep their segment layout (same relations, same per-segment entry
  // counts) the col/val spans are overwritten in place; otherwise the
  // structure arrays are gap-copied around the edited rows, with the
  // row_ptr offsets patched through the IndexArray in-place mutators and
  // seg_end re-assembled at the width a from-scratch build would pick. Each
  // returns the number of merged-view rows refreshed. The patched view is
  // byte-identical to PrepareMergedView on the patched slices.

  /// Replaces slice k wholesale, refreshing every merged-view row whose
  /// stored bytes differ between the old and new slice.
  std::size_t ReplaceSlice(std::size_t k, la::SparseMatrix slice);

  /// Applies full-row edits to slice k (la::SparseMatrix::ApplyRowEdits)
  /// and refreshes those merged-view rows.
  std::size_t PatchSliceRows(std::size_t k, std::vector<la::RowEdit> edits);

  /// Value-only edits: overwrites slice k's stored values at the given
  /// (entry position, new value) pairs and mirrors them into the merged
  /// view in place (no structure change possible).
  std::size_t PatchSliceValues(
      std::size_t k,
      const std::vector<std::pair<std::size_t, double>>& edits);

  /// Read access to the merged view (prepared on demand) — the patched-vs-
  /// rebuilt equivalence tests compare these arrays byte for byte.
  const MergedView& merged_view() const { return MergedSlices(); }

 private:
  const MergedView& MergedSlices() const;
  std::size_t RefreshMergedRows(std::vector<std::uint32_t> rows);

  std::size_t n_;
  std::size_t m_;
  std::vector<la::SparseMatrix> slices_;
  mutable MergedView merged_;
};

}  // namespace tmark::tensor

#endif  // TMARK_TENSOR_SPARSE_TENSOR3_H_
