#ifndef TMARK_TENSOR_ENTRY_INDEX_H_
#define TMARK_TENSOR_ENTRY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "tmark/la/dense_matrix.h"
#include "tmark/la/index_array.h"
#include "tmark/la/panel.h"
#include "tmark/la/sparse_matrix.h"

namespace tmark::tensor {

/// Row-major index of the stored entries of an (n x n x m) tensor given by
/// its m relation slices: for each row i, one segment per relation k that
/// stores entries in that row (segments ascending in k, entries within a
/// segment in the slice's column order).
///
/// The index holds structure only. Values live beside it, one double per
/// entry in index order, so operators with the same support share one
/// index: O and R (Eqs. 1-2) both have exactly A's support and differ only
/// in their values. Both panel contractions walk (row, relation, column) —
/// mode-1 as y_i += z_k * (sum_j v * x_j), mode-3 as
/// w_k += x_i * (sum_j v * y_j) — so one contiguous stream serves both,
/// instead of m interleaved CSR row probes per row. Offsets live in
/// adaptive-width IndexArrays (32-bit whenever the segment / entry counts
/// permit — la/index_array.h).
class EntryIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Indexes the slices (all n x n, at least one). `values` receives their
  /// stored values in index order.
  static EntryIndex FromSlices(const std::vector<la::SparseMatrix>& slices,
                               std::vector<double>* values);

  std::size_t num_nodes() const { return n_; }
  std::size_t num_relations() const { return m_; }
  std::size_t num_entries() const { return col_.size(); }

  /// n + 1 offsets into seg_k / seg_end.
  const la::IndexArray& row_ptr() const { return row_ptr_; }
  /// Relation index per segment.
  const std::vector<std::uint32_t>& seg_k() const { return seg_k_; }
  /// Exclusive entry end per segment (begin = previous segment's end).
  const la::IndexArray& seg_end() const { return seg_end_; }
  /// Column index j per entry.
  const std::vector<std::uint32_t>& col() const { return col_; }

  /// Entries [RowBegin(i), RowEnd(i)) hold row i.
  std::size_t RowBegin(std::size_t i) const {
    return SegmentBegin(row_ptr_[i]);
  }
  std::size_t RowEnd(std::size_t i) const {
    return SegmentBegin(row_ptr_[i + 1]);
  }
  /// Entries [first, second) of row i in relation k, in the slice's column
  /// order; an empty range when that row stores nothing in relation k.
  std::pair<std::size_t, std::size_t> RelationEntries(std::size_t i,
                                                      std::size_t k) const;
  /// Entry position of (i, j, k), or npos when it is not stored.
  std::size_t Find(std::size_t i, std::size_t j, std::size_t k) const;

  /// Bytes held by the structure arrays (one value array adds
  /// num_entries() doubles).
  std::size_t StorageBytes() const;
  /// Widest offset storage picked: 32 or 64.
  std::size_t IndexBits() const;

  // Multi-RHS panel kernels (la/panel.h) over the value array `val` (one
  // value per entry): one pass over the index updates the leading `width`
  // columns of the output panel. A single vector is a width-1 panel.

  /// mode-1 contraction (the paper's A x1_bar x x3_bar z), column-wise:
  /// y(i, c) = sum_{j,k} v[i,j,k] * x(j, c) * z(k, c) for c in [0, width).
  /// Requires x: n rows, z: m rows, y: n rows, all with equal column
  /// strides >= width. `ws` backs the per-chunk accumulator scratch.
  void ContractMode1Panel(const std::vector<double>& val,
                          const la::DenseMatrix& x, const la::DenseMatrix& z,
                          std::size_t width, la::DenseMatrix* y,
                          la::PanelWorkspace* ws) const;

  /// mode-3 contraction (the paper's A x1_bar x x2_bar y, x on mode 1 and
  /// y on mode 2), column-wise:
  /// w(k, c) = sum_{i,j} v[i,j,k] * x(i, c) * y(j, c) for c in [0, width).
  /// Requires x, y: n rows, w: m rows. `ws` backs the per-chunk partials.
  void ContractMode3Panel(const std::vector<double>& val,
                          const la::DenseMatrix& x, const la::DenseMatrix& y,
                          std::size_t width, la::DenseMatrix* w,
                          la::PanelWorkspace* ws) const;

  // --- Incremental patch support (hin::HinDelta) --------------------------

  /// New content of one row in index layout, with one run of values per
  /// value array the index carries.
  struct Row {
    std::size_t row = 0;
    std::vector<std::uint32_t> seg_k;
    std::vector<std::size_t> seg_end;  ///< Relative to the row's first entry.
    std::vector<std::uint32_t> col;
    std::vector<std::vector<double>> values;  ///< Each col.size() long.
  };

  /// Row i of the slices in index layout; values[0] holds their stored
  /// values.
  static Row ReadRow(const std::vector<la::SparseMatrix>& slices,
                     std::size_t i);

  /// True when stored row `row.row` has exactly row's segments and columns.
  bool SameLayout(const Row& row) const;

  /// Replaces the given rows (ascending, unique) in one gap-copy pass,
  /// splicing row.values[a] into *arrays[a] alongside. The result is
  /// byte-identical to FromSlices on slices holding the new rows.
  void SpliceRows(const std::vector<Row>& rows,
                  const std::vector<std::vector<double>*>& arrays);

 private:
  /// First entry of segment s.
  std::size_t SegmentBegin(std::size_t s) const {
    return s == 0 ? 0 : seg_end_[s - 1];
  }

  std::size_t n_ = 0;
  std::size_t m_ = 0;
  la::IndexArray row_ptr_;
  std::vector<std::uint32_t> seg_k_;
  la::IndexArray seg_end_;
  std::vector<std::uint32_t> col_;
};

}  // namespace tmark::tensor

#endif  // TMARK_TENSOR_ENTRY_INDEX_H_
