#ifndef TMARK_LA_SPARSE_MATRIX_H_
#define TMARK_LA_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tmark/la/dense_matrix.h"
#include "tmark/la/index_array.h"
#include "tmark/la/panel.h"
#include "tmark/la/vector_ops.h"

namespace tmark::la {

/// One (row, col, value) entry used when assembling sparse matrices.
struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

/// Full replacement of one row's stored entries, applied through
/// SparseMatrix::ApplyRowEdits. Columns must be ascending, unique, and in
/// range; an empty edit clears the row.
struct RowEdit {
  std::size_t row;
  std::vector<std::uint32_t> cols;
  std::vector<double> values;  ///< One per column.
};

/// Compressed Sparse Row matrix of doubles.
///
/// The workhorse for HIN adjacency slices and bag-of-words feature matrices.
/// Duplicate triplets are summed during assembly; entries within a row are
/// sorted by column index.
class SparseMatrix {
 public:
  /// Row grain of the Bilinear / BilinearPanel reductions. Public so fused
  /// multi-relation kernels (tensor::EntryIndex::ContractMode3Panel) can
  /// reproduce the exact per-chunk partial-sum boundaries — the fold order
  /// is part of the bit-identity contract, not just the grouping of work.
  /// Small enough that an 800-node network (the DBLP preset) splits into 4
  /// chunks, so the z-update of a small batched fit runs on 4 threads
  /// instead of one; NumFixedChunks' 64-chunk cap bounds the partials of
  /// large networks.
  static constexpr std::size_t kBilinearReduceGrain = 256;

  /// Empty 0x0 matrix.
  SparseMatrix() : rows_(0), cols_(0), row_ptr_(IndexArray::Zeros(1)) {}

  /// All-zero rows x cols matrix.
  SparseMatrix(std::size_t rows, std::size_t cols);

  /// Assembles from triplets, summing duplicates.
  static SparseMatrix FromTriplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets);

  /// Takes CSR arrays as they are: rows + 1 offsets, columns ascending and
  /// in range within each row, one value per column.
  static SparseMatrix FromCsr(std::size_t rows, std::size_t cols,
                              std::vector<std::size_t> row_ptr,
                              std::vector<std::uint32_t> col_idx,
                              std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t NumNonZeros() const { return values_.size(); }

  /// CSR internals (read-only). row_ptr has rows()+1 entries and stores
  /// 32-bit offsets whenever nnz permits (see la/index_array.h).
  const IndexArray& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Bytes held by the CSR structure (row_ptr + col_idx + values). The
  /// scaling bench compares this across index widths; peak RSS cannot
  /// distinguish them within one process (the high-water mark is monotone).
  std::size_t StructureBytes() const {
    return row_ptr_.StorageBytes() + col_idx_.size() * sizeof(std::uint32_t) +
           values_.size() * sizeof(double);
  }

  /// Value at (r, c); zero when not stored. O(log nnz-in-row).
  double At(std::size_t r, std::size_t c) const;

  /// Sentinel for FindEntry: entry not stored.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Entry-storage position of (r, c) in col_idx()/values(), or npos when
  /// the entry is not stored. O(log nnz-in-row).
  std::size_t FindEntry(std::size_t r, std::size_t c) const;

  /// Replaces the stored entries of each listed row (at most one edit per
  /// row). col_idx/values are spliced through a single gap-copy pass and
  /// row_ptr is patched in place through the IndexArray mutators, leaving
  /// the matrix byte-identical to a from-scratch assembly of the same
  /// contents. O(nnz + sum of edited-row sizes).
  void ApplyRowEdits(std::vector<RowEdit> edits);

  /// y = this * x. Requires x.size() == cols().
  Vector MatVec(const Vector& x) const;

  /// Sum over each row -> vector of length rows().
  Vector RowSums() const;

  /// Sum over each column -> vector of length cols().
  Vector ColumnSums() const;

  /// Returns a copy with every stored column c scaled by scale[c].
  SparseMatrix ScaleColumns(const Vector& scale) const;

  /// Returns a copy with every stored row r scaled by scale[r].
  SparseMatrix ScaleRows(const Vector& scale) const;

  /// Column-stochastic copy: each column with positive sum is divided by its
  /// sum. Columns with zero sum stay zero (callers handle dangling columns;
  /// see tensor::TransitionTensors). `dangling`, when non-null, receives a
  /// flag per column telling whether its sum was zero.
  SparseMatrix NormalizeColumnsSparse(std::vector<bool>* dangling) const;

  /// Transposed copy (CSR of the transpose).
  SparseMatrix Transpose() const;

  /// this * other (sparse-sparse product). Requires cols() == other.rows().
  SparseMatrix MatMul(const SparseMatrix& other) const;

  /// this * dense (sparse-dense product). Requires cols() == dense.rows().
  DenseMatrix MatMulDense(const DenseMatrix& dense) const;

  /// this^T * dense. Requires rows() == dense.rows().
  DenseMatrix TransposeMatMulDense(const DenseMatrix& dense) const;

  /// Element-wise sum of two same-shape matrices.
  SparseMatrix Add(const SparseMatrix& other) const;

  /// Densified copy (small matrices / tests only).
  DenseMatrix ToDense() const;

  /// Sum_{(i,j) stored} value(i,j) * x[i] * y[j]; the bilinear form x^T A y.
  double Bilinear(const Vector& x, const Vector& y) const;

  // Multi-RHS panel kernels (see la/panel.h). Each operates on the leading
  // `width` columns of its row-major panels (physical column stride =
  // panel.cols()) and streams the CSR structure once for all columns. Every
  // column runs the same float ops in the same order at any width, so
  // results are bit-identical to `width` separate width-1 calls.

  /// y(:, c) = this * x(:, c) for c in [0, width). Requires
  /// x.rows() == cols(), y->rows() == rows(), matching column strides.
  void MatMulPanel(const DenseMatrix& x, std::size_t width,
                   DenseMatrix* y) const;

  /// y(:, c) = this^T * x(:, c) for c in [0, width). Requires
  /// x.rows() == rows(), y->rows() == cols(). Uses `ws` for the ordered
  /// per-chunk scatter partials (fixed chunk layout by row count).
  void TransposeMatMulPanel(const DenseMatrix& x, std::size_t width,
                            DenseMatrix* y, PanelWorkspace* ws) const;

  /// out[c] = x(:, c)^T * this * y(:, c) for c in [0, width). `out` must
  /// hold at least `width` doubles. Uses `ws` for the ordered per-chunk
  /// reduction partials (same chunk layout as Bilinear).
  void BilinearPanel(const DenseMatrix& x, const DenseMatrix& y,
                     std::size_t width, double* out, PanelWorkspace* ws) const;

  /// True if every stored value is >= 0.
  bool IsNonNegative() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  IndexArray row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace tmark::la

#endif  // TMARK_LA_SPARSE_MATRIX_H_
