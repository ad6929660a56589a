#ifndef TMARK_LA_DENSE_MATRIX_H_
#define TMARK_LA_DENSE_MATRIX_H_

#include <cstddef>
#include <vector>

#include "tmark/la/vector_ops.h"

namespace tmark::la {

/// Row-major dense matrix of doubles.
///
/// Used for small/medium dense workloads: neural-network weights, feature
/// blocks, the reference (non-implicit) construction of the cosine
/// transition matrix W in tests. Storage is contiguous for cache-friendly
/// matvec kernels.
class DenseMatrix {
 public:
  /// Empty 0x0 matrix.
  DenseMatrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, all entries `init`.
  DenseMatrix(std::size_t rows, std::size_t cols, double init = 0.0);

  /// Builds from nested initializer data (rows of equal length).
  static DenseMatrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static DenseMatrix Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& At(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double At(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Pointer to the start of row r.
  double* RowPtr(std::size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(std::size_t r) const { return data_.data() + r * cols_; }

  /// Copies row r into a Vector.
  Vector Row(std::size_t r) const;

  /// Copies column c into a Vector.
  Vector Col(std::size_t c) const;

  /// y = this * x. Requires x.size() == cols().
  Vector MatVec(const Vector& x) const;

  /// y = this^T * x. Requires x.size() == rows().
  Vector TransposeMatVec(const Vector& x) const;

  /// this * other. Requires cols() == other.rows().
  DenseMatrix MatMul(const DenseMatrix& other) const;

  /// Transposed copy.
  DenseMatrix Transpose() const;

  /// Element-wise in-place operations.
  void AddInPlace(const DenseMatrix& other);
  void ScaleInPlace(double alpha);

  /// Sum over each column -> vector of length cols().
  Vector ColumnSums() const;

  /// Maximum absolute element-wise difference against `other` (same shape).
  double MaxAbsDiff(const DenseMatrix& other) const;

  /// Flat data access (row-major).
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace tmark::la

#endif  // TMARK_LA_DENSE_MATRIX_H_
