#include "tmark/la/dense_matrix.h"

#include <algorithm>
#include <cmath>

#include "tmark/common/check.h"

namespace tmark::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double init)
    : rows_(rows), cols_(cols), data_(rows * cols, init) {}

DenseMatrix DenseMatrix::FromRows(
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return DenseMatrix();
  DenseMatrix m(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    TMARK_CHECK_MSG(rows[r].size() == m.cols_, "ragged rows in FromRows");
    std::copy(rows[r].begin(), rows[r].end(), m.RowPtr(r));
  }
  return m;
}

DenseMatrix DenseMatrix::Identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Vector DenseMatrix::Row(std::size_t r) const {
  TMARK_CHECK(r < rows_);
  return Vector(RowPtr(r), RowPtr(r) + cols_);
}

Vector DenseMatrix::Col(std::size_t c) const {
  TMARK_CHECK(c < cols_);
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = At(r, c);
  return out;
}

Vector DenseMatrix::MatVec(const Vector& x) const {
  TMARK_CHECK(x.size() == cols_);
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += row[c] * x[c];
    y[r] = s;
  }
  return y;
}

Vector DenseMatrix::TransposeMatVec(const Vector& x) const {
  TMARK_CHECK(x.size() == rows_);
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

DenseMatrix DenseMatrix::MatMul(const DenseMatrix& other) const {
  TMARK_CHECK(cols_ == other.rows_);
  DenseMatrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = At(r, k);
      if (a == 0.0) continue;
      const double* brow = other.RowPtr(k);
      double* orow = out.RowPtr(r);
      for (std::size_t c = 0; c < other.cols_; ++c) orow[c] += a * brow[c];
    }
  }
  return out;
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.At(c, r) = At(r, c);
  }
  return out;
}

void DenseMatrix::AddInPlace(const DenseMatrix& other) {
  TMARK_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void DenseMatrix::ScaleInPlace(double alpha) {
  for (double& v : data_) v *= alpha;
}

Vector DenseMatrix::ColumnSums() const {
  Vector sums(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    for (std::size_t c = 0; c < cols_; ++c) sums[c] += row[c];
  }
  return sums;
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& other) const {
  TMARK_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

}  // namespace tmark::la
