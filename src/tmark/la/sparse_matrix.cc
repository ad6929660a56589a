#include "tmark/la/sparse_matrix.h"

#include <algorithm>
#include <map>

#include "tmark/common/check.h"
#include "tmark/common/simd.h"
#include "tmark/la/microkernel.h"
#include "tmark/obs/prof.h"
#include "tmark/parallel/parallel_for.h"

namespace tmark::la {
namespace {

// Row grains for the parallel kernels. Below one grain of work the loops
// collapse to a single chunk on the calling thread (the exact serial code).
// Scatter kernels use a large grain and a small chunk cap because each
// chunk's partial buffer is a whole output panel; the reductions' partials
// are one value per column, so their grain is small (kBilinearReduceGrain).
// Either way chunk boundaries are fixed by the row count alone, keeping
// results bit-identical across thread counts.
constexpr std::size_t kMatVecGrain = 1024;
constexpr std::size_t kScatterGrain = 8192;
constexpr std::size_t kScatterMaxChunks = 16;
constexpr std::size_t kReduceGrain = SparseMatrix::kBilinearReduceGrain;

}  // namespace

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(IndexArray::Zeros(rows + 1)) {}

SparseMatrix SparseMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                        std::vector<Triplet> triplets) {
  SparseMatrix m(rows, cols);
  for (const Triplet& t : triplets) {
    TMARK_CHECK_MSG(t.row < rows && t.col < cols,
                    "triplet (" << t.row << "," << t.col
                                << ") out of bounds for " << rows << "x"
                                << cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  // Count unique entries per row while summing duplicates. Offsets assemble
  // in a plain 64-bit vector; IndexArray::FromOffsets then picks the
  // narrowest storage that holds nnz.
  std::vector<std::size_t> row_ptr(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::size_t i = 0;
  while (i < triplets.size()) {
    const std::uint32_t r = triplets[i].row;
    const std::uint32_t c = triplets[i].col;
    double v = 0.0;
    while (i < triplets.size() && triplets[i].row == r &&
           triplets[i].col == c) {
      v += triplets[i].value;
      ++i;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(v);
    ++row_ptr[r + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];
  m.row_ptr_ = IndexArray::FromOffsets(std::move(row_ptr));
  return m;
}

SparseMatrix SparseMatrix::FromCsr(std::size_t rows, std::size_t cols,
                                   std::vector<std::size_t> row_ptr,
                                   std::vector<std::uint32_t> col_idx,
                                   std::vector<double> values) {
  TMARK_CHECK(row_ptr.size() == rows + 1 && row_ptr.front() == 0);
  TMARK_CHECK(row_ptr.back() == col_idx.size() &&
              values.size() == col_idx.size());
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = IndexArray::FromOffsets(std::move(row_ptr));
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

double SparseMatrix::At(std::size_t r, std::size_t c) const {
  TMARK_CHECK(r < rows_ && c < cols_);
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(c));
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

std::size_t SparseMatrix::FindEntry(std::size_t r, std::size_t c) const {
  TMARK_CHECK(r < rows_ && c < cols_);
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(c));
  if (it == end || *it != c) return npos;
  return static_cast<std::size_t>(it - col_idx_.begin());
}

void SparseMatrix::ApplyRowEdits(std::vector<RowEdit> edits) {
  if (edits.empty()) return;
  std::sort(edits.begin(), edits.end(),
            [](const RowEdit& a, const RowEdit& b) { return a.row < b.row; });
  std::size_t extra = 0;
  for (std::size_t e = 0; e < edits.size(); ++e) {
    const RowEdit& edit = edits[e];
    TMARK_CHECK(edit.row < rows_ && edit.cols.size() == edit.values.size());
    TMARK_CHECK(e == 0 || edits[e - 1].row < edit.row);
    for (std::size_t p = 0; p < edit.cols.size(); ++p) {
      TMARK_CHECK(edit.cols[p] < cols_);
      TMARK_CHECK(p == 0 || edit.cols[p - 1] < edit.cols[p]);
    }
    extra += edit.cols.size();
  }
  // Gap-copy col_idx/values: bulk-copy the unedited spans, splice the edited
  // rows. Old per-row lengths are captured up front because row_ptr is
  // rewritten afterwards.
  std::vector<std::size_t> old_len(edits.size());
  std::size_t new_nnz = values_.size() + extra;
  for (std::size_t e = 0; e < edits.size(); ++e) {
    old_len[e] = row_ptr_[edits[e].row + 1] - row_ptr_[edits[e].row];
    new_nnz -= old_len[e];
  }
  std::vector<std::uint32_t> new_cols;
  std::vector<double> new_vals;
  new_cols.reserve(new_nnz);
  new_vals.reserve(new_nnz);
  std::size_t src = 0;
  for (const RowEdit& edit : edits) {
    const std::size_t begin = row_ptr_[edit.row];
    const std::size_t end = row_ptr_[edit.row + 1];
    new_cols.insert(new_cols.end(), col_idx_.begin() + src,
                    col_idx_.begin() + begin);
    new_vals.insert(new_vals.end(), values_.begin() + src,
                    values_.begin() + begin);
    new_cols.insert(new_cols.end(), edit.cols.begin(), edit.cols.end());
    new_vals.insert(new_vals.end(), edit.values.begin(), edit.values.end());
    src = end;
  }
  new_cols.insert(new_cols.end(), col_idx_.begin() + src, col_idx_.end());
  new_vals.insert(new_vals.end(), values_.begin() + src, values_.end());
  // Patch row_ptr in place: each offset past an edited row shifts by the
  // cumulative length delta. Reads at index i happen before the write at i,
  // and offsets below the first edited row are untouched.
  std::ptrdiff_t cum = 0;
  std::size_t e = 0;
  for (std::size_t r = edits.front().row + 1; r <= rows_; ++r) {
    while (e < edits.size() && edits[e].row < r) {
      cum += static_cast<std::ptrdiff_t>(edits[e].cols.size()) -
             static_cast<std::ptrdiff_t>(old_len[e]);
      ++e;
    }
    row_ptr_.Set(r, static_cast<std::size_t>(
                        static_cast<std::ptrdiff_t>(row_ptr_[r]) + cum));
  }
  row_ptr_.FitWidth();
  col_idx_ = std::move(new_cols);
  values_ = std::move(new_vals);
}

Vector SparseMatrix::MatVec(const Vector& x) const {
  TMARK_CHECK(x.size() == cols_);
  Vector y(rows_);
  // Disjoint output rows: row-partitioning is bit-identical to serial.
  parallel::ParallelForRanges(
      rows_, kMatVecGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          double s = 0.0;
          for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
            s += values_[p] * x[col_idx_[p]];
          }
          y[r] = s;
        }
      });
  return y;
}

Vector SparseMatrix::RowSums() const {
  Vector sums(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      sums[r] += values_[p];
    }
  }
  return sums;
}

Vector SparseMatrix::ColumnSums() const {
  Vector sums(cols_, 0.0);
  for (std::size_t p = 0; p < values_.size(); ++p) {
    sums[col_idx_[p]] += values_[p];
  }
  return sums;
}

SparseMatrix SparseMatrix::ScaleColumns(const Vector& scale) const {
  TMARK_CHECK(scale.size() == cols_);
  SparseMatrix out(*this);
  for (std::size_t p = 0; p < out.values_.size(); ++p) {
    out.values_[p] *= scale[out.col_idx_[p]];
  }
  return out;
}

SparseMatrix SparseMatrix::ScaleRows(const Vector& scale) const {
  TMARK_CHECK(scale.size() == rows_);
  SparseMatrix out(*this);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      out.values_[p] *= scale[r];
    }
  }
  return out;
}

SparseMatrix SparseMatrix::NormalizeColumnsSparse(
    std::vector<bool>* dangling) const {
  const Vector sums = ColumnSums();
  Vector inv(cols_, 0.0);
  if (dangling != nullptr) dangling->assign(cols_, false);
  for (std::size_t c = 0; c < cols_; ++c) {
    if (sums[c] > 0.0) {
      inv[c] = 1.0 / sums[c];
    } else if (dangling != nullptr) {
      (*dangling)[c] = true;
    }
  }
  return ScaleColumns(inv);
}

SparseMatrix SparseMatrix::Transpose() const {
  std::vector<Triplet> trips;
  trips.reserve(values_.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      trips.push_back({col_idx_[p], static_cast<std::uint32_t>(r), values_[p]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(trips));
}

SparseMatrix SparseMatrix::MatMul(const SparseMatrix& other) const {
  TMARK_CHECK(cols_ == other.rows_);
  std::vector<Triplet> trips;
  // Row-by-row accumulation with a scatter map keyed by column.
  std::map<std::uint32_t, double> acc;
  for (std::size_t r = 0; r < rows_; ++r) {
    acc.clear();
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const std::uint32_t k = col_idx_[p];
      const double v = values_[p];
      for (std::size_t q = other.row_ptr_[k]; q < other.row_ptr_[k + 1]; ++q) {
        acc[other.col_idx_[q]] += v * other.values_[q];
      }
    }
    for (const auto& [c, v] : acc) {
      trips.push_back({static_cast<std::uint32_t>(r), c, v});
    }
  }
  return FromTriplets(rows_, other.cols_, std::move(trips));
}

DenseMatrix SparseMatrix::MatMulDense(const DenseMatrix& dense) const {
  TMARK_CHECK(cols_ == dense.rows());
  DenseMatrix out(rows_, dense.cols());
  for (std::size_t r = 0; r < rows_; ++r) {
    double* orow = out.RowPtr(r);
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const double v = values_[p];
      const double* drow = dense.RowPtr(col_idx_[p]);
      for (std::size_t c = 0; c < dense.cols(); ++c) orow[c] += v * drow[c];
    }
  }
  return out;
}

DenseMatrix SparseMatrix::TransposeMatMulDense(const DenseMatrix& dense) const {
  TMARK_CHECK(rows_ == dense.rows());
  DenseMatrix out(cols_, dense.cols());
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* drow = dense.RowPtr(r);
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const double v = values_[p];
      double* orow = out.RowPtr(col_idx_[p]);
      for (std::size_t c = 0; c < dense.cols(); ++c) orow[c] += v * drow[c];
    }
  }
  return out;
}

SparseMatrix SparseMatrix::Add(const SparseMatrix& other) const {
  TMARK_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  std::vector<Triplet> trips;
  trips.reserve(values_.size() + other.values_.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      trips.push_back({static_cast<std::uint32_t>(r), col_idx_[p], values_[p]});
    }
    for (std::size_t p = other.row_ptr_[r]; p < other.row_ptr_[r + 1]; ++p) {
      trips.push_back(
          {static_cast<std::uint32_t>(r), other.col_idx_[p], other.values_[p]});
    }
  }
  return FromTriplets(rows_, cols_, std::move(trips));
}

DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix out(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      out.At(r, col_idx_[p]) += values_[p];
    }
  }
  return out;
}

double SparseMatrix::Bilinear(const Vector& x, const Vector& y) const {
  TMARK_CHECK(x.size() == rows_ && y.size() == cols_);
  // Per-chunk partial sums folded in chunk order; the fixed chunk layout
  // makes the result identical at every thread count.
  return parallel::ParallelReduce(
      rows_, kReduceGrain, 0.0,
      [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t r = begin; r < end; ++r) {
          const double xr = x[r];
          if (xr == 0.0) continue;
          double inner = 0.0;
          for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
            inner += values_[p] * y[col_idx_[p]];
          }
          s += xr * inner;
        }
        return s;
      },
      [](double a, double b) { return a + b; });
}

void SparseMatrix::MatMulPanel(const DenseMatrix& x, std::size_t width,
                               DenseMatrix* y) const {
  TMARK_PROF_REGION("la.mk.matmul_panel");
  TMARK_CHECK(y != nullptr && x.rows() == cols_ && y->rows() == rows_);
  TMARK_CHECK(x.cols() == y->cols() && width <= x.cols());
  // Output rows are disjoint, so any row partition is bit-identical; the
  // grain shrinks with the panel width to keep per-chunk work comparable to
  // the single-vector kernel's.
  const std::size_t grain =
      width > 0 ? std::max<std::size_t>(64, kMatVecGrain / width)
                : kMatVecGrain;
  parallel::ParallelForRanges(
      rows_, grain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          double* yrow = y->RowPtr(r);
          mk::Zero(yrow, width);
          for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
            // Per column: the same v * x products added in the same
            // p-ascending order as MatVec's register accumulation.
            mk::Axpy(yrow, values_[p], x.RowPtr(col_idx_[p]), width);
          }
        }
      });
}

void SparseMatrix::TransposeMatMulPanel(const DenseMatrix& x,
                                        std::size_t width, DenseMatrix* y,
                                        PanelWorkspace* ws) const {
  TMARK_PROF_REGION("la.mk.tmatmul_panel");
  TMARK_CHECK(y != nullptr && ws != nullptr);
  TMARK_CHECK(x.rows() == rows_ && y->rows() == cols_);
  TMARK_CHECK(x.cols() == y->cols() && width <= x.cols());
  // `buf` addresses a cols_ x width target with column stride `stride`.
  // A row is skipped only when every active column is zero, and a column
  // whose entry is zero receives v * 0.0 adds — which leave its
  // non-negative partials unchanged bit for bit, keeping each column
  // identical to its width-1 run.
  // Unlike the gather kernels, the scatter has no register accumulator to
  // reuse across the inner loop — each nnz load-modify-stores a different
  // output row — so the fixed-width block dispatch of mk::Axpy is pure
  // per-nnz overhead here (bench_perf_kernels shows the plain annotated
  // runtime-width loop at parity or ahead at every width). The loop performs
  // the same adds in the same ascending-column order, so each column stays
  // bit-identical to its width-1 run.
  auto scatter = [&](std::size_t begin, std::size_t end, double* buf,
                     std::size_t stride) {
    for (std::size_t r = begin; r < end; ++r) {
      const double* xrow = x.RowPtr(r);
      if (!mk::AnyNonZero(xrow, width)) continue;
      for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
        double* out = buf + col_idx_[p] * stride;
        const double v = values_[p];
        TMARK_SIMD
        for (std::size_t c = 0; c < width; ++c) out[c] += v * xrow[c];
      }
    }
  };
  for (std::size_t j = 0; j < cols_; ++j) {
    mk::Zero(y->RowPtr(j), width);
  }
  // Fixed chunk layout: boundaries depend only on the row count, partials
  // merge in chunk order.
  const std::size_t chunks =
      parallel::NumFixedChunks(rows_, kScatterGrain, kScatterMaxChunks);
  if (chunks <= 1) {
    if (rows_ > 0 && cols_ > 0) scatter(0, rows_, y->RowPtr(0), y->cols());
    return;
  }
  ws->PrepareChunks(chunks, cols_ * width);
  parallel::ParallelChunks(
      rows_, chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        scatter(begin, end, ws->Chunk(chunk).data(), width);
      });
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    const double* partial = ws->Chunk(chunk).data();
    for (std::size_t j = 0; j < cols_; ++j) {
      mk::Add(y->RowPtr(j), partial + j * width, width);
    }
  }
}

void SparseMatrix::BilinearPanel(const DenseMatrix& x, const DenseMatrix& y,
                                 std::size_t width, double* out,
                                 PanelWorkspace* ws) const {
  TMARK_PROF_REGION("la.mk.bilinear_panel");
  TMARK_CHECK(out != nullptr && ws != nullptr);
  TMARK_CHECK(x.rows() == rows_ && y.rows() == cols_);
  TMARK_CHECK(x.cols() == y.cols() && width <= x.cols());
  // Each chunk buffer holds [partial sums | inner scratch], width doubles
  // each. Rows whose panel entries are all zero are skipped as in Bilinear;
  // a zero entry in a live row contributes x * inner = 0.0, leaving that
  // column's partial unchanged (same value the skip produces).
  auto accumulate = [&](std::size_t begin, std::size_t end, double* acc) {
    double* inner = acc + width;
    for (std::size_t r = begin; r < end; ++r) {
      const double* xrow = x.RowPtr(r);
      if (!mk::AnyNonZero(xrow, width)) continue;
      mk::Zero(inner, width);
      for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
        mk::Axpy(inner, values_[p], y.RowPtr(col_idx_[p]), width);
      }
      mk::MulAdd(acc, xrow, inner, width);
    }
  };
  // Same chunk layout and left-to-right fold as Bilinear's ParallelReduce.
  const std::size_t chunks = parallel::NumFixedChunks(rows_, kReduceGrain);
  const std::size_t buffers = chunks == 0 ? 1 : chunks;
  ws->PrepareChunks(buffers, 2 * width);
  if (chunks <= 1) {
    if (rows_ > 0) accumulate(0, rows_, ws->Chunk(0).data());
  } else {
    parallel::ParallelChunks(
        rows_, chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          accumulate(begin, end, ws->Chunk(chunk).data());
        });
  }
  mk::Zero(out, width);
  for (std::size_t chunk = 0; chunk < buffers; ++chunk) {
    mk::Add(out, ws->Chunk(chunk).data(), width);
  }
}

bool SparseMatrix::IsNonNegative() const {
  for (double v : values_) {
    if (v < 0.0) return false;
  }
  return true;
}

}  // namespace tmark::la
