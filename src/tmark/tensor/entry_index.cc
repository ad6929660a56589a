#include "tmark/tensor/entry_index.h"

#include <algorithm>

#include "tmark/common/check.h"
#include "tmark/la/microkernel.h"
#include "tmark/obs/prof.h"
#include "tmark/parallel/parallel_for.h"

namespace tmark::tensor {
namespace {

// Row grain for the mode-1 contraction at width 1; small inputs collapse to
// a single chunk and run the exact serial loop on the calling thread.
constexpr std::size_t kContractRowGrain = 512;

// Appends row i of the slices: one segment per relation that stores
// entries in row i, ascending in k. seg_end receives col->size() after
// each segment.
void AppendRow(const std::vector<la::SparseMatrix>& slices, std::size_t i,
               std::vector<std::uint32_t>* seg_k,
               std::vector<std::size_t>* seg_end,
               std::vector<std::uint32_t>* col, std::vector<double>* values) {
  for (std::size_t k = 0; k < slices.size(); ++k) {
    const la::SparseMatrix& s = slices[k];
    const std::size_t begin = s.row_ptr()[i];
    const std::size_t end = s.row_ptr()[i + 1];
    if (begin == end) continue;
    seg_k->push_back(static_cast<std::uint32_t>(k));
    col->insert(col->end(), s.col_idx().begin() + begin,
                s.col_idx().begin() + end);
    values->insert(values->end(), s.values().begin() + begin,
                   s.values().begin() + end);
    seg_end->push_back(col->size());
  }
}

}  // namespace

EntryIndex EntryIndex::FromSlices(const std::vector<la::SparseMatrix>& slices,
                                  std::vector<double>* values) {
  TMARK_CHECK(!slices.empty() && values != nullptr);
  EntryIndex index;
  index.n_ = slices[0].rows();
  index.m_ = slices.size();
  std::size_t nnz = 0;
  for (const la::SparseMatrix& s : slices) {
    TMARK_CHECK_MSG(s.rows() == index.n_ && s.cols() == index.n_,
                    "all tensor slices must be square with equal size");
    nnz += s.NumNonZeros();
  }
  std::vector<std::size_t> row_ptr(index.n_ + 1, 0);
  std::vector<std::size_t> seg_end;
  index.col_.reserve(nnz);
  values->clear();
  values->reserve(nnz);
  for (std::size_t i = 0; i < index.n_; ++i) {
    AppendRow(slices, i, &index.seg_k_, &seg_end, &index.col_, values);
    row_ptr[i + 1] = index.seg_k_.size();
  }
  // Offsets assemble wide, then shrink to the narrowest width that holds
  // them (32-bit for every realistic input — see la/index_array.h).
  index.row_ptr_ = la::IndexArray::FromOffsets(std::move(row_ptr));
  index.seg_end_ = la::IndexArray::FromOffsets(std::move(seg_end));
  return index;
}

std::pair<std::size_t, std::size_t> EntryIndex::RelationEntries(
    std::size_t i, std::size_t k) const {
  TMARK_CHECK(i < n_ && k < m_);
  for (std::size_t s = row_ptr_[i]; s < row_ptr_[i + 1]; ++s) {
    if (seg_k_[s] == k) return {SegmentBegin(s), seg_end_[s]};
  }
  return {0, 0};
}

std::size_t EntryIndex::Find(std::size_t i, std::size_t j,
                             std::size_t k) const {
  const auto [first, last] = RelationEntries(i, k);
  const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(first);
  const auto end = col_.begin() + static_cast<std::ptrdiff_t>(last);
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(j));
  if (it == end || *it != j) return npos;
  return static_cast<std::size_t>(it - col_.begin());
}

std::size_t EntryIndex::StorageBytes() const {
  return row_ptr_.StorageBytes() + seg_end_.StorageBytes() +
         seg_k_.size() * sizeof(std::uint32_t) +
         col_.size() * sizeof(std::uint32_t);
}

std::size_t EntryIndex::IndexBits() const {
  return std::max(row_ptr_.index_bits(), seg_end_.index_bits());
}

EntryIndex::Row EntryIndex::ReadRow(
    const std::vector<la::SparseMatrix>& slices, std::size_t i) {
  Row row;
  row.row = i;
  row.values.resize(1);
  AppendRow(slices, i, &row.seg_k, &row.seg_end, &row.col, &row.values[0]);
  return row;
}

bool EntryIndex::SameLayout(const Row& row) const {
  TMARK_CHECK(row.row < n_);
  const std::size_t sb = row_ptr_[row.row];
  if (row_ptr_[row.row + 1] - sb != row.seg_k.size()) return false;
  const std::size_t base = SegmentBegin(sb);
  for (std::size_t s = 0; s < row.seg_k.size(); ++s) {
    if (seg_k_[sb + s] != row.seg_k[s] ||
        seg_end_[sb + s] - base != row.seg_end[s]) {
      return false;
    }
  }
  return std::equal(row.col.begin(), row.col.end(),
                    col_.begin() + static_cast<std::ptrdiff_t>(base));
}

void EntryIndex::SpliceRows(const std::vector<Row>& rows,
                            const std::vector<std::vector<double>*>& arrays) {
  if (rows.empty()) return;
  // Old per-row segment counts, captured before row_ptr is patched below.
  std::vector<std::size_t> old_segs(rows.size());
  std::size_t segs = seg_k_.size();
  std::size_t entries = col_.size();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    TMARK_CHECK(row.row < n_ && row.values.size() == arrays.size());
    TMARK_CHECK(r == 0 || rows[r - 1].row < row.row);
    const std::size_t sb = row_ptr_[row.row];
    const std::size_t se = row_ptr_[row.row + 1];
    old_segs[r] = se - sb;
    segs = segs - old_segs[r] + row.seg_k.size();
    entries = entries - (SegmentBegin(se) - SegmentBegin(sb)) + row.col.size();
  }
  // Gap-copy seg_k, col and every value array: bulk runs for untouched rows
  // and the new content for the spliced ones, rebuilding the seg_end
  // offsets in the same pass.
  std::vector<std::uint32_t> new_seg_k;
  std::vector<std::size_t> new_seg_end;
  std::vector<std::uint32_t> new_col;
  std::vector<std::vector<double>> new_values(arrays.size());
  new_seg_k.reserve(segs);
  new_seg_end.reserve(segs);
  new_col.reserve(entries);
  for (std::vector<double>& v : new_values) v.reserve(entries);
  const auto bulk_copy = [&](std::size_t row_begin, std::size_t row_end) {
    const std::size_t a = row_ptr_[row_begin];
    const std::size_t b = row_ptr_[row_end];
    if (b <= a) return;
    const std::size_t ea = SegmentBegin(a);
    const std::size_t eb = SegmentBegin(b);
    const std::size_t base = new_col.size();
    new_seg_k.insert(new_seg_k.end(), seg_k_.begin() + a, seg_k_.begin() + b);
    for (std::size_t s = a; s < b; ++s) {
      new_seg_end.push_back(seg_end_[s] - ea + base);
    }
    new_col.insert(new_col.end(), col_.begin() + ea, col_.begin() + eb);
    for (std::size_t v = 0; v < arrays.size(); ++v) {
      new_values[v].insert(new_values[v].end(), arrays[v]->begin() + ea,
                           arrays[v]->begin() + eb);
    }
  };
  std::size_t next_row = 0;
  for (const Row& row : rows) {
    bulk_copy(next_row, row.row);
    const std::size_t base = new_col.size();
    new_seg_k.insert(new_seg_k.end(), row.seg_k.begin(), row.seg_k.end());
    for (const std::size_t end : row.seg_end) new_seg_end.push_back(base + end);
    new_col.insert(new_col.end(), row.col.begin(), row.col.end());
    for (std::size_t v = 0; v < arrays.size(); ++v) {
      TMARK_CHECK(row.values[v].size() == row.col.size());
      new_values[v].insert(new_values[v].end(), row.values[v].begin(),
                           row.values[v].end());
    }
    next_row = row.row + 1;
  }
  bulk_copy(next_row, n_);
  // Patch row_ptr in place: offsets past a spliced row shift by the
  // cumulative segment-count delta. The old counts were captured above, so
  // the ascending Set pass never re-reads an offset it already rewrote.
  std::ptrdiff_t shift = 0;
  std::size_t next = 0;
  for (std::size_t r = rows.front().row + 1; r <= n_; ++r) {
    while (next < rows.size() && rows[next].row < r) {
      shift += static_cast<std::ptrdiff_t>(rows[next].seg_k.size()) -
               static_cast<std::ptrdiff_t>(old_segs[next]);
      ++next;
    }
    row_ptr_.Set(r, static_cast<std::size_t>(
                        static_cast<std::ptrdiff_t>(row_ptr_[r]) + shift));
  }
  row_ptr_.FitWidth();
  seg_k_ = std::move(new_seg_k);
  seg_end_ = la::IndexArray::FromOffsets(std::move(new_seg_end));
  col_ = std::move(new_col);
  for (std::size_t v = 0; v < arrays.size(); ++v) {
    *arrays[v] = std::move(new_values[v]);
  }
}

void EntryIndex::ContractMode1Panel(const std::vector<double>& val,
                                    const la::DenseMatrix& x,
                                    const la::DenseMatrix& z,
                                    std::size_t width, la::DenseMatrix* y,
                                    la::PanelWorkspace* ws) const {
  TMARK_PROF_REGION("tensor.contract.mode1_panel");
  TMARK_CHECK(y != nullptr && ws != nullptr && val.size() == col_.size());
  TMARK_CHECK(x.rows() == n_ && z.rows() == m_ && y->rows() == n_);
  TMARK_CHECK(x.cols() == y->cols() && z.cols() == x.cols());
  TMARK_CHECK(width <= x.cols());
  // Per row i, segments ascending in k, so the per-relation terms
  // z(k, c) * acc are added to y(i, c) in ascending k. A segment is skipped
  // when every active z(k, :) entry is zero — precomputed once per call
  // into a liveness table — and rows/relations without stored entries have
  // no segments at all: the skipped contribution is z(k, c) * 0.0, and a
  // Zero-initialized accumulator can never hold -0.0 (IEEE: +0.0 + -0.0 ==
  // +0.0 and a + (-a) == +0.0), so adding the +-0.0 term is a bit-level
  // no-op — which is also why a column gets the same bits whether or not
  // its neighbours keep a segment live. Output rows are disjoint, so the
  // fixed row-chunk grid is bit-identical at any thread count.
  la::Vector& z_live = ws->Buffer(0, m_);
  for (std::size_t k = 0; k < m_; ++k) {
    z_live[k] = la::mk::AnyNonZero(z.RowPtr(k), width) ? 1.0 : 0.0;
  }
  const std::size_t grain =
      width > 0 ? std::max<std::size_t>(64, kContractRowGrain / width)
                : kContractRowGrain;
  const std::size_t chunks = parallel::NumFixedChunks(n_, grain);
  ws->PrepareChunks(chunks == 0 ? 1 : chunks, width);
  parallel::ParallelChunks(
      n_, chunks, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        double* acc = ws->Chunk(chunk).data();
        for (std::size_t i = begin; i < end; ++i) {
          double* yrow = y->RowPtr(i);
          la::mk::Zero(yrow, width);
          std::size_t entry = RowBegin(i);
          for (std::size_t s = row_ptr_[i]; s < row_ptr_[i + 1]; ++s) {
            const std::size_t seg_end = seg_end_[s];
            const std::uint32_t k = seg_k_[s];
            if (z_live[k] == 0.0) {
              entry = seg_end;
              continue;
            }
            la::mk::Zero(acc, width);
            for (; entry < seg_end; ++entry) {
              la::mk::Axpy(acc, val[entry], x.RowPtr(col_[entry]), width);
            }
            la::mk::MulAdd(yrow, z.RowPtr(k), acc, width);
          }
        }
      });
}

void EntryIndex::ContractMode3Panel(const std::vector<double>& val,
                                    const la::DenseMatrix& x,
                                    const la::DenseMatrix& y,
                                    std::size_t width, la::DenseMatrix* w,
                                    la::PanelWorkspace* ws) const {
  TMARK_PROF_REGION("tensor.contract.mode3_panel");
  TMARK_CHECK(w != nullptr && ws != nullptr && val.size() == col_.size());
  TMARK_CHECK(x.rows() == n_ && y.rows() == n_ && w->rows() == m_);
  TMARK_CHECK(x.cols() == y.cols() && w->cols() == x.cols());
  TMARK_CHECK(width <= x.cols());
  // All m bilinear forms in one pass instead of m independent
  // BilinearPanel sweeps: the x-row liveness check runs once per row, not
  // once per (relation, row). Per relation k the partial w(k, c)
  // accumulates over rows in ascending order, the chunk boundaries reuse
  // BilinearPanel's reduce grain, and rows without stored entries in a
  // relation have no segment: the skipped xrow[c] * 0.0 term cannot change
  // a Zero-initialized accumulator (which can never hold -0.0; IEEE
  // +0.0 + -0.0 == +0.0 and a + (-a) == +0.0).
  //
  // Each chunk buffer holds [m x width partial sums | width inner scratch].
  auto accumulate = [&](std::size_t begin, std::size_t end, double* buf) {
    double* inner = buf + m_ * width;
    for (std::size_t i = begin; i < end; ++i) {
      const double* xrow = x.RowPtr(i);
      if (!la::mk::AnyNonZero(xrow, width)) continue;
      std::size_t entry = RowBegin(i);
      for (std::size_t s = row_ptr_[i]; s < row_ptr_[i + 1]; ++s) {
        const std::size_t seg_end = seg_end_[s];
        la::mk::Zero(inner, width);
        for (; entry < seg_end; ++entry) {
          la::mk::Axpy(inner, val[entry], y.RowPtr(col_[entry]), width);
        }
        la::mk::MulAdd(buf + seg_k_[s] * width, xrow, inner, width);
      }
    }
  };
  const std::size_t chunks =
      parallel::NumFixedChunks(n_, la::SparseMatrix::kBilinearReduceGrain);
  const std::size_t buffers = chunks == 0 ? 1 : chunks;
  ws->PrepareChunks(buffers, m_ * width + width);
  if (chunks <= 1) {
    if (n_ > 0) accumulate(0, n_, ws->Chunk(0).data());
  } else {
    parallel::ParallelChunks(
        n_, chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          accumulate(begin, end, ws->Chunk(chunk).data());
        });
  }
  for (std::size_t k = 0; k < m_; ++k) {
    la::mk::Zero(w->RowPtr(k), width);
  }
  for (std::size_t chunk = 0; chunk < buffers; ++chunk) {
    const double* partial = ws->Chunk(chunk).data();
    for (std::size_t k = 0; k < m_; ++k) {
      la::mk::Add(w->RowPtr(k), partial + k * width, width);
    }
  }
}

}  // namespace tmark::tensor
