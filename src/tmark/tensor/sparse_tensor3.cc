#include "tmark/tensor/sparse_tensor3.h"

#include <algorithm>
#include <cstring>

#include "tmark/common/check.h"
#include "tmark/la/microkernel.h"
#include "tmark/obs/prof.h"
#include "tmark/parallel/parallel_for.h"

namespace tmark::tensor {
namespace {

// Row grain for the mode-1 contraction at width 1; small inputs collapse to
// a single chunk and run the exact serial loop on the calling thread.
constexpr std::size_t kContractRowGrain = 512;

}  // namespace

SparseTensor3::SparseTensor3(std::size_t n, std::size_t m) : n_(n), m_(m) {
  slices_.reserve(m);
  for (std::size_t k = 0; k < m; ++k) slices_.emplace_back(n, n);
}

SparseTensor3 SparseTensor3::FromEntries(std::size_t n, std::size_t m,
                                         std::vector<TensorEntry> entries) {
  std::vector<std::vector<la::Triplet>> per_slice(m);
  for (const TensorEntry& e : entries) {
    TMARK_CHECK_MSG(e.i < n && e.j < n && e.k < m,
                    "tensor entry (" << e.i << "," << e.j << "," << e.k
                                     << ") out of bounds");
    per_slice[e.k].push_back({e.i, e.j, e.value});
  }
  SparseTensor3 t(n, m);
  for (std::size_t k = 0; k < m; ++k) {
    t.slices_[k] =
        la::SparseMatrix::FromTriplets(n, n, std::move(per_slice[k]));
  }
  return t;
}

SparseTensor3 SparseTensor3::FromSlices(std::vector<la::SparseMatrix> slices) {
  TMARK_CHECK(!slices.empty());
  const std::size_t n = slices[0].rows();
  for (const la::SparseMatrix& s : slices) {
    TMARK_CHECK_MSG(s.rows() == n && s.cols() == n,
                    "all tensor slices must be square with equal size");
  }
  SparseTensor3 t;
  t.n_ = n;
  t.m_ = slices.size();
  t.slices_ = std::move(slices);
  return t;
}

std::size_t SparseTensor3::NumNonZeros() const {
  std::size_t d = 0;
  for (const la::SparseMatrix& s : slices_) d += s.NumNonZeros();
  return d;
}

const la::SparseMatrix& SparseTensor3::Slice(std::size_t k) const {
  TMARK_CHECK(k < m_);
  return slices_[k];
}

la::SparseMatrix& SparseTensor3::MutableSlice(std::size_t k) {
  TMARK_CHECK(k < m_);
  merged_.built = false;  // Slice edits invalidate the merged view.
  return slices_[k];
}

void SparseTensor3::PrepareMergedView() const {
  if (merged_.built) return;
  std::vector<std::size_t> row_ptr(n_ + 1, 0);
  std::vector<std::size_t> seg_end;
  merged_.seg_k.clear();
  merged_.col.clear();
  merged_.val.clear();
  const std::size_t nnz = NumNonZeros();
  merged_.col.reserve(nnz);
  merged_.val.reserve(nnz);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = 0; k < m_; ++k) {
      const la::SparseMatrix& s = slices_[k];
      const std::size_t begin = s.row_ptr()[i];
      const std::size_t end = s.row_ptr()[i + 1];
      if (begin == end) continue;
      merged_.seg_k.push_back(static_cast<std::uint32_t>(k));
      merged_.col.insert(merged_.col.end(), s.col_idx().begin() + begin,
                         s.col_idx().begin() + end);
      merged_.val.insert(merged_.val.end(), s.values().begin() + begin,
                         s.values().begin() + end);
      seg_end.push_back(merged_.col.size());
    }
    row_ptr[i + 1] = merged_.seg_k.size();
  }
  // Offsets assemble wide, then shrink to the narrowest width that holds
  // them (32-bit for every realistic input — see la/index_array.h).
  merged_.row_ptr = la::IndexArray::FromOffsets(std::move(row_ptr));
  merged_.seg_end = la::IndexArray::FromOffsets(std::move(seg_end));
  merged_.built = true;
}

std::size_t SparseTensor3::MergedViewStorageBytes() const {
  const MergedView& mv = MergedSlices();
  return mv.row_ptr.StorageBytes() + mv.seg_end.StorageBytes() +
         mv.seg_k.size() * sizeof(std::uint32_t) +
         mv.col.size() * sizeof(std::uint32_t) +
         mv.val.size() * sizeof(double);
}

std::size_t SparseTensor3::MergedViewIndexBits() const {
  const MergedView& mv = MergedSlices();
  return std::max(mv.row_ptr.index_bits(), mv.seg_end.index_bits());
}

const SparseTensor3::MergedView& SparseTensor3::MergedSlices() const {
  PrepareMergedView();
  return merged_;
}

std::size_t SparseTensor3::ReplaceSlice(std::size_t k,
                                        la::SparseMatrix slice) {
  TMARK_CHECK(k < m_);
  TMARK_CHECK(slice.rows() == n_ && slice.cols() == n_);
  const la::SparseMatrix& old = slices_[k];
  std::vector<std::uint32_t> rows;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t ob = old.row_ptr()[i];
    const std::size_t oe = old.row_ptr()[i + 1];
    const std::size_t nb = slice.row_ptr()[i];
    bool differs = (oe - ob) != (slice.row_ptr()[i + 1] - nb);
    if (!differs && oe != ob) {
      differs =
          std::memcmp(old.col_idx().data() + ob, slice.col_idx().data() + nb,
                      (oe - ob) * sizeof(std::uint32_t)) != 0 ||
          std::memcmp(old.values().data() + ob, slice.values().data() + nb,
                      (oe - ob) * sizeof(double)) != 0;
    }
    if (differs) rows.push_back(static_cast<std::uint32_t>(i));
  }
  slices_[k] = std::move(slice);
  return RefreshMergedRows(std::move(rows));
}

std::size_t SparseTensor3::PatchSliceRows(std::size_t k,
                                          std::vector<la::RowEdit> edits) {
  TMARK_CHECK(k < m_);
  std::vector<std::uint32_t> rows;
  rows.reserve(edits.size());
  for (const la::RowEdit& e : edits) {
    rows.push_back(static_cast<std::uint32_t>(e.row));
  }
  slices_[k].ApplyRowEdits(std::move(edits));
  return RefreshMergedRows(std::move(rows));
}

std::size_t SparseTensor3::PatchSliceValues(
    std::size_t k, const std::vector<std::pair<std::size_t, double>>& edits) {
  TMARK_CHECK(k < m_);
  if (edits.empty()) return 0;
  la::SparseMatrix& slice = slices_[k];
  std::vector<std::pair<std::size_t, double>> sorted(edits.begin(),
                                                     edits.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const std::pair<std::size_t, double>& a,
               const std::pair<std::size_t, double>& b) {
              return a.first < b.first;
            });
  std::vector<double>& vals = slice.mutable_values();
  std::size_t rows_touched = 0;
  std::size_t row = 0;
  std::size_t cur_row = static_cast<std::size_t>(-1);
  std::size_t merged_base = 0;  // Merged entry index of slice row begin.
  bool have_segment = false;
  for (const std::pair<std::size_t, double>& edit : sorted) {
    const std::size_t pos = edit.first;
    TMARK_CHECK(pos < vals.size());
    while (slice.row_ptr()[row + 1] <= pos) ++row;
    if (row != cur_row) {
      ++rows_touched;
      cur_row = row;
      have_segment = false;
    }
    vals[pos] = edit.second;
    if (!merged_.built) continue;
    if (!have_segment) {
      std::size_t entry = merged_.row_ptr[row] == 0
                              ? 0
                              : merged_.seg_end[merged_.row_ptr[row] - 1];
      for (std::size_t s = merged_.row_ptr[row];
           s < merged_.row_ptr[row + 1]; ++s) {
        if (merged_.seg_k[s] == k) {
          merged_base = entry;
          have_segment = true;
          break;
        }
        entry = merged_.seg_end[s];
      }
      TMARK_CHECK(have_segment);
    }
    merged_.val[merged_base + (pos - slice.row_ptr()[row])] = edit.second;
  }
  return rows_touched;
}

std::size_t SparseTensor3::RefreshMergedRows(
    std::vector<std::uint32_t> rows) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (rows.empty()) return 0;
  if (!merged_.built) return rows.size();
  MergedView& mv = merged_;

  // Regenerate the affected rows' segment lists from the (already patched)
  // slices and compare layout with the stored view. Old per-row segment
  // counts are captured here, before any mutation.
  struct NewRow {
    std::vector<std::uint32_t> seg_k;
    std::vector<std::size_t> seg_len;
    std::size_t entries = 0;
  };
  std::vector<NewRow> fresh(rows.size());
  std::vector<std::size_t> old_segs(rows.size());
  bool structural = false;
  for (std::size_t idx = 0; idx < rows.size(); ++idx) {
    const std::size_t i = rows[idx];
    TMARK_CHECK(i < n_);
    NewRow& nr = fresh[idx];
    for (std::size_t k = 0; k < m_; ++k) {
      const la::SparseMatrix& s = slices_[k];
      const std::size_t len = s.row_ptr()[i + 1] - s.row_ptr()[i];
      if (len == 0) continue;
      nr.seg_k.push_back(static_cast<std::uint32_t>(k));
      nr.seg_len.push_back(len);
      nr.entries += len;
    }
    const std::size_t sb = mv.row_ptr[i];
    const std::size_t se = mv.row_ptr[i + 1];
    old_segs[idx] = se - sb;
    if (se - sb != nr.seg_k.size()) {
      structural = true;
      continue;
    }
    std::size_t entry = sb == 0 ? 0 : mv.seg_end[sb - 1];
    for (std::size_t s = 0; s < nr.seg_k.size(); ++s) {
      const std::size_t seg_entries = mv.seg_end[sb + s] - entry;
      entry = mv.seg_end[sb + s];
      if (mv.seg_k[sb + s] != nr.seg_k[s] || seg_entries != nr.seg_len[s]) {
        structural = true;
        break;
      }
    }
  }

  if (!structural) {
    // Layout unchanged: overwrite the affected rows' col/val spans in place.
    for (std::size_t idx = 0; idx < rows.size(); ++idx) {
      const std::size_t i = rows[idx];
      const std::size_t sb = mv.row_ptr[i];
      std::size_t entry = sb == 0 ? 0 : mv.seg_end[sb - 1];
      for (std::size_t s = 0; s < fresh[idx].seg_k.size(); ++s) {
        const la::SparseMatrix& src = slices_[fresh[idx].seg_k[s]];
        const std::size_t begin = src.row_ptr()[i];
        const std::size_t len = fresh[idx].seg_len[s];
        std::copy_n(src.col_idx().begin() + begin, len,
                    mv.col.begin() + entry);
        std::copy_n(src.values().begin() + begin, len,
                    mv.val.begin() + entry);
        entry += len;
      }
    }
    return rows.size();
  }

  // Structural change: gap-copy seg_k/col/val with bulk runs for untouched
  // rows and regenerated spans for the edited ones, rebuilding the seg_end
  // offsets in the same pass. Every read of the old offsets happens before
  // row_ptr is patched below.
  const auto old_entry_at = [&mv](std::size_t seg) {
    return seg == 0 ? std::size_t{0} : mv.seg_end[seg - 1];
  };
  std::ptrdiff_t seg_delta = 0;
  std::ptrdiff_t entry_delta = 0;
  for (std::size_t idx = 0; idx < rows.size(); ++idx) {
    const std::size_t i = rows[idx];
    const std::size_t old_entries =
        old_entry_at(mv.row_ptr[i + 1]) - old_entry_at(mv.row_ptr[i]);
    seg_delta += static_cast<std::ptrdiff_t>(fresh[idx].seg_k.size()) -
                 static_cast<std::ptrdiff_t>(old_segs[idx]);
    entry_delta += static_cast<std::ptrdiff_t>(fresh[idx].entries) -
                   static_cast<std::ptrdiff_t>(old_entries);
  }
  std::vector<std::uint32_t> new_seg_k;
  std::vector<std::size_t> new_seg_end;
  std::vector<std::uint32_t> new_col;
  std::vector<double> new_val;
  new_seg_k.reserve(static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(mv.seg_k.size()) + seg_delta));
  new_seg_end.reserve(new_seg_k.capacity());
  new_col.reserve(static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(mv.col.size()) + entry_delta));
  new_val.reserve(new_col.capacity());
  const auto bulk_copy = [&](std::size_t row_begin, std::size_t row_end) {
    const std::size_t a = mv.row_ptr[row_begin];
    const std::size_t b = mv.row_ptr[row_end];
    if (b <= a) return;
    const std::size_t ea = old_entry_at(a);
    const std::size_t eb = old_entry_at(b);
    const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(new_col.size()) -
                                 static_cast<std::ptrdiff_t>(ea);
    new_seg_k.insert(new_seg_k.end(), mv.seg_k.begin() + a,
                     mv.seg_k.begin() + b);
    for (std::size_t s = a; s < b; ++s) {
      new_seg_end.push_back(static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(mv.seg_end[s]) + shift));
    }
    new_col.insert(new_col.end(), mv.col.begin() + ea, mv.col.begin() + eb);
    new_val.insert(new_val.end(), mv.val.begin() + ea, mv.val.begin() + eb);
  };
  std::size_t src_row = 0;
  for (std::size_t idx = 0; idx < rows.size(); ++idx) {
    const std::size_t i = rows[idx];
    bulk_copy(src_row, i);
    const NewRow& nr = fresh[idx];
    for (std::size_t s = 0; s < nr.seg_k.size(); ++s) {
      const la::SparseMatrix& sl = slices_[nr.seg_k[s]];
      const std::size_t begin = sl.row_ptr()[i];
      const std::size_t len = nr.seg_len[s];
      new_seg_k.push_back(nr.seg_k[s]);
      new_col.insert(new_col.end(), sl.col_idx().begin() + begin,
                     sl.col_idx().begin() + begin + len);
      new_val.insert(new_val.end(), sl.values().begin() + begin,
                     sl.values().begin() + begin + len);
      new_seg_end.push_back(new_col.size());
    }
    src_row = i + 1;
  }
  bulk_copy(src_row, n_);
  // Patch row_ptr in place: offsets past an edited row shift by the
  // cumulative segment-count delta. Old counts were captured above, so the
  // ascending Set pass never re-reads an offset it already rewrote.
  std::ptrdiff_t cum = 0;
  std::size_t ri = 0;
  for (std::size_t r = rows.front() + 1; r <= n_; ++r) {
    while (ri < rows.size() && rows[ri] < r) {
      cum += static_cast<std::ptrdiff_t>(fresh[ri].seg_k.size()) -
             static_cast<std::ptrdiff_t>(old_segs[ri]);
      ++ri;
    }
    mv.row_ptr.Set(r, static_cast<std::size_t>(
                          static_cast<std::ptrdiff_t>(mv.row_ptr[r]) + cum));
  }
  mv.row_ptr.FitWidth();
  mv.seg_k = std::move(new_seg_k);
  mv.seg_end = la::IndexArray::FromOffsets(std::move(new_seg_end));
  mv.col = std::move(new_col);
  mv.val = std::move(new_val);
  return rows.size();
}

double SparseTensor3::At(std::size_t i, std::size_t j, std::size_t k) const {
  TMARK_CHECK(k < m_);
  return slices_[k].At(i, j);
}

std::vector<TensorEntry> SparseTensor3::Entries() const {
  std::vector<TensorEntry> out;
  out.reserve(NumNonZeros());
  for (std::size_t k = 0; k < m_; ++k) {
    const la::SparseMatrix& s = slices_[k];
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t p = s.row_ptr()[i]; p < s.row_ptr()[i + 1]; ++p) {
        out.push_back({static_cast<std::uint32_t>(i), s.col_idx()[p],
                       static_cast<std::uint32_t>(k), s.values()[p]});
      }
    }
  }
  return out;
}

la::SparseMatrix SparseTensor3::SumOverRelations() const {
  la::SparseMatrix sum(n_, n_);
  for (const la::SparseMatrix& s : slices_) sum = sum.Add(s);
  return sum;
}

bool SparseTensor3::IsNonNegative() const {
  return std::all_of(slices_.begin(), slices_.end(),
                     [](const la::SparseMatrix& s) { return s.IsNonNegative(); });
}

bool SparseTensor3::IsConnectedAggregate() const {
  if (n_ == 0) return true;
  const la::SparseMatrix agg = SumOverRelations();
  const la::SparseMatrix agg_t = agg.Transpose();
  std::vector<bool> seen(n_, false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  std::size_t count = 1;
  auto visit = [&](const la::SparseMatrix& g, std::size_t u) {
    for (std::size_t p = g.row_ptr()[u]; p < g.row_ptr()[u + 1]; ++p) {
      const std::size_t v = g.col_idx()[p];
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        stack.push_back(v);
      }
    }
  };
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    visit(agg, u);
    visit(agg_t, u);
  }
  return count == n_;
}

void SparseTensor3::ContractMode1Panel(const la::DenseMatrix& x,
                                       const la::DenseMatrix& z,
                                       std::size_t width,
                                       la::DenseMatrix* y,
                                       la::PanelWorkspace* ws) const {
  TMARK_PROF_REGION("tensor.contract.mode1_panel");
  TMARK_CHECK(y != nullptr && ws != nullptr);
  TMARK_CHECK(x.rows() == n_ && z.rows() == m_ && y->rows() == n_);
  TMARK_CHECK(x.cols() == y->cols() && z.cols() == x.cols());
  TMARK_CHECK(width <= x.cols());
  // Walks the merged row-major view: per row i, segments ascending in k, so
  // the per-slice terms z(k, c) * acc are added to y(i, c) in ascending k.
  // A segment is skipped when every active z(k, :) entry is zero —
  // precomputed once per call into a liveness table — and rows/slices
  // without stored entries have no segments at all: the skipped
  // contribution is z(k, c) * 0.0, and a Zero-initialized accumulator can
  // never hold -0.0 (IEEE: +0.0 + -0.0 == +0.0 and a + (-a) == +0.0), so
  // adding the +-0.0 term is a bit-level no-op — which is also why a column
  // gets the same bits whether or not its neighbours keep a segment live.
  // The merged view turns the m interleaved CSR row
  // probes per row — what the m ~= 20-relation presets are bound by — into
  // one contiguous stream. Output rows are disjoint, so the fixed row-chunk
  // grid is bit-identical at any thread count.
  const MergedView& mv = MergedSlices();
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
          std::size_t entry =
              mv.row_ptr[i] == 0 ? 0 : mv.seg_end[mv.row_ptr[i] - 1];
          for (std::size_t s = mv.row_ptr[i]; s < mv.row_ptr[i + 1]; ++s) {
            const std::size_t seg_end = mv.seg_end[s];
            const std::uint32_t k = mv.seg_k[s];
            if (z_live[k] == 0.0) {
              entry = seg_end;
              continue;
            }
            la::mk::Zero(acc, width);
            for (; entry < seg_end; ++entry) {
              la::mk::Axpy(acc, mv.val[entry], x.RowPtr(mv.col[entry]),
                           width);
            }
            la::mk::MulAdd(yrow, z.RowPtr(k), acc, width);
          }
        }
      });
}

void SparseTensor3::ContractMode3Panel(const la::DenseMatrix& x,
                                       const la::DenseMatrix& y,
                                       std::size_t width, la::DenseMatrix* w,
                                       la::PanelWorkspace* ws) const {
  TMARK_PROF_REGION("tensor.contract.mode3_panel");
  TMARK_CHECK(w != nullptr && ws != nullptr);
  TMARK_CHECK(x.rows() == n_ && y.rows() == n_ && w->rows() == m_);
  TMARK_CHECK(x.cols() == y.cols() && w->cols() == x.cols());
  TMARK_CHECK(width <= x.cols());
  // All m bilinear forms in one traversal of the merged row-major view
  // instead of m independent BilinearPanel sweeps: the x-row liveness check
  // hoists out of the slice loop (once per row, not once per (slice, row))
  // and the per-row segment walk replaces m interleaved CSR row probes with
  // one contiguous stream — what the m ~= 20-relation presets are bound by.
  // Per slice k the partial w(k, c) accumulates over rows in ascending
  // order, the chunk boundaries reuse BilinearPanel's reduce grain, and
  // rows without stored entries in a slice have no segment: the skipped
  // xrow[c] * 0.0 term cannot change a Zero-initialized accumulator (which
  // can never hold -0.0; IEEE +0.0 + -0.0 == +0.0 and a + (-a) == +0.0).
  //
  // Each chunk buffer holds [m x width partial sums | width inner scratch].
  const MergedView& mv = MergedSlices();
  auto accumulate = [&](std::size_t begin, std::size_t end, double* buf) {
    double* inner = buf + m_ * width;
    for (std::size_t i = begin; i < end; ++i) {
      const double* xrow = x.RowPtr(i);
      if (!la::mk::AnyNonZero(xrow, width)) continue;
      std::size_t entry = mv.row_ptr[i] == 0 ? 0
                                             : mv.seg_end[mv.row_ptr[i] - 1];
      for (std::size_t s = mv.row_ptr[i]; s < mv.row_ptr[i + 1]; ++s) {
        const std::size_t seg_end = mv.seg_end[s];
        la::mk::Zero(inner, width);
        for (; entry < seg_end; ++entry) {
          la::mk::Axpy(inner, mv.val[entry], y.RowPtr(mv.col[entry]), width);
        }
        la::mk::MulAdd(buf + mv.seg_k[s] * width, xrow, inner, width);
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
