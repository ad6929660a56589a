#include "tmark/tensor/transition_tensors.h"

#include <algorithm>
#include <utility>

#include "tmark/common/check.h"
#include "tmark/la/microkernel.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/prof.h"
#include "tmark/obs/trace.h"

namespace tmark::tensor {
namespace {

// R for one index row (Eq. 2): divides the row's A values `r` in place by
// their fiber totals sum_k A[i,j,k] and lists the row's linked columns
// (total > 0) ascending. The totals accumulate in the row's entry order,
// which is ascending k per column — the same chain, and therefore the same
// doubles, as hin::Hin::AggregatedRelation. `total` is n zeros on entry and
// on return.
void NormalizeFibers(const std::uint32_t* col, double* r, std::size_t count,
                     std::vector<double>* total,
                     std::vector<std::uint32_t>* linked) {
  std::vector<double>& t = *total;
  for (std::size_t e = 0; e < count; ++e) t[col[e]] += r[e];
  for (std::size_t e = 0; e < count; ++e) r[e] /= t[col[e]];
  linked->clear();
  for (std::size_t e = 0; e < count; ++e) {
    if (t[col[e]] > 0.0) linked->push_back(col[e]);
    t[col[e]] = 0.0;  // Also drops repeats of the column from the list.
  }
  std::sort(linked->begin(), linked->end());
}

}  // namespace

TransitionTensors TransitionTensors::Build(
    const std::vector<la::SparseMatrix>& relations) {
  TMARK_CHECK_MSG(
      std::all_of(relations.begin(), relations.end(),
                  [](const la::SparseMatrix& a) { return a.IsNonNegative(); }),
      "adjacency tensor must be non-negative");
  obs::TraceSpan span("tensor.transition.build");
  obs::ScopedTimer timer("tensor.transition.build_ms");
  TransitionTensors t;
  // The index takes A's values into r, where they are normalized in place.
  t.index_ = EntryIndex::FromSlices(relations, &t.r_);
  const std::size_t n = t.index_.num_nodes();
  t.n_ = n;
  t.m_ = relations.size();

  // R row by row, and the linked mask from the same totals.
  {
    std::vector<double> total(n, 0.0);
    std::vector<std::uint32_t> linked;
    std::vector<std::size_t> mask_ptr(n + 1, 0);
    std::vector<std::uint32_t> mask_col;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t begin = t.index_.RowBegin(i);
      NormalizeFibers(t.index_.col().data() + begin, t.r_.data() + begin,
                      t.index_.RowEnd(i) - begin, &total, &linked);
      mask_col.insert(mask_col.end(), linked.begin(), linked.end());
      mask_ptr[i + 1] = mask_col.size();
    }
    std::vector<double> ones(mask_col.size(), 1.0);
    t.linked_mask_ = la::SparseMatrix::FromCsr(
        n, n, std::move(mask_ptr), std::move(mask_col), std::move(ones));
  }

  // O relation by relation.
  t.o_.resize(t.r_.size());
  t.dangling_cols_.resize(t.m_);
  for (std::size_t k = 0; k < t.m_; ++k) t.NormalizeRelation(k, relations[k]);

  if (obs::MetricsEnabled()) {
    obs::IncrCounter("tensor.transition.builds");
    obs::SetGauge("tensor.transition.nnz_o",
                  static_cast<double>(t.o_.size()));
    obs::SetGauge("tensor.transition.nnz_r",
                  static_cast<double>(t.r_.size()));
    t.RecordGauges();
  }
  if (span.active()) {
    span.AddField("nodes", n);
    span.AddField("relations", t.m_);
    span.AddField("nnz", t.index_.num_entries());
  }
  return t;
}

void TransitionTensors::NormalizeRelation(std::size_t k,
                                          const la::SparseMatrix& a) {
  // a * (1 / column sum), as la::SparseMatrix::NormalizeColumnsSparse
  // computes it; a column without mass becomes dangling.
  const la::Vector sums = a.ColumnSums();
  la::Vector inv(n_, 0.0);
  dangling_cols_[k].clear();
  for (std::size_t j = 0; j < n_; ++j) {
    if (sums[j] > 0.0) {
      inv[j] = 1.0 / sums[j];
    } else {
      dangling_cols_[k].push_back(static_cast<std::uint32_t>(j));
    }
  }
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t begin = a.row_ptr()[i];
    const std::size_t end = a.row_ptr()[i + 1];
    if (begin == end) continue;
    // Slice k's row i is the index's run (i, k), entry for entry.
    const auto [first, last] = index_.RelationEntries(i, k);
    TMARK_CHECK_MSG(last - first == end - begin,
                    "relation " << k << " row " << i
                                << " does not match the index");
    double* o = o_.data() + first;
    for (std::size_t p = begin; p < end; ++p) {
      *o++ = a.values()[p] * inv[a.col_idx()[p]];
    }
  }
}

std::size_t TransitionTensors::StorageBytes() const {
  return index_.StorageBytes() + (o_.size() + r_.size()) * sizeof(double);
}

void TransitionTensors::RecordGauges() const {
  // Scaling telemetry: operator footprint and the offset width the
  // IndexArrays picked (docs/PERFORMANCE.md "Scaling").
  obs::SetGauge("tensor.merged.bytes", static_cast<double>(StorageBytes()));
  obs::SetGauge("tensor.merged.index_bits",
                static_cast<double>(index_.IndexBits()));
}

std::size_t TransitionTensors::ApplyPatch(
    const std::vector<la::SparseMatrix>& adjacency,
    const AdjacencyDelta& delta) {
  TMARK_CHECK(adjacency.size() == m_);
  obs::TraceSpan span("tensor.transition.patch");
  obs::ScopedTimer timer("tensor.transition.patch_ms");
  std::vector<char> edited(m_, 0);
  for (std::size_t k : delta.relations) {
    TMARK_CHECK(k < m_);
    edited[k] = 1;
  }

  // Re-read every destination row of a changed pair. Its R values come out
  // of the build's own row normalization; unchanged pairs fetch the same
  // totals, hence the same doubles. A row that kept its layout is
  // overwritten in place; the others are collected for one splice.
  std::vector<double> total(n_, 0.0);
  std::vector<std::uint32_t> linked;
  std::vector<EntryIndex::Row> spliced;
  std::vector<la::RowEdit> mask_edits;
  std::size_t rows_touched = 0;
  for (std::size_t p = 0; p < delta.pairs.size(); ++p) {
    const std::uint32_t i = delta.pairs[p].first;
    TMARK_CHECK(i < n_);
    if (p > 0 && delta.pairs[p - 1].first == i) continue;
    ++rows_touched;
    EntryIndex::Row row = EntryIndex::ReadRow(adjacency, i);
    std::vector<double>& r = row.values[0];
    NormalizeFibers(row.col.data(), r.data(), r.size(), &total, &linked);
    const std::size_t mb = linked_mask_.row_ptr()[i];
    const std::size_t me = linked_mask_.row_ptr()[i + 1];
    if (!std::equal(linked.begin(), linked.end(),
                    linked_mask_.col_idx().begin() + mb,
                    linked_mask_.col_idx().begin() + me)) {
      mask_edits.push_back(
          {i, linked, std::vector<double>(linked.size(), 1.0)});
    }
    if (index_.SameLayout(row)) {
      std::copy(r.begin(), r.end(), r_.begin() + index_.RowBegin(i));
      continue;
    }
    // O values of unedited relations carry over from the old row; the
    // edited relations' are recomputed below.
    std::vector<double> o(r.size(), 0.0);
    for (std::size_t s = 0; s < row.seg_k.size(); ++s) {
      const std::size_t k = row.seg_k[s];
      if (edited[k]) continue;
      const std::size_t begin = s == 0 ? 0 : row.seg_end[s - 1];
      const auto [first, last] = index_.RelationEntries(i, k);
      TMARK_CHECK(last - first == row.seg_end[s] - begin);
      std::copy(o_.begin() + first, o_.begin() + last, o.begin() + begin);
    }
    row.values.insert(row.values.begin(), std::move(o));
    spliced.push_back(std::move(row));
  }
  index_.SpliceRows(spliced, {&o_, &r_});

  // O: the edited relations renormalize through the build's own routine.
  for (std::size_t k : delta.relations) NormalizeRelation(k, adjacency[k]);

  // Linked mask: replace the rows whose linked columns changed.
  if (!mask_edits.empty()) linked_mask_.ApplyRowEdits(std::move(mask_edits));

  obs::IncrCounter("update.rows_touched",
                   static_cast<std::int64_t>(rows_touched));
  if (obs::MetricsEnabled()) RecordGauges();
  if (span.active()) {
    span.AddField("relations", delta.relations.size());
    span.AddField("pairs", delta.pairs.size());
    span.AddField("rows", rows_touched);
    span.AddField("spliced", spliced.size());
  }
  return rows_touched;
}

void TransitionTensors::ApplyOPanel(const la::DenseMatrix& x,
                                    const la::DenseMatrix& z,
                                    std::size_t width, la::DenseMatrix* y,
                                    la::PanelWorkspace* ws) const {
  TMARK_PROF_REGION("tensor.apply_o_panel");
  TMARK_CHECK(y != nullptr && ws != nullptr);
  TMARK_CHECK(x.rows() == n_ && z.rows() == m_ && y->rows() == n_);
  TMARK_CHECK(width <= x.cols());
  index_.ContractMode1Panel(o_, x, z, width, y, ws);
  // Dangling correction: every empty column (j,k) contributes
  // x_j * z_k * (1/n) to every output coordinate. Per column the
  // per-relation terms z(k, c) * colsum accumulate in ascending k and each
  // colsum in ascending dangling-node order. A column with z(k, c) == 0
  // picks up a 0 * colsum term, leaving its mass unchanged.
  la::Vector& mass = ws->Buffer(0, width);
  la::Vector& colsum = ws->Buffer(1, width);
  for (std::size_t k = 0; k < m_; ++k) {
    if (dangling_cols_[k].empty()) continue;
    const double* zrow = z.RowPtr(k);
    if (!la::mk::AnyNonZero(zrow, width)) continue;
    la::mk::Zero(colsum.data(), width);
    for (std::uint32_t j : dangling_cols_[k]) {
      la::mk::Add(colsum.data(), x.RowPtr(j), width);
    }
    la::mk::MulAdd(mass.data(), zrow, colsum.data(), width);
  }
  if (!la::mk::AnyNonZero(mass.data(), width)) return;
  // Columns with zero mass receive a + 0.0, which leaves them unchanged.
  for (std::size_t c = 0; c < width; ++c) {
    mass[c] /= static_cast<double>(n_);
  }
  for (std::size_t i = 0; i < n_; ++i) {
    la::mk::Add(y->RowPtr(i), mass.data(), width);
  }
}

void TransitionTensors::ApplyRPanel(const la::DenseMatrix& x,
                                    const la::DenseMatrix& y,
                                    std::size_t width, la::DenseMatrix* w,
                                    la::PanelWorkspace* ws,
                                    const la::Vector* x_sums,
                                    const la::Vector* y_sums,
                                    la::Vector* w_sums) const {
  TMARK_PROF_REGION("tensor.apply_r_panel");
  TMARK_CHECK(w != nullptr && ws != nullptr);
  TMARK_CHECK(x.rows() == n_ && y.rows() == n_ && w->rows() == m_);
  TMARK_CHECK(width <= x.cols());
  TMARK_CHECK(x_sums == nullptr || x_sums->size() >= width);
  TMARK_CHECK(y_sums == nullptr || y_sums->size() >= width);
  index_.ContractMode3Panel(r_, x, y, width, w, ws);
  // Dangling-fiber correction per column: unlinked (i,j) pairs carry the
  // uniform fiber 1/m, and sum_{unlinked} x_i y_j = Sum(x) * Sum(y) -
  // sum_{linked} x_i y_j, so add = (Sum(x) * Sum(y) - linked) / m goes to
  // every w entry. The
  // column sums come from the caller when it already has them (the fused
  // combine pass accumulates them in the same ascending row order).
  la::Vector& add = ws->Buffer(0, width);
  linked_mask_.BilinearPanel(x, y, width, add.data(), ws);
  const double* sumx;
  const double* sumy;
  if (x_sums != nullptr) {
    sumx = x_sums->data();
  } else {
    la::Vector& sx = ws->Buffer(1, width);
    la::LeadingColumnSums(x, width, &sx);
    sumx = sx.data();
  }
  if (y_sums != nullptr) {
    sumy = y_sums->data();
  } else if (&y == &x && x_sums != nullptr) {
    sumy = x_sums->data();
  } else {
    la::Vector& sy = ws->Buffer(2, width);
    la::LeadingColumnSums(y, width, &sy);
    sumy = sy.data();
  }
  for (std::size_t c = 0; c < width; ++c) {
    add[c] = (sumx[c] * sumy[c] - add[c]) / static_cast<double>(m_);
  }
  if (w_sums != nullptr) w_sums->assign(width, 0.0);
  for (std::size_t k = 0; k < m_; ++k) {
    double* wrow = w->RowPtr(k);
    la::mk::Add(wrow, add.data(), width);
    // Ascending-k accumulation = the row order LeadingColumnSums would use.
    if (w_sums != nullptr) la::mk::Add(w_sums->data(), wrow, width);
  }
}

double TransitionTensors::OEntry(std::size_t i, std::size_t j,
                                 std::size_t k) const {
  TMARK_CHECK(i < n_ && j < n_ && k < m_);
  const std::vector<std::uint32_t>& cols = dangling_cols_[k];
  if (std::binary_search(cols.begin(), cols.end(),
                         static_cast<std::uint32_t>(j))) {
    return 1.0 / static_cast<double>(n_);
  }
  const std::size_t e = index_.Find(i, j, k);
  return e == EntryIndex::npos ? 0.0 : o_[e];
}

double TransitionTensors::REntry(std::size_t i, std::size_t j,
                                 std::size_t k) const {
  TMARK_CHECK(i < n_ && j < n_ && k < m_);
  if (linked_mask_.At(i, j) == 0.0) return 1.0 / static_cast<double>(m_);
  const std::size_t e = index_.Find(i, j, k);
  return e == EntryIndex::npos ? 0.0 : r_[e];
}

la::DenseMatrix TransitionTensors::DenseOSlice(std::size_t k) const {
  la::DenseMatrix out(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) out.At(i, j) = OEntry(i, j, k);
  }
  return out;
}

la::DenseMatrix TransitionTensors::DenseRSlice(std::size_t k) const {
  la::DenseMatrix out(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) out.At(i, j) = REntry(i, j, k);
  }
  return out;
}

}  // namespace tmark::tensor
