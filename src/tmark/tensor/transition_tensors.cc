#include "tmark/tensor/transition_tensors.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "tmark/common/check.h"
#include "tmark/la/microkernel.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/prof.h"
#include "tmark/obs/trace.h"

namespace tmark::tensor {

TransitionTensors TransitionTensors::Build(const SparseTensor3& adjacency) {
  TMARK_CHECK_MSG(adjacency.IsNonNegative(),
                  "adjacency tensor must be non-negative");
  obs::TraceSpan span("tensor.transition.build");
  obs::ScopedTimer timer("tensor.transition.build_ms");
  const std::size_t n = adjacency.num_nodes();
  const std::size_t m = adjacency.num_relations();
  TransitionTensors t;
  t.n_ = n;
  t.m_ = m;
  t.dangling_cols_.resize(m);

  // O: column-normalize each slice; remember which (j,k) columns were empty.
  std::vector<la::SparseMatrix> o_slices;
  o_slices.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    std::vector<bool> dangling;
    o_slices.push_back(adjacency.Slice(k).NormalizeColumnsSparse(&dangling));
    for (std::size_t j = 0; j < n; ++j) {
      if (dangling[j]) {
        t.dangling_cols_[k].push_back(static_cast<std::uint32_t>(j));
      }
    }
  }
  t.o_ = SparseTensor3::FromSlices(std::move(o_slices));

  // R: normalize each (i,j) fiber over k. totals[i][j] = sum_k A[i,j,k]
  // is only needed on the union support, which is SumOverRelations().
  const la::SparseMatrix totals = adjacency.SumOverRelations();
  const la::IndexArray& totals_row_ptr = totals.row_ptr();
  const std::vector<std::uint32_t>& totals_cols = totals.col_idx();
  const std::vector<double>& totals_vals = totals.values();
  std::vector<la::SparseMatrix> r_slices;
  r_slices.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    la::SparseMatrix slice = adjacency.Slice(k);  // copy, then scale in place
    std::vector<double>& vals = slice.mutable_values();
    for (std::size_t i = 0; i < n; ++i) {
      // Merged CSR row walk: both rows are column-sorted and the totals row
      // supports a superset of the slice row, so one forward cursor finds
      // every divisor in O(nnz) total (vs. a binary search per entry). The
      // fetched divisor is the same double as before, so R is unchanged.
      std::size_t t_pos = totals_row_ptr[i];
      const std::size_t t_end = totals_row_ptr[i + 1];
      for (std::size_t p = slice.row_ptr()[i]; p < slice.row_ptr()[i + 1];
           ++p) {
        const std::uint32_t j = slice.col_idx()[p];
        while (t_pos < t_end && totals_cols[t_pos] < j) ++t_pos;
        // The total is > 0 because this (i,j) pair has a stored entry in
        // slice k; the cursor must land on it while still inside row i.
        TMARK_CHECK_MSG(t_pos < t_end && totals_cols[t_pos] == j,
                        "R-normalization: totals row " << i
                            << " is missing column " << j
                            << " (superset invariant violated)");
        vals[p] /= totals_vals[t_pos];
      }
    }
    r_slices.push_back(std::move(slice));
  }
  t.r_ = SparseTensor3::FromSlices(std::move(r_slices));

  // Linked mask: 1.0 wherever any relation links (i, j).
  {
    std::vector<la::Triplet> trips;
    trips.reserve(totals.NumNonZeros());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = totals.row_ptr()[i]; p < totals.row_ptr()[i + 1];
           ++p) {
        if (totals.values()[p] > 0.0) {
          trips.push_back(
              {static_cast<std::uint32_t>(i), totals.col_idx()[p], 1.0});
        }
      }
    }
    t.linked_mask_ = la::SparseMatrix::FromTriplets(n, n, std::move(trips));
  }
  // Build the merged panel-contraction views up front: the operators are
  // immutable from here on, and preparing them now keeps the panel kernels
  // safe to call from several fits concurrently (lazy build mutates).
  t.o_.PrepareMergedView();
  t.r_.PrepareMergedView();
  if (obs::MetricsEnabled()) {
    obs::IncrCounter("tensor.transition.builds");
    obs::SetGauge("tensor.transition.nnz_o",
                  static_cast<double>(t.o_.NumNonZeros()));
    obs::SetGauge("tensor.transition.nnz_r",
                  static_cast<double>(t.r_.NumNonZeros()));
    // Scaling telemetry: structure footprint of the merged views and the
    // offset width the IndexArrays picked (docs/PERFORMANCE.md "Scaling").
    obs::SetGauge("tensor.merged.bytes",
                  static_cast<double>(t.o_.MergedViewStorageBytes() +
                                      t.r_.MergedViewStorageBytes()));
    obs::SetGauge("tensor.merged.index_bits",
                  static_cast<double>(std::max(t.o_.MergedViewIndexBits(),
                                               t.r_.MergedViewIndexBits())));
  }
  if (span.active()) {
    span.AddField("nodes", n);
    span.AddField("relations", m);
    span.AddField("nnz", adjacency.NumNonZeros());
  }
  return t;
}

std::size_t TransitionTensors::ApplyPatch(
    const std::vector<const la::SparseMatrix*>& adjacency,
    const AdjacencyDelta& delta) {
  TMARK_CHECK(adjacency.size() == m_);
  obs::TraceSpan span("tensor.transition.patch");
  obs::ScopedTimer timer("tensor.transition.patch_ms");
  std::size_t rows_touched = 0;

  // O: renormalize the edited slices through the full-build kernel
  // (NormalizeColumnsSparse on the mutated adjacency slice — the identical
  // computation Build runs, so the slice is bit-identical by construction),
  // and rebuild their dangling-column lists wholesale.
  std::vector<char> edited(m_, 0);
  for (std::size_t k : delta.relations) {
    TMARK_CHECK(k < m_);
    edited[k] = 1;
    std::vector<bool> dangling;
    la::SparseMatrix o_new = adjacency[k]->NormalizeColumnsSparse(&dangling);
    dangling_cols_[k].clear();
    for (std::size_t j = 0; j < n_; ++j) {
      if (dangling[j]) {
        dangling_cols_[k].push_back(static_cast<std::uint32_t>(j));
      }
    }
    rows_touched += o_.ReplaceSlice(k, std::move(o_new));
  }

  // Totals sum_k A[i,j,k] for the pairs that need one, accumulated over
  // relations in ascending k — the same sequential chain (and therefore the
  // same doubles) as the full build's SumOverRelations. Relations without
  // the entry contribute +0.0, a bit-level no-op on the positive partials.
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> totals;
  const auto total_of = [&](std::uint32_t i, std::uint32_t j) {
    const auto it = totals.find({i, j});
    if (it != totals.end()) return it->second;
    double total = 0.0;
    for (std::size_t k = 0; k < m_; ++k) total += adjacency[k]->At(i, j);
    totals.emplace(std::make_pair(i, j), total);
    return total;
  };

  // R: rows whose stored structure changed are regenerated wholesale (every
  // entry re-divided — unchanged pairs fetch the same totals, hence the
  // same doubles); every other affected pair gets a value-only edit at the
  // entry position the aligned adjacency structure dictates.
  for (std::size_t k = 0; k < m_; ++k) {
    const la::SparseMatrix& adj = *adjacency[k];
    std::vector<std::uint32_t> structural_rows;
    if (edited[k]) {
      const la::SparseMatrix& old_r = r_.Slice(k);
      std::vector<la::RowEdit> row_edits;
      for (std::size_t i = 0; i < n_; ++i) {
        const std::size_t ob = old_r.row_ptr()[i];
        const std::size_t oe = old_r.row_ptr()[i + 1];
        const std::size_t nb = adj.row_ptr()[i];
        const std::size_t ne = adj.row_ptr()[i + 1];
        bool structural = (oe - ob) != (ne - nb);
        if (!structural && oe != ob) {
          structural = std::memcmp(old_r.col_idx().data() + ob,
                                   adj.col_idx().data() + nb,
                                   (oe - ob) * sizeof(std::uint32_t)) != 0;
        }
        if (!structural) continue;
        structural_rows.push_back(static_cast<std::uint32_t>(i));
        la::RowEdit e;
        e.row = i;
        e.cols.assign(adj.col_idx().begin() + nb, adj.col_idx().begin() + ne);
        e.values.reserve(ne - nb);
        for (std::size_t p = nb; p < ne; ++p) {
          e.values.push_back(
              adj.values()[p] /
              total_of(static_cast<std::uint32_t>(i), adj.col_idx()[p]));
        }
        row_edits.push_back(std::move(e));
      }
      if (!row_edits.empty()) {
        rows_touched += r_.PatchSliceRows(k, std::move(row_edits));
      }
    }
    std::vector<std::pair<std::size_t, double>> value_edits;
    for (const std::pair<std::uint32_t, std::uint32_t>& pr : delta.pairs) {
      if (std::binary_search(structural_rows.begin(), structural_rows.end(),
                             pr.first)) {
        continue;
      }
      const std::size_t pos = adj.FindEntry(pr.first, pr.second);
      if (pos == la::SparseMatrix::npos) continue;
      value_edits.emplace_back(pos,
                               adj.values()[pos] /
                                   total_of(pr.first, pr.second));
    }
    if (!value_edits.empty()) {
      rows_touched += r_.PatchSliceValues(k, value_edits);
    }
  }

  // Linked mask: splice the pairs that transitioned linked <-> unlinked
  // (values all 1.0, columns kept sorted — the content FromTriplets on the
  // mutated totals support would assemble).
  {
    std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, bool>>>
        changes;
    for (const std::pair<std::uint32_t, std::uint32_t>& pr : delta.pairs) {
      const bool now = total_of(pr.first, pr.second) > 0.0;
      const bool was =
          linked_mask_.FindEntry(pr.first, pr.second) != la::SparseMatrix::npos;
      if (now != was) changes[pr.first].emplace_back(pr.second, now);
    }
    if (!changes.empty()) {
      std::vector<la::RowEdit> edits;
      edits.reserve(changes.size());
      for (auto& change : changes) {
        const std::uint32_t i = change.first;
        std::vector<std::pair<std::uint32_t, bool>>& mods = change.second;
        std::sort(mods.begin(), mods.end());
        la::RowEdit e;
        e.row = i;
        std::size_t mp = 0;
        for (std::size_t p = linked_mask_.row_ptr()[i];
             p < linked_mask_.row_ptr()[i + 1]; ++p) {
          const std::uint32_t c = linked_mask_.col_idx()[p];
          while (mp < mods.size() && mods[mp].first < c) {
            if (mods[mp].second) {
              e.cols.push_back(mods[mp].first);
              e.values.push_back(1.0);
            }
            ++mp;
          }
          if (mp < mods.size() && mods[mp].first == c) {
            ++mp;  // A stored column in the change list is a removal.
            continue;
          }
          e.cols.push_back(c);
          e.values.push_back(1.0);
        }
        for (; mp < mods.size(); ++mp) {
          if (mods[mp].second) {
            e.cols.push_back(mods[mp].first);
            e.values.push_back(1.0);
          }
        }
        edits.push_back(std::move(e));
      }
      linked_mask_.ApplyRowEdits(std::move(edits));
    }
  }

  obs::IncrCounter("update.rows_touched",
                   static_cast<std::int64_t>(rows_touched));
  if (obs::MetricsEnabled()) {
    obs::SetGauge("tensor.merged.bytes",
                  static_cast<double>(o_.MergedViewStorageBytes() +
                                      r_.MergedViewStorageBytes()));
    obs::SetGauge("tensor.merged.index_bits",
                  static_cast<double>(std::max(o_.MergedViewIndexBits(),
                                               r_.MergedViewIndexBits())));
  }
  if (span.active()) {
    span.AddField("relations", delta.relations.size());
    span.AddField("pairs", delta.pairs.size());
    span.AddField("rows", rows_touched);
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
  o_.ContractMode1Panel(x, z, width, y, ws);
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
  r_.ContractMode3Panel(x, y, width, w, ws);
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
  return o_.At(i, j, k);
}

double TransitionTensors::REntry(std::size_t i, std::size_t j,
                                 std::size_t k) const {
  TMARK_CHECK(i < n_ && j < n_ && k < m_);
  if (linked_mask_.At(i, j) == 0.0) return 1.0 / static_cast<double>(m_);
  return r_.At(i, j, k);
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
