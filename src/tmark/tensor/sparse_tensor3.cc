#include "tmark/tensor/sparse_tensor3.h"

#include <algorithm>

#include "tmark/common/check.h"

namespace tmark::tensor {

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

}  // namespace tmark::tensor
