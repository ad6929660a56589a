#include "deltas.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "layers.h"
#include "tmark/la/sparse_matrix.h"

namespace perfbench {
namespace {

using tmark::la::SparseMatrix;

std::size_t UniformIndex(std::size_t n, std::mt19937_64* rng) {
  return static_cast<std::size_t>((*rng)() % n);
}

/// Row holding stored entry `pos` of `m` (binary search over row_ptr).
std::size_t RowOfEntry(const SparseMatrix& m, std::size_t pos) {
  std::size_t lo = 0;
  std::size_t hi = m.rows();
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (m.row_ptr()[mid] <= pos) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Stored value at (row, col), or 0 when the entry does not exist.
double StoredValue(const SparseMatrix& m, std::size_t row, std::size_t col) {
  const std::size_t begin = m.row_ptr()[row];
  const std::size_t end = m.row_ptr()[row + 1];
  const auto first = m.col_idx().begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = m.col_idx().begin() + static_cast<std::ptrdiff_t>(end);
  const auto it =
      std::lower_bound(first, last, static_cast<std::uint32_t>(col));
  if (it == last || *it != col) return 0.0;
  return m.values()[static_cast<std::size_t>(it - m.col_idx().begin())];
}

std::vector<std::pair<std::size_t, double>> FeatureRow(const SparseMatrix& f,
                                                       std::size_t node) {
  std::vector<std::pair<std::size_t, double>> row;
  for (std::size_t p = f.row_ptr()[node]; p < f.row_ptr()[node + 1]; ++p) {
    row.emplace_back(f.col_idx()[p], f.values()[p]);
  }
  return row;
}

}  // namespace

tmark::hin::HinDelta MakeUpdateDelta(const tmark::hin::Hin& hin,
                                     std::mt19937_64* rng) {
  tmark::hin::HinDelta delta;
  std::size_t links = 0;
  for (std::size_t k = 0; k < hin.num_relations(); ++k) {
    links += hin.relation(k).NumNonZeros();
  }
  const std::size_t edge_target = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kDeltaEdgeShare *
                                               static_cast<double>(links))));
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> used;
  // Draws are bounded so a tiny network cannot spin forever.
  for (std::size_t draw = 0;
       used.size() < edge_target && draw < 50 * edge_target; ++draw) {
    std::size_t pos = UniformIndex(links, rng);
    std::size_t k = 0;
    while (pos >= hin.relation(k).NumNonZeros()) {
      pos -= hin.relation(k).NumNonZeros();
      ++k;
    }
    const SparseMatrix& rel = hin.relation(k);
    const std::size_t dst = RowOfEntry(rel, pos);
    const std::size_t src = rel.col_idx()[pos];
    if (used.count({k, dst, src}) != 0) continue;
    const double current = rel.values()[pos];
    // The reverse entry of a symmetric pair gets the same new weight.
    const bool pair = src != dst && used.count({k, src, dst}) == 0 &&
                      StoredValue(rel, src, dst) > 0.0;
    const double reverse = pair ? StoredValue(rel, src, dst) : current;
    // Quarter steps round-trip exactly through the text formats.
    double weight = current;
    while (weight == current || weight == reverse) {
      weight = 0.25 * static_cast<double>(1 + UniformIndex(12, rng));
    }
    used.insert({k, dst, src});
    delta.ReweightEdge(k, src, dst, weight);
    if (pair) {
      used.insert({k, src, dst});
      delta.ReweightEdge(k, dst, src, weight);
    }
  }

  const std::size_t n = hin.num_nodes();
  const std::size_t dim = hin.feature_dim();
  const std::size_t row_target = std::min(
      n, std::max<std::size_t>(
             1, static_cast<std::size_t>(
                    std::llround(kDeltaRowShare * static_cast<double>(n)))));
  std::set<std::size_t> nodes;
  while (nodes.size() < row_target && dim > 0) {
    nodes.insert(UniformIndex(n, rng));
  }
  for (const std::size_t node : nodes) {
    const auto current = FeatureRow(hin.features(), node);
    const std::size_t words = std::min<std::size_t>(
        dim, std::max<std::size_t>(2, current.size()));
    std::vector<std::pair<std::size_t, double>> row;
    do {
      std::set<std::size_t> dims;
      while (dims.size() < words) dims.insert(UniformIndex(dim, rng));
      row.clear();
      for (const std::size_t d : dims) {
        row.emplace_back(d, static_cast<double>(1 + UniformIndex(3, rng)));
      }
    } while (row == current);
    delta.UpdateFeatureRow(node, std::move(row));
  }
  return delta;
}

}  // namespace perfbench
