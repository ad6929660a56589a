#include "tmark/tensor/matricization.h"

#include <cstdint>

#include "tmark/common/check.h"

namespace tmark::tensor {
namespace {

/// n of the (n x n x m) tensor whose front slices are `slices`, after
/// checking that they are square and of one size.
std::size_t NumNodes(const std::vector<la::SparseMatrix>& slices) {
  TMARK_CHECK(!slices.empty());
  const std::size_t n = slices[0].rows();
  for (const la::SparseMatrix& s : slices) {
    TMARK_CHECK_MSG(s.rows() == n && s.cols() == n,
                    "all tensor slices must be square with equal size");
  }
  return n;
}

/// Calls fn(i, j, k, value) for every stored entry, slice by slice.
template <typename Fn>
void ForEachEntry(const std::vector<la::SparseMatrix>& slices, Fn fn) {
  for (std::size_t k = 0; k < slices.size(); ++k) {
    const la::SparseMatrix& s = slices[k];
    for (std::size_t i = 0; i < s.rows(); ++i) {
      for (std::size_t p = s.row_ptr()[i]; p < s.row_ptr()[i + 1]; ++p) {
        fn(i, s.col_idx()[p], k, s.values()[p]);
      }
    }
  }
}

}  // namespace

la::SparseMatrix MatricizeMode1(const std::vector<la::SparseMatrix>& slices) {
  const std::size_t n = NumNodes(slices);
  std::vector<la::Triplet> trips;
  ForEachEntry(slices, [&](std::size_t i, std::size_t j, std::size_t k,
                           double value) {
    trips.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j + k * n), value});
  });
  return la::SparseMatrix::FromTriplets(n, n * slices.size(),
                                        std::move(trips));
}

la::SparseMatrix MatricizeMode3(const std::vector<la::SparseMatrix>& slices) {
  const std::size_t n = NumNodes(slices);
  std::vector<la::Triplet> trips;
  ForEachEntry(slices, [&](std::size_t i, std::size_t j, std::size_t k,
                           double value) {
    trips.push_back({static_cast<std::uint32_t>(k),
                     static_cast<std::uint32_t>(i + j * n), value});
  });
  return la::SparseMatrix::FromTriplets(slices.size(), n * n,
                                        std::move(trips));
}

}  // namespace tmark::tensor
