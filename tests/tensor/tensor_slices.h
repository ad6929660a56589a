#ifndef TMARK_TESTS_TENSOR_TENSOR_SLICES_H_
#define TMARK_TESTS_TENSOR_TENSOR_SLICES_H_

// Test fixtures for an (n x n x m) tensor held as its m front slices
// A(:,:,k), the layout of hin::Hin::relations().

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "tmark/common/random.h"
#include "tmark/la/sparse_matrix.h"

namespace tmark::tensor {

/// Slice k holds the (i, j, value) triplets `triplets[k]`, duplicates summed.
inline std::vector<la::SparseMatrix> Slices(
    std::size_t n, std::vector<std::vector<la::Triplet>> triplets) {
  std::vector<la::SparseMatrix> slices;
  for (std::vector<la::Triplet>& t : triplets) {
    slices.push_back(la::SparseMatrix::FromTriplets(n, n, std::move(t)));
  }
  return slices;
}

/// Stores each of the n*n*m cells with probability `density`, at a value in
/// [0.1, 1).
inline std::vector<la::SparseMatrix> RandomSlices(std::size_t n,
                                                  std::size_t m,
                                                  double density, Rng* rng) {
  std::vector<std::vector<la::Triplet>> triplets(m);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (rng->Bernoulli(density)) {
          triplets[k].push_back({static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(j),
                                 rng->Uniform(0.1, 1.0)});
        }
      }
    }
  }
  return Slices(n, std::move(triplets));
}

/// Stored entries D over all slices.
inline std::size_t NumNonZeros(const std::vector<la::SparseMatrix>& slices) {
  std::size_t d = 0;
  for (const la::SparseMatrix& s : slices) d += s.NumNonZeros();
  return d;
}

}  // namespace tmark::tensor

#endif  // TMARK_TESTS_TENSOR_TENSOR_SLICES_H_
