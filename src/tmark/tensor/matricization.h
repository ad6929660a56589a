#ifndef TMARK_TENSOR_MATRICIZATION_H_
#define TMARK_TENSOR_MATRICIZATION_H_

#include <vector>

#include "tmark/la/sparse_matrix.h"

namespace tmark::tensor {

// Both unfoldings take the (n x n x m) tensor A as its m front slices
// A(:,:,k), each an n x n CSR matrix over (i, j) — the layout of
// hin::Hin::relations(). At least one slice is required.

/// Mode-1 matricization A_(1) of an (n x n x m) tensor: an n x (n*m) sparse
/// matrix whose column index is j + k*n (mode-2 fastest, matching the
/// worked example of Sec. 3.2 where A_(1) is 4 x 12). Column c of A_(1)
/// corresponds to the tensor column (·, j, k); normalizing its columns is
/// exactly the node-normalization of Eq. (1).
la::SparseMatrix MatricizeMode1(const std::vector<la::SparseMatrix>& slices);

/// Mode-3 matricization A_(3): an m x (n*n) sparse matrix whose column index
/// is i + j*n (mode-1 fastest; A_(3) is 3 x 16 in the worked example).
/// Normalizing its columns is the relation-normalization of Eq. (2).
la::SparseMatrix MatricizeMode3(const std::vector<la::SparseMatrix>& slices);

}  // namespace tmark::tensor

#endif  // TMARK_TENSOR_MATRICIZATION_H_
