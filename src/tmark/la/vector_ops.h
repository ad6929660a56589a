#ifndef TMARK_LA_VECTOR_OPS_H_
#define TMARK_LA_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

namespace tmark::la {

/// Dense column vector of doubles. A plain alias keeps interop with the STL
/// trivial; the free functions below supply the numeric kernels.
using Vector = std::vector<double>;

/// Returns the all-zero vector of length n.
Vector Zeros(std::size_t n);

/// Returns the uniform probability vector (1/n, ..., 1/n). Requires n > 0.
Vector UniformProbability(std::size_t n);

/// Dot product. Requires equal sizes.
double Dot(const Vector& a, const Vector& b);

/// Sum of entries.
double Sum(const Vector& v);

/// y += alpha * x. Requires equal sizes.
void Axpy(double alpha, const Vector& x, Vector* y);

/// v *= alpha.
void Scale(double alpha, Vector* v);

/// Returns a + b.
Vector Add(const Vector& a, const Vector& b);

/// ||a - b||_1. Requires equal sizes.
double L1Distance(const Vector& a, const Vector& b);

/// Normalizes v in place so its entries sum to one. Requires Sum(v) > 0 and
/// all entries non-negative (a probability-vector projection).
void NormalizeL1(Vector* v);

/// Index of the maximum entry (first on ties). Requires non-empty.
std::size_t ArgMax(const Vector& v);

/// Returns indices of v sorted by decreasing value (stable on ties).
std::vector<std::size_t> ArgSortDescending(const Vector& v);

/// True if every entry is >= -tol and the entries sum to 1 within tol.
bool IsProbabilityVector(const Vector& v, double tol = 1e-9);

}  // namespace tmark::la

#endif  // TMARK_LA_VECTOR_OPS_H_
