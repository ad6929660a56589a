#include "tmark/la/vector_ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tmark/common/check.h"

namespace tmark::la {

Vector Zeros(std::size_t n) { return Vector(n, 0.0); }

Vector UniformProbability(std::size_t n) {
  TMARK_CHECK(n > 0);
  return Vector(n, 1.0 / static_cast<double>(n));
}

double Dot(const Vector& a, const Vector& b) {
  TMARK_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Sum(const Vector& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

void Axpy(double alpha, const Vector& x, Vector* y) {
  TMARK_CHECK(y != nullptr && x.size() == y->size());
  for (std::size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Scale(double alpha, Vector* v) {
  TMARK_CHECK(v != nullptr);
  for (double& x : *v) x *= alpha;
}

Vector Add(const Vector& a, const Vector& b) {
  TMARK_CHECK(a.size() == b.size());
  Vector out(a);
  Axpy(1.0, b, &out);
  return out;
}

double L1Distance(const Vector& a, const Vector& b) {
  TMARK_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::abs(a[i] - b[i]);
  return s;
}

void NormalizeL1(Vector* v) {
  TMARK_CHECK(v != nullptr);
  double s = Sum(*v);
  TMARK_CHECK_MSG(s > 0.0, "cannot L1-normalize a zero/negative-sum vector");
  Scale(1.0 / s, v);
}

std::size_t ArgMax(const Vector& v) {
  TMARK_CHECK(!v.empty());
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

std::vector<std::size_t> ArgSortDescending(const Vector& v) {
  std::vector<std::size_t> idx(v.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&v](std::size_t a, std::size_t b) { return v[a] > v[b]; });
  return idx;
}

bool IsProbabilityVector(const Vector& v, double tol) {
  for (double x : v) {
    if (x < -tol) return false;
  }
  return std::abs(Sum(v) - 1.0) <= tol;
}

}  // namespace tmark::la
