#ifndef TMARK_LA_MICROKERNEL_H_
#define TMARK_LA_MICROKERNEL_H_

// Register-blocked SIMD micro-kernels over contiguous column runs.
//
// Every multi-RHS panel kernel (SparseMatrix::*Panel, EntryIndex::
// Contract*Panel, FeatureSimilarity::ApplyPanel, the la/panel.h column
// helpers) has the same inner shape: a short contiguous run of `width`
// doubles — the active columns of one panel row — updated element-wise.
// The primitives here process that run in fixed-width column blocks of
// 8, then 4, then 2, with a scalar tail, each block a constant-trip-count
// loop annotated with TMARK_SIMD (common/simd.h) so the compiler emits
// straight-line vector code with no runtime length or aliasing checks.
//
// Bit-identity by construction: blocking happens across *columns*, and
// columns are independent chains — no primitive ever combines values from
// two different columns. Column c therefore sees exactly the scalar
// operation sequence of the unblocked loop at every block width, the one
// it sees at width 1 (the scalar tail) included, so width-q == width-1
// survives vectorization untouched (docs/PERFORMANCE.md).
//
// All pointers reference runs of at least `width` doubles; distinct
// pointer arguments must not alias (panel kernels pass disjoint rows or
// scratch buffers).

#include <cmath>
#include <cstddef>

#include "tmark/common/simd.h"

namespace tmark::la::mk {

/// The descending column-block widths the dispatcher tries, ending in the
/// scalar tail. Exposed for tests and the kernel microbenchmarks.
inline constexpr std::size_t kBlockWidths[] = {8, 4, 2, 1};

/// Human-readable description of the compiled-in SIMD annotation, recorded
/// in bench dumps so committed numbers are attributable.
const char* SimdAnnotation();

namespace detail {

/// Runs Op::Run<W>(c, args...) over [0, width): blocks of 8, then at most
/// one each of 4, 2, and the scalar tail, in ascending column order.
template <typename Op, typename... Args>
inline void Dispatch(std::size_t width, Args... args) {
  std::size_t c = 0;
  for (; c + 8 <= width; c += 8) Op::template Run<8>(c, args...);
  if (c + 4 <= width) {
    Op::template Run<4>(c, args...);
    c += 4;
  }
  if (c + 2 <= width) {
    Op::template Run<2>(c, args...);
    c += 2;
  }
  if (c < width) Op::template Run<1>(c, args...);
}

struct ZeroOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* d) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) d[c + i] = 0.0;
  }
};

struct ScaleOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* d, double a) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) d[c + i] *= a;
  }
};

struct AxpyOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* d, double a, const double* s) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) d[c + i] += a * s[c + i];
  }
};

struct AddOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* d, const double* s) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) d[c + i] += s[c + i];
  }
};

struct MulOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* d, const double* s) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) d[c + i] *= s[c + i];
  }
};

struct MulAddOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* d, const double* a,
                  const double* b) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) d[c + i] += a[c + i] * b[c + i];
  }
};

struct DivScalarOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* d, const double* s, double v) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) d[c + i] = s[c + i] / v;
  }
};

struct AccumAbsDiffOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* acc, const double* a,
                  const double* b) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) {
      acc[c + i] += std::abs(a[c + i] - b[c + i]);
    }
  }
};

struct FusedCombineOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* x, double rel, double beta,
                  const double* wx, double alpha, const double* l,
                  double* sums) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) {
      // The exact per-element sequence of Scale, Axpy(beta, wx),
      // Axpy(alpha, l), then the column-sum accumulation.
      double v = x[c + i] * rel;
      v += beta * wx[c + i];
      v += alpha * l[c + i];
      x[c + i] = v;
      sums[c + i] += v;
    }
  }
};

struct FusedScaleAbsDiffOp {
  template <std::size_t W>
  static void Run(std::size_t c, double* d, const double* inv,
                  const double* prev, double* acc) {
    TMARK_SIMD
    for (std::size_t i = 0; i < W; ++i) {
      const double v = d[c + i] * inv[c + i];
      d[c + i] = v;
      acc[c + i] += std::abs(v - prev[c + i]);
    }
  }
};

}  // namespace detail

/// d[c] = 0 for c in [0, width).
inline void Zero(double* d, std::size_t width) {
  detail::Dispatch<detail::ZeroOp>(width, d);
}

/// d[c] *= a.
inline void Scale(double* d, double a, std::size_t width) {
  detail::Dispatch<detail::ScaleOp>(width, d, a);
}

/// d[c] += a * s[c] — the CSR inner multiply-add of every panel kernel.
inline void Axpy(double* d, double a, const double* s, std::size_t width) {
  detail::Dispatch<detail::AxpyOp>(width, d, a, s);
}

/// d[c] += s[c] — ordered per-chunk partial merges, dangling spreads.
inline void Add(double* d, const double* s, std::size_t width) {
  detail::Dispatch<detail::AddOp>(width, d, s);
}

/// d[c] *= s[c] — the per-column normalization apply.
inline void Mul(double* d, const double* s, std::size_t width) {
  detail::Dispatch<detail::MulOp>(width, d, s);
}

/// d[c] += a[c] * b[c] — bilinear accumulations, z(k,c) * acc(c) terms.
inline void MulAdd(double* d, const double* a, const double* b,
                   std::size_t width) {
  detail::Dispatch<detail::MulAddOp>(width, d, a, b);
}

/// d[c] = s[c] / v — kept as a true division to match the per-class
/// element order bit for bit (no reciprocal rewrite).
inline void DivScalar(double* d, const double* s, double v,
                      std::size_t width) {
  detail::Dispatch<detail::DivScalarOp>(width, d, s, v);
}

/// acc[c] += |a[c] - b[c]| — the residual-distance row step.
inline void AccumAbsDiff(double* acc, const double* a, const double* b,
                         std::size_t width) {
  detail::Dispatch<detail::AccumAbsDiffOp>(width, acc, a, b);
}

/// x[c] = rel*x[c] + beta*wx[c] + alpha*l[c]; sums[c] += x[c]. One row step
/// of the fused combine pass (la::FusedCombineColumns).
inline void FusedCombine(double* x, double rel, double beta, const double* wx,
                         double alpha, const double* l, double* sums,
                         std::size_t width) {
  detail::Dispatch<detail::FusedCombineOp>(width, x, rel, beta, wx, alpha, l,
                                           sums);
}

/// d[c] *= inv[c]; acc[c] += |d[c] - prev[c]|. One row step of the fused
/// normalize + residual pass (la::FusedNormalizeDistanceColumns).
inline void FusedScaleAbsDiff(double* d, const double* inv, const double* prev,
                              double* acc, std::size_t width) {
  detail::Dispatch<detail::FusedScaleAbsDiffOp>(width, d, inv, prev, acc);
}

/// True when any of s[0..width) is non-zero. Early exit is safe: callers
/// only branch on the boolean, never on how it was computed.
inline bool AnyNonZero(const double* s, std::size_t width) {
  for (std::size_t c = 0; c < width; ++c) {
    if (s[c] != 0.0) return true;
  }
  return false;
}

}  // namespace tmark::la::mk

#endif  // TMARK_LA_MICROKERNEL_H_
