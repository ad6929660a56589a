// Bit-identity tests for the register-blocked micro-kernels (la/microkernel.h)
// and the fused panel passes built on them (la/panel.h).
//
// Every mk:: primitive must equal a plain scalar loop bit for bit at every
// width — including odd/tail widths that exercise the 4/2/1 blocks — and must
// never touch memory at or beyond `width` (panels have live inactive columns
// there). The fused panel passes must equal the unfused sweep sequence
// exactly: these equivalences are what keeps a column of a width-q engine
// panel bit-identical to its width-1 run after vectorization and fusion.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "tmark/la/dense_matrix.h"
#include "tmark/la/microkernel.h"
#include "tmark/la/panel.h"
#include "tmark/la/vector_ops.h"

namespace tmark::la {
namespace {

// Tail widths around every block boundary plus two vector-friendly widths.
const std::size_t kWidths[] = {1, 2, 3, 5, 7, 9, 16, 17};
constexpr std::size_t kPad = 3;          // sentinel slots beyond width
constexpr double kSentinel = -777.125;   // exactly representable

// Deterministic "irregular" doubles: varied signs and magnitudes so that
// reassociation or skipped ops would change bits.
double Val(std::size_t i, std::size_t salt) {
  return std::sin(static_cast<double>(i * 37 + salt * 101 + 1)) * 3.25 +
         0.017 * static_cast<double>(i + salt);
}

std::vector<double> MakeBuf(std::size_t width, std::size_t salt) {
  std::vector<double> buf(width + kPad);
  for (std::size_t i = 0; i < width; ++i) buf[i] = Val(i, salt);
  for (std::size_t i = width; i < buf.size(); ++i) buf[i] = kSentinel;
  return buf;
}

void ExpectEqualAndPadded(const std::vector<double>& got,
                          const std::vector<double>& want,
                          std::size_t width, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < width; ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " col " << i << " width " << width;
  }
  for (std::size_t i = width; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kSentinel)
        << what << " wrote past width " << width << " at " << i;
  }
}

TEST(MicrokernelTest, BlockWidthsDescendToScalarTail) {
  ASSERT_EQ(sizeof(mk::kBlockWidths) / sizeof(mk::kBlockWidths[0]), 4u);
  EXPECT_EQ(mk::kBlockWidths[0], 8u);
  EXPECT_EQ(mk::kBlockWidths[3], 1u);
  EXPECT_NE(std::string(mk::SimdAnnotation()), "");
}

TEST(MicrokernelTest, PrimitivesMatchScalarLoopsAtEveryWidth) {
  for (const std::size_t w : kWidths) {
    SCOPED_TRACE("width " + std::to_string(w));
    const std::vector<double> a = MakeBuf(w, 1);
    const std::vector<double> b = MakeBuf(w, 2);

    {  // Zero
      std::vector<double> got = MakeBuf(w, 3), want = got;
      mk::Zero(got.data(), w);
      for (std::size_t c = 0; c < w; ++c) want[c] = 0.0;
      ExpectEqualAndPadded(got, want, w, "Zero");
    }
    {  // Scale
      std::vector<double> got = MakeBuf(w, 3), want = got;
      mk::Scale(got.data(), 0.731, w);
      for (std::size_t c = 0; c < w; ++c) want[c] *= 0.731;
      ExpectEqualAndPadded(got, want, w, "Scale");
    }
    {  // Axpy
      std::vector<double> got = MakeBuf(w, 3), want = got;
      mk::Axpy(got.data(), -1.37, a.data(), w);
      for (std::size_t c = 0; c < w; ++c) want[c] += -1.37 * a[c];
      ExpectEqualAndPadded(got, want, w, "Axpy");
    }
    {  // Add
      std::vector<double> got = MakeBuf(w, 3), want = got;
      mk::Add(got.data(), a.data(), w);
      for (std::size_t c = 0; c < w; ++c) want[c] += a[c];
      ExpectEqualAndPadded(got, want, w, "Add");
    }
    {  // Mul
      std::vector<double> got = MakeBuf(w, 3), want = got;
      mk::Mul(got.data(), a.data(), w);
      for (std::size_t c = 0; c < w; ++c) want[c] *= a[c];
      ExpectEqualAndPadded(got, want, w, "Mul");
    }
    {  // MulAdd
      std::vector<double> got = MakeBuf(w, 3), want = got;
      mk::MulAdd(got.data(), a.data(), b.data(), w);
      for (std::size_t c = 0; c < w; ++c) want[c] += a[c] * b[c];
      ExpectEqualAndPadded(got, want, w, "MulAdd");
    }
    {  // DivScalar (true division; a reciprocal rewrite would change bits)
      std::vector<double> got = MakeBuf(w, 3), want = got;
      mk::DivScalar(got.data(), a.data(), 3.0, w);
      for (std::size_t c = 0; c < w; ++c) want[c] = a[c] / 3.0;
      ExpectEqualAndPadded(got, want, w, "DivScalar");
    }
    {  // AccumAbsDiff
      std::vector<double> got = MakeBuf(w, 3), want = got;
      mk::AccumAbsDiff(got.data(), a.data(), b.data(), w);
      for (std::size_t c = 0; c < w; ++c) want[c] += std::abs(a[c] - b[c]);
      ExpectEqualAndPadded(got, want, w, "AccumAbsDiff");
    }
    {  // FusedCombine == scale, +beta*wx, +alpha*l, sum accumulation
      std::vector<double> got_x = MakeBuf(w, 3), want_x = got_x;
      std::vector<double> got_s = MakeBuf(w, 4), want_s = got_s;
      mk::FusedCombine(got_x.data(), 0.55, 0.4, a.data(), 0.05, b.data(),
                       got_s.data(), w);
      for (std::size_t c = 0; c < w; ++c) {
        double v = want_x[c] * 0.55;
        v += 0.4 * a[c];
        v += 0.05 * b[c];
        want_x[c] = v;
        want_s[c] += v;
      }
      ExpectEqualAndPadded(got_x, want_x, w, "FusedCombine.x");
      ExpectEqualAndPadded(got_s, want_s, w, "FusedCombine.sums");
    }
    {  // FusedScaleAbsDiff == multiply-by-reciprocal then |diff| accumulation
      std::vector<double> got_d = MakeBuf(w, 3), want_d = got_d;
      std::vector<double> got_acc = MakeBuf(w, 4), want_acc = got_acc;
      mk::FusedScaleAbsDiff(got_d.data(), a.data(), b.data(), got_acc.data(),
                            w);
      for (std::size_t c = 0; c < w; ++c) {
        const double v = want_d[c] * a[c];
        want_d[c] = v;
        want_acc[c] += std::abs(v - b[c]);
      }
      ExpectEqualAndPadded(got_d, want_d, w, "FusedScaleAbsDiff.d");
      ExpectEqualAndPadded(got_acc, want_acc, w, "FusedScaleAbsDiff.acc");
    }
  }
}

TEST(MicrokernelTest, AnyNonZeroChecksOnlyLeadingColumns) {
  for (const std::size_t w : kWidths) {
    SCOPED_TRACE("width " + std::to_string(w));
    std::vector<double> buf(w + kPad, 0.0);
    for (std::size_t i = w; i < buf.size(); ++i) buf[i] = kSentinel;
    EXPECT_FALSE(mk::AnyNonZero(buf.data(), w));
    buf[w - 1] = 1e-300;  // tiny but non-zero, in the last active column
    EXPECT_TRUE(mk::AnyNonZero(buf.data(), w));
    buf[w - 1] = -0.0;  // negative zero still compares == 0.0
    EXPECT_FALSE(mk::AnyNonZero(buf.data(), w));
  }
}

// --- fused panel passes vs the unfused sweep sequence ---------------------

DenseMatrix MakePanel(std::size_t rows, std::size_t cols, std::size_t salt,
                      bool positive) {
  DenseMatrix p(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = Val(r * cols + c, salt);
      p.At(r, c) = positive ? std::abs(v) + 0.01 : v;
    }
  }
  return p;
}

TEST(MicrokernelTest, FusedCombineColumnsEqualsUnfusedSweeps) {
  constexpr std::size_t kRows = 33;
  constexpr std::size_t kStride = 9;  // physical cols > width: stride safety
  const double rel = 0.55, beta = 0.4, alpha = 0.05;
  for (const std::size_t w : {1u, 2u, 3u, 5u, 7u, 9u}) {
    SCOPED_TRACE("width " + std::to_string(w));
    const DenseMatrix wx = MakePanel(kRows, kStride, 11, false);
    const DenseMatrix l = MakePanel(kRows, kStride, 12, false);
    DenseMatrix fused = MakePanel(kRows, kStride, 13, false);
    DenseMatrix unfused = fused;

    Vector fused_sums;
    FusedCombineColumns(rel, beta, wx, alpha, l, w, &fused, &fused_sums);

    ScaleLeadingColumns(rel, w, &unfused);
    AxpyLeadingColumns(beta, wx, w, &unfused);
    AxpyLeadingColumns(alpha, l, w, &unfused);
    Vector unfused_sums;
    LeadingColumnSums(unfused, w, &unfused_sums);

    EXPECT_EQ(fused.MaxAbsDiff(unfused), 0.0);
    ASSERT_EQ(fused_sums.size(), w);
    for (std::size_t c = 0; c < w; ++c) {
      EXPECT_EQ(fused_sums[c], unfused_sums[c]) << "col " << c;
    }
    // Inactive columns (>= width) must be untouched.
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t c = w; c < kStride; ++c) {
        EXPECT_EQ(fused.At(r, c), unfused.At(r, c));
      }
    }
  }
}

TEST(MicrokernelTest, FusedNormalizeDistanceEqualsUnfusedSweeps) {
  constexpr std::size_t kRows = 33;
  constexpr std::size_t kStride = 9;
  for (const std::size_t w : {1u, 2u, 3u, 5u, 7u, 9u}) {
    SCOPED_TRACE("width " + std::to_string(w));
    const DenseMatrix prev = MakePanel(kRows, kStride, 21, true);
    DenseMatrix fused = MakePanel(kRows, kStride, 22, true);
    DenseMatrix unfused = fused;

    Vector sums;
    LeadingColumnSums(fused, w, &sums);
    Vector rho;
    FusedNormalizeDistanceColumns(&sums, prev, w, &fused, &rho);

    NormalizeLeadingColumnsL1(w, &unfused);
    Vector rho_ref;
    LeadingColumnL1Distances(unfused, prev, w, &rho_ref);

    EXPECT_EQ(fused.MaxAbsDiff(unfused), 0.0);
    ASSERT_EQ(rho.size(), w);
    for (std::size_t c = 0; c < w; ++c) {
      EXPECT_EQ(rho[c], rho_ref[c]) << "col " << c;
    }
  }
}

// The fused passes must also match the single-vector ops per column — the
// per-class engine's exact sequence (Scale/Axpy/NormalizeL1/L1Distance).
TEST(MicrokernelTest, FusedPassesMatchPerVectorOpsPerColumn) {
  constexpr std::size_t kRows = 29;
  constexpr std::size_t kStride = 7;
  const double rel = 0.55, beta = 0.4, alpha = 0.05;
  const std::size_t w = 5;
  const DenseMatrix wx = MakePanel(kRows, kStride, 31, true);
  const DenseMatrix l = MakePanel(kRows, kStride, 32, true);
  const DenseMatrix prev = MakePanel(kRows, kStride, 33, true);
  DenseMatrix panel = MakePanel(kRows, kStride, 34, true);
  const DenseMatrix original = panel;

  Vector sums;
  FusedCombineColumns(rel, beta, wx, alpha, l, w, &panel, &sums);
  Vector rho;
  FusedNormalizeDistanceColumns(&sums, prev, w, &panel, &rho);

  for (std::size_t c = 0; c < w; ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    Vector x = original.Col(c);
    Scale(rel, &x);
    Axpy(beta, wx.Col(c), &x);
    Axpy(alpha, l.Col(c), &x);
    NormalizeL1(&x);
    const double rho_c = L1Distance(x, prev.Col(c));
    EXPECT_EQ(rho[c], rho_c);
    for (std::size_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(panel.At(r, c), x[r]) << "row " << r;
    }
  }
}

}  // namespace
}  // namespace tmark::la
