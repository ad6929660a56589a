#include "tmark/la/sparse_matrix.h"

#include <gtest/gtest.h>

#include "tmark/common/check.h"
#include "tmark/common/random.h"

namespace tmark::la {
namespace {

SparseMatrix Sample() {
  // [ 1 0 2 ]
  // [ 0 0 3 ]
  return SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 2, 3.0}});
}

SparseMatrix RandomSparse(std::size_t rows, std::size_t cols, double density,
                          Rng* rng) {
  std::vector<Triplet> trips;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng->Bernoulli(density)) {
        trips.push_back({static_cast<std::uint32_t>(r),
                         static_cast<std::uint32_t>(c), rng->Uniform(0.1, 2.0)});
      }
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(trips));
}

TEST(SparseMatrixTest, EmptyAndZeroMatrices) {
  SparseMatrix empty;
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.NumNonZeros(), 0u);
  SparseMatrix zero(4, 5);
  EXPECT_EQ(zero.rows(), 4u);
  EXPECT_EQ(zero.cols(), 5u);
  EXPECT_EQ(zero.NumNonZeros(), 0u);
  EXPECT_DOUBLE_EQ(zero.At(3, 4), 0.0);
}

TEST(SparseMatrixTest, FromTripletsSumsDuplicates) {
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 1, 1.0}, {0, 1, 2.5}, {1, 0, 1.0}});
  EXPECT_EQ(m.NumNonZeros(), 2u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 3.5);
}

TEST(SparseMatrixTest, FromTripletsOutOfBoundsThrows) {
  EXPECT_THROW(SparseMatrix::FromTriplets(2, 2, {{2, 0, 1.0}}), CheckError);
}

TEST(SparseMatrixTest, AtReturnsStoredAndZero) {
  const SparseMatrix m = Sample();
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 3.0);
  EXPECT_THROW(m.At(2, 0), CheckError);
}

TEST(SparseMatrixTest, FromCsrTakesTheArrays) {
  const SparseMatrix m =
      SparseMatrix::FromCsr(2, 3, {0, 2, 3}, {0, 2, 2}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(m.ToDense().MaxAbsDiff(Sample().ToDense()), 0.0);
  EXPECT_EQ(m.row_ptr().ToVector(), Sample().row_ptr().ToVector());
  EXPECT_THROW(SparseMatrix::FromCsr(2, 3, {0, 2}, {0, 2}, {1.0, 2.0}),
               CheckError);
}

TEST(SparseMatrixTest, MatVecMatchesDense) {
  Rng rng(5);
  const SparseMatrix s = RandomSparse(13, 9, 0.3, &rng);
  const DenseMatrix d = s.ToDense();
  Vector x(9);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  const Vector ys = s.MatVec(x);
  const Vector yd = d.MatVec(x);
  for (std::size_t i = 0; i < ys.size(); ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SparseMatrixTest, TransposeMatVecMatchesDense) {
  Rng rng(6);
  const SparseMatrix s = RandomSparse(7, 11, 0.4, &rng);
  const DenseMatrix d = s.ToDense();
  Vector x(7);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  // y = s^T x as a width-1 panel.
  DenseMatrix xp(7, 1);
  SetColumn(x, 0, &xp);
  DenseMatrix yp(11, 1, -1.0);
  PanelWorkspace ws;
  s.TransposeMatMulPanel(xp, 1, &yp, &ws);
  const Vector yd = d.TransposeMatVec(x);
  for (std::size_t i = 0; i < yd.size(); ++i) {
    EXPECT_NEAR(yp.At(i, 0), yd[i], 1e-12);
  }
}

TEST(SparseMatrixTest, RowAndColumnSums) {
  const SparseMatrix m = Sample();
  EXPECT_EQ(m.RowSums(), (Vector{3.0, 3.0}));
  EXPECT_EQ(m.ColumnSums(), (Vector{1.0, 0.0, 5.0}));
}

TEST(SparseMatrixTest, ScaleColumnsAndRows) {
  const SparseMatrix m = Sample();
  const SparseMatrix sc = m.ScaleColumns({2.0, 5.0, 0.5});
  EXPECT_DOUBLE_EQ(sc.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(sc.At(0, 2), 1.0);
  const SparseMatrix sr = m.ScaleRows({0.0, 1.0});
  EXPECT_DOUBLE_EQ(sr.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(sr.At(1, 2), 3.0);
}

TEST(SparseMatrixTest, NormalizeColumnsSparseFlagsDangling) {
  std::vector<bool> dangling;
  const SparseMatrix w = Sample().NormalizeColumnsSparse(&dangling);
  ASSERT_EQ(dangling.size(), 3u);
  EXPECT_FALSE(dangling[0]);
  EXPECT_TRUE(dangling[1]);
  EXPECT_FALSE(dangling[2]);
  EXPECT_DOUBLE_EQ(w.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.At(0, 2), 0.4);
  EXPECT_DOUBLE_EQ(w.At(1, 2), 0.6);
}

TEST(SparseMatrixTest, TransposeMatchesDense) {
  Rng rng(7);
  const SparseMatrix s = RandomSparse(6, 10, 0.35, &rng);
  EXPECT_DOUBLE_EQ(
      s.Transpose().ToDense().MaxAbsDiff(s.ToDense().Transpose()), 0.0);
}

TEST(SparseMatrixTest, MatMulMatchesDense) {
  Rng rng(8);
  const SparseMatrix a = RandomSparse(5, 7, 0.4, &rng);
  const SparseMatrix b = RandomSparse(7, 4, 0.4, &rng);
  const DenseMatrix expect = a.ToDense().MatMul(b.ToDense());
  EXPECT_LT(a.MatMul(b).ToDense().MaxAbsDiff(expect), 1e-12);
}

TEST(SparseMatrixTest, MatMulDenseMatchesDense) {
  Rng rng(9);
  const SparseMatrix a = RandomSparse(5, 7, 0.4, &rng);
  DenseMatrix b(7, 3);
  for (double& v : b.data()) v = rng.Uniform(-1.0, 1.0);
  const DenseMatrix expect = a.ToDense().MatMul(b);
  EXPECT_LT(a.MatMulDense(b).MaxAbsDiff(expect), 1e-12);
}

TEST(SparseMatrixTest, TransposeMatMulDenseMatchesDense) {
  Rng rng(10);
  const SparseMatrix a = RandomSparse(6, 5, 0.4, &rng);
  DenseMatrix b(6, 3);
  for (double& v : b.data()) v = rng.Uniform(-1.0, 1.0);
  const DenseMatrix expect = a.ToDense().Transpose().MatMul(b);
  EXPECT_LT(a.TransposeMatMulDense(b).MaxAbsDiff(expect), 1e-12);
}

TEST(SparseMatrixTest, AddMatchesDense) {
  Rng rng(11);
  const SparseMatrix a = RandomSparse(6, 6, 0.3, &rng);
  const SparseMatrix b = RandomSparse(6, 6, 0.3, &rng);
  DenseMatrix expect = a.ToDense();
  expect.AddInPlace(b.ToDense());
  EXPECT_LT(a.Add(b).ToDense().MaxAbsDiff(expect), 1e-12);
}

TEST(SparseMatrixTest, BilinearMatchesDense) {
  Rng rng(12);
  const SparseMatrix a = RandomSparse(8, 8, 0.3, &rng);
  Vector x(8), y(8);
  for (double& v : x) v = rng.Uniform(0.0, 1.0);
  for (double& v : y) v = rng.Uniform(0.0, 1.0);
  double expect = 0.0;
  const DenseMatrix d = a.ToDense();
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) expect += x[r] * d.At(r, c) * y[c];
  }
  EXPECT_NEAR(a.Bilinear(x, y), expect, 1e-12);
}

TEST(SparseMatrixTest, IsNonNegative) {
  EXPECT_TRUE(Sample().IsNonNegative());
  const SparseMatrix neg =
      SparseMatrix::FromTriplets(1, 1, {{0, 0, -0.5}});
  EXPECT_FALSE(neg.IsNonNegative());
}

/// Parameterized size sweep: CSR invariants hold across shapes.
class SparseMatrixSizeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SparseMatrixSizeTest, CsrInvariants) {
  const auto [rows, cols] = GetParam();
  Rng rng(rows * 31 + cols);
  const SparseMatrix m = RandomSparse(rows, cols, 0.25, &rng);
  ASSERT_EQ(m.row_ptr().size(), rows + 1);
  EXPECT_EQ(m.row_ptr().front(), 0u);
  EXPECT_EQ(m.row_ptr().back(), m.NumNonZeros());
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_LE(m.row_ptr()[r], m.row_ptr()[r + 1]);
    for (std::size_t p = m.row_ptr()[r] + 1; p < m.row_ptr()[r + 1]; ++p) {
      EXPECT_LT(m.col_idx()[p - 1], m.col_idx()[p]);  // sorted, unique
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseMatrixSizeTest,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                      std::make_pair<std::size_t, std::size_t>(1, 20),
                      std::make_pair<std::size_t, std::size_t>(20, 1),
                      std::make_pair<std::size_t, std::size_t>(16, 16),
                      std::make_pair<std::size_t, std::size_t>(50, 13)));

}  // namespace
}  // namespace tmark::la
