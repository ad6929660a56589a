#include "tmark/la/dense_matrix.h"

#include <gtest/gtest.h>

#include "tmark/common/check.h"

namespace tmark::la {
namespace {

DenseMatrix Sample() {
  return DenseMatrix::FromRows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
}

TEST(DenseMatrixTest, ConstructionAndAccess) {
  DenseMatrix m(2, 3, 0.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.5);
  m.At(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 7.0);
}

TEST(DenseMatrixTest, FromRowsRejectsRagged) {
  EXPECT_THROW(DenseMatrix::FromRows({{1.0}, {1.0, 2.0}}), CheckError);
}

TEST(DenseMatrixTest, Identity) {
  const DenseMatrix eye = DenseMatrix::Identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(eye.At(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(DenseMatrixTest, RowAndCol) {
  const DenseMatrix m = Sample();
  EXPECT_EQ(m.Row(1), (Vector{4.0, 5.0, 6.0}));
  EXPECT_EQ(m.Col(2), (Vector{3.0, 6.0}));
  EXPECT_THROW(m.Row(5), CheckError);
}

TEST(DenseMatrixTest, MatVec) {
  const DenseMatrix m = Sample();
  EXPECT_EQ(m.MatVec({1.0, 0.0, -1.0}), (Vector{-2.0, -2.0}));
  EXPECT_THROW(m.MatVec({1.0}), CheckError);
}

TEST(DenseMatrixTest, TransposeMatVec) {
  const DenseMatrix m = Sample();
  EXPECT_EQ(m.TransposeMatVec({1.0, 1.0}), (Vector{5.0, 7.0, 9.0}));
}

TEST(DenseMatrixTest, MatMul) {
  const DenseMatrix a = DenseMatrix::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  const DenseMatrix b = DenseMatrix::FromRows({{0.0, 1.0}, {1.0, 0.0}});
  const DenseMatrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 3.0);
}

TEST(DenseMatrixTest, MatMulIdentity) {
  const DenseMatrix m = Sample();
  const DenseMatrix out = m.MatMul(DenseMatrix::Identity(3));
  EXPECT_DOUBLE_EQ(out.MaxAbsDiff(m), 0.0);
}

TEST(DenseMatrixTest, Transpose) {
  const DenseMatrix t = Sample().Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.At(2, 1), 6.0);
}

TEST(DenseMatrixTest, AddAndScaleInPlace) {
  DenseMatrix m = Sample();
  m.AddInPlace(Sample());
  m.ScaleInPlace(0.5);
  EXPECT_DOUBLE_EQ(m.MaxAbsDiff(Sample()), 0.0);
}

TEST(DenseMatrixTest, ColumnSums) {
  EXPECT_EQ(Sample().ColumnSums(), (Vector{5.0, 7.0, 9.0}));
}

TEST(DenseMatrixTest, MaxAbsDiff) {
  DenseMatrix a = Sample();
  DenseMatrix b = Sample();
  b.At(0, 1) += 0.25;
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 0.25);
  EXPECT_THROW(a.MaxAbsDiff(DenseMatrix(1, 1)), CheckError);
}

}  // namespace
}  // namespace tmark::la
