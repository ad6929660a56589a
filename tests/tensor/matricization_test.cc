#include "tmark/tensor/matricization.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "tmark/common/check.h"
#include "tmark/common/random.h"
#include "tmark/datasets/paper_example.h"
#include "tensor_slices.h"

namespace tmark::tensor {
namespace {

TEST(MatricizationTest, Mode1ShapeMatchesPaperExample) {
  // Sec. 3.2: the 4-node, 3-relation bibliography HIN has A_(1) of size
  // 4 x 12 and A_(3) of size 3 x 16.
  const hin::Hin hin = datasets::MakePaperExample();
  const std::vector<la::SparseMatrix>& a = hin.relations();
  const la::SparseMatrix a1 = MatricizeMode1(a);
  EXPECT_EQ(a1.rows(), 4u);
  EXPECT_EQ(a1.cols(), 12u);
  const la::SparseMatrix a3 = MatricizeMode3(a);
  EXPECT_EQ(a3.rows(), 3u);
  EXPECT_EQ(a3.cols(), 16u);
}

TEST(MatricizationTest, Mode1ColumnLayout) {
  // Entry (i, j, k) lands at column j + k*n in A_(1).
  const std::vector<la::SparseMatrix> a = Slices(3, {{}, {{1, 2, 5.0}}});
  const la::SparseMatrix a1 = MatricizeMode1(a);
  EXPECT_DOUBLE_EQ(a1.At(1, 2 + 1 * 3), 5.0);
  EXPECT_EQ(a1.NumNonZeros(), 1u);
  // Slices of unequal or non-square shape are not one tensor.
  EXPECT_THROW(
      MatricizeMode1({la::SparseMatrix(3, 3), la::SparseMatrix(2, 2)}),
      CheckError);
  EXPECT_THROW(MatricizeMode3({la::SparseMatrix(3, 2)}), CheckError);
}

TEST(MatricizationTest, Mode3ColumnLayout) {
  // Entry (i, j, k) lands at row k, column i + j*n in A_(3).
  const std::vector<la::SparseMatrix> a = Slices(3, {{}, {{1, 2, 5.0}}});
  const la::SparseMatrix a3 = MatricizeMode3(a);
  EXPECT_DOUBLE_EQ(a3.At(1, 1 + 2 * 3), 5.0);
  EXPECT_EQ(a3.NumNonZeros(), 1u);
}

TEST(MatricizationTest, Mode1ColumnNormalizationEqualsEq1) {
  // Normalizing columns of A_(1) performs the node-normalization of Eq. (1):
  // check on the paper example that each non-empty column sums to one.
  const hin::Hin hin = datasets::MakePaperExample();
  const std::vector<la::SparseMatrix>& a = hin.relations();
  std::vector<bool> dangling;
  const la::SparseMatrix o1 =
      MatricizeMode1(a).NormalizeColumnsSparse(&dangling);
  const la::Vector colsums = o1.ColumnSums();
  for (std::size_t c = 0; c < o1.cols(); ++c) {
    if (!dangling[c]) EXPECT_NEAR(colsums[c], 1.0, 1e-12);
  }
}

TEST(MatricizationTest, FoldInvertsUnfold) {
  // Both unfoldings are invertible: every stored entry (i, j, k) lands at
  // A_(1)(i, j + k*n) and at A_(3)(k, i + j*n), and nothing else is stored.
  Rng rng(21);
  std::vector<std::vector<la::Triplet>> triplets(4);
  for (int e = 0; e < 40; ++e) {
    const auto i = static_cast<std::uint32_t>(rng.UniformInt(6));
    const auto j = static_cast<std::uint32_t>(rng.UniformInt(6));
    const std::size_t k = rng.UniformInt(4);
    triplets[k].push_back({i, j, rng.Uniform(0.1, 1.0)});
  }
  const std::vector<la::SparseMatrix> a = Slices(6, std::move(triplets));
  const la::SparseMatrix a1 = MatricizeMode1(a);
  const la::SparseMatrix a3 = MatricizeMode3(a);
  ASSERT_EQ(a1.NumNonZeros(), NumNonZeros(a));
  ASSERT_EQ(a3.NumNonZeros(), NumNonZeros(a));
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t p = a[k].row_ptr()[i]; p < a[k].row_ptr()[i + 1];
           ++p) {
        const std::size_t j = a[k].col_idx()[p];
        EXPECT_EQ(a1.At(i, j + k * 6), a[k].values()[p]);
        EXPECT_EQ(a3.At(k, i + j * 6), a[k].values()[p]);
      }
    }
  }
}

TEST(MatricizationTest, NonZeroCountsPreserved) {
  const hin::Hin hin = datasets::MakePaperExample();
  const std::vector<la::SparseMatrix>& a = hin.relations();
  EXPECT_EQ(MatricizeMode1(a).NumNonZeros(), NumNonZeros(a));
  EXPECT_EQ(MatricizeMode3(a).NumNonZeros(), NumNonZeros(a));
}

}  // namespace
}  // namespace tmark::tensor
