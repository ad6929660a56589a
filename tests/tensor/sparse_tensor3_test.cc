#include "tmark/tensor/sparse_tensor3.h"

#include <gtest/gtest.h>

#include "tmark/common/check.h"

namespace tmark::tensor {
namespace {

SparseTensor3 Sample() {
  // 3 nodes, 2 relations.
  return SparseTensor3::FromEntries(3, 2,
                                    {{0, 1, 0, 1.0},
                                     {1, 0, 0, 2.0},
                                     {2, 1, 1, 3.0},
                                     {0, 2, 1, 4.0}});
}

TEST(SparseTensor3Test, ShapeAndAccess) {
  const SparseTensor3 t = Sample();
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.num_relations(), 2u);
  EXPECT_EQ(t.NumNonZeros(), 4u);
  EXPECT_DOUBLE_EQ(t.At(0, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.At(0, 1, 1), 0.0);
  EXPECT_DOUBLE_EQ(t.At(2, 1, 1), 3.0);
  EXPECT_THROW(t.At(0, 0, 5), CheckError);
}

TEST(SparseTensor3Test, FromEntriesSumsDuplicates) {
  const SparseTensor3 t = SparseTensor3::FromEntries(
      2, 1, {{0, 1, 0, 1.0}, {0, 1, 0, 0.5}});
  EXPECT_EQ(t.NumNonZeros(), 1u);
  EXPECT_DOUBLE_EQ(t.At(0, 1, 0), 1.5);
}

TEST(SparseTensor3Test, FromEntriesOutOfBoundsThrows) {
  EXPECT_THROW(SparseTensor3::FromEntries(2, 1, {{0, 0, 1, 1.0}}),
               CheckError);
}

TEST(SparseTensor3Test, EntriesRoundTrip) {
  const SparseTensor3 t = Sample();
  const SparseTensor3 rebuilt =
      SparseTensor3::FromEntries(3, 2, t.Entries());
  EXPECT_EQ(rebuilt.NumNonZeros(), t.NumNonZeros());
  for (const TensorEntry& e : t.Entries()) {
    EXPECT_DOUBLE_EQ(rebuilt.At(e.i, e.j, e.k), e.value);
  }
}

TEST(SparseTensor3Test, FromSlicesChecksShapes) {
  la::SparseMatrix a(2, 2), b(3, 3);
  EXPECT_THROW(SparseTensor3::FromSlices({a, b}), CheckError);
}

TEST(SparseTensor3Test, SumOverRelations) {
  const SparseTensor3 t = SparseTensor3::FromEntries(
      2, 2, {{0, 1, 0, 1.0}, {0, 1, 1, 2.0}, {1, 0, 1, 4.0}});
  const la::SparseMatrix sum = t.SumOverRelations();
  EXPECT_DOUBLE_EQ(sum.At(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(sum.At(1, 0), 4.0);
}

TEST(SparseTensor3Test, IsNonNegative) {
  EXPECT_TRUE(Sample().IsNonNegative());
  const SparseTensor3 neg =
      SparseTensor3::FromEntries(2, 1, {{0, 1, 0, -1.0}});
  EXPECT_FALSE(neg.IsNonNegative());
}

TEST(SparseTensor3Test, ConnectivityDetectsComponents) {
  // Two disconnected pairs.
  const SparseTensor3 split = SparseTensor3::FromEntries(
      4, 1, {{0, 1, 0, 1.0}, {1, 0, 0, 1.0}, {2, 3, 0, 1.0}, {3, 2, 0, 1.0}});
  EXPECT_FALSE(split.IsConnectedAggregate());
  // Bridge them (even one-directional counts as weakly connected).
  const SparseTensor3 joined = SparseTensor3::FromEntries(
      4, 1, {{0, 1, 0, 1.0}, {1, 2, 0, 1.0}, {2, 3, 0, 1.0}});
  EXPECT_TRUE(joined.IsConnectedAggregate());
}

}  // namespace
}  // namespace tmark::tensor
