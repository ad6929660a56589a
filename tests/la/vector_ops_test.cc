#include "tmark/la/vector_ops.h"

#include <gtest/gtest.h>

#include "tmark/common/check.h"

namespace tmark::la {
namespace {

TEST(VectorOpsTest, Constructors) {
  EXPECT_EQ(Zeros(2), (Vector{0.0, 0.0}));
  const Vector u = UniformProbability(4);
  for (double v : u) EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_THROW(UniformProbability(0), CheckError);
}

TEST(VectorOpsTest, DotAndNorms) {
  const Vector a = {1.0, -2.0, 3.0};
  const Vector b = {4.0, 5.0, -6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 - 18.0);
  EXPECT_DOUBLE_EQ(Sum(a), 2.0);
}

TEST(VectorOpsTest, DotSizeMismatchThrows) {
  EXPECT_THROW(Dot({1.0}, {1.0, 2.0}), CheckError);
}

TEST(VectorOpsTest, AxpyScaleAddSub) {
  Vector y = {1.0, 1.0};
  Axpy(2.0, {3.0, -1.0}, &y);
  EXPECT_EQ(y, (Vector{7.0, -1.0}));
  Scale(0.5, &y);
  EXPECT_EQ(y, (Vector{3.5, -0.5}));
  EXPECT_EQ(Add({1.0, 2.0}, {3.0, 4.0}), (Vector{4.0, 6.0}));
}

TEST(VectorOpsTest, L1Distance) {
  EXPECT_DOUBLE_EQ(L1Distance({1.0, 2.0}, {3.0, 0.0}), 4.0);
  EXPECT_DOUBLE_EQ(L1Distance({1.0}, {1.0}), 0.0);
}

TEST(VectorOpsTest, NormalizeL1MakesProbability) {
  Vector v = {1.0, 3.0, 0.0};
  NormalizeL1(&v);
  EXPECT_TRUE(IsProbabilityVector(v));
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

TEST(VectorOpsTest, NormalizeL1ZeroThrows) {
  Vector v = {0.0, 0.0};
  EXPECT_THROW(NormalizeL1(&v), CheckError);
}

TEST(VectorOpsTest, ArgMaxFirstOnTies) {
  EXPECT_EQ(ArgMax({1.0, 5.0, 5.0, 2.0}), 1u);
  EXPECT_EQ(ArgMax({-1.0}), 0u);
  EXPECT_THROW(ArgMax({}), CheckError);
}

TEST(VectorOpsTest, ArgSortDescendingStable) {
  const auto idx = ArgSortDescending({0.2, 0.9, 0.2, 0.5});
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 3u);
  EXPECT_EQ(idx[2], 0u);  // ties keep original order
  EXPECT_EQ(idx[3], 2u);
}

TEST(VectorOpsTest, IsProbabilityVector) {
  EXPECT_TRUE(IsProbabilityVector({0.5, 0.5}));
  EXPECT_FALSE(IsProbabilityVector({0.5, 0.6}));
  EXPECT_FALSE(IsProbabilityVector({1.5, -0.5}));
  EXPECT_TRUE(IsProbabilityVector({1.0 + 1e-12, -1e-12}));
}

}  // namespace
}  // namespace tmark::la
