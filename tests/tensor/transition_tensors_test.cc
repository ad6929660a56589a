#include "tmark/tensor/transition_tensors.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tmark/common/check.h"
#include "tmark/common/random.h"
#include "tmark/datasets/paper_example.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/vector_ops.h"
#include "tensor_slices.h"

namespace tmark::tensor {
namespace {

la::Vector RandomProbability(std::size_t n, Rng* rng) {
  la::Vector v(n);
  for (double& x : v) x = rng->Uniform(0.01, 1.0);
  la::NormalizeL1(&v);
  return v;
}

// Panels of probability columns, two columns wider than the width under
// test, so a kernel that read or wrote past the leading `width` columns, or
// mixed up the column stride with the width, would show.
constexpr std::size_t kExtraColumns = 2;

la::DenseMatrix RandomProbabilityPanel(std::size_t rows, std::size_t cols,
                                       Rng* rng) {
  la::DenseMatrix p(rows, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    la::SetColumn(RandomProbability(rows, rng), c, &p);
  }
  return p;
}

TEST(TransitionTensorsTest, OColumnsAreStochastic) {
  // Eq. (1): each (j, k) column of O sums to one, including dangling ones.
  Rng rng(1);
  const std::vector<la::SparseMatrix> a = RandomSlices(6, 3, 0.25, &rng);
  const TransitionTensors t = TransitionTensors::Build(a);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t j = 0; j < 6; ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < 6; ++i) sum += t.OEntry(i, j, k);
      EXPECT_NEAR(sum, 1.0, 1e-12) << "column (" << j << "," << k << ")";
    }
  }
}

TEST(TransitionTensorsTest, RFibersAreStochastic) {
  // Eq. (2): for every (i, j) pair, sum_k R[i,j,k] = 1 (dangling -> 1/m).
  Rng rng(2);
  const std::vector<la::SparseMatrix> a = RandomSlices(5, 4, 0.2, &rng);
  const TransitionTensors t = TransitionTensors::Build(a);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < 4; ++k) sum += t.REntry(i, j, k);
      EXPECT_NEAR(sum, 1.0, 1e-12) << "fiber (" << i << "," << j << ")";
    }
  }
}

TEST(TransitionTensorsTest, ValuesMatchTheSliceNormalizations) {
  // Bit for bit at every stored entry: O is NormalizeColumnsSparse of its
  // slice, and R divides A by its pair's total over the relations, summed
  // with SparseMatrix::Add in ascending k as Hin::AggregatedRelation does.
  Rng rng(5);
  const std::vector<la::SparseMatrix> a = RandomSlices(9, 4, 0.3, &rng);
  const TransitionTensors t = TransitionTensors::Build(a);
  la::SparseMatrix totals(9, 9);
  std::vector<la::SparseMatrix> o;
  for (const la::SparseMatrix& slice : a) {
    totals = totals.Add(slice);
    o.push_back(slice.NormalizeColumnsSparse(nullptr));
  }
  ASSERT_EQ(t.index().num_entries(), NumNonZeros(a));
  for (std::size_t k = 0; k < a.size(); ++k) {
    for (std::size_t i = 0; i < 9; ++i) {
      for (std::size_t p = a[k].row_ptr()[i]; p < a[k].row_ptr()[i + 1];
           ++p) {
        const std::size_t j = a[k].col_idx()[p];
        const std::size_t e = t.index().Find(i, j, k);
        ASSERT_NE(e, EntryIndex::npos);
        EXPECT_EQ(t.o_values()[e], o[k].At(i, j));
        EXPECT_EQ(t.r_values()[e], a[k].values()[p] / totals.At(i, j));
      }
    }
  }
}

TEST(TransitionTensorsTest, PaperExampleRFibersAreStochastic) {
  // Pins the per-row R-normalization on the paper's worked example:
  // every (i, j) fiber of R must still sum to exactly one relation share.
  const hin::Hin hin = datasets::MakePaperExample();
  const TransitionTensors t = TransitionTensors::Build(hin.relations());
  const std::size_t n = hin.num_nodes();
  const std::size_t m = hin.num_relations();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < m; ++k) sum += t.REntry(i, j, k);
      ASSERT_NEAR(sum, 1.0, 1e-12) << "fiber (" << i << "," << j << ")";
    }
  }
}

TEST(TransitionTensorsTest, DanglingColumnIsUniform) {
  // Node 2 has no outgoing link in relation 0 -> its column is 1/n.
  const TransitionTensors t =
      TransitionTensors::Build(Slices(3, {{{0, 1, 1.0}, {1, 0, 1.0}}}));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(t.OEntry(i, 2, 0), 1.0 / 3.0);
  }
  ASSERT_EQ(t.dangling_columns()[0].size(), 1u);
  EXPECT_EQ(t.dangling_columns()[0][0], 2u);
}

TEST(TransitionTensorsTest, UnlinkedPairIsUniformOverRelations) {
  const TransitionTensors t =
      TransitionTensors::Build(Slices(3, {{{0, 1, 1.0}}, {{0, 1, 3.0}}}));
  // Linked pair (0,1): normalized over relations.
  EXPECT_DOUBLE_EQ(t.REntry(0, 1, 0), 0.25);
  EXPECT_DOUBLE_EQ(t.REntry(0, 1, 1), 0.75);
  // Unlinked pair (2,0): uniform 1/m.
  EXPECT_DOUBLE_EQ(t.REntry(2, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(t.REntry(2, 0, 1), 0.5);
}

TEST(TransitionTensorsTest, ApplyOMatchesDenseReference) {
  Rng rng(3);
  const std::vector<la::SparseMatrix> a = RandomSlices(7, 3, 0.2, &rng);
  const TransitionTensors t = TransitionTensors::Build(a);
  for (const std::size_t width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::size_t stride = width + kExtraColumns;
    const la::DenseMatrix x = RandomProbabilityPanel(7, stride, &rng);
    const la::DenseMatrix z = RandomProbabilityPanel(3, stride, &rng);
    la::DenseMatrix y(7, stride, -1.0);
    la::PanelWorkspace ws;
    t.ApplyOPanel(x, z, width, &y, &ws);
    for (std::size_t c = 0; c < stride; ++c) {
      for (std::size_t i = 0; i < 7; ++i) {
        if (c >= width) {
          EXPECT_EQ(y.At(i, c), -1.0) << "column past the width written";
          continue;
        }
        double expect = 0.0;
        for (std::size_t j = 0; j < 7; ++j) {
          for (std::size_t k = 0; k < 3; ++k) {
            expect += t.OEntry(i, j, k) * x.At(j, c) * z.At(k, c);
          }
        }
        EXPECT_NEAR(y.At(i, c), expect, 1e-12);
      }
    }
  }
}

TEST(TransitionTensorsTest, ApplyRMatchesDenseReference) {
  Rng rng(4);
  const std::vector<la::SparseMatrix> a = RandomSlices(6, 4, 0.15, &rng);
  const TransitionTensors t = TransitionTensors::Build(a);
  for (const std::size_t width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::size_t stride = width + kExtraColumns;
    const la::DenseMatrix x = RandomProbabilityPanel(6, stride, &rng);
    const la::DenseMatrix y = RandomProbabilityPanel(6, stride, &rng);
    la::DenseMatrix w(4, stride, -1.0);
    la::PanelWorkspace ws;
    // The general bilinear form (x on mode 1, y on mode 2); Eq. (8) is the
    // y = x case the engine runs.
    t.ApplyRPanel(x, y, width, &w, &ws);
    for (std::size_t c = 0; c < stride; ++c) {
      for (std::size_t k = 0; k < 4; ++k) {
        if (c >= width) {
          EXPECT_EQ(w.At(k, c), -1.0) << "column past the width written";
          continue;
        }
        double expect = 0.0;
        for (std::size_t i = 0; i < 6; ++i) {
          for (std::size_t j = 0; j < 6; ++j) {
            expect += t.REntry(i, j, k) * x.At(i, c) * y.At(j, c);
          }
        }
        EXPECT_NEAR(w.At(k, c), expect, 1e-12);
      }
    }
  }
}

/// Theorem 1 (simplex preservation), swept over random tensors.
class SimplexPreservationTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexPreservationTest, ApplyOAndApplyRStayOnSimplex) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 4 + rng.UniformInt(8);
  const std::size_t m = 2 + rng.UniformInt(4);
  const std::vector<la::SparseMatrix> a = RandomSlices(n, m, 0.15, &rng);
  const TransitionTensors t = TransitionTensors::Build(a);
  for (const std::size_t width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::size_t stride = width + kExtraColumns;
    la::DenseMatrix x = RandomProbabilityPanel(n, stride, &rng);
    la::DenseMatrix z = RandomProbabilityPanel(m, stride, &rng);
    la::DenseMatrix x_next(n, stride);
    la::DenseMatrix z_next(m, stride);
    la::PanelWorkspace ws;
    for (int step = 0; step < 5; ++step) {
      t.ApplyOPanel(x, z, width, &x_next, &ws);
      t.ApplyRPanel(x_next, x_next, width, &z_next, &ws);
      std::swap(x, x_next);
      std::swap(z, z_next);
      for (std::size_t c = 0; c < width; ++c) {
        EXPECT_TRUE(la::IsProbabilityVector(x.Col(c), 1e-9));
        EXPECT_TRUE(la::IsProbabilityVector(z.Col(c), 1e-9));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexPreservationTest,
                         ::testing::Range(100, 112));

TEST(TransitionTensorsTest, DenseSliceMaterialization) {
  const TransitionTensors t =
      TransitionTensors::Build(Slices(2, {{{0, 1, 2.0}, {1, 1, 2.0}}}));
  const la::DenseMatrix o = t.DenseOSlice(0);
  // Column 0 dangling -> uniform; column 1 normalized (0.5, 0.5).
  EXPECT_DOUBLE_EQ(o.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(o.At(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(o.At(1, 1), 0.5);
  const la::DenseMatrix r = t.DenseRSlice(0);
  EXPECT_DOUBLE_EQ(r.At(0, 1), 1.0);  // only relation on the linked pair
  EXPECT_DOUBLE_EQ(r.At(0, 0), 1.0);  // unlinked -> 1/m with m = 1
}

TEST(TransitionTensorsTest, RejectsNegativeTensor) {
  EXPECT_THROW(TransitionTensors::Build(Slices(2, {{{0, 1, -1.0}}})),
               CheckError);
}

TEST(TransitionTensorsTest, WeightsInfluenceO) {
  // Column (j=0, k=0) has entries 1 and 3 -> probabilities 0.25 / 0.75.
  const TransitionTensors t =
      TransitionTensors::Build(Slices(2, {{{0, 0, 1.0}, {1, 0, 3.0}}}));
  EXPECT_DOUBLE_EQ(t.OEntry(0, 0, 0), 0.25);
  EXPECT_DOUBLE_EQ(t.OEntry(1, 0, 0), 0.75);
}

}  // namespace
}  // namespace tmark::tensor
