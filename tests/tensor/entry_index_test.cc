#include "tmark/tensor/entry_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tmark/common/check.h"
#include "tmark/common/random.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tensor_slices.h"

namespace tmark::tensor {
namespace {

// Panels carry two columns more than the width under test, so a kernel that
// read or wrote past the leading `width` columns, or mixed up the column
// stride with the width, would show.
constexpr std::size_t kExtraColumns = 2;

la::DenseMatrix RandomPanel(std::size_t rows, std::size_t cols, Rng* rng) {
  la::DenseMatrix p(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) p.At(r, c) = rng->Uniform(0.0, 1.0);
  }
  return p;
}

TEST(EntryIndexTest, FromSlicesIndexesEveryStoredEntry) {
  Rng rng(2);
  const std::vector<la::SparseMatrix> t = RandomSlices(9, 4, 0.2, &rng);
  std::vector<double> values;
  const EntryIndex index = EntryIndex::FromSlices(t, &values);
  EXPECT_EQ(index.num_nodes(), 9u);
  EXPECT_EQ(index.num_relations(), 4u);
  ASSERT_EQ(index.num_entries(), NumNonZeros(t));
  ASSERT_EQ(values.size(), NumNonZeros(t));
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t e = index.Find(i, j, k);
        if (t[k].At(i, j) == 0.0) {
          EXPECT_EQ(e, EntryIndex::npos);
        } else {
          ASSERT_NE(e, EntryIndex::npos);
          EXPECT_EQ(values[e], t[k].At(i, j));
        }
      }
    }
  }
}

TEST(EntryIndexTest, ContractMode1MatchesBruteForce) {
  Rng rng(3);
  const std::vector<la::SparseMatrix> t = RandomSlices(7, 3, 0.3, &rng);
  std::vector<double> values;
  const EntryIndex index = EntryIndex::FromSlices(t, &values);
  for (const std::size_t width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::size_t stride = width + kExtraColumns;
    const la::DenseMatrix x = RandomPanel(7, stride, &rng);
    const la::DenseMatrix z = RandomPanel(3, stride, &rng);
    la::DenseMatrix y(7, stride, -1.0);
    la::PanelWorkspace ws;
    index.ContractMode1Panel(values, x, z, width, &y, &ws);
    for (std::size_t c = 0; c < stride; ++c) {
      for (std::size_t i = 0; i < 7; ++i) {
        if (c >= width) {
          EXPECT_EQ(y.At(i, c), -1.0) << "column past the width written";
          continue;
        }
        double expect = 0.0;
        for (std::size_t j = 0; j < 7; ++j) {
          for (std::size_t k = 0; k < 3; ++k) {
            expect += t[k].At(i, j) * x.At(j, c) * z.At(k, c);
          }
        }
        EXPECT_NEAR(y.At(i, c), expect, 1e-12);
      }
    }
  }
}

TEST(EntryIndexTest, ContractMode3MatchesBruteForce) {
  Rng rng(4);
  const std::vector<la::SparseMatrix> t = RandomSlices(6, 4, 0.3, &rng);
  std::vector<double> values;
  const EntryIndex index = EntryIndex::FromSlices(t, &values);
  for (const std::size_t width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::size_t stride = width + kExtraColumns;
    const la::DenseMatrix x = RandomPanel(6, stride, &rng);
    const la::DenseMatrix y = RandomPanel(6, stride, &rng);
    la::DenseMatrix w(4, stride, -1.0);
    la::PanelWorkspace ws;
    index.ContractMode3Panel(values, x, y, width, &w, &ws);
    for (std::size_t c = 0; c < stride; ++c) {
      for (std::size_t k = 0; k < 4; ++k) {
        if (c >= width) {
          EXPECT_EQ(w.At(k, c), -1.0) << "column past the width written";
          continue;
        }
        double expect = 0.0;
        for (std::size_t i = 0; i < 6; ++i) {
          for (std::size_t j = 0; j < 6; ++j) {
            expect += t[k].At(i, j) * x.At(i, c) * y.At(j, c);
          }
        }
        EXPECT_NEAR(w.At(k, c), expect, 1e-12);
      }
    }
  }
}

TEST(EntryIndexTest, ContractionSizeChecks) {
  // 3 nodes, 2 relations.
  const std::vector<la::SparseMatrix> t =
      Slices(3, {{{0, 1, 1.0}, {1, 0, 2.0}}, {{2, 1, 3.0}, {0, 2, 4.0}}});
  std::vector<double> values;
  const EntryIndex index = EntryIndex::FromSlices(t, &values);
  la::PanelWorkspace ws;
  const la::DenseMatrix x(3, 1);
  const la::DenseMatrix z(2, 1);
  const la::DenseMatrix short_x(2, 1);
  la::DenseMatrix node_out(3, 1);
  la::DenseMatrix rel_out(2, 1);
  EXPECT_THROW(index.ContractMode1Panel(values, short_x, z, 1, &node_out, &ws),
               CheckError);
  EXPECT_THROW(index.ContractMode3Panel(values, x, short_x, 1, &rel_out, &ws),
               CheckError);
  // A width past the panels' columns.
  EXPECT_THROW(index.ContractMode1Panel(values, x, z, 2, &node_out, &ws),
               CheckError);
  // A value array that does not match the index.
  const std::vector<double> short_values(values.size() - 1, 1.0);
  EXPECT_THROW(
      index.ContractMode1Panel(short_values, x, z, 1, &node_out, &ws),
      CheckError);
}

}  // namespace
}  // namespace tmark::tensor
