// Incremental-update honesty tests (docs/PERFORMANCE.md "Incremental
// updates"), run across thread counts and — via the `sanitize` ctest label
// this path carries — under TSAN/ASAN builds:
//
//   * a PreparedOperators bundle patched through ApplyDelta is bit-identical
//     to a from-scratch rebuild on the mutated HIN: same fingerprint, same
//     index, value arrays, dangling lists and linked mask — for a fixed
//     mixed delta and for randomized add/remove/reweight batches on
//     generated and degenerate HINs, whose patched operators must also stay
//     stochastic and contract like their dense slices;
//   * TMarkClassifier::Update's warm-started refresh lands within 1e-10 of
//     a cold fit on the mutated network (the fixed point is unique —
//     Theorem 3 — so warm and cold runs differ only by their stopping
//     points);
//   * a stale operator cache cannot survive a mutation that bypassed
//     Update: the fingerprint check forces a rebuild.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tmark/common/random.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/hin.h"
#include "tmark/hin/hin_builder.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/index_array.h"
#include "tmark/la/panel.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/tensor/transition_tensors.h"
#include "hin_shapes.h"

namespace tmark {
namespace {

hin::Hin MakeTestHin() {
  datasets::SyntheticHinConfig config;
  config.num_nodes = 240;
  config.class_names = {"A", "B", "C"};
  config.relations = {{"r0", 0.85, 0.0, 3.0, {}, false},
                      {"r1", 0.6, 0.2, 2.0, {}, true}};
  config.seed = 123;
  return datasets::GenerateSyntheticHin(config);
}

// A mixed batch touching both relations and the features: one add, one
// remove, one reweight, one feature-row replacement, one label add.
hin::HinDelta MakeDelta(const hin::Hin& hin) {
  hin::HinDelta delta;
  const la::SparseMatrix& r0 = hin.relation(0);
  // First two stored entries of relation 0: reweight one, remove the other.
  std::vector<std::pair<std::size_t, std::size_t>> stored;  // (dst, src)
  for (std::size_t i = 0; i < r0.rows() && stored.size() < 2; ++i) {
    for (std::size_t p = r0.row_ptr()[i];
         p < r0.row_ptr()[i + 1] && stored.size() < 2; ++p) {
      stored.emplace_back(i, r0.col_idx()[p]);
    }
  }
  delta.ReweightEdge(0, stored[0].second, stored[0].first, 2.75);
  delta.RemoveEdge(0, stored[1].second, stored[1].first);
  // An absent (dst, src) pair in relation 1 to add.
  const la::SparseMatrix& r1 = hin.relation(1);
  for (std::size_t i = 0; i < r1.rows(); ++i) {
    const std::size_t j = (i + 7) % hin.num_nodes();
    if (i != j && r1.FindEntry(i, j) == la::SparseMatrix::npos) {
      delta.AddEdge(1, j, i, 1.5);
      break;
    }
  }
  delta.UpdateFeatureRow(3, {{0, 2.5}, {5, 0.75}, {11, 1.0}});
  // A class node 5 does not already carry.
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    if (!hin.HasLabel(5, c)) {
      delta.AddLabel(5, c);
      break;
    }
  }
  return delta;
}

std::vector<std::size_t> EveryThirdLabeled(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) {
    if (!hin.labels(i).empty()) labeled.push_back(i);
  }
  return labeled;
}

template <typename T>
void ExpectSameBytes(const std::vector<T>& a, const std::vector<T>& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << what;
}

void ExpectSameBytes(const la::IndexArray& a, const la::IndexArray& b,
                     const char* what) {
  EXPECT_EQ(a.index_bits(), b.index_bits()) << what;
  EXPECT_EQ(a.ToVector(), b.ToVector()) << what;
}

void ExpectMatrixBytesEqual(const la::SparseMatrix& a,
                            const la::SparseMatrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ExpectSameBytes(a.row_ptr(), b.row_ptr(), what);
  ExpectSameBytes(a.col_idx(), b.col_idx(), what);
  ExpectSameBytes(a.values(), b.values(), what);
}

/// Patched == rebuilt, byte for byte: the shared index, both value arrays,
/// the dangling lists, the linked mask and the fingerprint.
void ExpectOperatorsBytesEqual(const core::PreparedOperators& patched,
                               const core::PreparedOperators& rebuilt) {
  EXPECT_EQ(patched.fingerprint(), rebuilt.fingerprint());
  const tensor::TransitionTensors& a = patched.tensors();
  const tensor::TransitionTensors& b = rebuilt.tensors();
  ExpectSameBytes(a.index().row_ptr(), b.index().row_ptr(), "row_ptr");
  ExpectSameBytes(a.index().seg_k(), b.index().seg_k(), "seg_k");
  ExpectSameBytes(a.index().seg_end(), b.index().seg_end(), "seg_end");
  ExpectSameBytes(a.index().col(), b.index().col(), "col");
  ExpectSameBytes(a.o_values(), b.o_values(), "O values");
  ExpectSameBytes(a.r_values(), b.r_values(), "R values");
  EXPECT_EQ(a.dangling_columns(), b.dangling_columns());
  ExpectMatrixBytesEqual(a.linked_mask(), b.linked_mask(), "linked_mask");
}

TEST(UpdateFitTest, PatchedOperatorsBitIdenticalToRebuild) {
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    parallel::SetNumThreads(threads);
    hin::Hin hin = MakeTestHin();
    core::PreparedOperators patched =
        core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
    const hin::HinDelta delta = MakeDelta(hin);
    ASSERT_TRUE(hin.ApplyDelta(delta).ok());
    patched.ApplyDelta(hin, delta);
    const core::PreparedOperators rebuilt =
        core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);

    EXPECT_EQ(patched.fingerprint(),
              core::FingerprintOperators(hin, hin::SimilarityKernel::kCosine));
    ExpectOperatorsBytesEqual(patched, rebuilt);

    // The similarity operator exposes no raw arrays; bit-exact agreement of
    // W x on a deterministic probe vector (plus the dangling list) pins it.
    EXPECT_EQ(patched.similarity().dangling_nodes(),
              rebuilt.similarity().dangling_nodes());
    la::DenseMatrix probe(hin.num_nodes(), 1);
    for (std::size_t i = 0; i < probe.rows(); ++i) {
      probe.At(i, 0) = 1.0 / static_cast<double>(i + 2);
    }
    la::DenseMatrix wp(probe.rows(), 1);
    la::DenseMatrix wr(probe.rows(), 1);
    la::PanelWorkspace ws;
    patched.similarity().ApplyPanel(probe, 1, &wp, &ws);
    rebuilt.similarity().ApplyPanel(probe, 1, &wr, &ws);
    for (std::size_t i = 0; i < wp.rows(); ++i) {
      ASSERT_EQ(wp.At(i, 0), wr.At(i, 0)) << "W row " << i;
    }
  }
}

// ---- Randomized patched == rebuilt properties -------------------------------

/// One HinDelta whose edge ops are each valid against the pre-mutation
/// network and touch distinct (relation, dst, src) keys.
class Batch {
 public:
  explicit Batch(const hin::Hin& hin) : hin_(hin) {}

  bool Stored(std::size_t k, std::size_t dst, std::size_t src) const {
    return hin_.relation(k).FindEntry(dst, src) != la::SparseMatrix::npos;
  }
  void Add(std::size_t k, std::size_t dst, std::size_t src, double w) {
    if (!Stored(k, dst, src) && Claim(k, dst, src)) {
      delta.AddEdge(k, src, dst, w);
    }
  }
  void Remove(std::size_t k, std::size_t dst, std::size_t src) {
    if (Stored(k, dst, src) && Claim(k, dst, src)) {
      delta.RemoveEdge(k, src, dst);
    }
  }
  void Reweight(std::size_t k, std::size_t dst, std::size_t src, double w) {
    if (Stored(k, dst, src) && Claim(k, dst, src)) {
      delta.ReweightEdge(k, src, dst, w);
    }
  }

  hin::HinDelta delta;

 private:
  bool Claim(std::size_t k, std::size_t dst, std::size_t src) {
    return keys_.emplace(k, dst, src).second;
  }

  const hin::Hin& hin_;
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> keys_;
};

std::size_t RowCount(const hin::Hin& hin, std::size_t k, std::size_t i) {
  const la::SparseMatrix& a = hin.relation(k);
  return a.row_ptr()[i + 1] - a.row_ptr()[i];
}

/// Rows i with A[i, j, k] stored.
std::vector<std::size_t> ColumnRows(const hin::Hin& hin, std::size_t k,
                                    std::size_t j) {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < hin.num_nodes(); ++i) {
    if (hin.relation(k).FindEntry(i, j) != la::SparseMatrix::npos) {
      rows.push_back(i);
    }
  }
  return rows;
}

bool Linked(const hin::Hin& hin, std::size_t i, std::size_t j) {
  for (std::size_t k = 0; k < hin.num_relations(); ++k) {
    if (hin.relation(k).FindEntry(i, j) != la::SparseMatrix::npos) return true;
  }
  return false;
}

/// The structural cases every run must cover: each emptied thing is
/// refilled by the next batch.
struct Coverage {
  bool row_emptied = false, row_refilled = false;
  bool column_emptied = false, column_refilled = false;
  bool pair_unlinked = false, pair_relinked = false;
};

/// Random edge ops on stored and absent keys, about `count` of them.
void AddRandomOps(const hin::Hin& hin, std::size_t count, Rng* rng,
                  Batch* batch) {
  const std::size_t n = hin.num_nodes();
  const std::size_t m = hin.num_relations();
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t k = rng->UniformInt(m);
    const std::size_t i = rng->UniformInt(n);
    const la::SparseMatrix& a = hin.relation(k);
    const std::size_t len = RowCount(hin, k, i);
    if (len > 0 && rng->Bernoulli(0.6)) {
      const std::size_t j = a.col_idx()[a.row_ptr()[i] + rng->UniformInt(len)];
      if (rng->Bernoulli(0.5)) {
        batch->Remove(k, i, j);
      } else {
        batch->Reweight(k, i, j, rng->Uniform(0.25, 4.0));
      }
    } else {
      batch->Add(k, i, rng->UniformInt(n), rng->Uniform(0.25, 4.0));
    }
  }
}

/// Every O column (dangling ones included) and every R fiber sums to one,
/// and both panel contractions match the dense slices at widths 1 and 3.
void ExpectStochasticAndDenseConsistent(const tensor::TransitionTensors& t,
                                        Rng* rng) {
  const std::size_t n = t.num_nodes();
  const std::size_t m = t.num_relations();
  std::vector<la::DenseMatrix> o, r;
  for (std::size_t k = 0; k < m; ++k) {
    o.push_back(t.DenseOSlice(k));
    r.push_back(t.DenseRSlice(k));
  }
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum += o[k].At(i, j);
      ASSERT_NEAR(sum, 1.0, 1e-12) << "O column (" << j << "," << k << ")";
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < m; ++k) sum += r[k].At(i, j);
      ASSERT_NEAR(sum, 1.0, 1e-12) << "R fiber (" << i << "," << j << ")";
    }
  }
  for (const std::size_t width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    // Probability columns, as the fixed-point engine feeds them.
    la::DenseMatrix x(n, width), z(m, width);
    for (std::size_t c = 0; c < width; ++c) {
      for (std::size_t i = 0; i < n; ++i) x.At(i, c) = rng->Uniform(0.01, 1.0);
      for (std::size_t k = 0; k < m; ++k) z.At(k, c) = rng->Uniform(0.01, 1.0);
    }
    la::NormalizeLeadingColumnsL1(width, &x);
    la::NormalizeLeadingColumnsL1(width, &z);
    la::DenseMatrix y(n, width), w(m, width);
    la::PanelWorkspace ws;
    t.ApplyOPanel(x, z, width, &y, &ws);
    t.ApplyRPanel(x, x, width, &w, &ws);
    for (std::size_t c = 0; c < width; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        double expect = 0.0;
        for (std::size_t k = 0; k < m; ++k) {
          for (std::size_t j = 0; j < n; ++j) {
            expect += o[k].At(i, j) * x.At(j, c) * z.At(k, c);
          }
        }
        ASSERT_NEAR(y.At(i, c), expect, 1e-12) << "O row " << i;
      }
      for (std::size_t k = 0; k < m; ++k) {
        double expect = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            expect += r[k].At(i, j) * x.At(i, c) * x.At(j, c);
          }
        }
        ASSERT_NEAR(w.At(k, c), expect, 1e-12) << "R relation " << k;
      }
    }
  }
}

class RandomPatchTest : public ::testing::TestWithParam<HinShape> {};

// Four batches per seed: the even ones empty a relation row, a relation
// column and a linked pair (every relation), the odd ones refill what the
// batch before emptied, and all of them add, remove and reweight random
// links. After every batch the patched bundle must equal a rebuild byte for
// byte and stay a valid pair of transition tensors.
TEST_P(RandomPatchTest, PatchedEqualsRebuiltAfterEveryBatch) {
  ThreadCountGuard guard;
  constexpr auto kKernel = hin::SimilarityKernel::kCosine;
  Coverage seen;
  for (const int threads : {1, 4}) {
    parallel::SetNumThreads(threads);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " seed " +
                   std::to_string(seed));
      hin::Hin hin = GetParam().make(seed);
      const std::size_t n = hin.num_nodes();
      const std::size_t m = hin.num_relations();
      core::PreparedOperators patched =
          core::PreparedOperators::Build(hin, kKernel);
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(threads));
      std::size_t row_k = 0, row_i = 0, col_k = 0, col_j = 0;
      std::size_t pair_i = 0, pair_j = 0;
      std::vector<std::size_t> pair_relations;
      for (int b = 0; b < 4; ++b) {
        SCOPED_TRACE("batch " + std::to_string(b));
        Batch batch(hin);
        if (b % 2 == 0) {
          // The relation row and column with the fewest (>= 1) links, and
          // the pair of a random stored link.
          std::size_t best_row = 0, best_col = 0;
          pair_relations.clear();
          for (std::size_t k = 0; k < m; ++k) {
            for (std::size_t i = 0; i < n; ++i) {
              const std::size_t len = RowCount(hin, k, i);
              if (len > 0 && (best_row == 0 || len < best_row)) {
                best_row = len;
                row_k = k;
                row_i = i;
              }
              const std::size_t height = ColumnRows(hin, k, i).size();
              if (height > 0 && (best_col == 0 || height < best_col)) {
                best_col = height;
                col_k = k;
                col_j = i;
              }
            }
          }
          if (best_row > 0) {
            const la::SparseMatrix& a = hin.relation(row_k);
            for (std::size_t p = a.row_ptr()[row_i];
                 p < a.row_ptr()[row_i + 1]; ++p) {
              batch.Remove(row_k, row_i, a.col_idx()[p]);
            }
            for (const std::size_t i : ColumnRows(hin, col_k, col_j)) {
              batch.Remove(col_k, i, col_j);
            }
            const std::size_t k = rng.UniformInt(m);
            const la::SparseMatrix& a2 = hin.relation(k);
            if (a2.NumNonZeros() > 0) {
              const std::size_t p = rng.UniformInt(a2.NumNonZeros());
              pair_j = a2.col_idx()[p];
              pair_i = 0;
              while (a2.row_ptr()[pair_i + 1] <= p) ++pair_i;
              for (std::size_t k2 = 0; k2 < m; ++k2) {
                if (batch.Stored(k2, pair_i, pair_j)) {
                  pair_relations.push_back(k2);
                  batch.Remove(k2, pair_i, pair_j);
                }
              }
            }
          }
        } else {
          batch.Add(row_k, row_i, rng.UniformInt(n), 1.5);
          batch.Add(col_k, rng.UniformInt(n), col_j, 0.75);
          for (const std::size_t k : pair_relations) {
            batch.Add(k, pair_i, pair_j, 2.5);
          }
        }
        AddRandomOps(hin, 3 + hin.NumLinks() / 20, &rng, &batch);

        ASSERT_TRUE(hin.ApplyDelta(batch.delta).ok());
        patched.ApplyDelta(hin, batch.delta);
        const core::PreparedOperators rebuilt =
            core::PreparedOperators::Build(hin, kKernel);
        ExpectOperatorsBytesEqual(patched, rebuilt);
        ExpectStochasticAndDenseConsistent(patched.tensors(), &rng);

        const bool row_empty = RowCount(hin, row_k, row_i) == 0;
        const bool col_empty = ColumnRows(hin, col_k, col_j).empty();
        const bool unlinked =
            !pair_relations.empty() && !Linked(hin, pair_i, pair_j);
        if (b % 2 == 0) {
          seen.row_emptied |= row_empty;
          seen.column_emptied |= col_empty;
          seen.pair_unlinked |= unlinked;
        } else {
          seen.row_refilled |= !row_empty;
          seen.column_refilled |= !col_empty;
          seen.pair_relinked |=
              !pair_relations.empty() && Linked(hin, pair_i, pair_j);
        }
      }
    }
  }
  EXPECT_TRUE(seen.row_emptied && seen.row_refilled);
  EXPECT_TRUE(seen.column_emptied && seen.column_refilled);
  EXPECT_TRUE(seen.pair_unlinked && seen.pair_relinked);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RandomPatchTest,
                         ::testing::ValuesIn(HinShapes()), HinShapeName);

TEST(UpdateFitTest, WarmUpdateMatchesColdFitWithinTolerance) {
  ThreadCountGuard guard;
  core::TMarkConfig config;
  config.ica_update = false;  // fixed restart set -> unique fixed point
  config.epsilon = 1e-13;
  config.max_iterations = 500;
  for (const int threads : {1, 4}) {
    parallel::SetNumThreads(threads);
    hin::Hin hin = MakeTestHin();
    const std::vector<std::size_t> labeled = EveryThirdLabeled(hin);

    core::TMarkClassifier warm(config);
    warm.Fit(hin, labeled);
    const hin::HinDelta delta = MakeDelta(hin);
    ASSERT_TRUE(warm.Update(&hin, delta, labeled).ok());

    core::TMarkClassifier cold(config);
    cold.Fit(hin, labeled);

    EXPECT_LE(warm.Confidences().MaxAbsDiff(cold.Confidences()), 1e-10);
    EXPECT_LE(warm.LinkImportance().MaxAbsDiff(cold.LinkImportance()), 1e-10);
  }
}

TEST(UpdateFitTest, UpdatePatchesOperatorsInsteadOfRebuilding) {
  ThreadCountGuard guard;
  parallel::SetNumThreads(4);
  core::TMarkConfig config;
  config.ica_update = false;
  hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThirdLabeled(hin);
  core::TMarkClassifier clf(config);
  clf.Fit(hin, labeled);

  // Hold a second reference: Update must copy-on-write, leaving this
  // pre-mutation bundle untouched for its other holder.
  const std::shared_ptr<const core::PreparedOperators> shared =
      clf.prepared_operators();
  const std::uint64_t fp_before = shared->fingerprint();

  const hin::HinDelta delta = MakeDelta(hin);
  ASSERT_TRUE(clf.Update(&hin, delta, labeled).ok());

  EXPECT_EQ(shared->fingerprint(), fp_before);
  ASSERT_NE(clf.prepared_operators(), nullptr);
  EXPECT_NE(clf.prepared_operators().get(), shared.get());
  EXPECT_EQ(clf.prepared_operators()->fingerprint(),
            core::FingerprintOperators(hin, config.similarity));
}

// Delta-aware retirement hints (core/tmark.h): a label-only wave that
// touches no training node leaves every restart vector — and therefore
// every fixed point — untouched. Update must keep the previous stationary
// columns bitwise and never enter the iteration loop (empty residual
// traces), with the ICA update ON, where the hint analysis has to reason
// about the acceptance cutoff.
TEST(UpdateFitTest, LabelWaveOffTheTrainingSetRetiresEveryClass) {
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    parallel::SetNumThreads(threads);
    hin::Hin hin = MakeTestHin();
    const std::vector<std::size_t> labeled = EveryThirdLabeled(hin);
    core::TMarkClassifier clf;  // defaults: ica_update = true, batched
    clf.Fit(hin, labeled);
    for (const core::ConvergenceTrace& trace : clf.Traces()) {
      ASSERT_TRUE(trace.converged);
    }
    const la::DenseMatrix before_x = clf.Confidences();
    const la::DenseMatrix before_z = clf.LinkImportance();

    // Nodes 1 and 2 are never in EveryThirdLabeled (it steps by 3 from 0).
    hin::HinDelta delta;
    for (const std::size_t node : {std::size_t{1}, std::size_t{2}}) {
      for (std::size_t c = 0; c < hin.num_classes(); ++c) {
        if (!hin.HasLabel(node, c)) {
          delta.AddLabel(node, c);
          break;
        }
      }
    }
    ASSERT_EQ(delta.label_adds().size(), 2u);
    ASSERT_TRUE(clf.Update(&hin, delta, labeled).ok());

    EXPECT_DOUBLE_EQ(clf.Confidences().MaxAbsDiff(before_x), 0.0);
    EXPECT_DOUBLE_EQ(clf.LinkImportance().MaxAbsDiff(before_z), 0.0);
    for (const core::ConvergenceTrace& trace : clf.Traces()) {
      EXPECT_TRUE(trace.converged) << "class " << trace.class_index;
      EXPECT_TRUE(trace.residuals.empty())
          << "class " << trace.class_index << " iterated after a no-op wave";
    }
  }
}

// A label landing on a node that then joins the training set perturbs
// exactly the classes that node carries: those iterate, the rest retire
// with empty traces, and the result still agrees with a cold fit on the
// mutated network (unique fixed point, Theorem 3).
TEST(UpdateFitTest, LabelJoiningTrainingSetIteratesOnlyAffectedClasses) {
  ThreadCountGuard guard;
  core::TMarkConfig config;
  config.ica_update = false;  // fixed restart set -> unique fixed point
  config.epsilon = 1e-13;
  config.max_iterations = 500;
  for (const int threads : {1, 4}) {
    parallel::SetNumThreads(threads);
    hin::Hin hin = MakeTestHin();
    const std::vector<std::size_t> labeled = EveryThirdLabeled(hin);
    core::TMarkClassifier warm(config);
    warm.Fit(hin, labeled);
    for (const core::ConvergenceTrace& trace : warm.Traces()) {
      ASSERT_TRUE(trace.converged);
    }

    // Node 7 is outside the training set; give it one new class and then
    // add it to the training set for the refresh.
    const std::size_t joiner = 7;
    hin::HinDelta delta;
    for (std::size_t c = 0; c < hin.num_classes(); ++c) {
      if (!hin.HasLabel(joiner, c)) {
        delta.AddLabel(joiner, c);
        break;
      }
    }
    ASSERT_EQ(delta.label_adds().size(), 1u);
    std::vector<std::size_t> grown = labeled;
    grown.push_back(joiner);
    ASSERT_TRUE(warm.Update(&hin, delta, grown).ok());

    for (const core::ConvergenceTrace& trace : warm.Traces()) {
      if (hin.HasLabel(joiner, trace.class_index)) {
        EXPECT_FALSE(trace.residuals.empty())
            << "class " << trace.class_index
            << " gained a restart node but did not iterate";
      } else {
        EXPECT_TRUE(trace.converged);
        EXPECT_TRUE(trace.residuals.empty())
            << "class " << trace.class_index
            << " iterated though its restart vector is unchanged";
      }
    }

    core::TMarkClassifier cold(config);
    cold.Fit(hin, grown);
    EXPECT_LE(warm.Confidences().MaxAbsDiff(cold.Confidences()), 1e-10);
    EXPECT_LE(warm.LinkImportance().MaxAbsDiff(cold.LinkImportance()), 1e-10);
  }
}

TEST(UpdateFitTest, StaleCacheCannotSurviveOutOfBandMutation) {
  ThreadCountGuard guard;
  parallel::SetNumThreads(4);
  core::TMarkConfig config;
  config.ica_update = false;
  hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThirdLabeled(hin);
  core::TMarkClassifier clf(config);
  clf.Fit(hin, labeled);
  const std::shared_ptr<const core::PreparedOperators> before =
      clf.prepared_operators();

  // Mutate the network behind the classifier's back (no Update call). The
  // next Fit must notice the fingerprint mismatch and rebuild.
  ASSERT_TRUE(hin.ApplyDelta(MakeDelta(hin)).ok());
  clf.Fit(hin, labeled);
  ASSERT_NE(clf.prepared_operators(), nullptr);
  EXPECT_NE(clf.prepared_operators().get(), before.get());
  EXPECT_NE(clf.prepared_operators()->fingerprint(), before->fingerprint());

  // And the rebuilt-path fit equals a from-scratch classifier bit for bit.
  core::TMarkClassifier fresh(config);
  fresh.Fit(hin, labeled);
  EXPECT_DOUBLE_EQ(clf.Confidences().MaxAbsDiff(fresh.Confidences()), 0.0);
  EXPECT_DOUBLE_EQ(
      clf.LinkImportance().MaxAbsDiff(fresh.LinkImportance()), 0.0);
}

}  // namespace
}  // namespace tmark
