// Incremental-update honesty tests (docs/PERFORMANCE.md "Incremental
// updates"), run across thread counts and — via the `sanitize` ctest label
// this path carries — under TSAN/ASAN builds:
//
//   * a PreparedOperators bundle patched through ApplyDelta is bit-identical
//     to a from-scratch rebuild on the mutated HIN: same fingerprint, same
//     CSR bytes, same merged-view arrays;
//   * TMarkClassifier::Update's warm-started refresh lands within 1e-10 of
//     a cold fit on the mutated network (the fixed point is unique —
//     Theorem 3 — so warm and cold runs differ only by their stopping
//     points);
//   * a stale operator cache cannot survive a mutation that bypassed
//     Update: the fingerprint check forces a rebuild.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/hin.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/tensor/sparse_tensor3.h"

namespace tmark {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetNumThreads(0); }
};

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

void ExpectMatrixBytesEqual(const la::SparseMatrix& a,
                            const la::SparseMatrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  EXPECT_EQ(a.row_ptr().ToVector(), b.row_ptr().ToVector()) << what;
  EXPECT_EQ(a.col_idx(), b.col_idx()) << what;
  EXPECT_EQ(a.values(), b.values()) << what;  // exact, not approximate
}

void ExpectTensorBytesEqual(const tensor::SparseTensor3& a,
                            const tensor::SparseTensor3& b, const char* what) {
  ASSERT_EQ(a.num_relations(), b.num_relations()) << what;
  for (std::size_t k = 0; k < a.num_relations(); ++k) {
    ExpectMatrixBytesEqual(a.Slice(k), b.Slice(k), what);
  }
  const tensor::SparseTensor3::MergedView& ma = a.merged_view();
  const tensor::SparseTensor3::MergedView& mb = b.merged_view();
  EXPECT_EQ(ma.row_ptr.ToVector(), mb.row_ptr.ToVector()) << what;
  EXPECT_EQ(ma.seg_k, mb.seg_k) << what;
  EXPECT_EQ(ma.seg_end.ToVector(), mb.seg_end.ToVector()) << what;
  EXPECT_EQ(ma.col, mb.col) << what;
  EXPECT_EQ(ma.val, mb.val) << what;
  EXPECT_EQ(a.MergedViewIndexBits(), b.MergedViewIndexBits()) << what;
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

    EXPECT_EQ(patched.fingerprint(), rebuilt.fingerprint());
    EXPECT_EQ(patched.fingerprint(),
              core::FingerprintOperators(hin, hin::SimilarityKernel::kCosine));
    ExpectTensorBytesEqual(patched.tensors().o_stored(),
                           rebuilt.tensors().o_stored(), "O");
    ExpectTensorBytesEqual(patched.tensors().r_stored(),
                           rebuilt.tensors().r_stored(), "R");
    EXPECT_EQ(patched.tensors().dangling_columns(),
              rebuilt.tensors().dangling_columns());
    ExpectMatrixBytesEqual(patched.tensors().linked_mask(),
                           rebuilt.tensors().linked_mask(), "linked_mask");

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
