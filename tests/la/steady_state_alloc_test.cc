// Steady-state allocation discipline: every hot-loop kernel of the
// fixed-point engine — the multi-RHS panel kernels, the fused panel passes
// and the ICA refresh — and a whole warm engine run must allocate NOTHING
// once outputs and workspace are warm. The engine calls these kernels every
// iteration, for fits and for every served batch; a per-call allocation
// there is a perf bug this test turns into a failure.
//
// Mechanism: the test binary replaces global operator new/new[] with
// counting wrappers. Each kernel runs twice with the same caller-owned
// outputs/workspace; the first (cold) call may size buffers, the second
// (warm) call must leave the counter untouched. Not part of the `sanitize`
// label: sanitizer runs interpose their own allocator machinery.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "tmark/core/panel_fixed_point.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/feature_similarity.h"
#include "tmark/hin/hin.h"
#include "tmark/hin/label_vector.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/la/vector_ops.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/tensor/transition_tensors.h"

namespace {
std::atomic<std::size_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tmark {
namespace {

constexpr std::size_t kNodes = 40;
constexpr std::size_t kRelations = 3;
constexpr std::size_t kVocab = 16;
constexpr std::size_t kWidth = 5;

/// Runs `fn` once cold (may size buffers), then returns the number of
/// operator-new calls its second, warm invocation made.
template <typename Fn>
std::size_t WarmAllocs(Fn&& fn) {
  fn();
  const std::size_t before = g_news.load(std::memory_order_relaxed);
  fn();
  return g_news.load(std::memory_order_relaxed) - before;
}

la::SparseMatrix MakeSparse(std::size_t rows, std::size_t cols,
                            std::size_t salt) {
  std::vector<la::Triplet> triplets;
  for (std::size_t r = 0; r < rows; ++r) {
    // A few entries per row; row (salt % rows) left empty so the dangling
    // paths of the downstream operators stay exercised.
    if (r == salt % rows) continue;
    for (std::size_t e = 0; e < 3; ++e) {
      const std::size_t c = (r * 7 + e * 5 + salt) % cols;
      triplets.push_back({static_cast<std::uint32_t>(r),
                          static_cast<std::uint32_t>(c),
                          1.0 + 0.25 * static_cast<double>((r + e) % 4)});
    }
  }
  return la::SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

std::vector<la::SparseMatrix> MakeRelations() {
  std::vector<la::SparseMatrix> relations;
  for (std::size_t k = 0; k < kRelations; ++k) {
    relations.push_back(MakeSparse(kNodes, kNodes, 3 + k));
  }
  return relations;
}

la::Vector MakeProb(std::size_t n, std::size_t salt) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 0.01 + static_cast<double>((i * 13 + salt) % 17);
  }
  la::NormalizeL1(&v);
  return v;
}

la::DenseMatrix MakeProbPanel(std::size_t rows, std::size_t width,
                              std::size_t salt) {
  la::DenseMatrix p(rows, width);
  for (std::size_t c = 0; c < width; ++c) {
    const la::Vector v = MakeProb(rows, salt + c);
    for (std::size_t r = 0; r < rows; ++r) p.At(r, c) = v[r];
  }
  return p;
}

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetNumThreads(0); }
};

TEST(SteadyStateAllocTest, SparseMatrixKernelsAllocateNothingWhenWarm) {
  ThreadCountGuard guard;
  parallel::SetNumThreads(1);
  const la::SparseMatrix a = MakeSparse(kNodes, kNodes, 1);
  const la::DenseMatrix x = MakeProbPanel(kNodes, 1, 1);
  const la::DenseMatrix xp = MakeProbPanel(kNodes, kWidth, 2);
  const la::DenseMatrix yp_in = MakeProbPanel(kNodes, kWidth, 3);
  la::DenseMatrix y(kNodes, 1);
  la::DenseMatrix panel_out(kNodes, kWidth);
  la::Vector bilinear_out(kWidth);
  la::PanelWorkspace ws;

  EXPECT_EQ(WarmAllocs([&] { a.MatMulPanel(x, 1, &y); }), 0u)
      << "MatMulPanel width 1";
  EXPECT_EQ(WarmAllocs([&] { a.TransposeMatMulPanel(x, 1, &y, &ws); }), 0u)
      << "TransposeMatMulPanel width 1";
  EXPECT_EQ(WarmAllocs([&] { a.MatMulPanel(xp, kWidth, &panel_out); }), 0u)
      << "MatMulPanel";
  EXPECT_EQ(
      WarmAllocs([&] { a.TransposeMatMulPanel(xp, kWidth, &panel_out, &ws); }),
      0u)
      << "TransposeMatMulPanel";
  EXPECT_EQ(WarmAllocs([&] {
              a.BilinearPanel(xp, yp_in, kWidth, bilinear_out.data(), &ws);
            }),
            0u)
      << "BilinearPanel";
}

TEST(SteadyStateAllocTest, TensorKernelsAllocateNothingWhenWarm) {
  ThreadCountGuard guard;
  parallel::SetNumThreads(1);
  const tensor::TransitionTensors tensors =
      tensor::TransitionTensors::Build(MakeRelations());
  const tensor::EntryIndex& index = tensors.index();
  const la::DenseMatrix xp = MakeProbPanel(kNodes, kWidth, 7);
  const la::DenseMatrix yp = MakeProbPanel(kNodes, kWidth, 8);
  const la::DenseMatrix zp = MakeProbPanel(kRelations, kWidth, 9);
  la::Vector x_sums, w_sums;
  la::DenseMatrix node_out(kNodes, kWidth);
  la::DenseMatrix rel_out(kRelations, kWidth);
  la::PanelWorkspace ws;
  la::LeadingColumnSums(xp, kWidth, &x_sums);

  EXPECT_EQ(WarmAllocs([&] {
              index.ContractMode1Panel(tensors.o_values(), xp, zp, kWidth,
                                       &node_out, &ws);
            }),
            0u)
      << "ContractMode1Panel";
  EXPECT_EQ(WarmAllocs([&] {
              index.ContractMode3Panel(tensors.r_values(), xp, yp, kWidth,
                                       &rel_out, &ws);
            }),
            0u)
      << "ContractMode3Panel";
  EXPECT_EQ(
      WarmAllocs([&] { tensors.ApplyOPanel(xp, zp, kWidth, &node_out, &ws); }),
      0u)
      << "ApplyOPanel";
  EXPECT_EQ(WarmAllocs([&] {
              tensors.ApplyRPanel(xp, xp, kWidth, &rel_out, &ws, &x_sums,
                                  &x_sums, &w_sums);
            }),
            0u)
      << "ApplyRPanel with sums";
}

TEST(SteadyStateAllocTest, SimilarityAndFusedPassesAllocateNothingWhenWarm) {
  ThreadCountGuard guard;
  parallel::SetNumThreads(1);
  const hin::FeatureSimilarity sim =
      hin::FeatureSimilarity::Build(MakeSparse(kNodes, kVocab, 11));
  const la::DenseMatrix xp = MakeProbPanel(kNodes, kWidth, 13);
  const la::DenseMatrix wx = MakeProbPanel(kNodes, kWidth, 14);
  const la::DenseMatrix l = MakeProbPanel(kNodes, kWidth, 15);
  const la::DenseMatrix prev = MakeProbPanel(kNodes, kWidth, 16);
  la::Vector sums, rho;
  la::DenseMatrix wx_out(kNodes, kWidth);
  la::DenseMatrix combine = MakeProbPanel(kNodes, kWidth, 17);
  la::PanelWorkspace ws;

  EXPECT_EQ(WarmAllocs([&] { sim.ApplyPanel(xp, kWidth, &wx_out, &ws); }), 0u)
      << "ApplyPanel";
  // The fused epilogue pair, exactly as the engine loop runs it:
  // combine (producing the column sums), then normalize + residual
  // (consuming them). Re-normalizing an already-normalized panel is fine —
  // the sums stay positive.
  EXPECT_EQ(WarmAllocs([&] {
              la::FusedCombineColumns(0.55, 0.4, wx, 0.05, l, kWidth, &combine,
                                      &sums);
              la::FusedNormalizeDistanceColumns(&sums, prev, kWidth, &combine,
                                                &rho);
            }),
            0u)
      << "FusedCombineColumns + FusedNormalizeDistanceColumns";
}

TEST(SteadyStateAllocTest, IcaLabelRefreshAllocatesNothingWhenWarm) {
  ThreadCountGuard guard;
  parallel::SetNumThreads(1);
  datasets::SyntheticHinConfig config;
  config.num_nodes = 60;
  config.class_names = {"A", "B", "C"};
  config.relations = {{"r0", 0.8, 0.0, 2.0, {}, false}};
  config.seed = 7;
  const hin::Hin hin = datasets::GenerateSyntheticHin(config);
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) labeled.push_back(i);
  const la::Vector x = MakeProb(hin.num_nodes(), 18);
  la::Vector restart;
  std::vector<bool> known;

  EXPECT_EQ(WarmAllocs([&] {
              hin::UpdatedLabelVectorInto(hin, labeled, 0, x, 0.3, &restart,
                                          &known);
            }),
            0u)
      << "UpdatedLabelVectorInto";
}

TEST(SteadyStateAllocTest, WarmEngineRunAllocatesNothing) {
  ThreadCountGuard guard;
  parallel::SetNumThreads(1);
  datasets::SyntheticHinConfig config;
  config.num_nodes = 60;
  config.class_names = {"A", "B", "C"};
  config.relations = {{"r0", 0.8, 0.0, 2.0, {}, false},
                      {"r1", 0.6, 0.2, 2.0, {}, true}};
  config.seed = 8;
  const hin::Hin hin = datasets::GenerateSyntheticHin(config);
  const std::size_t n = hin.num_nodes();
  const std::size_t m = hin.num_relations();
  const std::size_t q = hin.num_classes();
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < n; i += 3) labeled.push_back(i);
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
  std::vector<la::Vector> restarts;
  for (std::size_t c = 0; c < q; ++c) {
    restarts.push_back(hin::InitialLabelVector(hin, labeled, c));
  }

  // A fit's chains: label restarts with the ICA refresh, columns retiring
  // one by one (compaction) as their residuals drop below epsilon.
  core::PanelFixedPoint engine;
  core::PanelFixedPoint::Options options;
  options.beta = 0.12;
  options.phase_timers = true;
  la::Vector x_col, l_col;
  std::vector<bool> known;
  const core::PanelFixedPoint::Refresh ica =
      [&](std::size_t chain, const la::DenseMatrix& x, std::size_t slot,
          la::DenseMatrix* restart) {
        la::ExtractColumn(x, slot, &x_col);
        hin::UpdatedLabelVectorInto(hin, labeled, chain, x_col, 0.7, &l_col,
                                    &known);
        la::SetColumn(l_col, slot, restart);
      };
  std::vector<la::Vector> out_x(q), out_z(q);
  const core::PanelFixedPoint::Finish finish =
      [&](std::size_t chain, const la::DenseMatrix& x, const la::DenseMatrix& z,
          std::size_t slot) {
        la::ExtractColumn(x, slot, &out_x[chain]);
        la::ExtractColumn(z, slot, &out_z[chain]);
      };
  std::size_t iterations = 0;
  EXPECT_EQ(WarmAllocs([&] {
              engine.Reset(n, m, q);
              for (std::size_t c = 0; c < q; ++c) {
                la::SetColumn(restarts[c], c, &engine.restart());
                la::SetColumn(restarts[c], c, &engine.start_x());
                for (std::size_t k = 0; k < m; ++k) {
                  engine.start_z().At(k, c) = 1.0 / static_cast<double>(m);
                }
              }
              iterations = engine.Run(ops, options, finish, ica);
            }),
            0u)
      << "PanelFixedPoint::Run";
  EXPECT_GT(iterations, 2u);  // The ICA refresh ran.
  for (std::size_t c = 0; c < q; ++c) EXPECT_TRUE(engine.converged(c));
}

}  // namespace
}  // namespace tmark
