// Per-kernel microbenchmarks for the register-blocked multi-RHS panel
// layer (la/microkernel.h, docs/PERFORMANCE.md):
//
//   * "kernel microbenchmarks" — each blocked panel kernel
//     (MatMulPanel, TransposeMatMulPanel, BilinearPanel,
//     EntryIndex::ContractMode1Panel, FeatureSimilarity::ApplyPanel) at
//     panel widths {1, 2, 4, 8, 16} against two baselines over identical
//     operands:
//       scalar_ms  — an unblocked reference of the SAME panel algorithm
//                    (plain runtime-width inner loops, implemented in this
//                    file); the gated baseline, isolating what the blocked
//                    dispatch + SIMD annotation buy;
//       width1_ms  — `width` calls of the same blocked panel kernel at
//                    width 1 (each column alone); informational, showing
//                    what one structure pass for all columns saves.
//   * "fused-epilogue comparison" — the fused combine + normalize/residual
//     passes of the fixed-point engine against the unfused sweep sequence
//     they replaced (scale, two axpys, L1 normalize, L1 distances).
//
// Both tables run on one thread pinned to the vCPU it starts on, and time
// the sides of each row in alternating rounds (bench::TimeAlternating).
// The times are medians over rounds; the gated columns blocked_over_scalar
// and fused_over_unfused are medians of the per-round ratios. Both tables
// are recorded in the TMARK_BENCH_JSON dump and gated by
// scripts/check_kernel_bench.py (generous slack: the gate catches a blocked
// path that regressed past its scalar baseline, not noise). Run with
// --benchmark_filter=^$ to get just the tables.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"

#include "tmark/common/string_util.h"
#include "tmark/eval/table_printer.h"
#include "tmark/hin/feature_similarity.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/la/vector_ops.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/tensor/entry_index.h"

namespace {

using namespace tmark;

// DBLP-shaped synthetic operands: n nodes, a handful of relations, a sparse
// feature matrix. Sizes follow the dblp preset order of magnitude.
constexpr std::size_t kNodes = 800;
constexpr std::size_t kVocab = 160;
constexpr std::size_t kRelations = 3;
constexpr std::size_t kEntriesPerRow = 6;
constexpr std::size_t kMaxWidth = 16;
const std::size_t kWidths[] = {1, 2, 4, 8, 16};

la::SparseMatrix MakeSparse(std::size_t rows, std::size_t cols,
                            std::size_t salt) {
  std::vector<la::Triplet> triplets;
  triplets.reserve(rows * kEntriesPerRow);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t e = 0; e < kEntriesPerRow; ++e) {
      const std::size_t c = (r * 31 + e * 17 + salt * 7) % cols;
      triplets.push_back({static_cast<std::uint32_t>(r),
                          static_cast<std::uint32_t>(c),
                          0.25 + static_cast<double>((r + e + salt) % 8)});
    }
  }
  return la::SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

la::Vector MakeProb(std::size_t n, std::size_t salt) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 0.01 + static_cast<double>((i * 13 + salt) % 29);
  }
  la::NormalizeL1(&v);
  return v;
}

// Panels are built with exactly `width` physical columns — the engine's
// layout when all of its chains are active (stride == width). A wider
// stride would charge the small-width rows for cache lines they never use.
la::DenseMatrix MakeProbPanel(std::size_t rows, std::size_t width,
                              std::size_t salt) {
  la::DenseMatrix p(rows, width);
  for (std::size_t c = 0; c < width; ++c) {
    const la::Vector v = MakeProb(rows, salt + c);
    for (std::size_t r = 0; r < rows; ++r) p.At(r, c) = v[r];
  }
  return p;
}

/// Column `c` of `panel` as a width-1 panel of its own.
la::DenseMatrix ColumnPanel(const la::DenseMatrix& panel, std::size_t c) {
  la::DenseMatrix column(panel.rows(), 1);
  for (std::size_t r = 0; r < panel.rows(); ++r) {
    column.At(r, 0) = panel.At(r, c);
  }
  return column;
}

// ---- unblocked scalar references of the panel kernels --------------------
// Same one-structure-pass algorithms as the library kernels, with plain
// runtime-width inner loops instead of the mk:: fixed-width blocks. These
// are the `scalar_ms` baseline the gate compares the blocked kernels to.

void ScalarMatMulPanel(const la::SparseMatrix& a, const la::DenseMatrix& x,
                       std::size_t width, la::DenseMatrix* y) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* yrow = y->RowPtr(r);
    for (std::size_t c = 0; c < width; ++c) yrow[c] = 0.0;
    for (std::size_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const double v = values[p];
      const double* xrow = x.RowPtr(col_idx[p]);
      for (std::size_t c = 0; c < width; ++c) yrow[c] += v * xrow[c];
    }
  }
}

void ScalarTransposeMatMulPanel(const la::SparseMatrix& a,
                                const la::DenseMatrix& x, std::size_t width,
                                la::DenseMatrix* y) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  for (std::size_t r = 0; r < a.cols(); ++r) {
    double* yrow = y->RowPtr(r);
    for (std::size_t c = 0; c < width; ++c) yrow[c] = 0.0;
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* xrow = x.RowPtr(r);
    for (std::size_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const double v = values[p];
      double* yrow = y->RowPtr(col_idx[p]);
      for (std::size_t c = 0; c < width; ++c) yrow[c] += v * xrow[c];
    }
  }
}

void ScalarBilinearPanel(const la::SparseMatrix& a, const la::DenseMatrix& x,
                         const la::DenseMatrix& y, std::size_t width,
                         double* out) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  for (std::size_t c = 0; c < width; ++c) out[c] = 0.0;
  double inner[kMaxWidth];
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* xrow = x.RowPtr(r);
    for (std::size_t c = 0; c < width; ++c) inner[c] = 0.0;
    for (std::size_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const double v = values[p];
      const double* yrow = y.RowPtr(col_idx[p]);
      for (std::size_t c = 0; c < width; ++c) inner[c] += v * yrow[c];
    }
    for (std::size_t c = 0; c < width; ++c) out[c] += xrow[c] * inner[c];
  }
}

/// `slices` are the tensor's front slices A(:,:,k), one n x n CSR matrix
/// each.
void ScalarContractMode1Panel(const std::vector<la::SparseMatrix>& slices,
                              const la::DenseMatrix& x,
                              const la::DenseMatrix& z, std::size_t width,
                              la::DenseMatrix* y) {
  double acc[kMaxWidth];
  for (std::size_t i = 0; i < y->rows(); ++i) {
    double* yrow = y->RowPtr(i);
    for (std::size_t c = 0; c < width; ++c) yrow[c] = 0.0;
    for (std::size_t k = 0; k < slices.size(); ++k) {
      const la::SparseMatrix& slice = slices[k];
      const auto& row_ptr = slice.row_ptr();
      const auto& col_idx = slice.col_idx();
      const auto& values = slice.values();
      for (std::size_t c = 0; c < width; ++c) acc[c] = 0.0;
      for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        const double v = values[p];
        const double* xrow = x.RowPtr(col_idx[p]);
        for (std::size_t c = 0; c < width; ++c) acc[c] += v * xrow[c];
      }
      const double* zrow = z.RowPtr(k);
      for (std::size_t c = 0; c < width; ++c) yrow[c] += zrow[c] * acc[c];
    }
  }
}

/// Scalar reference of FeatureSimilarity::ApplyPanel, rebuilt from the same
/// public factorization: W x = F_hat (F_hat^T (x ./ colsums)) plus the
/// uniform spread of dangling mass.
struct ScalarSimilarity {
  la::SparseMatrix fhat;
  la::Vector col_sums;

  static ScalarSimilarity Build(const la::SparseMatrix& features) {
    const auto& row_ptr = features.row_ptr();
    const auto& values = features.values();
    la::Vector inv_norm(features.rows(), 0.0);
    for (std::size_t r = 0; r < features.rows(); ++r) {
      double sq = 0.0;
      for (std::size_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
        sq += values[p] * values[p];
      }
      if (sq > 0.0) inv_norm[r] = 1.0 / std::sqrt(sq);
    }
    ScalarSimilarity sim;
    sim.fhat = features.ScaleRows(inv_norm);
    la::Vector t = sim.fhat.ColumnSums();
    sim.col_sums = sim.fhat.MatVec(t);
    return sim;
  }

  void ApplyPanel(const la::DenseMatrix& x, std::size_t width,
                  la::DenseMatrix* y, la::DenseMatrix* u,
                  la::DenseMatrix* t) const {
    const std::size_t n = fhat.rows();
    double mass[kMaxWidth];
    for (std::size_t c = 0; c < width; ++c) mass[c] = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double* xrow = x.RowPtr(r);
      double* urow = u->RowPtr(r);
      if (col_sums[r] > 0.0) {
        for (std::size_t c = 0; c < width; ++c) {
          urow[c] = xrow[c] / col_sums[r];
        }
      } else {
        for (std::size_t c = 0; c < width; ++c) {
          urow[c] = 0.0;
          mass[c] += xrow[c];
        }
      }
    }
    ScalarTransposeMatMulPanel(fhat, *u, width, t);
    ScalarMatMulPanel(fhat, *t, width, y);
    bool any = false;
    for (std::size_t c = 0; c < width; ++c) any = any || mass[c] != 0.0;
    if (!any) return;
    for (std::size_t r = 0; r < n; ++r) {
      double* yrow = y->RowPtr(r);
      for (std::size_t c = 0; c < width; ++c) {
        yrow[c] += mass[c] / static_cast<double>(n);
      }
    }
  }
};

/// The dense operands of one kernel call: input panels and the output.
struct Operands {
  la::DenseMatrix xp, yp, zp, node_out;
};

/// Shared sparse operators, built once. The dense operands are re-made per
/// width (see Fixture::SetWidth) so panel strides match the width under
/// test; the timed lambdas only touch warm caller-owned outputs and the
/// workspace.
struct Fixture {
  la::SparseMatrix a = MakeSparse(kNodes, kNodes, 1);
  std::vector<la::SparseMatrix> slices = [] {
    std::vector<la::SparseMatrix> out;
    for (std::size_t k = 0; k < kRelations; ++k) {
      out.push_back(MakeSparse(kNodes, kNodes, 3 + k));
    }
    return out;
  }();
  std::vector<double> tensor_values;  ///< The slices' values, index order.
  tensor::EntryIndex index =
      tensor::EntryIndex::FromSlices(slices, &tensor_values);
  la::SparseMatrix features = MakeSparse(kNodes, kVocab, 11);
  hin::FeatureSimilarity sim = hin::FeatureSimilarity::Build(features);
  ScalarSimilarity scalar_sim = ScalarSimilarity::Build(features);
  Operands panel;                 ///< `width` columns.
  std::vector<Operands> columns;  ///< Each column of `panel` at width 1.
  la::DenseMatrix sim_u, sim_t;
  la::Vector bilinear_out = la::Vector(kMaxWidth);
  la::PanelWorkspace ws;

  void SetWidth(std::size_t width) {
    panel.xp = MakeProbPanel(kNodes, width, 20);
    panel.yp = MakeProbPanel(kNodes, width, 40);
    panel.zp = MakeProbPanel(kRelations, width, 60);
    panel.node_out = la::DenseMatrix(kNodes, width);
    columns.assign(width, Operands{});
    for (std::size_t c = 0; c < width; ++c) {
      columns[c].xp = ColumnPanel(panel.xp, c);
      columns[c].yp = ColumnPanel(panel.yp, c);
      columns[c].zp = ColumnPanel(panel.zp, c);
      columns[c].node_out = la::DenseMatrix(kNodes, 1);
    }
    sim_u = la::DenseMatrix(kNodes, width);
    sim_t = la::DenseMatrix(kVocab, width);
  }
};

/// Inner repetitions per timing sample, scaled down with width so every row
/// costs a comparable (and measurable) amount of wall clock. Kept high
/// enough that each timed window is milliseconds-scale — sub-ms windows
/// pick up scheduler jitter that min-over-repeats cannot filter.
std::size_t RepsFor(std::size_t width) { return 384 / width; }

struct KernelRow {
  const char* name;
  // Runs the unblocked scalar reference of the panel kernel (gated).
  void (*scalar_fn)(Fixture&, std::size_t width);
  // Runs the blocked library panel kernel on `ops` (gated against
  // scalar_fn on the full panel; width1_ms runs it on each column alone).
  void (*blocked_fn)(Fixture&, Operands& ops, std::size_t width);
};

const KernelRow kKernelRows[] = {
    {"matmul_panel",
     [](Fixture& f, std::size_t w) {
       ScalarMatMulPanel(f.a, f.panel.xp, w, &f.panel.node_out);
     },
     [](Fixture& f, Operands& ops, std::size_t w) {
       f.a.MatMulPanel(ops.xp, w, &ops.node_out);
     }},
    {"transpose_matmul_panel",
     [](Fixture& f, std::size_t w) {
       ScalarTransposeMatMulPanel(f.a, f.panel.xp, w, &f.panel.node_out);
     },
     [](Fixture& f, Operands& ops, std::size_t w) {
       f.a.TransposeMatMulPanel(ops.xp, w, &ops.node_out, &f.ws);
     }},
    {"bilinear_panel",
     [](Fixture& f, std::size_t w) {
       ScalarBilinearPanel(f.a, f.panel.xp, f.panel.yp, w,
                           f.bilinear_out.data());
     },
     [](Fixture& f, Operands& ops, std::size_t w) {
       f.a.BilinearPanel(ops.xp, ops.yp, w, f.bilinear_out.data(), &f.ws);
     }},
    {"contract_mode1_panel",
     [](Fixture& f, std::size_t w) {
       ScalarContractMode1Panel(f.slices, f.panel.xp, f.panel.zp, w,
                                &f.panel.node_out);
     },
     [](Fixture& f, Operands& ops, std::size_t w) {
       f.index.ContractMode1Panel(f.tensor_values, ops.xp, ops.zp, w,
                                  &ops.node_out, &f.ws);
     }},
    {"similarity_apply_panel",
     [](Fixture& f, std::size_t w) {
       f.scalar_sim.ApplyPanel(f.panel.xp, w, &f.panel.node_out, &f.sim_u,
                               &f.sim_t);
     },
     [](Fixture& f, Operands& ops, std::size_t w) {
       f.sim.ApplyPanel(ops.xp, w, &ops.node_out, &f.ws);
     }},
};

// The comparison tables isolate register-blocking from threading: the
// blocked kernels are pool-partitioned while the scalar references here are
// plain serial loops, so at TMARK_NUM_THREADS > 1 on a small machine the
// chunk-dispatch overhead would pollute the blocked column. Tables run
// single-threaded, on the calling thread pinned to its vCPU (released
// before the thread count is restored, so no worker inherits the pin); the
// BM_* entries below honor TMARK_NUM_THREADS for the threading view.
struct SingleThreadGuard {
  SingleThreadGuard() { parallel::SetNumThreads(1); }
  ~SingleThreadGuard() { parallel::SetNumThreads(0); }
};

void RunKernelMicrobench() {
  SingleThreadGuard single_thread;
  bench::PinToCurrentCpu pin;
  Fixture f;
  std::vector<std::string> headers = {
      "kernel",    "width",   "scalar_ms",          "blocked_ms",
      "width1_ms", "speedup", "blocked_over_scalar"};
  eval::TablePrinter table(headers);
  std::vector<std::vector<std::string>> rows;
  for (const KernelRow& kernel : kKernelRows) {
    for (const std::size_t width : kWidths) {
      f.SetWidth(width);
      const std::size_t reps = RepsFor(width);
      const std::vector<std::vector<double>> ms = bench::TimeAlternating({
          [&] {
            for (std::size_t i = 0; i < reps; ++i) kernel.scalar_fn(f, width);
          },
          [&] {
            for (std::size_t i = 0; i < reps; ++i) {
              kernel.blocked_fn(f, f.panel, width);
            }
          },
          [&] {
            for (std::size_t i = 0; i < reps; ++i) {
              for (Operands& column : f.columns) {
                kernel.blocked_fn(f, column, 1);
              }
            }
          },
      });
      const double scalar_ms = bench::Median(ms[0]);
      const double blocked_ms = bench::Median(ms[1]);
      std::vector<std::string> row = {
          kernel.name,
          std::to_string(width),
          FormatDouble(scalar_ms, 3),
          FormatDouble(blocked_ms, 3),
          FormatDouble(bench::Median(ms[2]), 3),
          FormatDouble(scalar_ms / blocked_ms, 2),
          FormatDouble(bench::MedianRatio(ms[1], ms[0]), 3)};
      rows.push_back(row);
      table.AddRow(std::move(row));
    }
  }
  std::cout << "kernel microbenchmarks (" << kNodes << " nodes, "
            << kRelations << " relations, medians over "
            << std::max(9, bench::BenchTimer::Repeats())
            << " alternating rounds; scalar_ms = unblocked panel reference, "
               "width1_ms = width calls at width 1, speedup = "
               "scalar/blocked, blocked_over_scalar = median of the "
               "per-round ratios)\n";
  table.Print(std::cout);
  if (bench::BenchObsSession* session = bench::BenchObsSession::active()) {
    session->RecordTable(
        {"kernel microbenchmarks", std::move(headers), std::move(rows)});
  }
}

void RunFusedComparison() {
  SingleThreadGuard single_thread;
  bench::PinToCurrentCpu pin;
  const double rel = 0.55, beta = 0.4, alpha = 0.05;

  std::vector<std::string> headers = {"width", "unfused_ms", "fused_ms",
                                      "speedup", "fused_over_unfused"};
  eval::TablePrinter table(headers);
  std::vector<std::vector<std::string>> rows;
  for (const std::size_t width : kWidths) {
    const std::size_t reps = RepsFor(width) * 4;
    const la::DenseMatrix wx = MakeProbPanel(kNodes, width, 80);
    const la::DenseMatrix l = MakeProbPanel(kNodes, width, 100);
    const la::DenseMatrix prev = MakeProbPanel(kNodes, width, 120);
    // Each variant owns its panel; repeated application keeps the columns
    // positive (normalize of a combined probability panel), so the sweeps
    // stay well-defined across reps.
    la::DenseMatrix unfused_panel = MakeProbPanel(kNodes, width, 140);
    la::DenseMatrix fused_panel = unfused_panel;
    la::Vector sums, rho;
    const std::vector<std::vector<double>> ms = bench::TimeAlternating({
        [&] {
          for (std::size_t i = 0; i < reps; ++i) {
            la::ScaleLeadingColumns(rel, width, &unfused_panel);
            la::AxpyLeadingColumns(beta, wx, width, &unfused_panel);
            la::AxpyLeadingColumns(alpha, l, width, &unfused_panel);
            la::NormalizeLeadingColumnsL1(width, &unfused_panel);
            la::LeadingColumnL1Distances(unfused_panel, prev, width, &rho);
          }
        },
        [&] {
          for (std::size_t i = 0; i < reps; ++i) {
            la::FusedCombineColumns(rel, beta, wx, alpha, l, width,
                                    &fused_panel, &sums);
            la::FusedNormalizeDistanceColumns(&sums, prev, width,
                                              &fused_panel, &rho);
          }
        },
    });
    const double unfused_ms = bench::Median(ms[0]);
    const double fused_ms = bench::Median(ms[1]);
    std::vector<std::string> row = {
        std::to_string(width), FormatDouble(unfused_ms, 3),
        FormatDouble(fused_ms, 3), FormatDouble(unfused_ms / fused_ms, 2),
        FormatDouble(bench::MedianRatio(ms[1], ms[0]), 3)};
    rows.push_back(row);
    table.AddRow(std::move(row));
  }
  std::cout << "fused-epilogue comparison (" << kNodes
            << " rows, medians over alternating rounds; unfused = scale + 2 "
               "axpy + L1 normalize + L1 distances, fused_over_unfused = "
               "median of the per-round ratios)\n";
  table.Print(std::cout);
  if (bench::BenchObsSession* session = bench::BenchObsSession::active()) {
    session->RecordTable(
        {"fused-epilogue comparison", std::move(headers), std::move(rows)});
  }
}

// Interactive google-benchmark entry points over the same fixture shapes.

void BM_MatMulPanel(benchmark::State& state) {
  Fixture f;
  const auto width = static_cast<std::size_t>(state.range(0));
  f.SetWidth(width);
  for (auto _ : state) {
    f.a.MatMulPanel(f.panel.xp, width, &f.panel.node_out);
    benchmark::DoNotOptimize(f.panel.node_out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.a.NumNonZeros() * width));
}
BENCHMARK(BM_MatMulPanel)->Arg(1)->Arg(4)->Arg(16);

void BM_SimilarityApplyPanel(benchmark::State& state) {
  Fixture f;
  const auto width = static_cast<std::size_t>(state.range(0));
  f.SetWidth(width);
  for (auto _ : state) {
    f.sim.ApplyPanel(f.panel.xp, width, &f.panel.node_out, &f.ws);
    benchmark::DoNotOptimize(f.panel.node_out.data());
  }
}
BENCHMARK(BM_SimilarityApplyPanel)->Arg(1)->Arg(4)->Arg(16);

void BM_FusedEpilogue(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const la::DenseMatrix wx = MakeProbPanel(kNodes, width, 80);
  const la::DenseMatrix l = MakeProbPanel(kNodes, width, 100);
  const la::DenseMatrix prev = MakeProbPanel(kNodes, width, 120);
  la::DenseMatrix panel = MakeProbPanel(kNodes, width, 140);
  la::Vector sums, rho;
  for (auto _ : state) {
    la::FusedCombineColumns(0.55, 0.4, wx, 0.05, l, width, &panel, &sums);
    la::FusedNormalizeDistanceColumns(&sums, prev, width, &panel, &rho);
    benchmark::DoNotOptimize(rho.data());
  }
}
BENCHMARK(BM_FusedEpilogue)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  tmark::bench::BenchObsSession obs_session(argv[0]);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RunKernelMicrobench();
  RunFusedComparison();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
