// Micro-benchmarks for the Sec. 4.5 complexity claims: the contraction
// kernels O x1 x x3 z and R x1 x x2 x (width-1 panels) cost O(D) in the
// stored non-zeros D, independent of the dense n^2 m volume. The per-item
// time should stay roughly flat as D grows (linear total cost), and far
// below the dense reference.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench/common.h"

#include "tmark/common/random.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/tensor/matricization.h"
#include "tmark/tensor/transition_tensors.h"

namespace {

using namespace tmark;

/// The m front slices A(:,:,k) of an (n x n x m) tensor with `entries`
/// uniformly random unit entries (duplicates summed).
std::vector<la::SparseMatrix> RandomSlices(std::size_t n, std::size_t m,
                                           std::size_t entries,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<la::Triplet>> triplets(m);
  for (std::size_t e = 0; e < entries; ++e) {
    const auto i = static_cast<std::uint32_t>(rng.UniformInt(n));
    const auto j = static_cast<std::uint32_t>(rng.UniformInt(n));
    triplets[rng.UniformInt(m)].push_back({i, j, 1.0});
  }
  std::vector<la::SparseMatrix> slices;
  for (std::vector<la::Triplet>& t : triplets) {
    slices.push_back(la::SparseMatrix::FromTriplets(n, n, std::move(t)));
  }
  return slices;
}

// The contractions run as width-1 panels: one vector, the shape of a single
// seed walk.
void BM_ApplyO(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 16;
  const std::size_t d = 8 * n;  // D scales linearly with n
  const tensor::TransitionTensors t =
      tensor::TransitionTensors::Build(RandomSlices(n, m, d, 7));
  const la::DenseMatrix x(n, 1, 1.0 / static_cast<double>(n));
  const la::DenseMatrix z(m, 1, 1.0 / static_cast<double>(m));
  la::DenseMatrix y(n, 1);
  la::PanelWorkspace ws;
  for (auto _ : state) {
    t.ApplyOPanel(x, z, 1, &y, &ws);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_ApplyO)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_ApplyR(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 16;
  const std::size_t d = 8 * n;
  const tensor::TransitionTensors t =
      tensor::TransitionTensors::Build(RandomSlices(n, m, d, 11));
  const la::DenseMatrix x(n, 1, 1.0 / static_cast<double>(n));
  la::DenseMatrix w(m, 1);
  la::PanelWorkspace ws;
  for (auto _ : state) {
    t.ApplyRPanel(x, x, 1, &w, &ws);
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_ApplyR)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_BuildTransitionTensors(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<la::SparseMatrix> a = RandomSlices(n, 16, 8 * n, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::TransitionTensors::Build(a));
  }
}
BENCHMARK(BM_BuildTransitionTensors)->Arg(1000)->Arg(8000);

void BM_DenseReferenceApplyO(benchmark::State& state) {
  // Dense n^2 m contraction for contrast with the O(D) kernel.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 16;
  const tensor::TransitionTensors t =
      tensor::TransitionTensors::Build(RandomSlices(n, m, 8 * n, 17));
  const la::Vector x = la::UniformProbability(n);
  const la::Vector z = la::UniformProbability(m);
  for (auto _ : state) {
    la::Vector y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < m; ++k) {
          acc += t.OEntry(i, j, k) * x[j] * z[k];
        }
      }
      y[i] = acc;
    }
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_DenseReferenceApplyO)->Arg(200);

// Both unfoldings of Sec. 3.2: A_(1) (n x nm) and A_(3) (m x n^2).
void BM_Matricization(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<la::SparseMatrix> a = RandomSlices(n, 16, 8 * n, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatricizeMode1(a));
    benchmark::DoNotOptimize(tensor::MatricizeMode3(a));
  }
}
BENCHMARK(BM_Matricization)->Arg(2000);

}  // namespace

TMARK_BENCH_MAIN();
