#ifndef TMARK_TESTS_PARALLEL_HIN_SHAPES_H_
#define TMARK_TESTS_PARALLEL_HIN_SHAPES_H_

// Generated and degenerate HINs shared by the randomized property tests:
// one generated network and four degenerate shapes (a single relation, an
// empty relation, an isolated node, a single stored entry). Every shape
// labels at least one node per class; OneLabeledNodePerClass picks a
// training set of exactly one node per class.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tmark/common/random.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/hin.h"
#include "tmark/hin/hin_builder.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/parallel/thread_pool.h"

namespace tmark {

/// Restores the default thread count when a test that sets it ends.
struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetNumThreads(0); }
};

/// n nodes with one feature each and `edges` random weighted links spread
/// over m relations, except relation `empty_relation` (left without links)
/// and node `isolated` (left without links); npos disables either. Two
/// classes: node 0 carries the first, node n - 1 the second.
inline hin::Hin RandomHin(std::size_t n, std::size_t m, std::size_t edges,
                          std::uint64_t seed,
                          std::size_t empty_relation = la::SparseMatrix::npos,
                          std::size_t isolated = la::SparseMatrix::npos) {
  hin::HinBuilder builder(n, 4);
  for (std::size_t k = 0; k < m; ++k) {
    builder.AddRelation("r" + std::to_string(k));
  }
  builder.AddClass("c0");
  builder.AddClass("c1");
  Rng rng(seed);
  for (std::size_t e = 0; e < edges; ++e) {
    const std::size_t k = rng.UniformInt(m);
    const std::size_t src = rng.UniformInt(n);
    const std::size_t dst = rng.UniformInt(n);
    if (k == empty_relation || src == isolated || dst == isolated) continue;
    builder.AddDirectedEdge(k, src, dst, rng.Uniform(0.5, 2.0));
  }
  for (std::size_t i = 0; i < n; ++i) builder.AddFeature(i, i % 4, 1.0);
  builder.SetLabel(0, 0);
  builder.SetLabel(n - 1, 1);
  return std::move(builder).Build();
}

/// For each class, the first node that carries it.
inline std::vector<std::size_t> OneLabeledNodePerClass(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    for (std::size_t i = 0; i < hin.num_nodes(); ++i) {
      if (hin.HasLabel(i, c)) {
        labeled.push_back(i);
        break;
      }
    }
  }
  return labeled;
}

struct HinShape {
  std::string name;
  std::function<hin::Hin(std::uint64_t seed)> make;
};

// Names a case by its shape, so test names stay stable across builds.
inline void PrintTo(const HinShape& shape, std::ostream* os) {
  *os << shape.name;
}

inline std::string HinShapeName(
    const ::testing::TestParamInfo<HinShape>& info) {
  return info.param.name;
}

inline std::vector<HinShape> HinShapes() {
  return {
      HinShape{"generated",
               [](std::uint64_t seed) {
                 return datasets::GenerateSyntheticHin(
                     datasets::ScalingSyntheticConfig(120, seed));
               }},
      HinShape{"one_relation",
               [](std::uint64_t seed) { return RandomHin(12, 1, 30, seed); }},
      HinShape{"empty_relation",
               [](std::uint64_t seed) {
                 return RandomHin(12, 3, 40, seed, /*empty_relation=*/1);
               }},
      HinShape{"isolated_node",
               [](std::uint64_t seed) {
                 return RandomHin(12, 2, 40, seed, la::SparseMatrix::npos,
                                  /*isolated=*/5);
               }},
      // One class whose one labeled node has no links at all.
      HinShape{"single_entry",
               [](std::uint64_t seed) {
                 hin::HinBuilder builder(5, 2);
                 builder.AddRelation("r0");
                 builder.AddRelation("r1");
                 builder.AddClass("c");
                 builder.AddDirectedEdge(seed % 2, 3, 1, 2.0);
                 for (std::size_t i = 0; i < 5; ++i) {
                   builder.AddFeature(i, i % 2, 1.0);
                 }
                 builder.SetLabel(0, 0);
                 return std::move(builder).Build();
               }},
  };
}

}  // namespace tmark

#endif  // TMARK_TESTS_PARALLEL_HIN_SHAPES_H_
