#ifndef TMARK_SERVE_QUERY_ENGINE_H_
#define TMARK_SERVE_QUERY_ENGINE_H_

// Panel fixed-point engine behind the rank/topk verbs (docs/SERVING.md).
//
// A seed query runs the paper's fixed point (Eqs. 8 and 10) personalized
// to one node: the restart vector is e_seed instead of a class label
// vector, and the ICA refresh is off (there is no class to refresh
// toward). The stationary x ranks every node by relevance to the seed and
// the stationary z ranks the link types the seed's neighborhood leans on —
// the same two headline outputs the paper reports per class, specialized
// to one walker.
//
// The perf point: a batch of seeds runs as the columns of one
// core::PanelFixedPoint — the engine the fit uses — so each sparse
// structure is streamed once per iteration for the whole batch and serving
// cost scales with panel width. A chain's answer is bit-identical whatever
// its panel width, position or neighbours (core/panel_fixed_point.h), so a
// query's answer does not depend on which batch the scheduler coalesced it
// into (pinned by tests/serve/batcher_test.cc).

#include <cstddef>
#include <vector>

#include "tmark/core/panel_fixed_point.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/la/vector_ops.h"

namespace tmark::serve {

/// Fixed-point knobs of the seed walk; same semantics as TMarkConfig
/// (alpha restarts to e_seed, beta = gamma * (1 - alpha) weights the
/// feature walk).
struct QueryEngineOptions {
  double alpha = 0.8;
  double gamma = 0.6;
  double epsilon = 1e-8;
  int max_iterations = 100;

  double beta() const { return gamma * (1.0 - alpha); }
};

/// One converged seed walk.
struct SeedQueryResult {
  la::Vector x;  ///< n: stationary node relevance to the seed.
  la::Vector z;  ///< m: stationary link-type importance for the seed.
  std::size_t iterations = 0;
  bool converged = false;
};

/// Runs batches of seed walks on shared panels. Not thread-safe: the
/// batching scheduler owns one instance on its worker thread, which is
/// what lets the panel buffers persist across batches without locking.
class PanelQueryEngine {
 public:
  explicit PanelQueryEngine(QueryEngineOptions options);

  /// Runs one walk per seed (all seeds must be < ops.num_nodes()), batch
  /// width = seeds.size(). `results` is resized to match; results[i]
  /// belongs to seeds[i].
  void Run(const core::PreparedOperators& ops,
           const std::vector<std::size_t>& seeds,
           std::vector<SeedQueryResult>* results);

 private:
  QueryEngineOptions options_;
  /// Kept across batches, so its panels keep their capacity.
  core::PanelFixedPoint engine_;
};

}  // namespace tmark::serve

#endif  // TMARK_SERVE_QUERY_ENGINE_H_
