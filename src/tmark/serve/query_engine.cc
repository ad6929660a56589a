#include "tmark/serve/query_engine.h"

#include "tmark/common/check.h"
#include "tmark/obs/metrics.h"

namespace tmark::serve {

PanelQueryEngine::PanelQueryEngine(QueryEngineOptions options)
    : options_(options) {
  TMARK_CHECK_MSG(options.alpha > 0.0 && options.alpha < 1.0,
                  "alpha must lie in (0, 1)");
  TMARK_CHECK_MSG(options.gamma >= 0.0 && options.gamma <= 1.0,
                  "gamma must lie in [0, 1]");
  TMARK_CHECK(options.alpha + options.beta() <= 1.0 + 1e-12);
}

void PanelQueryEngine::Run(const core::PreparedOperators& ops,
                           const std::vector<std::size_t>& seeds,
                           std::vector<SeedQueryResult>* results) {
  TMARK_CHECK(results != nullptr);
  results->clear();
  results->resize(seeds.size());
  if (seeds.empty()) return;

  const std::size_t n = ops.num_nodes();
  const std::size_t m = ops.num_relations();
  engine_.Reset(n, m, seeds.size());
  const double uniform_z = 1.0 / static_cast<double>(m);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const std::size_t seed = seeds[s];
    TMARK_CHECK_MSG(seed < n, "seed out of range");
    // Restart vector and starting point: all mass on the seed node.
    for (std::size_t i = 0; i < n; ++i) {
      const double e = i == seed ? 1.0 : 0.0;
      engine_.restart().At(i, s) = e;
      engine_.start_x().At(i, s) = e;
    }
    for (std::size_t k = 0; k < m; ++k) engine_.start_z().At(k, s) = uniform_z;
  }

  core::PanelFixedPoint::Options options;
  options.alpha = options_.alpha;
  options.beta = options_.beta();
  options.epsilon = options_.epsilon;
  options.max_iterations = options_.max_iterations;
  // No restart refresh: there is no class to refresh toward.
  engine_.Run(ops, options,
              [results](std::size_t chain, const la::DenseMatrix& x,
                        const la::DenseMatrix& z, std::size_t slot) {
                SeedQueryResult& result = (*results)[chain];
                la::ExtractColumn(x, slot, &result.x);
                la::ExtractColumn(z, slot, &result.z);
              });
  std::int64_t iterations = 0;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    SeedQueryResult& result = (*results)[s];
    result.iterations = engine_.residuals(s).size();
    result.converged = engine_.converged(s);
    iterations += static_cast<std::int64_t>(result.iterations);
  }
  obs::IncrCounter("serve.query.iterations", iterations);
}

}  // namespace tmark::serve
