#ifndef TMARK_CORE_TMARK_H_
#define TMARK_CORE_TMARK_H_

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "tmark/common/status.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/hin/classifier.h"
#include "tmark/hin/feature_similarity.h"
#include "tmark/hin/similarity_kernel.h"
#include "tmark/hin/hin.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/vector_ops.h"
#include "tmark/tensor/transition_tensors.h"

namespace tmark::core {

/// Hyper-parameters of Algorithm 1.
struct TMarkConfig {
  /// Restart weight alpha in (0, 1): probability of returning to the label
  /// distribution each step. Paper default 0.8 on DBLP, 0.9 elsewhere.
  double alpha = 0.8;
  /// Scale gamma in [0, 1] between relational and feature information;
  /// beta = gamma * (1 - alpha) is the weight of the feature walk W x.
  /// gamma = 0 uses only links, gamma = 1 only features.
  double gamma = 0.6;
  /// Relative confidence threshold lambda of the ICA update (Eq. 12): a node
  /// is accepted into the restart set when x_i > lambda * max(x).
  double lambda = 0.7;
  /// Convergence tolerance on rho_t = |x_t - x_{t-1}|_1 + |z_t - z_{t-1}|_1.
  double epsilon = 1e-8;
  int max_iterations = 100;
  /// Node-similarity kernel behind the feature walk W (Sec. 4.2). The
  /// paper uses cosine; the alternatives are ablated in
  /// bench_ablation_tmark.
  hin::SimilarityKernel similarity = hin::SimilarityKernel::kCosine;
  /// Enables the ICA label update between iterations. Disabling it recovers
  /// the ICDM'17 predecessor method (TensorRrCc), used as a baseline in
  /// every table of the paper.
  bool ica_update = true;

  /// The feature-walk weight beta = gamma * (1 - alpha) (Sec. 4.4).
  double beta() const { return gamma * (1.0 - alpha); }
};

/// Per-class convergence trace (residual rho per iteration — Fig. 10).
struct ConvergenceTrace {
  std::size_t class_index = 0;
  std::vector<double> residuals;
  bool converged = false;
};

/// Geometric-mean estimate of the contraction rate rho_{t+1}/rho_t over the
/// tail of `residuals` (up to the last 8 consecutive positive ratios). The
/// contraction-mapping theorems (Theorems 1-3) guarantee this rate is below
/// 1 for valid alpha/beta, which is what makes the prediction below sound.
/// Returns 0 when fewer than two positive residuals exist.
double EstimateContractionRate(const std::vector<double>& residuals);

/// Predicted number of further iterations until the residual drops below
/// `epsilon`, extrapolating geometrically from the last residual at `rate`:
/// ceil(log(epsilon / rho_last) / log(rate)). Returns 0 when the trace
/// already ends below tolerance, and -1 when no finite prediction exists
/// (rate outside (0, 1) or no positive residual).
double PredictIterationsToTolerance(const std::vector<double>& residuals,
                                    double rate, double epsilon);

/// The T-Mark collective classifier (Algorithm 1).
///
/// For each class c the fixed-point iteration
///
///   x_t = (1 - alpha - beta) * (O x1 x_{t-1} x3 z_{t-1})
///         + beta * W x_{t-1} + alpha * l_c                       (Eq. 10)
///   z_t = R x1 x_t x2 x_t                                        (Eq. 8)
///
/// is run to stationarity, with the restart vector l_c refreshed by the ICA
/// rule (Eq. 12) from iteration 3 onward. All classes run as the columns of
/// one core::PanelFixedPoint. The stationary x vectors, stacked
/// over classes, are the classification confidences; the stationary z
/// vectors are the per-class relative importance of the link types.
class TMarkClassifier : public hin::CollectiveClassifier {
 public:
  explicit TMarkClassifier(TMarkConfig config = {});

  void Fit(const hin::Hin& hin,
           const std::vector<std::size_t>& labeled) override;

  /// Fit against operators the caller prepared (and possibly shares across
  /// classifiers); skips both the fingerprint check and any rebuild. `ops`
  /// must have been built from `hin` with this classifier's similarity
  /// kernel — shapes and kernel are checked, contents are trusted.
  void Fit(const hin::Hin& hin, const PreparedOperators& ops,
           const std::vector<std::size_t>& labeled);

  /// Pins shared prepared operators (e.g. from an OperatorCache) for
  /// subsequent Fit/Refit calls: they are used whenever their fingerprint
  /// still matches the HIN being fitted, and dropped otherwise.
  void SetPreparedOperators(std::shared_ptr<const PreparedOperators> ops);

  /// The operators the last Fit used (also populated by the internal
  /// fingerprint cache); null before the first fit.
  const std::shared_ptr<const PreparedOperators>& prepared_operators() const {
    return prepared_;
  }

  /// Incremental mode: re-runs Algorithm 1 initialized from the previous
  /// stationary distributions instead of the label vectors. After modest
  /// changes to the HIN (new edges, extra labels) the chain starts near its
  /// fixed point and reaches the same unique solution (Theorem 3). With
  /// ica_update off it converges in a fraction of the cold-start iterations.
  /// With it on, the first two iterations restart from the raw label vectors
  /// (the ICA refresh starts at iteration 3), which pulls x off the fixed
  /// point, so a warm run can take as many iterations as a cold one. Falls
  /// back to a cold Fit when no compatible previous state exists.
  void Refit(const hin::Hin& hin, const std::vector<std::size_t>& labeled);

  /// Incremental update, the fast path of docs/PERFORMANCE.md "Incremental
  /// updates": validates and applies `delta` to `hin` (Hin::ApplyDelta),
  /// patches the cached prepared operators in place instead of rebuilding
  /// them (copy-on-write when the bundle is shared with other holders), and
  /// re-runs the fixed point warm-started from the previous stationary
  /// panels. Warm starts put each class's chain at distance ~||delta|| from
  /// its fixed point, so the engine's per-column residual check retires
  /// columns the delta did not perturb after their first iteration.
  /// Label-only deltas skip the operator patch entirely — labels do not
  /// enter O/R/W, so a single post-mutation fingerprint both validates the
  /// held bundle and keeps it honest — which is why label waves see the
  /// largest end-to-end speedups (bench_perf_updates).
  /// Label-only deltas additionally compute *retirement hints*: a class
  /// whose restart vector provably cannot have moved (no label it reads
  /// changed, and any node joining the training set was neither the
  /// ICA-confidence maximum nor above the acceptance cutoff at the previous
  /// stationary point) keeps its previous stationary column outright and
  /// never enters the iteration loop ("update.hinted_classes").
  /// On a validation error the network, operators, and model state are all
  /// unchanged. The end-to-end path is timed as "update.total_ms"; the
  /// operator patch records "update.{edges,rows_touched}".
  Status Update(hin::Hin* hin, const hin::HinDelta& delta,
                const std::vector<std::size_t>& labeled);

  /// n x q stationary node probabilities; column c is x-bar for class c.
  const la::DenseMatrix& Confidences() const override;

  std::string Name() const override { return "T-Mark"; }

  /// m x q stationary relation probabilities; column c is z-bar for class c.
  const la::DenseMatrix& LinkImportance() const;

  /// Relation indices sorted by decreasing importance for class c.
  std::vector<std::size_t> RankRelationsForClass(std::size_t c) const;

  /// Per-class residual traces of the last Fit (Fig. 10 data).
  const std::vector<ConvergenceTrace>& Traces() const { return traces_; }

  const TMarkConfig& config() const { return config_; }

 protected:
  TMarkConfig config_;

 private:
  // Model deserialization restores the stationary matrices directly.
  friend Result<TMarkClassifier> LoadTMarkModel(std::istream& in);

  /// Shared implementation of Fit/Refit/Update: resolves the operators,
  /// then runs one core::PanelFixedPoint chain per class not settled by
  /// retirement hints. `warm_start` seeds each chain from the previous
  /// stationary columns; `external_ops` (optional) bypasses the internal
  /// operator cache.
  void FitInternal(const hin::Hin& hin,
                   const std::vector<std::size_t>& labeled, bool warm_start,
                   const PreparedOperators* external_ops);

  /// Delta-aware retirement hints (Update, label-only deltas): fills
  /// retire_hints_ with one flag per class, true when the class's previous
  /// stationary solution is provably still stationary after `delta`.
  /// Conservative — any doubt (unconverged previous trace, shrunk training
  /// set, a joined node near the ICA cutoff) clears the flag or abandons
  /// the hints entirely.
  void ComputeRetireHints(const hin::Hin& hin, const hin::HinDelta& delta,
                          const std::vector<std::size_t>& labeled);

  la::DenseMatrix confidences_;      ///< n x q.
  la::DenseMatrix link_importance_;  ///< m x q.
  std::vector<ConvergenceTrace> traces_;
  /// Fingerprint-checked operator cache: reused by FitInternal while the
  /// HIN content is unchanged, rebuilt (and replaced) when it is not.
  std::shared_ptr<const PreparedOperators> prepared_;
  /// One-shot retirement hints for the next FitInternal (set by Update,
  /// consumed — and cleared — by the next fit). Empty means no hints.
  std::vector<bool> retire_hints_;
  /// The training set of the last fit, sorted; the hints above are only
  /// valid against a training set that grew from this one.
  std::vector<std::size_t> last_labeled_;
};

}  // namespace tmark::core

#endif  // TMARK_CORE_TMARK_H_
