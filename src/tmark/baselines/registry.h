#ifndef TMARK_BASELINES_REGISTRY_H_
#define TMARK_BASELINES_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "tmark/hin/classifier.h"

namespace tmark::baselines {

/// Creates a classifier by its paper name. Recognized names:
/// "T-Mark", "TensorRrCc", "GI", "HN", "Hcc", "Hcc-ss", "wvRN+RL", "EMR",
/// "ICA", plus three extension baselines from the paper's related work
/// that are not in its comparison tables: "ZooBP" (linearized heterogeneous
/// belief propagation), "RankClass" (ranking-based classification) and
/// "GNetMine" (graph-regularized transduction). Throws CheckError on an
/// unknown name.
///
/// `alpha`, `gamma` and `lambda` configure the T-Mark family (ignored by
/// the baselines); the defaults are the paper's DBLP settings. `lambda` is
/// the ICA acceptance threshold — like alpha it is tuned per dataset
/// (lambda -> 1 disables acceptance, recovering TensorRrCc behaviour).
std::unique_ptr<hin::CollectiveClassifier> MakeClassifier(
    const std::string& name, double alpha = 0.8, double gamma = 0.6,
    double lambda = 0.7);

/// Non-throwing variant for untrusted method names (CLI flags, request
/// parameters): returns nullptr on an unknown name instead of throwing.
std::unique_ptr<hin::CollectiveClassifier> TryMakeClassifier(
    const std::string& name, double alpha = 0.8, double gamma = 0.6,
    double lambda = 0.7);

/// The paper's method column order (Tables 3, 4, 11).
std::vector<std::string> PaperMethodNames();

}  // namespace tmark::baselines

#endif  // TMARK_BASELINES_REGISTRY_H_
