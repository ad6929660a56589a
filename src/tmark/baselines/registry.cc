#include "tmark/baselines/registry.h"

#include "tmark/baselines/emr.h"
#include "tmark/baselines/gnetmine.h"
#include "tmark/baselines/graph_inception.h"
#include "tmark/baselines/hcc.h"
#include "tmark/baselines/highway_net.h"
#include "tmark/baselines/ica.h"
#include "tmark/baselines/rankclass.h"
#include "tmark/baselines/wvrn_rl.h"
#include "tmark/baselines/zoobp.h"
#include "tmark/common/check.h"
#include "tmark/core/tensor_rrcc.h"
#include "tmark/core/tmark.h"

namespace tmark::baselines {

std::unique_ptr<hin::CollectiveClassifier> MakeClassifier(
    const std::string& name, double alpha, double gamma, double lambda) {
  std::unique_ptr<hin::CollectiveClassifier> clf =
      TryMakeClassifier(name, alpha, gamma, lambda);
  TMARK_CHECK_MSG(clf != nullptr, "unknown classifier name: " << name);
  return clf;
}

std::unique_ptr<hin::CollectiveClassifier> TryMakeClassifier(
    const std::string& name, double alpha, double gamma, double lambda) {
  if (name == "T-Mark") {
    core::TMarkConfig config;
    config.alpha = alpha;
    config.gamma = gamma;
    config.lambda = lambda;
    return std::make_unique<core::TMarkClassifier>(config);
  }
  if (name == "TensorRrCc") {
    core::TMarkConfig config;
    config.alpha = alpha;
    config.gamma = gamma;
    return std::make_unique<core::TensorRrCcClassifier>(config);
  }
  if (name == "GI") return std::make_unique<GraphInceptionClassifier>();
  if (name == "HN") return std::make_unique<HighwayNetClassifier>();
  if (name == "Hcc") return std::make_unique<HccClassifier>();
  if (name == "Hcc-ss") {
    HccConfig config;
    config.semi_supervised = true;
    return std::make_unique<HccClassifier>(config);
  }
  if (name == "wvRN+RL") return std::make_unique<WvrnRlClassifier>();
  if (name == "EMR") return std::make_unique<EmrClassifier>();
  if (name == "ICA") return std::make_unique<IcaClassifier>();
  if (name == "ZooBP") return std::make_unique<ZooBpClassifier>();
  if (name == "RankClass") return std::make_unique<RankClassClassifier>();
  if (name == "GNetMine") return std::make_unique<GNetMineClassifier>();
  return nullptr;
}

std::vector<std::string> PaperMethodNames() {
  return {"T-Mark", "TensorRrCc", "GI",      "HN", "Hcc",
          "Hcc-ss", "wvRN+RL",    "EMR",     "ICA"};
}

}  // namespace tmark::baselines
