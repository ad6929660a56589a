// Bundle hot-swap pins (serve/bundle.h + serve/daemon.h): while a
// background update refreshes the classifier, concurrent queries must
// never observe a torn bundle — every response carries a (generation,
// fingerprint) pair that matches exactly one published bundle, stale
// responses only ever carry the pre-swap generation, and the post-swap
// fingerprint equals a from-scratch operator rebuild on the mutated
// network (fingerprint honesty, docs/SERVING.md). Runs at 1 and 4 client
// threads under the `sanitize` ctest label so TSan covers the
// Acquire/Publish handoff.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "tmark/common/status.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/hin.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/serve/bundle.h"
#include "tmark/serve/daemon.h"
#include "tmark/serve/protocol.h"

namespace tmark::serve {
namespace {

hin::Hin MakeTestHin() {
  datasets::SyntheticHinConfig config;
  config.num_nodes = 150;
  config.class_names = {"A", "B", "C"};
  config.relations = {{"r0", 0.85, 0.0, 3.0, {}, false},
                      {"r1", 0.6, 0.2, 2.0, {}, true}};
  config.seed = 99;
  return datasets::GenerateSyntheticHin(config);
}

std::vector<std::size_t> EveryThirdLabeled(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) {
    if (!hin.labels(i).empty()) labeled.push_back(i);
  }
  return labeled;
}

/// A feature-row replacement: always applicable, and it perturbs W, so the
/// operator fingerprint must change across the swap.
hin::HinDelta MakeFeatureDelta(const hin::Hin& hin) {
  EXPECT_GE(hin.feature_dim(), 2u);
  hin::HinDelta delta;
  delta.UpdateFeatureRow(4, {{0, 1.5}, {1, 0.25}});
  delta.UpdateFeatureRow(9, {{1, 2.0}});
  return delta;
}

class HotSwapTest : public ::testing::TestWithParam<int> {};

TEST_P(HotSwapTest, ConcurrentQueriesNeverSeeATornBundle) {
  const int num_clients = GetParam();
  hin::Hin hin = MakeTestHin();
  const hin::HinDelta delta = MakeFeatureDelta(hin);

  // From-scratch reference: what the operators of the mutated network
  // fingerprint to, computed on an independent copy.
  hin::Hin reference = MakeTestHin();
  ASSERT_TRUE(reference.ApplyDelta(delta).ok());
  const std::uint64_t expected_fingerprint =
      core::FingerprintOperators(reference, hin::SimilarityKernel::kCosine);

  DaemonOptions options;
  ServingDaemon daemon(std::move(hin), EveryThirdLabeled(MakeTestHin()),
                       options);
  ASSERT_TRUE(daemon.Init().ok());
  const std::uint64_t fingerprint_before =
      daemon.bundles().Acquire().bundle->fingerprint;
  ASSERT_NE(fingerprint_before, expected_fingerprint)
      << "delta does not perturb the operators; the swap pin is vacuous";

  struct Observation {
    std::uint64_t generation;
    std::uint64_t fingerprint;
    bool stale;
  };
  std::vector<std::vector<Observation>> seen(num_clients);
  std::atomic<bool> done{false};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < num_clients; ++t) {
    clients.emplace_back([&, t] {
      std::size_t node = static_cast<std::size_t>(t) * 7;
      bool first = true;
      while (!done.load(std::memory_order_relaxed)) {
        Request request;
        request.kind = RequestKind::kClassify;
        request.node = node % 150;
        node += 13;
        const Result<Response> response = daemon.Execute(request);
        if (first) {
          first = false;
          answered.fetch_add(1);
        }
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        seen[t].push_back(
            {response->generation, response->fingerprint, response->stale});
      }
    });
  }

  // Every client gets one answer before the update starts, so generation 1
  // is observed however the threads are scheduled; otherwise a refresh
  // that finishes before a lone client's first query leaves nothing to
  // check on the pre-swap side.
  while (answered.load() < num_clients) std::this_thread::yield();
  ASSERT_TRUE(daemon.BeginUpdate(delta).ok());
  const Status update = daemon.WaitForUpdate();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();
  ASSERT_TRUE(update.ok()) << update.ToString();

  // Fingerprint honesty: the swapped-in bundle is stamped exactly like a
  // from-scratch rebuild on the mutated network.
  const BundleHolder::View after = daemon.bundles().Acquire();
  EXPECT_FALSE(after.stale);
  EXPECT_EQ(after.bundle->generation, 2u);
  EXPECT_EQ(after.bundle->fingerprint, expected_fingerprint);
  EXPECT_EQ(after.bundle->fingerprint, after.bundle->ops->fingerprint());

  // Never a torn bundle: each observed generation maps to exactly one
  // fingerprint, and both map to a published bundle.
  std::map<std::uint64_t, std::uint64_t> generation_to_fingerprint;
  for (const std::vector<Observation>& per_client : seen) {
    for (const Observation& obs : per_client) {
      const auto [it, inserted] =
          generation_to_fingerprint.emplace(obs.generation, obs.fingerprint);
      EXPECT_EQ(it->second, obs.fingerprint)
          << "generation " << obs.generation << " served two fingerprints";
      // Degradation: stale answers only ever come from the pre-swap
      // generation — a freshly published bundle is by definition not stale.
      if (obs.stale) EXPECT_EQ(obs.generation, 1u);
      EXPECT_TRUE(obs.generation == 1u || obs.generation == 2u);
    }
  }
  ASSERT_TRUE(generation_to_fingerprint.count(1));
  EXPECT_EQ(generation_to_fingerprint[1], fingerprint_before);
  if (generation_to_fingerprint.count(2)) {
    EXPECT_EQ(generation_to_fingerprint[2], expected_fingerprint);
  }
}

INSTANTIATE_TEST_SUITE_P(Clients, HotSwapTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "_threads";
                         });

// The `update` verb's own response is deterministically stale: BeginUpdate
// opens the refresh window and takes the response's view before the
// refresh thread starts, so the client that triggered the refresh is
// always told the answer describes the generation about to be replaced,
// however fast the refresh publishes.
TEST(HotSwapTest, UpdateVerbAnswersStaleWithThePreSwapGeneration) {
  hin::Hin hin = MakeTestHin();
  const hin::HinDelta delta = MakeFeatureDelta(hin);
  const std::string path =
      std::string(::testing::TempDir()) + "/hot_swap_feature." +
      std::to_string(::getpid()) + ".delta";  // Own file per process.
  ASSERT_TRUE(hin::SaveHinDeltaToFile(delta, path).ok());

  DaemonOptions options;
  ServingDaemon daemon(std::move(hin), EveryThirdLabeled(MakeTestHin()),
                       options);
  ASSERT_TRUE(daemon.Init().ok());
  const std::uint64_t fingerprint_before =
      daemon.bundles().Acquire().bundle->fingerprint;

  Request request;
  request.kind = RequestKind::kUpdate;
  request.path = path;
  const Result<Response> ack = daemon.Execute(request);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_TRUE(ack->stale);
  EXPECT_EQ(ack->generation, 1u);
  EXPECT_EQ(ack->fingerprint, fingerprint_before);

  ASSERT_TRUE(daemon.WaitForUpdate().ok());
  Request classify;
  classify.kind = RequestKind::kClassify;
  classify.node = 0;
  const Result<Response> fresh = daemon.Execute(classify);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->stale);
  EXPECT_EQ(fresh->generation, 2u);
  EXPECT_NE(fresh->fingerprint, fingerprint_before);
}

// A delta that fails validation must be refused synchronously with its
// typed status, close the refresh window, and leave the current bundle
// authoritative (and not stale).
TEST(HotSwapTest, FailedUpdateAbortsTheRefreshWindow) {
  hin::Hin hin = MakeTestHin();
  DaemonOptions options;
  ServingDaemon daemon(std::move(hin), EveryThirdLabeled(MakeTestHin()),
                       options);
  ASSERT_TRUE(daemon.Init().ok());

  hin::HinDelta bad;
  bad.AddLabel(0, 999);  // class id out of range
  const Status refused = daemon.BeginUpdate(bad).status();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(daemon.bundles().refreshing());

  Request classify;
  classify.kind = RequestKind::kClassify;
  classify.node = 3;
  const Result<Response> response = daemon.Execute(classify);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->stale);
  EXPECT_EQ(response->generation, 1u);
}

}  // namespace
}  // namespace tmark::serve
