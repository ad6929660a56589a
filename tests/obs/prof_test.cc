#include "tmark/obs/prof.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "tmark/parallel/parallel_for.h"
#include "tmark/parallel/thread_pool.h"

namespace tmark::obs::prof {
namespace {

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::Instance().set_enabled(false);
    Profiler::Instance().Reset();
  }
  void TearDown() override {
    Profiler::Instance().set_enabled(false);
    Profiler::Instance().Reset();
    parallel::SetNumThreads(0);
  }
};

const RegionTotals* FindRegion(const ProfileSnapshot& snapshot,
                               const std::string& name) {
  for (const RegionTotals& region : snapshot.regions) {
    if (region.name == name) return &region;
  }
  return nullptr;
}

TEST_F(ProfTest, CounterNamesAreStable) {
  EXPECT_EQ(CounterName(0), "cycles");
  EXPECT_EQ(CounterName(1), "instructions");
  EXPECT_EQ(CounterName(2), "llc_misses");
  EXPECT_EQ(CounterName(3), "branch_misses");
}

TEST_F(ProfTest, DisabledRegionIsInert) {
  {
    ProfRegion region("prof_test.inert");
    EXPECT_FALSE(region.active());
  }
  EXPECT_TRUE(Profiler::Instance().Snapshot().regions.empty());
}

TEST_F(ProfTest, EnabledRegionsAccumulateCallsAndTime) {
  Profiler::Instance().set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    TMARK_PROF_REGION("prof_test.outer");
    TMARK_PROF_REGION("prof_test.inner");
  }
  Profiler::Instance().set_enabled(false);

  const ProfileSnapshot snapshot = Profiler::Instance().Snapshot();
  const RegionTotals* outer = FindRegion(snapshot, "prof_test.outer");
  const RegionTotals* inner = FindRegion(snapshot, "prof_test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 3u);
  EXPECT_EQ(inner->calls, 3u);
  // The outer region encloses the inner one, so its wall time dominates.
  EXPECT_GE(outer->time_ns, inner->time_ns);
  EXPECT_GE(outer->time_ms(), 0.0);
}

TEST_F(ProfTest, SnapshotRegionsAreSortedByName) {
  Profiler::Instance().set_enabled(true);
  { TMARK_PROF_REGION("prof_test.zeta"); }
  { TMARK_PROF_REGION("prof_test.alpha"); }
  { TMARK_PROF_REGION("prof_test.mid"); }
  Profiler::Instance().set_enabled(false);

  const ProfileSnapshot snapshot = Profiler::Instance().Snapshot();
  ASSERT_GE(snapshot.regions.size(), 3u);
  for (std::size_t i = 1; i < snapshot.regions.size(); ++i) {
    EXPECT_LT(snapshot.regions[i - 1].name, snapshot.regions[i].name);
  }
}

TEST_F(ProfTest, ResetClearsAccumulatedRegions) {
  Profiler::Instance().set_enabled(true);
  { TMARK_PROF_REGION("prof_test.reset_me"); }
  Profiler::Instance().set_enabled(false);
  ASSERT_FALSE(Profiler::Instance().Snapshot().regions.empty());
  Profiler::Instance().Reset();
  EXPECT_TRUE(Profiler::Instance().Snapshot().regions.empty());
}

// The determinism contract of docs/OBSERVABILITY.md: all accumulators are
// integers merged in a fixed (ordinal, registration) order, so the merged
// snapshot is identical no matter how the OS schedules the workers. Runs
// under TMARK_SANITIZE=thread via the `sanitize` ctest label.
TEST_F(ProfTest, MergedCountsAreIdenticalAcrossThreadCounts) {
  constexpr std::size_t kItems = 64;
  std::vector<std::string> names[2];
  std::vector<std::uint64_t> calls[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    parallel::SetNumThreads(thread_counts[run]);
    Profiler::Instance().Reset();
    Profiler::Instance().set_enabled(true);
    parallel::ParallelForRanges(
        kItems, 1, [](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            TMARK_PROF_REGION("prof_test.parallel");
            if (i % 2 == 0) {
              TMARK_PROF_REGION("prof_test.parallel_even");
            }
          }
        });
    Profiler::Instance().set_enabled(false);
    const ProfileSnapshot snapshot = Profiler::Instance().Snapshot();
    for (const RegionTotals& region : snapshot.regions) {
      names[run].push_back(region.name);
      calls[run].push_back(region.calls);
    }
  }
  EXPECT_EQ(names[0], names[1]);
  EXPECT_EQ(calls[0], calls[1]);
  const ProfileSnapshot last = Profiler::Instance().Snapshot();
  const RegionTotals* all = FindRegion(last, "prof_test.parallel");
  const RegionTotals* even = FindRegion(last, "prof_test.parallel_even");
  ASSERT_NE(all, nullptr);
  ASSERT_NE(even, nullptr);
  EXPECT_EQ(all->calls, kItems);
  EXPECT_EQ(even->calls, kItems / 2);
}

TEST_F(ProfTest, SampleThreadCountersReturnsFalseWhenDisabled) {
  std::array<std::uint64_t, kNumCounters> out{};
  EXPECT_FALSE(SampleThreadCounters(&out));
}

TEST_F(ProfTest, CounterStatusIsTypedAndConsistent) {
  Profiler::Instance().set_enabled(true);
  const Status status = Profiler::Instance().counters_status();
  const ProfileSnapshot snapshot = Profiler::Instance().Snapshot();
  if (Profiler::Instance().counters_available()) {
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(snapshot.counters_available);
  } else {
    // Time-only fallback: the reason must be a typed, non-empty status
    // (e.g. perf_event_open refused), never a silent empty string.
    EXPECT_FALSE(status.ok());
    EXPECT_FALSE(snapshot.counters_available);
    EXPECT_FALSE(snapshot.counter_status.empty());
    EXPECT_EQ(snapshot.counter_status, status.ToString());
  }
}

TEST_F(ProfTest, MeasureDisabledRegionCostRestoresEnabledState) {
  const double cost_disabled = MeasureDisabledRegionCostNs(10'000);
  EXPECT_GT(cost_disabled, 0.0);
  EXPECT_FALSE(ProfilingEnabled());

  Profiler::Instance().set_enabled(true);
  const double cost_enabled_before = MeasureDisabledRegionCostNs(10'000);
  EXPECT_GT(cost_enabled_before, 0.0);
  // The measurement forces profiling off internally, then restores it.
  EXPECT_TRUE(ProfilingEnabled());
  // The probe regions ran disabled, so they accumulate nothing.
  EXPECT_EQ(FindRegion(Profiler::Instance().Snapshot(),
                       "obs.prof.overhead_probe"),
            nullptr);
}

// ---------------------------------------------------------------------------
// ComputeAttribution: exclusive-time math over a synthetic span forest.

SpanNode MakeSpan(std::string name, double start_ms, double duration_ms) {
  SpanNode node;
  node.name = std::move(name);
  node.start_ms = start_ms;
  node.duration_ms = duration_ms;
  return node;
}

const AttributionRow* FindRow(const std::vector<AttributionRow>& rows,
                              const std::string& name) {
  for (const AttributionRow& row : rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

TEST(AttributionTest, SelfTimeIsDurationMinusDirectChildren) {
  // root [0, 10ms): a [1, 5) and b [5, 8), b contains c [6, 7).
  SpanNode root = MakeSpan("root", 0.0, 10.0);
  root.children.push_back(MakeSpan("a", 1.0, 4.0));
  SpanNode b = MakeSpan("b", 5.0, 3.0);
  b.children.push_back(MakeSpan("c", 6.0, 1.0));
  root.children.push_back(std::move(b));

  const std::vector<AttributionRow> rows = ComputeAttribution({root});
  ASSERT_EQ(rows.size(), 4u);

  const AttributionRow* r = FindRow(rows, "root");
  const AttributionRow* a = FindRow(rows, "a");
  const AttributionRow* bb = FindRow(rows, "b");
  const AttributionRow* c = FindRow(rows, "c");
  ASSERT_NE(r, nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(bb, nullptr);
  ASSERT_NE(c, nullptr);

  EXPECT_DOUBLE_EQ(r->total_ms, 10.0);
  EXPECT_DOUBLE_EQ(r->self_ms, 3.0);  // 10 - (4 + 3)
  EXPECT_DOUBLE_EQ(a->total_ms, 4.0);
  EXPECT_DOUBLE_EQ(a->self_ms, 4.0);  // leaf
  EXPECT_DOUBLE_EQ(bb->total_ms, 3.0);
  EXPECT_DOUBLE_EQ(bb->self_ms, 2.0);  // 3 - 1
  EXPECT_DOUBLE_EQ(c->self_ms, 1.0);

  // Conservation: self times of all rows sum to the root duration.
  double self_sum = 0.0;
  for (const AttributionRow& row : rows) self_sum += row.self_ms;
  EXPECT_NEAR(self_sum, 10.0, 1e-9);

  // Sorted by descending self_ms: a(4) > root(3) > b(2) > c(1).
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_EQ(rows[1].name, "root");
  EXPECT_EQ(rows[2].name, "b");
  EXPECT_EQ(rows[3].name, "c");
}

TEST(AttributionTest, RepeatedNamesAggregateAcrossTheForest) {
  SpanNode first = MakeSpan("fit", 0.0, 2.0);
  first.children.push_back(MakeSpan("kernel", 0.0, 1.0));
  SpanNode second = MakeSpan("fit", 5.0, 4.0);
  second.children.push_back(MakeSpan("kernel", 5.0, 3.0));

  const std::vector<AttributionRow> rows =
      ComputeAttribution({first, second});
  const AttributionRow* fit = FindRow(rows, "fit");
  const AttributionRow* kernel = FindRow(rows, "kernel");
  ASSERT_NE(fit, nullptr);
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(fit->count, 2u);
  EXPECT_EQ(kernel->count, 2u);
  EXPECT_DOUBLE_EQ(fit->total_ms, 6.0);
  EXPECT_DOUBLE_EQ(fit->self_ms, 2.0);
  EXPECT_DOUBLE_EQ(kernel->total_ms, 4.0);
  EXPECT_DOUBLE_EQ(kernel->self_ms, 4.0);
}

TEST(AttributionTest, NegativeExclusiveTimeClampsToZero) {
  // Clock jitter can make a child's recorded duration exceed its parent's;
  // the exclusive time must clamp at zero rather than go negative.
  SpanNode parent = MakeSpan("parent", 0.0, 1.0);
  parent.children.push_back(MakeSpan("child", 0.0, 1.5));
  const std::vector<AttributionRow> rows = ComputeAttribution({parent});
  const AttributionRow* p = FindRow(rows, "parent");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->self_ms, 0.0);
}

TEST(AttributionTest, CounterColumnsFollowTheSameSplit) {
  SpanNode root = MakeSpan("root", 0.0, 10.0);
  root.has_counters = true;
  root.counters = {1000, 2000, 30, 40};
  SpanNode child = MakeSpan("child", 1.0, 4.0);
  child.has_counters = true;
  child.counters = {400, 800, 10, 15};
  root.children.push_back(std::move(child));

  const std::vector<AttributionRow> rows = ComputeAttribution({root});
  const AttributionRow* r = FindRow(rows, "root");
  const AttributionRow* c = FindRow(rows, "child");
  ASSERT_NE(r, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(r->has_counters);
  EXPECT_TRUE(c->has_counters);
  EXPECT_EQ(r->total_counters[0], 1000u);
  EXPECT_EQ(r->self_counters[0], 600u);  // 1000 - 400
  EXPECT_EQ(r->self_counters[3], 25u);   // 40 - 15
  EXPECT_EQ(c->total_counters[1], 800u);
  EXPECT_EQ(c->self_counters[1], 800u);  // leaf
}

TEST(AttributionTest, MissingChildCountersDropTheParentCounterColumns) {
  SpanNode root = MakeSpan("root", 0.0, 10.0);
  root.has_counters = true;
  root.counters = {1000, 2000, 30, 40};
  root.children.push_back(MakeSpan("child", 1.0, 4.0));  // no counters

  const std::vector<AttributionRow> rows = ComputeAttribution({root});
  const AttributionRow* r = FindRow(rows, "root");
  ASSERT_NE(r, nullptr);
  // Exclusive counters cannot be computed without the child's deltas, so
  // the row reports time only.
  EXPECT_FALSE(r->has_counters);
}

TEST(AttributionTest, EmptyForestYieldsNoRows) {
  EXPECT_TRUE(ComputeAttribution({}).empty());
}

}  // namespace
}  // namespace tmark::obs::prof
