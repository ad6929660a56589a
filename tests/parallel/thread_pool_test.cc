// Unit tests for the tmark::parallel subsystem: task coverage, exception
// propagation, nested-call safety, empty/single-element ranges, and the
// determinism of the fixed-chunk partitioning across thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "tmark/common/random.h"
#include "tmark/parallel/parallel_for.h"
#include "tmark/parallel/thread_pool.h"

namespace tmark::parallel {
namespace {

// Restores the default thread count when a test overrides it.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetNumThreads(0); }
};

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 257;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.Run(kTasks, [&](std::size_t t) { hits[t].fetch_add(1); });
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(ThreadPoolTest, ZeroAndOneTaskBatches) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.Run(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.Run(1, [&](std::size_t t) {
    EXPECT_EQ(t, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  pool.Run(16, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.Run(64,
                        [](std::size_t t) {
                          if (t % 7 == 3) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  std::atomic<int> total{0};
  pool.Run(16, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPoolTest, NestedRunsExecuteInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.Run(8, [&](std::size_t) {
    pool.Run(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ParseThreadCountTest, AcceptsOnlyPositiveIntegers) {
  EXPECT_EQ(ParseThreadCount(nullptr), 0u);
  EXPECT_EQ(ParseThreadCount(""), 0u);
  EXPECT_EQ(ParseThreadCount("abc"), 0u);
  EXPECT_EQ(ParseThreadCount("-3"), 0u);
  EXPECT_EQ(ParseThreadCount("3x"), 0u);
  EXPECT_EQ(ParseThreadCount("0"), 0u);
  EXPECT_EQ(ParseThreadCount("8"), 8u);
  EXPECT_EQ(ParseThreadCount("999999999999"), kMaxConfigurableThreads);
}

TEST(NumThreadsTest, SetAndRestoreDefault) {
  ThreadCountGuard guard;
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3u);
  EXPECT_EQ(GlobalPool().num_threads(), 3u);
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1u);
}

TEST(NumFixedChunksTest, EdgesAndCap) {
  EXPECT_EQ(NumFixedChunks(0, 64), 0u);
  EXPECT_EQ(NumFixedChunks(1, 64), 1u);
  EXPECT_EQ(NumFixedChunks(64, 64), 1u);
  EXPECT_EQ(NumFixedChunks(65, 64), 2u);
  EXPECT_EQ(NumFixedChunks(1000000, 1), kDefaultMaxChunks);
  EXPECT_EQ(NumFixedChunks(1000000, 1, 16), 16u);
}

TEST(ParallelForTest, CoversEveryIndexOnce) {
  ThreadCountGuard guard;
  SetNumThreads(4);
  constexpr std::size_t kCount = 10000;
  std::vector<int> hits(kCount, 0);
  ParallelForRanges(kCount, /*grain=*/128,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
                    });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i], 1);
}

TEST(ParallelForTest, EmptyAndSingleElementRanges) {
  std::size_t calls = 0;
  ParallelForRanges(1, 1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
  ParallelForRanges(0, 64, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelReduceTest, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // Values whose sum is order-sensitive in floating point.
  Rng rng(123);
  std::vector<double> values(50000);
  for (double& v : values) v = rng.Uniform() * 1e6 - 5e5;
  auto sum = [&] {
    return ParallelReduce(
        values.size(), /*grain=*/1024, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  SetNumThreads(1);
  const double serial = sum();
  SetNumThreads(8);
  const double parallel8 = sum();
  SetNumThreads(3);
  const double parallel3 = sum();
  // Exact equality: the chunk layout is a function of size/grain only.
  EXPECT_EQ(serial, parallel8);
  EXPECT_EQ(serial, parallel3);
}

}  // namespace
}  // namespace tmark::parallel
