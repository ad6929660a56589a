#ifndef TMARK_OBS_TRACE_H_
#define TMARK_OBS_TRACE_H_

// RAII trace spans and scoped timers.
//
// TraceSpan builds a per-thread span tree: spans opened while another span
// of the same thread is alive become its children; finished root spans are
// collected by the process-global Tracer and can be exported as JSON
// (json_export.h). Like the metrics registry, tracing is compiled in but
// disabled by default — an inactive span costs one atomic load + branch.
//
// ScopedTimer measures wall-clock between construction and destruction and
// feeds the duration (milliseconds) into a registry histogram; it is active
// only while the metrics registry is enabled.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tmark/obs/metrics.h"

namespace tmark::obs {

/// Minimal monotonic stopwatch.
class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;

  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  Clock::time_point start_;
};

/// Hardware counters a span can carry, in export order. Mirrors
/// obs::prof::kNumCounters (static_assert'd in prof.h); names come from
/// SpanCounterName().
inline constexpr std::size_t kSpanCounters = 4;

/// "cycles", "instructions", "llc_misses", "branch_misses".
std::string_view SpanCounterName(std::size_t index);

/// One finished span: name, timing, key=value fields, nested children, and
/// (when the profiler's hardware counters are available) counter deltas
/// over the span's lifetime.
struct SpanNode {
  std::string name;
  double start_ms = 0.0;     ///< Offset from the tracer epoch.
  double duration_ms = 0.0;
  bool has_counters = false;
  std::array<std::uint64_t, kSpanCounters> counters{};
  std::vector<std::pair<std::string, std::string>> fields;
  std::vector<SpanNode> children;
};

/// Process-global collector of finished root spans.
class Tracer {
 public:
  static Tracer& Instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Toggle only between fits/requests: spans already open keep the
  /// activity state they were constructed with.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Milliseconds since the tracer singleton was created.
  double NowMs() const;

  /// Moves the finished root spans out (oldest first).
  std::vector<SpanNode> TakeFinished();

  /// Copies the finished root spans without draining them.
  std::vector<SpanNode> FinishedCopy() const;

  /// Drops all finished spans (tests, and between bench tables).
  void Reset();

  /// Internal: called by ~TraceSpan for spans with no active parent.
  void AddFinished(SpanNode node);

 private:
  Tracer() : epoch_(Stopwatch::Clock::now()) {}

  std::atomic<bool> enabled_{false};
  const Stopwatch::Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanNode> finished_;
};

inline bool TracingEnabled() { return Tracer::Instance().enabled(); }

/// RAII span. Construction opens the span (when tracing is enabled) and
/// nests it under the innermost active span of the current thread;
/// destruction stamps the duration and attaches it to its parent, or hands
/// it to the Tracer when it is a root.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);

  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }

  void AddField(std::string_view key, std::string_view value);
  void AddField(std::string_view key, const char* value) {
    AddField(key, std::string_view(value));
  }
  void AddField(std::string_view key, double value);
  void AddField(std::string_view key, std::size_t value);
  void AddField(std::string_view key, bool value) {
    AddField(key, std::string_view(value ? "true" : "false"));
  }

 private:
  void SampleCountersAtOpen();
  void SampleCountersAtClose();

  bool active_ = false;
  bool counters_active_ = false;  ///< Hardware counters sampled at open.
  TraceSpan* parent_ = nullptr;  ///< Innermost active span at open time.
  std::array<std::uint64_t, kSpanCounters> counters_begin_{};
  SpanNode node_;
};

/// RAII wall-clock timer feeding `histogram_name` (milliseconds). The name
/// must outlive the timer — pass a string literal or a string that lives
/// across the timed scope. The clock is read only when the timer is active,
/// so an inactive timer costs a branch, not a syscall.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view histogram_name)
      : ScopedTimer(histogram_name, MetricsEnabled()) {}

  /// Caller-gated form for hot loops: hoist MetricsEnabled() out of the
  /// loop and pass it here, so the disabled path pays one predictable
  /// branch per timer instead of an atomic load plus two clock reads.
  ScopedTimer(std::string_view histogram_name, bool active)
      : active_(active), name_(histogram_name) {
    if (active_) start_ = Stopwatch::Clock::now();
  }

  ~ScopedTimer() {
    if (active_) {
      ObserveHistogram(name_, std::chrono::duration<double, std::milli>(
                                  Stopwatch::Clock::now() - start_)
                                  .count());
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool active_;
  std::string_view name_;
  Stopwatch::Clock::time_point start_;
};

}  // namespace tmark::obs

#endif  // TMARK_OBS_TRACE_H_
