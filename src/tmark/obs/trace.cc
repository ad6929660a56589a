#include "tmark/obs/trace.h"

#include <sstream>

#include "tmark/obs/prof.h"

namespace tmark::obs {
namespace {

// Innermost active span of this thread (children attach to it on close).
thread_local TraceSpan* g_current_span = nullptr;

// ~TraceSpan needs the open/close bookkeeping in one place.
struct SpanStack {
  static TraceSpan* Swap(TraceSpan* next) {
    TraceSpan* prev = g_current_span;
    g_current_span = next;
    return prev;
  }
};

}  // namespace

std::string_view SpanCounterName(std::size_t index) {
  return prof::CounterName(index);
}

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer;  // never destroyed (exit-safe)
  return *tracer;
}

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             Stopwatch::Clock::now() - epoch_)
      .count();
}

std::vector<SpanNode> Tracer::TakeFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanNode> out = std::move(finished_);
  finished_.clear();
  return out;
}

std::vector<SpanNode> Tracer::FinishedCopy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_.clear();
}

void Tracer::AddFinished(SpanNode node) {
  std::lock_guard<std::mutex> lock(mu_);
  finished_.push_back(std::move(node));
}

TraceSpan::TraceSpan(std::string_view name) {
  Tracer& tracer = Tracer::Instance();
  if (!tracer.enabled()) return;
  active_ = true;
  node_.name = std::string(name);
  SampleCountersAtOpen();
  node_.start_ms = tracer.NowMs();
  parent_ = SpanStack::Swap(this);
}

void TraceSpan::SampleCountersAtOpen() {
  static_assert(kSpanCounters == prof::kNumCounters,
                "SpanNode counter slots must match the profiler's");
  counters_active_ = prof::SampleThreadCounters(&counters_begin_);
}

void TraceSpan::SampleCountersAtClose() {
  if (!counters_active_) return;
  std::array<std::uint64_t, kSpanCounters> end_counters;
  if (!prof::SampleThreadCounters(&end_counters)) return;
  node_.has_counters = true;
  for (std::size_t i = 0; i < kSpanCounters; ++i) {
    node_.counters[i] = end_counters[i] >= counters_begin_[i]
                            ? end_counters[i] - counters_begin_[i]
                            : 0;
  }
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  node_.duration_ms = Tracer::Instance().NowMs() - node_.start_ms;
  SampleCountersAtClose();
  SpanStack::Swap(parent_);
  if (parent_ != nullptr) {
    parent_->node_.children.push_back(std::move(node_));
  } else {
    Tracer::Instance().AddFinished(std::move(node_));
  }
}

void TraceSpan::AddField(std::string_view key, std::string_view value) {
  if (!active_) return;
  node_.fields.emplace_back(std::string(key), std::string(value));
}

void TraceSpan::AddField(std::string_view key, double value) {
  if (!active_) return;
  std::ostringstream os;
  os << value;
  node_.fields.emplace_back(std::string(key), os.str());
}

void TraceSpan::AddField(std::string_view key, std::size_t value) {
  if (!active_) return;
  node_.fields.emplace_back(std::string(key), std::to_string(value));
}

}  // namespace tmark::obs
