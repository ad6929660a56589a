#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Small helpers shared by the perfbench subcommands: clocks, process
// resource readings, flag parsing, a flat JSON writer, and spans.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tmark/obs/metrics.h"

namespace perfbench {

/// Monotonic wall clock in milliseconds (CLOCK_MONOTONIC, shared by every
/// process on the host, so two processes' stamps are comparable).
double NowMs();

/// User + system CPU of the calling process, in milliseconds.
double ProcessCpuMs();

/// VmHWM of the calling process in MB; -1 when /proc is unreadable.
double PeakRssMb();

/// User + system CPU of process `pid` in milliseconds (/proc/<pid>/stat);
/// -1 when unreadable.
double PidCpuMs(int pid);

/// VmHWM of process `pid` in MB; -1 when unreadable.
double PidPeakRssMb(int pid);

/// Steal and total jiffies summed over all CPUs (/proc/stat first line).
struct CpuJiffies {
  double steal = 0.0;
  double total = 0.0;
};
CpuJiffies ReadCpuJiffies();

/// Share of all CPU time between two readings that the host stole, in %.
double StealPct(const CpuJiffies& before, const CpuJiffies& after);

/// Size of a file in bytes; 0 when it cannot be stat'ed.
std::uint64_t FileBytes(const std::string& path);

/// `--key value` pairs after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Get(const std::string& key, const std::string& fallback) const;
  std::string Require(const std::string& key) const;
  double GetDouble(const std::string& key, double fallback) const;
  long long GetInt(const std::string& key, long long fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> SplitString(const std::string& text, char sep);

/// Value at quantile q in [0, 1] (nearest rank); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Flat JSON object writer: numbers keep all their digits (%.17g).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, long long value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  /// `json` must already be valid JSON text.
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Text() const;

 private:
  std::string body_;
};

std::string JsonString(const std::string& text);
std::string JsonNumberArray(const std::vector<double>& values);

/// One timed region recorded by the benchmark around a call into a layer.
/// `parent` indexes the enclosing span in the same list (-1 for a root).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::string id;  ///< Job or request id the span belongs to.
};

std::string SpansJson(const std::vector<Span>& spans);

/// Self time of every span: its duration minus the part its children
/// cover (children of one parent never overlap here).
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// Registry readings (0 when the metric is absent).
double HistogramSum(const tmark::obs::MetricsSnapshot& snap,
                    const std::string& name);
double GaugeValue(const tmark::obs::MetricsSnapshot& snap,
                  const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
