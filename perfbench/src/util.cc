#include "util.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tmark/obs/mem.h"

namespace perfbench {

double NowMs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  const tmark::Result<std::uint64_t> bytes = tmark::obs::ReadPeakRssBytes();
  if (!bytes.ok()) return -1.0;
  return static_cast<double>(*bytes) / (1024.0 * 1024.0);
}

double PidCpuMs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  if (!std::getline(in, text)) return -1.0;
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (utime + stime) * 1e3 / tick;
}

double PidPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = -1.0;
      in >> kb;
      return kb < 0.0 ? -1.0 : kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return -1.0;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already inside user, so it is left out of the total.
  double value = 0.0;
  for (int i = 0; i < 8 && in >> value; ++i) {
    out.total += value;
    if (i == 7) out.steal = value;
  }
  return out;
}

double StealPct(const CpuJiffies& before, const CpuJiffies& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? 100.0 * (after.steal - before.steal) / total : 0.0;
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected --flag value, got '" + key + "'");
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Flags::Get(const std::string& key,
                       const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::string Flags::Require(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
    throw std::runtime_error("bad number for --" + key);
  }
  return v;
}

long long Flags::GetInt(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::runtime_error("bad integer for --" + key);
  }
  return v;
}

std::vector<std::string> SplitString(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, sep)) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumberArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += FormatNumber(values[i]);
  }
  return out + "]";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  return Raw(key, FormatNumber(value));
}

JsonObject& JsonObject::Int(const std::string& key, long long value) {
  return Raw(key, std::to_string(value));
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonString(value));
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ",";
  body_ += JsonString(key) + ":" + json;
  return *this;
}

std::string JsonObject::Text() const { return "{" + body_ + "}"; }

std::string SpansJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",";
    out += JsonObject()
               .Str("name", s.name)
               .Num("start_ms", s.start_ms)
               .Num("end_ms", s.end_ms)
               .Int("parent", s.parent)
               .Str("id", s.id)
               .Text();
  }
  return out + "]";
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ms - spans[i].start_ms;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.end_ms - s.start_ms;
  }
  return self;
}

double HistogramSum(const tmark::obs::MetricsSnapshot& snap,
                    const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return h.sum;
  }
  return 0.0;
}

double GaugeValue(const tmark::obs::MetricsSnapshot& snap,
                  const std::string& name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

}  // namespace perfbench
