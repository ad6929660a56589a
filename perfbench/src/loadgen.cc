// Open-loop load generator for tmark_served: one thread, a few Unix-socket
// connections, arrivals on a seeded schedule. Every request is timed from
// the moment it was due, so a stall that delays later sends shows up in
// their latency, and the generator's own lateness is reported on the side.
//
//   walk:   Poisson arrivals of bursts of rank/topk requests (50/50, k=10,
//           uniform seeds).
//   update: Poisson classify lookups plus one update per period; the next
//           update is sent only once the previous one is visible, because
//           an overlapping update is refused by design.

#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.h"
#include "tmark/serve/protocol.h"
#include "util.h"

namespace perfbench {
namespace {

// How long before a send the client stops sleeping and spins. With the
// timer slack at 1 ns a sleep ends within tens of microseconds of its
// deadline on an idle core.
constexpr double kSpinMs = 0.05;

// How long after a send the client keeps spinning while an answer is out,
// so it is awake when a lookup's answer (tens of microseconds) arrives and
// its own wake-up on a halted vCPU stays out of the measured latency.
// Longer answers (walks, updates) are waited for asleep.
constexpr double kReplySpinMs = 0.2;

// Share of the walks whose answers are written to --sample-out for the
// bit-for-bit gate.
constexpr double kSampleShare = 0.02;

enum Verb { kClassify = 0, kRank = 1, kTopK = 2, kUpdate = 3, kNumVerbs = 4 };
const char* const kVerbNames[kNumVerbs] = {"classify", "rank", "topk",
                                           "update"};

struct Record {
  double sched = 0.0;
  double send = 0.0;
  double recv = -1.0;
  Verb verb = kClassify;
  bool measured = false;  ///< Part of the open-loop phase.
  bool ok = false;
  bool stale = false;
  bool sampled = false;
  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;
  std::string code;
  std::string request;
  std::string response;  ///< Kept for sampled and classify-all answers.
};

struct Conn {
  int fd = -1;
  std::string in;
  std::deque<std::size_t> inflight;
};

class Client {
 public:
  Client(const std::string& socket_path, int connections) {
    for (int i = 0; i < connections; ++i) {
      conns_.push_back(Connect(socket_path));
    }
  }
  ~Client() { CloseAll(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void CloseAll() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

  std::vector<Record>& records() { return records_; }
  std::size_t inflight() const {
    std::size_t total = 0;
    for (const Conn& c : conns_) total += c.inflight.size();
    return total;
  }
  std::size_t conn_inflight(std::size_t i) const {
    return conns_[i].inflight.size();
  }

  /// Sends `request` on connection `conn` (least loaded when -1) and
  /// returns the record index.
  std::size_t Send(Record record, int conn = -1) {
    std::size_t target = 0;
    if (conn >= 0) {
      target = static_cast<std::size_t>(conn);
    } else {
      for (std::size_t i = 1; i < conns_.size(); ++i) {
        if (conns_[i].inflight.size() < conns_[target].inflight.size()) {
          target = i;
        }
      }
    }
    const std::string frame =
        std::to_string(record.request.size()) + "\n" + record.request;
    record.send = NowMs();
    WriteAll(conns_[target].fd, frame);
    records_.push_back(std::move(record));
    conns_[target].inflight.push_back(records_.size() - 1);
    return records_.size() - 1;
  }

  /// Waits up to `timeout_ms` for replies; returns the indices completed.
  std::vector<std::size_t> Poll(double timeout_ms) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) fds.push_back(pollfd{c.fd, POLLIN, 0});
    timespec ts{};
    if (timeout_ms > 0.0) {
      ts.tv_sec = static_cast<time_t>(timeout_ms / 1e3);
      ts.tv_nsec = static_cast<long>(
          (timeout_ms - static_cast<double>(ts.tv_sec) * 1e3) * 1e6);
    }
    std::vector<std::size_t> done;
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return done;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (fds[i].revents & POLLIN) == 0) {
        throw std::runtime_error("daemon closed a connection");
      }
      ReadAvailable(&conns_[i], &done);
    }
    return done;
  }

 private:
  static Conn Connect(const std::string& socket_path) {
    Conn conn;
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    conn.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (conn.fd < 0) throw std::runtime_error("socket() failed");
    if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(conn.fd);
      throw std::runtime_error("connect(" + socket_path + ") failed");
    }
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    return conn;
  }

  static void WriteAll(int fd, const std::string& data) {
    std::size_t written = 0;
    while (written < data.size()) {
      const ssize_t n =
          ::write(fd, data.data() + written, data.size() - written);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, 100);
      } else {
        throw std::runtime_error("write to the daemon failed");
      }
    }
  }

  void ReadAvailable(Conn* conn, std::vector<std::size_t>* done) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(conn->fd, buf, sizeof buf);
      if (n > 0) {
        conn->in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) throw std::runtime_error("daemon closed a connection");
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained.
    }
    const double now = NowMs();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t newline = conn->in.find('\n', pos);
      if (newline == std::string::npos) break;
      const std::size_t len =
          std::strtoull(conn->in.c_str() + pos, nullptr, 10);
      if (conn->in.size() < newline + 1 + len) break;
      const std::string payload = conn->in.substr(newline + 1, len);
      pos = newline + 1 + len;
      if (conn->inflight.empty()) {
        throw std::runtime_error("reply without a request");
      }
      const std::size_t index = conn->inflight.front();
      conn->inflight.pop_front();
      Complete(&records_[index], payload, now);
      done->push_back(index);
    }
    conn->in.erase(0, pos);
  }

  static void Complete(Record* r, const std::string& payload, double now) {
    r->recv = now;
    const tmark::Result<tmark::serve::Response> parsed =
        tmark::serve::ParseResponse(payload);
    if (parsed.ok()) {
      r->ok = true;
      r->stale = parsed->stale;
      r->generation = parsed->generation;
      r->fingerprint = parsed->fingerprint;
    } else {
      r->code = std::string(
          tmark::StatusCodeToString(parsed.status().code()));
    }
    if (r->sampled || !r->measured) r->response = payload;
  }

  std::vector<Conn> conns_;
  std::vector<Record> records_;
};

Record MakeRecord(Verb verb, std::size_t node, std::size_t k,
                  const std::string& path) {
  Record r;
  r.verb = verb;
  switch (verb) {
    case kClassify: r.request = "classify " + std::to_string(node); break;
    case kRank:
      r.request = "rank " + std::to_string(node) + " " + std::to_string(k);
      break;
    case kTopK:
      r.request = "topk " + std::to_string(node) + " " + std::to_string(k);
      break;
    case kUpdate: r.request = "update " + path; break;
    default: break;
  }
  return r;
}

std::string VerbStats(const std::vector<Record>& records) {
  struct Stats {
    long long attempted = 0, ok = 0, errors = 0, timeouts = 0;
    std::map<std::string, long long> codes;
  };
  Stats stats[kNumVerbs];
  for (const Record& r : records) {
    Stats& s = stats[r.verb];
    ++s.attempted;
    if (r.recv < 0.0) {
      ++s.timeouts;
    } else if (r.ok) {
      ++s.ok;
    } else {
      ++s.errors;
      ++s.codes[r.code];
    }
  }
  JsonObject out;
  for (int v = 0; v < kNumVerbs; ++v) {
    JsonObject codes;
    for (const auto& [code, count] : stats[v].codes) codes.Int(code, count);
    out.Raw(kVerbNames[v], JsonObject()
                               .Int("attempted", stats[v].attempted)
                               .Int("ok", stats[v].ok)
                               .Int("errors", stats[v].errors)
                               .Int("timeouts", stats[v].timeouts)
                               .Raw("codes", codes.Text())
                               .Text());
  }
  return out.Text();
}

}  // namespace

int RunLoadgen(const Flags& flags) {
  const std::string socket_path = flags.Require("socket");
  const std::string mode = flags.Require("mode");
  const double seconds = flags.GetDouble("seconds", 10.0);
  const double rate = flags.GetDouble("rate", 100.0);
  // Requests per arrival: a burst goes out at once, one per connection.
  const std::size_t burst = static_cast<std::size_t>(
      std::max<long long>(1, flags.GetInt("burst", 1)));
  const std::size_t nodes = static_cast<std::size_t>(flags.GetInt("nodes", 1));
  const int pid = static_cast<int>(flags.GetInt("daemon-pid", 0));
  const double period_ms = flags.GetDouble("update-period-ms", 1000.0);
  const std::vector<std::string> deltas =
      SplitString(flags.Get("deltas", ""), ',');
  const std::string sample_out = flags.Get("sample-out", "");
  const double sample_share = sample_out.empty() ? 0.0 : kSampleShare;
  const std::string classify_out = flags.Get("classify-out", "");
  const std::string spans_out = flags.Get("spans-out", "");
  const int connections = static_cast<int>(flags.GetInt("connections", 4));
  const bool walk = mode == "walk";
  if (!walk && mode != "update") throw std::runtime_error("unknown --mode");

  // Precise poll deadlines: the default 50 us slack would make every sleep
  // overshoot.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::mt19937_64 rng(static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
  std::exponential_distribution<double> gap(rate / 1e3 /
                                            static_cast<double>(burst));
  Client client(socket_path, connections);

  // One answer per connection before the phase: the connections are warm
  // and the served generation is known.
  std::uint64_t seen_generation = 0;
  for (int c = 0; c < connections; ++c) {
    const std::size_t i = client.Send(MakeRecord(kClassify, 0, 0, ""), c);
    while (client.records()[i].recv < 0.0) client.Poll(5.0);
    seen_generation = client.records()[i].generation;
  }
  const std::size_t warmup = client.records().size();

  // Open-loop phase.
  const double start = NowMs() + 2.0;
  const double end = start + seconds * 1e3;
  double next = start + gap(rng);
  std::size_t next_update = 0;
  double update_due = start + period_ms / 2.0;
  // Update state: the record of the update in flight, and the generation
  // an answer must exceed to count as fresh.
  long long pending = -1;
  std::uint64_t fresh_after = 0;
  std::vector<double> fresh_ms;
  std::vector<double> update_late_ms;
  std::vector<std::pair<double, double>> windows;  // [send, visible)
  const double cpu0 = pid > 0 ? PidCpuMs(pid) : 0.0;
  const CpuJiffies host0 = ReadCpuJiffies();

  const auto handle = [&](const std::vector<std::size_t>& done) {
    for (const std::size_t i : done) {
      const Record& r = client.records()[i];
      if (!r.ok) {
        if (static_cast<long long>(i) == pending) pending = -1;
        continue;
      }
      if (r.verb == kUpdate) continue;
      if (r.generation > seen_generation) seen_generation = r.generation;
      if (pending >= 0 && r.generation > fresh_after) {
        const double sent = client.records()[pending].send;
        fresh_ms.push_back(r.recv - sent);
        windows.emplace_back(sent, r.recv);
        pending = -1;
      }
    }
  };

  for (;;) {
    double now = NowMs();
    // Lookups keep arriving after the end until the last update is visible.
    while (next <= now && (next < end || pending >= 0)) {
      for (std::size_t b = 0; b < burst; ++b) {
        const std::size_t node = rng() % nodes;
        Record r;
        if (walk) {
          r = MakeRecord(rng() % 2 == 0 ? kRank : kTopK, node, kRankEntries,
                         "");
          r.sampled = std::generate_canonical<double, 53>(rng) < sample_share;
        } else {
          r = MakeRecord(kClassify, node, 0, "");
        }
        r.sched = next;
        r.measured = true;
        client.Send(std::move(r));
      }
      next += gap(rng);
    }
    // No update starts in the last period, so each one sent finishes
    // inside the measured phase.
    if (!walk && pending < 0 && next_update < deltas.size() &&
        update_due <= now && now + period_ms < end) {
      Record r = MakeRecord(kUpdate, 0, 0, deltas[next_update++]);
      r.sched = update_due;
      r.measured = true;
      update_late_ms.push_back(now - update_due);
      fresh_after = seen_generation;
      pending = static_cast<long long>(client.Send(std::move(r)));
      update_due += period_ms;
    }
    if (now >= end && pending < 0) break;
    double wake = next;
    if (!walk && pending < 0 && next_update < deltas.size()) {
      wake = std::min(wake, update_due);
    }
    const double wait = wake - NowMs();
    // Sleep until kSpinMs before the next send, then spin, so sends are
    // late by microseconds while the client leaves the cores to the daemon
    // for most of each gap.
    double sleep_ms = wait > kSpinMs ? wait - kSpinMs : 0.0;
    if (client.inflight() > 0 &&
        NowMs() - client.records().back().send < kReplySpinMs) {
      sleep_ms = 0.0;
    }
    handle(client.Poll(sleep_ms));
  }
  const double drain_start = NowMs();
  while (client.inflight() > 0 && NowMs() - drain_start < 15000.0) {
    handle(client.Poll(10.0));
  }
  const double phase_end = NowMs();
  const double daemon_cpu = pid > 0 ? PidCpuMs(pid) - cpu0 : 0.0;
  const double daemon_hwm_mb = pid > 0 ? PidPeakRssMb(pid) : 0.0;
  const CpuJiffies host1 = ReadCpuJiffies();
  const std::size_t measured_count = client.records().size();

  // Final answers of every node (accuracy and fingerprint gates).
  std::uint64_t final_generation = 0;
  std::uint64_t final_fingerprint = 0;
  if (!classify_out.empty()) {
    std::ofstream out(classify_out);
    std::size_t sent = 0;
    std::size_t received = 0;
    std::vector<std::size_t> order;
    const std::size_t conns = static_cast<std::size_t>(connections);
    const double t0 = NowMs();
    while (received < nodes && NowMs() - t0 < 60000.0) {
      while (sent < nodes && client.conn_inflight(sent % conns) < 32) {
        Record r = MakeRecord(kClassify, sent, 0, "");
        order.push_back(client.Send(std::move(r),
                                    static_cast<int>(sent % conns)));
        ++sent;
      }
      received += client.Poll(10.0).size();
    }
    for (std::size_t node = 0; node < order.size(); ++node) {
      const Record& r = client.records()[order[node]];
      out << node << "\t" << r.response << "\n";
      if (r.ok) {
        final_generation = r.generation;
        final_fingerprint = r.fingerprint;
      }
    }
  }
  client.CloseAll();

  // Summaries over the measured phase.
  std::vector<double> latency, late, refresh, quiet;
  double latency_sum = 0.0;
  double rpc_sum = 0.0;
  long long stale = 0;
  long long lookups = 0;
  for (std::size_t i = 0; i < measured_count; ++i) {
    const Record& r = client.records()[i];
    if (!r.measured || r.verb == kUpdate) continue;
    late.push_back(r.send - r.sched);
    if (!r.ok || r.recv < 0.0) continue;
    const double ms = r.recv - r.sched;
    latency.push_back(ms);
    latency_sum += ms;
    rpc_sum += r.recv - r.send;
    ++lookups;
    if (r.stale) ++stale;
    bool in_window = false;
    for (const auto& [from, to] : windows) {
      if (r.sched >= from && r.sched < to) in_window = true;
    }
    (in_window ? refresh : quiet).push_back(ms);
  }
  if (!sample_out.empty()) {
    std::ofstream out(sample_out);
    for (std::size_t i = 0; i < measured_count; ++i) {
      const Record& r = client.records()[i];
      if (r.sampled && r.ok) out << r.request << "\t" << r.response << "\n";
    }
  }
  if (!spans_out.empty()) {
    // One request span with two children: generator lateness
    // (due -> sent) and the round trip (sent -> reply).
    std::vector<Span> spans;
    for (std::size_t i = 0; i < measured_count; ++i) {
      const Record& r = client.records()[i];
      if (!r.measured || r.recv < 0.0) continue;
      const std::string id = std::to_string(i);
      const int root = static_cast<int>(spans.size());
      spans.push_back(Span{std::string("request.") + kVerbNames[r.verb],
                           r.sched, r.recv, -1, id});
      spans.push_back(Span{"gen.late", r.sched, r.send, root, id});
      spans.push_back(Span{"rpc", r.send, r.recv, root, id});
    }
    std::ofstream(spans_out) << SpansJson(spans) << "\n";
  }

  char fingerprint[32];
  std::snprintf(fingerprint, sizeof fingerprint, "%llu",
                static_cast<unsigned long long>(final_fingerprint));
  JsonObject result;
  result.Num("phase_ms", phase_end - start)
      .Num("daemon_cpu_ms", daemon_cpu)
      .Num("daemon_hwm_mb", daemon_hwm_mb)
      .Num("steal_pct", StealPct(host0, host1))
      .Raw("verbs", VerbStats(std::vector<Record>(
                        client.records().begin() +
                            static_cast<std::ptrdiff_t>(warmup),
                        client.records().begin() +
                            static_cast<std::ptrdiff_t>(measured_count))))
      .Int("completed", lookups)
      .Num("latency_p50_ms", Quantile(latency, 0.5))
      .Num("latency_p90_ms", Quantile(latency, 0.90))
      .Num("latency_p95_ms", Quantile(latency, 0.95))
      .Num("latency_p99_ms", Quantile(latency, 0.99))
      .Num("latency_sum_ms", latency_sum)
      .Num("rpc_sum_ms", rpc_sum)
      .Num("late_p50_ms", Quantile(late, 0.5))
      .Num("late_p99_ms", Quantile(late, 0.99))
      .Num("late_sum_ms", latency_sum - rpc_sum)
      .Raw("fresh_ms", JsonNumberArray(fresh_ms))
      .Raw("update_late_ms", JsonNumberArray(update_late_ms))
      .Num("stale_share", lookups > 0 ? static_cast<double>(stale) /
                                            static_cast<double>(lookups)
                                      : 0.0)
      .Num("refresh_p99_ms", Quantile(refresh, 0.99))
      .Int("refresh_n", static_cast<long long>(refresh.size()))
      .Num("quiet_p99_ms", Quantile(quiet, 0.99))
      .Int("quiet_n", static_cast<long long>(quiet.size()))
      .Int("final_generation", static_cast<long long>(final_generation))
      .Str("final_fingerprint", fingerprint);
  std::printf("%s\n", result.Text().c_str());
  return 0;
}

}  // namespace perfbench
