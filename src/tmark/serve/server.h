#ifndef TMARK_SERVE_SERVER_H_
#define TMARK_SERVE_SERVER_H_

// Socket front end of the serving daemon (docs/SERVING.md): accepts
// connections on a Unix-domain socket or a loopback TCP port, reads
// length-prefixed request frames, routes them through ServingDaemon (and
// thus the batching scheduler), and writes response frames back. One
// thread per connection — the concurrency that matters is the scheduler's
// coalescing, not the socket loop.
//
// Failed frame reads and request parses are answered with an
// `error <CODE> <message>` frame (when the stream is still writable) and
// counted in the io.errors{,.<code>} counters; a kDataLoss or
// kResourceExhausted framing error closes the connection, because the
// stream position can no longer be trusted.

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tmark/common/status.h"
#include "tmark/serve/daemon.h"
#include "tmark/serve/protocol.h"

namespace tmark::serve {

struct ServerOptions {
  /// Path of the Unix-domain listening socket; empty selects TCP.
  std::string unix_socket;
  /// Loopback TCP port when `unix_socket` is empty; 0 lets the kernel
  /// pick (the bound port is readable via SocketServer::port()).
  int tcp_port = 0;
  ProtocolLimits limits;
  /// Stop after serving this many requests (0 = run until Stop) — lets
  /// tests and smoke runs bound the daemon's lifetime.
  std::size_t max_requests = 0;
};

/// Blocking accept loop over a ServingDaemon. Start() binds and spawns the
/// acceptor; Stop() (or reaching max_requests) shuts it down and joins
/// every connection thread. Accepted TCP connections set TCP_NODELAY, and
/// every reply frame leaves in one write.
class SocketServer {
 public:
  SocketServer(ServingDaemon* daemon, ServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds + listens + spawns the acceptor thread. Typed errors for an
  /// unusable socket path/port. A stop requested before Start is kept: the
  /// acceptor then exits at once and Wait() returns.
  Status Start();

  /// Closes the listener, joins the acceptor, shuts down the read side of
  /// every live connection (so idle clients cannot hold it open) and joins
  /// all connection threads. Idempotent; safe from a signal-triggered path
  /// via RequestStop.
  void Stop();

  /// Async-signal-safe stop request: flips the shutdown flag and closes
  /// the listening socket so the acceptor unblocks. May come before
  /// Start. Call Stop() (from a normal context) afterwards to join.
  void RequestStop();

  /// Blocks until the server stopped (max_requests reached or Stop).
  void Wait();

  /// The bound TCP port (after Start, TCP mode only).
  int port() const { return port_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  ServingDaemon* const daemon_;
  const ServerOptions options_;
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> served_{0};
  int port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> connections_;
  /// Fds of connections whose thread has not closed them yet.
  std::vector<int> live_fds_;
  std::mutex connections_mu_;  ///< Guards connections_ and live_fds_.
};

}  // namespace tmark::serve

#endif  // TMARK_SERVE_SERVER_H_
