#include "tmark/serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>

#include "tmark/obs/logging.h"
#include "tmark/obs/metrics.h"

namespace tmark::serve {
namespace {

/// Minimal streambuf over a connection fd so the istream/ostream-based
/// protocol functions (ReadFrame/WriteFrame) work on sockets unchanged.
/// Unbuffered writes, small read buffer; not seekable. Writes use
/// MSG_NOSIGNAL: a client that hangs up before its reply must cost only
/// its own connection (EPIPE), not raise SIGPIPE in the whole process.
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(buffer_, buffer_, buffer_);
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n;
    do {
      n = ::read(fd_, buffer_, sizeof(buffer_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    const char c = traits_type::to_char_type(ch);
    return WriteAll(&c, 1) ? ch : traits_type::eof();
  }

  std::streamsize xsputn(const char* data, std::streamsize count) override {
    return WriteAll(data, static_cast<std::size_t>(count))
               ? count
               : std::streamsize{0};
  }

 private:
  bool WriteAll(const char* data, std::size_t count) {
    std::size_t written = 0;
    while (written < count) {
      const ssize_t n =
          ::send(fd_, data + written, count - written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
    return true;
  }

  const int fd_;
  char buffer_[4096];
};

void CountIoError(const Status& status) {
  obs::IncrCounter("io.errors");
  obs::IncrCounter("io.errors." +
                   std::string(StatusCodeMetricSuffix(status.code())));
}

}  // namespace

SocketServer::SocketServer(ServingDaemon* daemon, ServerOptions options)
    : daemon_(daemon), options_(std::move(options)) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  int fd = -1;
  if (!options_.unix_socket.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket.size() >= sizeof(addr.sun_path)) {
      return InvalidArgumentError("socket path too long: " +
                                  options_.unix_socket);
    }
    std::memcpy(addr.sun_path, options_.unix_socket.c_str(),
                options_.unix_socket.size() + 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return InternalError(std::string("socket(): ") + std::strerror(errno));
    }
    // A previous run's socket file would make bind fail with EADDRINUSE;
    // the path is ours to claim, so clear it first.
    ::unlink(options_.unix_socket.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int err = errno;
      ::close(fd);
      return InvalidArgumentError("bind(" + options_.unix_socket +
                                  "): " + std::strerror(err));
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return InternalError(std::string("socket(): ") + std::strerror(errno));
    }
    const int reuse = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int err = errno;
      ::close(fd);
      return InvalidArgumentError(
          "bind(127.0.0.1:" + std::to_string(options_.tcp_port) +
          "): " + std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    const int err = errno;
    ::close(fd);
    return InternalError(std::string("listen(): ") + std::strerror(err));
  }
  // stopping_ is left as is: a stop requested before Start (say, by a
  // signal handler installed early) makes the acceptor exit at once.
  listen_fd_.store(fd, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  obs::LogInfo("serve.listening",
               {{"endpoint", options_.unix_socket.empty()
                                 ? "127.0.0.1:" + std::to_string(port_)
                                 : options_.unix_socket}});
  return Status::Ok();
}

void SocketServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() unblocks a thread parked in accept(); close() alone is
    // not guaranteed to on Linux.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void SocketServer::Stop() {
  RequestStop();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    // Connection threads parked in ReadFrame see end-of-stream once their
    // read side is shut down; a reply being written still goes out.
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RD);
    connections.swap(connections_);
  }
  for (std::thread& connection : connections) {
    if (connection.joinable()) connection.join();
  }
  if (!options_.unix_socket.empty()) {
    ::unlink(options_.unix_socket.c_str());
  }
}

void SocketServer::Wait() {
  if (acceptor_.joinable()) acceptor_.join();
}

void SocketServer::AcceptLoop() {
  for (;;) {
    const int fd = listen_fd_.load(std::memory_order_acquire);
    if (fd < 0 || stopping_.load(std::memory_order_acquire)) break;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;  // Listener closed (shutdown) or fatally broken.
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(conn);
      break;
    }
    if (options_.unix_socket.empty()) {
      const int one = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    std::lock_guard<std::mutex> lock(connections_mu_);
    live_fds_.push_back(conn);
    connections_.emplace_back([this, conn] { ServeConnection(conn); });
  }
}

void SocketServer::ServeConnection(int fd) {
  FdStreambuf buf(fd);
  std::istream in(&buf);
  std::ostream out(&buf);
  std::string payload;
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<bool> got = ReadFrame(in, options_.limits, &payload);
    if (!got.ok()) {
      CountIoError(got.status());
      // The stream position is untrustworthy after a framing error; answer
      // once and drop the connection.
      WriteFrame(out, FormatError(got.status()));
      break;
    }
    if (!got.value()) break;  // Clean EOF at a frame boundary.

    std::string reply;
    Result<Request> request = ParseRequest(payload);
    if (!request.ok()) {
      CountIoError(request.status());
      reply = FormatError(request.status());
    } else {
      Result<Response> response = daemon_->Execute(request.value());
      reply = response.ok() ? FormatResponse(response.value())
                            : FormatError(response.status());
    }
    if (!WriteFrame(out, reply).ok()) break;

    const std::size_t served =
        served_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (options_.max_requests > 0 && served >= options_.max_requests) {
      RequestStop();
      break;
    }
  }
  {
    // Deregister before closing, so Stop never shuts down a reused fd.
    std::lock_guard<std::mutex> lock(connections_mu_);
    live_fds_.erase(std::find(live_fds_.begin(), live_fds_.end(), fd));
  }
  ::close(fd);
}

}  // namespace tmark::serve
