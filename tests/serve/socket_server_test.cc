// Socket front-end pins (serve/server.h), driven over real sockets against
// an in-process daemon:
//
//   * a client that hangs up before reading its reply costs only its own
//     connection — the reply write must not raise SIGPIPE in the process;
//   * sequential request/reply round trips over loopback TCP are not held
//     back by Nagle's algorithm and delayed ACKs (one write per frame,
//     TCP_NODELAY);
//   * Stop() returns while an idle client keeps its connection open, and a
//     stop requested before Start() is not lost.
//
// A server that hangs in Stop() or Wait() shows as a ctest TIMEOUT
// (tests/CMakeLists.txt gives every tests/serve/ test one).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>

#include <netinet/in.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tmark/common/status.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/hin.h"
#include "tmark/serve/daemon.h"
#include "tmark/serve/protocol.h"
#include "tmark/serve/server.h"

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

std::string SocketPath(const std::string& name) {
  return ::testing::TempDir() + "tmark_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0) {
    ADD_FAILURE() << "connect(" << path << "): " << std::strerror(errno);
  }
  return fd;
}

int ConnectTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0) {
    ADD_FAILURE() << "connect(127.0.0.1:" << port
                  << "): " << std::strerror(errno);
  }
  return fd;
}

/// Sends one request frame in a single write.
void SendFrame(int fd, const std::string& payload) {
  const std::string frame = std::to_string(payload.size()) + "\n" + payload;
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
}

/// Reads one reply frame; false on end-of-stream.
bool RecvFrame(int fd, std::string* payload) {
  std::string digits;
  char c = 0;
  for (;;) {
    if (::recv(fd, &c, 1, 0) != 1) return false;
    if (c == '\n') break;
    digits.push_back(c);
  }
  payload->assign(std::stoul(digits), '\0');
  std::size_t got = 0;
  while (got < payload->size()) {
    const ssize_t n =
        ::recv(fd, payload->data() + got, payload->size() - got, 0);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// One round trip; expects an ok answer.
void ExpectAnswered(int fd, const std::string& request) {
  SendFrame(fd, request);
  std::string reply;
  ASSERT_TRUE(RecvFrame(fd, &reply)) << request;
  EXPECT_TRUE(ParseResponse(reply).ok()) << request << " -> " << reply;
}

class SocketServerTest : public ::testing::Test {
 protected:
  SocketServerTest()
      : daemon_(MakeTestHin(), EveryThirdLabeled(MakeTestHin()),
                DaemonOptions{}) {}

  void SetUp() override { ASSERT_TRUE(daemon_.Init().ok()); }

  ServingDaemon daemon_;
};

TEST_F(SocketServerTest, ClientHangingUpBeforeItsReplyDoesNotKillServer) {
  ServerOptions options;
  options.unix_socket = SocketPath("hangup");
  SocketServer server(&daemon_, options);
  ASSERT_TRUE(server.Start().ok());

  // The reply to this request goes to a closed socket: EPIPE, and without
  // MSG_NOSIGNAL a process-killing SIGPIPE.
  const int quitter = ConnectUnix(options.unix_socket);
  SendFrame(quitter, "topk 3 10");
  ::close(quitter);

  const int client = ConnectUnix(options.unix_socket);
  ExpectAnswered(client, "topk 3 10");
  ::close(client);
  // Joins the quitter's connection thread, so its reply write is done.
  server.Stop();
}

TEST_F(SocketServerTest, SequentialTcpRoundTripsAreNotDelayed) {
  ServerOptions options;  // TCP on a kernel-picked loopback port.
  SocketServer server(&daemon_, options);
  ASSERT_TRUE(server.Start().ok());
  const int client = ConnectTcp(server.port());

  // With the length prefix and the payload in separate writes, Nagle's
  // algorithm holds each reply after the first for a delayed ACK (~40 ms):
  // 50 round trips then take about 2 s instead of a few milliseconds.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    ExpectAnswered(client, "classify " + std::to_string(i));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  ::close(client);
  server.Stop();
}

TEST_F(SocketServerTest, StopReturnsWhileAnIdleClientStaysConnected) {
  ServerOptions options;
  options.unix_socket = SocketPath("idle");
  SocketServer server(&daemon_, options);
  ASSERT_TRUE(server.Start().ok());
  const int client = ConnectUnix(options.unix_socket);
  // One answered request proves the connection thread exists; it is now
  // parked reading the next frame.
  ExpectAnswered(client, "classify 0");

  server.Stop();
  std::string reply;
  EXPECT_FALSE(RecvFrame(client, &reply));  // The server closed its end.
  ::close(client);
}

TEST_F(SocketServerTest, StopRequestedBeforeStartIsKept) {
  ServerOptions options;
  options.unix_socket = SocketPath("early_stop");
  SocketServer server(&daemon_, options);
  server.RequestStop();
  ASSERT_TRUE(server.Start().ok());
  server.Wait();  // Returns at once: the acceptor saw the stop request.
  server.Stop();
}

}  // namespace
}  // namespace tmark::serve
