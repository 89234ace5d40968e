// NetServer data-plane regression tests: the slow-consumer backpressure
// cap (a peer that never reads must be disconnected, not buffered without
// bound) and the batched request handler path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

namespace rlb::net {
namespace {

using namespace std::chrono_literals;

/// Raw connected socket (bypasses net::Client so the test can refuse to
/// read responses and keep a tiny receive window).
int raw_connect(std::uint16_t port, int rcvbuf) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(NetServer, SlowConsumerIsDisconnected) {
  ServerConfig config;
  config.max_outbound_bytes = 32 << 10;  // tiny cap so the test is fast
  config.sndbuf = 4096;                  // force kernel-side backpressure
  NetServer server(config,
                   [&server](std::uint64_t token, const RequestMsg& request) {
                     ResponseMsg msg;
                     msg.request_id = request.request_id;
                     msg.status = Status::kOk;
                     server.send_response(token, msg);
                   });
  server.start();

  const int fd = raw_connect(server.port(), 4096);
  ASSERT_GE(fd, 0);
  // Pipeline plenty of requests and never read a byte of the responses:
  // the connection's outbound queue must blow through the cap.
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    encode_request(RequestMsg{i, i, {}}, wire);
  }
  bool disconnected = false;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    ssize_t n = ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      disconnected = true;
      break;
    }
    if (server.stats().slow_consumer_drops > 0) break;
    std::this_thread::sleep_for(1ms);
  }
  const auto stats_deadline = std::chrono::steady_clock::now() + 10s;
  while (server.stats().slow_consumer_drops == 0 &&
         std::chrono::steady_clock::now() < stats_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.slow_consumer_drops, 1u)
      << "disconnected=" << disconnected;
  ::close(fd);
  server.stop();
}

TEST(NetServer, WellBehavedConsumerStaysConnected) {
  // Same cap, but a reader that drains responses must never trip it.
  ServerConfig config;
  config.max_outbound_bytes = 32 << 10;
  config.sndbuf = 4096;
  NetServer server(config,
                   [&server](std::uint64_t token, const RequestMsg& request) {
                     ResponseMsg msg;
                     msg.request_id = request.request_id;
                     msg.status = Status::kOk;
                     server.send_response(token, msg);
                   });
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  constexpr std::uint64_t kRequests = 5000;
  constexpr std::uint64_t kWindow = 64;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  ResponseMsg response;
  while (received < kRequests) {
    while (sent < kRequests && sent - received < kWindow) {
      client.send_request(sent++, 42);
    }
    client.flush();
    ASSERT_TRUE(client.read_response(response));
    ++received;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.slow_consumer_drops, 0u);
  EXPECT_EQ(stats.responses_sent, kRequests);
  server.stop();
}

TEST(NetServer, BatchHandlerSeesEveryRequestExactlyOnce) {
  ServerConfig config;
  std::mutex mu;
  std::set<std::uint64_t> seen;
  std::size_t batches = 0;
  std::size_t max_batch = 0;
  NetServer server(config, /*on_request=*/nullptr);
  server.set_request_batch_handler(
      [&](const ServerRequest* batch, std::size_t count) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ++batches;
          max_batch = std::max(max_batch, count);
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_TRUE(seen.insert(batch[i].msg.request_id).second);
          }
        }
        for (std::size_t i = 0; i < count; ++i) {
          ResponseMsg msg;
          msg.request_id = batch[i].msg.request_id;
          msg.status = Status::kOk;
          server.send_response(batch[i].conn_token, msg);
        }
      });
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  constexpr std::uint64_t kRequests = 4000;
  // One big pipelined burst: the loop should coalesce multiple frames per
  // wakeup into multi-request batches.
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    client.send_request(i, i * 3);
  }
  client.flush();
  ResponseMsg response;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.read_response(response));
    EXPECT_EQ(response.status, Status::kOk);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(seen.size(), kRequests);
    EXPECT_LE(batches, kRequests);
    EXPECT_GE(max_batch, 1u);
  }
  EXPECT_EQ(server.stats().requests_decoded, kRequests);
  server.stop();
}

TEST(NetServer, PollBufferedResponseDrainsWithoutBlocking) {
  // Burst-pipelining clients drain coalesced responses via
  // poll_buffered_response() (no syscall) after one blocking read: every
  // response must come out exactly once and in order, and the poll must
  // return false — not block — once the buffer runs dry.
  ServerConfig config;
  NetServer server(config,
                   [&server](std::uint64_t token, const RequestMsg& request) {
                     ResponseMsg msg;
                     msg.request_id = request.request_id;
                     msg.status = Status::kOk;
                     server.send_response(token, msg);
                   });
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  constexpr std::uint64_t kRequests = 1000;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    client.send_request(i, i);
  }
  client.flush();
  std::uint64_t received = 0;
  ResponseMsg response;
  while (received < kRequests) {
    ASSERT_TRUE(client.read_response(response));
    for (;;) {
      EXPECT_EQ(response.request_id, received);
      ++received;
      if (received >= kRequests || !client.poll_buffered_response(response)) {
        break;
      }
    }
  }
  EXPECT_EQ(received, kRequests);
  // Dry buffer: poll must say "nothing" without touching the socket.
  EXPECT_FALSE(client.poll_buffered_response(response));
  server.stop();
}

}  // namespace
}  // namespace rlb::net
