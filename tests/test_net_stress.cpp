// Loop-thread stress test for the NetServer data plane: small SO_SNDBUF
// (partial writes + writev continuation), byte-fragmented request streams
// (decoder reassembly under realistic arrival), responders on several
// threads (cross-thread staging + wake coalescing), and clients that
// disconnect mid-stream (EPIPE on the write path).  The invariant is
// exact conservation: every request from a well-behaved client is
// answered exactly once, with zero protocol errors.  Runs under TSan in
// CI like the rest of the suite.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

namespace rlb::net {
namespace {

/// Responder pool: the loop thread enqueues, N workers answer.  This
/// drives send_response() from threads other than the loop concurrently,
/// which is exactly the staging/wake path the router exercises.
class ResponderPool {
 public:
  ResponderPool(NetServer& server, std::size_t threads) : server_(server) {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { run(); });
    }
  }

  ~ResponderPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void enqueue(std::uint64_t token, std::uint64_t request_id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back({token, request_id});
    }
    cv_.notify_one();
  }

 private:
  void run() {
    for (;;) {
      std::pair<std::uint64_t, std::uint64_t> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = queue_.front();
        queue_.pop_front();
      }
      ResponseMsg msg;
      msg.request_id = item.second;
      msg.status = Status::kOk;
      server_.send_response(item.first, msg);
    }
  }

  NetServer& server_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Well-behaved client: writes its pipelined request burst in tiny
/// fragments (so server-side reads land mid-frame), then drains all
/// responses and checks ids.
void good_client(std::uint16_t port, std::uint64_t id_base,
                 std::uint64_t quota, std::atomic<std::uint64_t>& answered,
                 std::atomic<bool>& failed) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    failed = true;
    ::close(fd);
    return;
  }
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < quota; ++i) {
    encode_request(RequestMsg{id_base + i, i * 7, {}}, wire);
  }
  // Writer thread feeds 3-byte fragments while this thread reads, so the
  // stream stays fragmented even once responses start flowing back.
  std::thread writer([&] {
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t n = std::min<std::size_t>(3, wire.size() - offset);
      const ssize_t sent = ::send(fd, wire.data() + offset, n, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        failed = true;
        return;
      }
      offset += static_cast<std::size_t>(sent);
    }
  });
  FrameDecoder decoder;
  std::vector<std::uint8_t> payload;
  std::set<std::uint64_t> seen;
  std::uint8_t buffer[4096];
  while (seen.size() < quota) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      failed = true;
      break;
    }
    if (!decoder.feed(buffer, static_cast<std::size_t>(n))) {
      failed = true;
      break;
    }
    while (decoder.next(payload)) {
      RequestMsg request;
      ResponseMsg response;
      if (decode_payload(payload.data(), payload.size(), request, response) !=
              Decoded::kResponse ||
          response.request_id < id_base ||
          response.request_id >= id_base + quota ||
          !seen.insert(response.request_id).second) {
        failed = true;
        break;
      }
    }
  }
  writer.join();
  answered += seen.size();
  ::close(fd);
}

/// Abortive client: fires a burst of requests and slams the connection
/// shut without reading, so the server hits EPIPE/RST mid-write.
void aborting_client(std::uint16_t port, std::uint64_t id_base,
                     std::uint64_t quota) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return;
  }
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < quota; ++i) {
    encode_request(RequestMsg{id_base + i, i, {}}, wire);
  }
  ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  // RST instead of FIN: pending server writes fail abruptly.
  struct linger lg {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
}

TEST(NetStress, ConservationUnderPartialWritesAndDisconnects) {
  ServerConfig config;
  config.sndbuf = 4096;  // force partial writes / writev continuation
  NetServer server(config, /*on_request=*/nullptr);
  ResponderPool pool(server, 4);
  server.set_request_batch_handler(
      [&pool](const ServerRequest* batch, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
          pool.enqueue(batch[i].conn_token, batch[i].msg.request_id);
        }
      });
  server.start();

  constexpr std::uint64_t kQuota = 2000;
  constexpr std::size_t kGoodClients = 4;
  constexpr std::size_t kAbortClients = 3;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kGoodClients; ++c) {
    clients.emplace_back([&, c] {
      good_client(server.port(), 1'000'000 * (c + 1), kQuota, answered,
                  failed);
    });
  }
  for (std::size_t c = 0; c < kAbortClients; ++c) {
    clients.emplace_back([&, c] {
      aborting_client(server.port(), 100'000'000 * (c + 1), 500);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_FALSE(failed.load());
  // Exact conservation for the well-behaved clients: every request
  // answered exactly once (the per-client id check above catches
  // duplicates and strays).
  EXPECT_EQ(answered.load(), kQuota * kGoodClients);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GE(stats.requests_decoded, kQuota * kGoodClients);
  server.stop();
}

}  // namespace
}  // namespace rlb::net
