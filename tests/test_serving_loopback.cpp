// End-to-end loopback test for the serving stack: net::NetServer +
// engine::ServingEngine + net::Client over real sockets, in one process.
// This is the in-tree version of the CI smoke run: every request must be
// answered exactly once with a well-formed response and zero protocol
// errors.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "stats/rng.hpp"

namespace rlb {
namespace {

struct ClientTally {
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t protocol_errors = 0;
  std::set<std::uint64_t> answered_ids;
};

/// A response gap this long means the stack lost requests: fail the test
/// instead of blocking ctest forever.
constexpr std::uint64_t kRecvTimeoutMs = 10'000;

/// Closed-loop worker: keeps `concurrency` requests outstanding until
/// `quota` are answered, recording every response id.
void run_client(std::uint16_t port, std::uint64_t quota,
                std::size_t concurrency, std::uint64_t id_base,
                std::uint64_t seed, ClientTally& tally) {
  net::Client client;
  client.connect("127.0.0.1", port);
  client.set_recv_timeout_ms(kRecvTimeoutMs);
  stats::Rng rng(seed);
  std::uint64_t next_id = id_base;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  auto send_one = [&] {
    client.send_request(next_id++, rng.next());
    ++sent;
  };
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(concurrency, quota);
       ++i) {
    send_one();
  }
  client.flush();
  net::ResponseMsg response;
  while (completed < quota) {
    const net::ReadOutcome outcome = client.try_read_response(response);
    if (outcome == net::ReadOutcome::kTimeout) {
      ADD_FAILURE() << sent - completed << " of " << sent
                    << " sent ids unanswered after " << kRecvTimeoutMs
                    << " ms without a response";
      break;
    }
    if (outcome != net::ReadOutcome::kFrame) break;
    if (response.request_id < id_base || response.request_id >= next_id ||
        !tally.answered_ids.insert(response.request_id).second) {
      ++tally.protocol_errors;
      break;
    }
    ++completed;
    switch (response.status) {
      case net::Status::kOk:
        ++tally.ok;
        break;
      case net::Status::kReject:
        ++tally.rejected;
        break;
      default:
        ++tally.errors;
        break;
    }
    if (sent < quota) {
      send_one();
      client.flush();
    }
  }
  client.close();
}

class ServingStack {
 public:
  explicit ServingStack(engine::EngineConfig config,
                        std::size_t max_connections = 16) {
    net::ServerConfig net_config;  // ephemeral loopback port
    net_config.max_connections = max_connections;
    server_ = std::make_unique<net::NetServer>(
        net_config, [this](std::uint64_t token, const net::RequestMsg& msg) {
          const net::ServerRequest one{token, msg};
          engine::submit_requests(*engine_, *server_, &one, 1);
        });
    server_->set_request_batch_handler(
        [this](const net::ServerRequest* batch, std::size_t count) {
          engine::submit_requests(*engine_, *server_, batch, count);
        });
    engine_ = std::make_unique<engine::ServingEngine>(
        config, [this](const engine::EngineResponse& r) {
          net::ResponseMsg msg;
          msg.request_id = r.request_id;
          msg.status = static_cast<net::Status>(r.status);
          msg.server = static_cast<std::uint32_t>(r.server);
          msg.wait_steps = r.wait_steps;
          server_->send_response(r.conn_token, msg);
        });
    engine_->start();
    server_->start();
  }

  ~ServingStack() { stop(); }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    engine_->stop();
    server_->stop();
  }

  std::uint16_t port() const { return server_->port(); }
  const engine::ServingEngine& engine() const { return *engine_; }

 private:
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<engine::ServingEngine> engine_;
  bool stopped_ = false;
};

TEST(ServingLoopback, SingleClientAllAnswered) {
  engine::EngineConfig config;
  config.servers = 32;
  config.processing_rate = 4;
  config.seed = 11;
  ServingStack stack(config);

  ClientTally tally;
  run_client(stack.port(), /*quota=*/5000, /*concurrency=*/32,
             /*id_base=*/1, /*seed=*/3, tally);
  EXPECT_EQ(tally.protocol_errors, 0u);
  EXPECT_EQ(tally.errors, 0u);
  EXPECT_EQ(tally.ok + tally.rejected, 5000u);
  EXPECT_EQ(tally.answered_ids.size(), 5000u);

  stack.stop();
  const net::ShardStats stats = stack.engine().snapshot().totals();
  EXPECT_EQ(stats.submitted, 5000u);
  EXPECT_EQ(stats.completed + stats.rejected_total(), 5000u);
}

TEST(ServingLoopback, ConcurrentClientsNoCrossTalk) {
  engine::EngineConfig config;
  config.servers = 64;
  config.processing_rate = 4;
  config.seed = 23;
  ServingStack stack(config);

  constexpr std::size_t kClients = 4;
  constexpr std::uint64_t kQuota = 2500;
  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      run_client(stack.port(), kQuota, /*concurrency=*/16,
                 /*id_base=*/(static_cast<std::uint64_t>(c) << 40) + 1,
                 /*seed=*/100 + c, tallies[c]);
    });
  }
  for (auto& thread : threads) thread.join();

  std::uint64_t answered = 0;
  for (const ClientTally& tally : tallies) {
    EXPECT_EQ(tally.protocol_errors, 0u);
    EXPECT_EQ(tally.errors, 0u);
    answered += tally.answered_ids.size();
  }
  EXPECT_EQ(answered, kClients * kQuota);

  stack.stop();
  EXPECT_EQ(stack.engine().snapshot().totals().submitted, kClients * kQuota);
}

TEST(ServingLoopback, ServesThroughScriptedCrash) {
  // 10% of servers die mid-run: traffic must keep flowing (possibly with
  // rejections) and the drain must still answer everything.
  engine::EngineConfig config;
  config.servers = 20;
  config.processing_rate = 2;
  config.queue_capacity = 4;
  config.failure_spec = "script:20,0,down;20,10,down";
  config.seed = 31;
  ServingStack stack(config);

  ClientTally tally;
  run_client(stack.port(), /*quota=*/20000, /*concurrency=*/64,
             /*id_base=*/1, /*seed=*/9, tally);
  EXPECT_EQ(tally.protocol_errors, 0u);
  EXPECT_EQ(tally.errors, 0u);
  EXPECT_EQ(tally.answered_ids.size(), 20000u);

  stack.stop();
  const net::ShardStats stats = stack.engine().snapshot().totals();
  EXPECT_EQ(stats.crashes, 2u);
  EXPECT_EQ(stats.servers_down, 2u);
}

TEST(ServingLoopback, MalformedFramePoisonsOnlyThatConnection) {
  engine::EngineConfig config;
  config.servers = 8;
  config.seed = 41;
  ServingStack stack(config);

  // A raw connection that sends a zero-length frame gets dropped...
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(stack.port());
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::uint8_t zeros[4] = {0, 0, 0, 0};
    ASSERT_EQ(::send(fd, zeros, sizeof(zeros), 0),
              static_cast<ssize_t>(sizeof(zeros)));
    // The server must close the connection: read() drains to EOF (or a
    // reset, which is an equally acceptable way to be hung up on).
    std::uint8_t sink[64];
    ssize_t n;
    do {
      n = ::recv(fd, sink, sizeof(sink), 0);
    } while (n > 0);
    EXPECT_LE(n, 0);
    ::close(fd);
  }

  // ...while a well-behaved connection keeps working.
  ClientTally tally;
  run_client(stack.port(), /*quota=*/100, /*concurrency=*/8, /*id_base=*/1,
             /*seed=*/5, tally);
  EXPECT_EQ(tally.protocol_errors, 0u);
  EXPECT_EQ(tally.answered_ids.size(), 100u);
}

}  // namespace
}  // namespace rlb
