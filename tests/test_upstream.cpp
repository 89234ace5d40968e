// UpstreamConn regression tests: a burst of forwards queued with
// enqueue_request() must all reach the backend after one flush(), and
// enqueue on a down connection must refuse immediately.  The SharedReactor
// tests run the connection on a reactor it does not own, as a router does:
// callbacks land on that reactor's thread, a stopped backend is reported
// down exactly once, and a backend restarted on its port is redialled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "net/reactor.hpp"
#include "net/server.hpp"
#include "net/upstream.hpp"
#include "net/wire.hpp"

namespace rlb::net {
namespace {

using namespace std::chrono_literals;

TEST(Upstream, EnqueueThenFlushDeliversWholeBurst) {
  ServerConfig config;
  NetServer server(config,
                   [&server](std::uint64_t token, const RequestMsg& request) {
                     ResponseMsg msg;
                     msg.request_id = request.request_id;
                     msg.status = Status::kOk;
                     server.send_response(token, msg);
                   });
  server.start();

  std::mutex mu;
  std::condition_variable cv;
  std::set<std::uint64_t> answered;
  std::atomic<bool> up{false};
  UpstreamConn conn(
      UpstreamConfig{"127.0.0.1", server.port()},
      [&](const ResponseMsg& msg) {
        {
          std::lock_guard<std::mutex> lock(mu);
          answered.insert(msg.request_id);
        }
        cv.notify_one();
      },
      [&](bool connected) { up.store(connected); });
  conn.start();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!up.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(up.load());

  constexpr std::uint64_t kBurst = 500;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(conn.enqueue_request(i, i * 7));
  }
  ASSERT_TRUE(conn.flush());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 10s,
                            [&] { return answered.size() == kBurst; }));
  }
  conn.stop();
  server.stop();
}

TEST(Upstream, EnqueueRefusesWhenDown) {
  // Point at a port nobody listens on: enqueue must fail fast (the
  // caller's failover path relies on an immediate refusal, not a block).
  UpstreamConn conn(UpstreamConfig{"127.0.0.1", 1},
                    [](const ResponseMsg&) {}, nullptr);
  conn.start();
  EXPECT_FALSE(conn.enqueue_request(1, 1));
  EXPECT_FALSE(conn.flush());
  conn.stop();
}

/// A NetServer that answers every REQUEST with OK, on a fixed or
/// ephemeral port.
std::unique_ptr<NetServer> start_echo(std::uint16_t port) {
  ServerConfig config;
  config.port = port;
  for (int attempt = 0;; ++attempt) {
    auto server = std::make_unique<NetServer>(config, nullptr);
    NetServer* raw = server.get();
    server->set_request_batch_handler(
        [raw](const ServerRequest* batch, std::size_t count) {
          for (std::size_t i = 0; i < count; ++i) {
            ResponseMsg msg;
            msg.request_id = batch[i].msg.request_id;
            msg.status = Status::kOk;
            raw->send_response(batch[i].conn_token, msg);
          }
        });
    try {
      server->start();
      return server;
    } catch (const std::exception&) {
      if (attempt == 50) throw;  // the port stayed taken
      std::this_thread::sleep_for(20ms);
    }
  }
}

/// Everything the callbacks saw, guarded for the test thread.
struct Observed {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::uint64_t> answered;
  int ups = 0;
  int downs = 0;
  std::vector<std::thread::id> callback_threads;

  template <typename Pred>
  bool wait_for(std::chrono::milliseconds limit, Pred pred) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, limit, [&] { return pred(*this); });
  }
};

std::unique_ptr<UpstreamConn> make_shared_conn(Reactor& reactor,
                                               UpstreamConfig config,
                                               Observed& seen) {
  return std::make_unique<UpstreamConn>(
      reactor, std::move(config),
      [&seen](const ResponseMsg& msg) {
        std::lock_guard<std::mutex> lock(seen.mu);
        seen.answered.insert(msg.request_id);
        seen.callback_threads.push_back(std::this_thread::get_id());
        seen.cv.notify_all();
      },
      [&seen](bool connected) {
        std::lock_guard<std::mutex> lock(seen.mu);
        (connected ? seen.ups : seen.downs) += 1;
        seen.callback_threads.push_back(std::this_thread::get_id());
        seen.cv.notify_all();
      });
}

/// Enqueue `count` requests from this (non-loop) thread, flush once, and
/// wait until every one is answered.
bool round_trip(UpstreamConn& conn, Observed& seen, std::uint64_t first,
                std::uint64_t count) {
  for (std::uint64_t id = first; id < first + count; ++id) {
    if (!conn.enqueue_request(id, id * 7)) return false;
  }
  if (!conn.flush()) return false;
  return seen.wait_for(10s, [&](Observed& s) {
    for (std::uint64_t id = first; id < first + count; ++id) {
      if (s.answered.count(id) == 0) return false;
    }
    return true;
  });
}

TEST(Upstream, SharedReactorRunsCallbacksOnItsThread) {
  auto backend = start_echo(0);
  Reactor reactor(/*accepted_slots=*/0, /*max_outbound_bytes=*/0);
  reactor.start();
  std::thread::id loop_thread;
  reactor.run([&] { loop_thread = std::this_thread::get_id(); });
  ASSERT_NE(loop_thread, std::this_thread::get_id());

  Observed seen;
  auto conn = make_shared_conn(
      reactor, UpstreamConfig{"127.0.0.1", backend->port()}, seen);
  conn->start();
  ASSERT_TRUE(seen.wait_for(5s, [](Observed& s) { return s.ups == 1; }));
  ASSERT_TRUE(round_trip(*conn, seen, 1, 200));
  conn->stop();
  {
    std::lock_guard<std::mutex> lock(seen.mu);
    EXPECT_EQ(seen.ups, 1);
    EXPECT_EQ(seen.downs, 1) << "stop() reports the drop";
    ASSERT_EQ(seen.callback_threads.size(), 202u);
    for (const std::thread::id id : seen.callback_threads) {
      EXPECT_EQ(id, loop_thread) << "every callback runs on the reactor";
    }
  }
  reactor.stop(0);
  backend->stop();
}

TEST(Upstream, SharedReactorStoppedBackendRefusesAndReportsOnce) {
  auto backend = start_echo(0);
  Reactor reactor(0, 0);
  reactor.start();
  Observed seen;
  UpstreamConfig config{"127.0.0.1", backend->port()};
  config.backoff_initial_ms = 10;
  config.backoff_max_ms = 40;
  auto conn = make_shared_conn(reactor, config, seen);
  conn->start();
  ASSERT_TRUE(seen.wait_for(5s, [](Observed& s) { return s.ups == 1; }));
  ASSERT_TRUE(round_trip(*conn, seen, 1, 50));

  backend->stop();
  ASSERT_TRUE(seen.wait_for(5s, [](Observed& s) { return s.downs >= 1; }));
  EXPECT_FALSE(conn->connected());
  EXPECT_FALSE(conn->enqueue_request(1000, 1));
  EXPECT_FALSE(conn->flush());
  // Several refused redials later, the drop is still reported only once.
  std::this_thread::sleep_for(300ms);
  {
    std::lock_guard<std::mutex> lock(seen.mu);
    EXPECT_EQ(seen.downs, 1);
    EXPECT_EQ(seen.ups, 1);
  }
  EXPECT_FALSE(conn->enqueue_request(1001, 1));
  conn->stop();
  {
    std::lock_guard<std::mutex> lock(seen.mu);
    EXPECT_EQ(seen.downs, 1) << "stopping a down connection reports nothing";
  }
  reactor.stop(0);
}

TEST(Upstream, SharedReactorRedialsRestartedBackend) {
  auto backend = start_echo(0);
  const std::uint16_t port = backend->port();
  Reactor reactor(0, 0);
  reactor.start();
  Observed seen;
  UpstreamConfig config{"127.0.0.1", port};
  config.backoff_initial_ms = 10;
  config.backoff_max_ms = 200;
  auto conn = make_shared_conn(reactor, config, seen);
  conn->start();
  ASSERT_TRUE(seen.wait_for(5s, [](Observed& s) { return s.ups == 1; }));
  ASSERT_TRUE(round_trip(*conn, seen, 1, 50));

  backend->stop();
  ASSERT_TRUE(seen.wait_for(5s, [](Observed& s) { return s.downs == 1; }));
  // Let the backoff climb to its cap before the backend returns.
  std::this_thread::sleep_for(600ms);
  backend = start_echo(port);
  const auto restarted = std::chrono::steady_clock::now();
  ASSERT_TRUE(seen.wait_for(5s, [](Observed& s) { return s.ups == 2; }));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - restarted);
  EXPECT_LE(waited.count(), static_cast<long>(config.backoff_max_ms) + 150)
      << "redialled within one capped backoff (plus scheduling slack)";
  EXPECT_EQ(conn->reconnects(), 1u);
  EXPECT_TRUE(round_trip(*conn, seen, 1000, 50)) << "serves again";
  conn->stop();
  reactor.stop(0);
  backend->stop();
}

}  // namespace
}  // namespace rlb::net
