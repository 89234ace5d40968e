// Tests for the self-healing repair plane: the TokenBucket byte throttle,
// the backend MigrationAgent streaming chunk state end to end over real
// sockets, the router-hosted RepairCoordinator re-replicating after a
// SIGKILL-shaped backend loss, and epoch-skew cutover (router ahead of
// backends and vice versa — requests are always served, never misdirected).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hpp"
#include "core/placement.hpp"
#include "core/placement_epoch.hpp"
#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "repair/migrate_agent.hpp"
#include "repair/throttle.hpp"
#include "stats/rng.hpp"

namespace rlb {
namespace {

using std::chrono::steady_clock;

double elapsed_ms(steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(steady_clock::now() - since)
      .count();
}

template <typename Pred>
bool wait_until(Pred pred, std::uint64_t deadline_ms = 15000) {
  const auto deadline =
      steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// ---- TokenBucket --------------------------------------------------------

TEST(RepairThrottle, UnthrottledAndZeroByteTakesAreImmediate) {
  repair::TokenBucket unthrottled(0);
  const auto start = steady_clock::now();
  EXPECT_TRUE(unthrottled.take(1 << 30));
  EXPECT_LT(elapsed_ms(start), 100.0);

  repair::TokenBucket throttled(100, 1);
  EXPECT_TRUE(throttled.take(0)) << "zero bytes never waits";
}

TEST(RepairThrottle, StartsWithAFullBurst) {
  repair::TokenBucket bucket(1 << 20, 4096);
  EXPECT_EQ(bucket.available(), 4096u);
  const auto start = steady_clock::now();
  EXPECT_TRUE(bucket.take(4096));
  EXPECT_LT(elapsed_ms(start), 100.0) << "the initial burst is free";
}

TEST(RepairThrottle, PacesToTheConfiguredRate) {
  // 256 KiB/s with a 1 KiB burst: after draining the burst, 16 KiB more
  // costs 16384/262144 s = 62.5 ms of refill.
  repair::TokenBucket bucket(256 * 1024, 1024);
  ASSERT_TRUE(bucket.take(1024));
  const auto start = steady_clock::now();
  EXPECT_TRUE(bucket.take(16 * 1024));
  EXPECT_GE(elapsed_ms(start), 40.0) << "repair bytes must be paced";
}

TEST(RepairThrottle, OversizedRequestStillConverges) {
  // A request 10x the burst cap can never see tokens_ >= bytes at once;
  // the deficit drain must still serve it in about bytes/rate seconds.
  repair::TokenBucket bucket(1 << 20, 1024);
  const auto start = steady_clock::now();
  EXPECT_TRUE(bucket.take(10 * 1024));
  const double ms = elapsed_ms(start);
  EXPECT_GE(ms, 4.0) << "the deficit beyond the burst is paced";
  EXPECT_LT(ms, 2000.0) << "an oversized take must not stall";
}

TEST(RepairThrottle, StopReleasesBlockedTakers) {
  repair::TokenBucket bucket(100, 1);  // ~1 byte per 10 ms: take(1e6) blocks
  std::atomic<int> result{-1};
  std::thread taker(
      [&] { result.store(bucket.take(1'000'000) ? 1 : 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  bucket.stop();
  taker.join();
  EXPECT_EQ(result.load(), 0) << "stop() fails the blocked take";
  EXPECT_FALSE(bucket.take(1)) << "a stopped bucket admits nothing";
  EXPECT_FALSE(bucket.take(0));
}

// ---- deterministic chunk payload ---------------------------------------

TEST(RepairPayload, DeterministicAndChunkDependent) {
  for (std::uint64_t offset = 0; offset < 64; ++offset) {
    EXPECT_EQ(repair::chunk_payload_byte(7, offset),
              repair::chunk_payload_byte(7, offset));
  }
  bool differs = false;
  for (std::uint64_t offset = 0; offset < 64 && !differs; ++offset) {
    differs = repair::chunk_payload_byte(1, offset) !=
              repair::chunk_payload_byte(2, offset);
  }
  EXPECT_TRUE(differs) << "payloads must depend on the chunk id";
}

// ---- MigrationAgent over real sockets ----------------------------------

/// A backend reduced to its repair role: NetServer + MigrationAgent, no
/// engine (REQUEST frames are ignored).
class AgentHost {
 public:
  explicit AgentHost(repair::MigrationAgentConfig config = {}) {
    net::ServerConfig net_config;  // ephemeral port
    server_ = std::make_unique<net::NetServer>(
        net_config, [](std::uint64_t, const net::RequestMsg&) {});
    agent_ = std::make_unique<repair::MigrationAgent>(*server_, config);
    agent_->install();
    server_->start();
    agent_->start();
  }

  ~AgentHost() {
    agent_->stop();
    server_->stop();
  }

  std::uint16_t port() const { return server_->port(); }
  repair::MigrationAgent& agent() { return *agent_; }

 private:
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<repair::MigrationAgent> agent_;
};

net::MigrateMsg make_order(std::uint64_t id, std::uint64_t chunk,
                           std::uint64_t bytes, std::uint16_t target_port) {
  net::MigrateMsg msg;
  msg.migration_id = id;
  msg.chunk = chunk;
  msg.epoch = 1;
  msg.target_backend = 1;
  msg.bytes = bytes;
  msg.target_port = target_port;
  msg.target_host = "127.0.0.1";
  return msg;
}

TEST(MigrationAgentWire, StreamsMultiSliceChunkStateEndToEnd) {
  AgentHost source;
  AgentHost target;
  std::atomic<std::uint64_t> in_bytes{0};
  std::atomic<std::uint64_t> out_bytes{0};
  // The callbacks are installed post-start here, which is safe only
  // because no order is in flight yet.
  target.agent().set_on_migration_in(
      [&](std::uint64_t bytes) { in_bytes.fetch_add(bytes); });
  source.agent().set_on_migration_out(
      [&](std::uint64_t bytes) { out_bytes.fetch_add(bytes); });

  // 100000 bytes = three full 32 KiB slices + a 1696-byte tail.
  constexpr std::uint64_t kBytes = 100000;
  net::Client coordinator;
  coordinator.connect("127.0.0.1", source.port());
  coordinator.set_recv_timeout_ms(5000);
  coordinator.send_migrate(make_order(9, 42, kBytes, target.port()));
  coordinator.flush();

  net::MigrateAckMsg ack;
  ASSERT_EQ(coordinator.try_read_migrate_ack(ack), net::ReadOutcome::kFrame);
  EXPECT_EQ(ack.migration_id, 9u);
  EXPECT_EQ(ack.status, 0u) << "the target verified every byte";
  EXPECT_EQ(ack.bytes, kBytes);
  coordinator.close();

  EXPECT_EQ(source.agent().migrations_out(), 1u);
  EXPECT_EQ(source.agent().bytes_out(), kBytes);
  EXPECT_EQ(out_bytes.load(), kBytes);
  ASSERT_TRUE(wait_until([&] { return target.agent().migrations_in() == 1; },
                         2000));
  EXPECT_EQ(target.agent().bytes_in(), kBytes);
  EXPECT_EQ(in_bytes.load(), kBytes);
}

TEST(MigrationAgentWire, ZeroByteMigrationStillAcks) {
  AgentHost source;
  AgentHost target;
  net::Client coordinator;
  coordinator.connect("127.0.0.1", source.port());
  coordinator.set_recv_timeout_ms(5000);
  coordinator.send_migrate(make_order(3, 7, 0, target.port()));
  coordinator.flush();

  net::MigrateAckMsg ack;
  ASSERT_EQ(coordinator.try_read_migrate_ack(ack), net::ReadOutcome::kFrame);
  EXPECT_EQ(ack.migration_id, 3u);
  EXPECT_EQ(ack.status, 0u);
  EXPECT_EQ(ack.bytes, 0u);
  coordinator.close();
  EXPECT_EQ(source.agent().migrations_out(), 1u);
  ASSERT_TRUE(wait_until([&] { return target.agent().migrations_in() == 1; },
                         2000));
}

TEST(MigrationAgentWire, UnreachableTargetAcksFailureToCoordinator) {
  AgentHost source({/*ack_timeout_ms=*/500});
  // Grab a port with nothing behind it: bind ephemeral, then tear down.
  std::uint16_t dead_port = 0;
  {
    AgentHost ephemeral;
    dead_port = ephemeral.port();
  }

  net::Client coordinator;
  coordinator.connect("127.0.0.1", source.port());
  coordinator.set_recv_timeout_ms(5000);
  coordinator.send_migrate(make_order(5, 11, 4096, dead_port));
  coordinator.flush();

  net::MigrateAckMsg ack;
  ASSERT_EQ(coordinator.try_read_migrate_ack(ack), net::ReadOutcome::kFrame);
  EXPECT_EQ(ack.migration_id, 5u);
  EXPECT_NE(ack.status, 0u) << "a failed stream must not ack success";
  coordinator.close();
  EXPECT_EQ(source.agent().migrations_out(), 0u);
}

// ---- RepairCoordinator + Router end to end ------------------------------

/// One rlbd-shaped backend with the full repair plane installed: engine +
/// NetServer + MigrationAgent, epoch piggyback honoured like apps/rlbd.cpp.
class RepairBackend {
 public:
  explicit RepairBackend(std::uint16_t port, std::uint32_t backend_id) {
    engine::EngineConfig config;
    config.servers = 16;
    config.shards = 2;
    config.processing_rate = 4;
    config.seed = 100 + backend_id;
    config.backend_id = backend_id;
    net::ServerConfig net_config;
    net_config.port = port;
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
    server_->set_stats_handler(
        [this](std::uint64_t token, const net::StatsRequestMsg& msg) {
          if (msg.epoch != 0) engine_->set_placement_epoch(msg.epoch);
          server_->send_stats(token, engine_->snapshot());
        });
    agent_ = std::make_unique<repair::MigrationAgent>(*server_);
    agent_->set_on_migration_in(
        [this](std::uint64_t bytes) { engine_->note_migration_in(bytes); });
    agent_->set_on_migration_out(
        [this](std::uint64_t bytes) { engine_->note_migration_out(bytes); });
    agent_->install();
    engine_->start();
    server_->start();
    agent_->start();
  }

  ~RepairBackend() { stop(); }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    agent_->stop();
    engine_->stop();
    server_->stop();
  }

  /// SIGKILL-shaped loss: sockets first (see test_router_loopback.cpp).
  void kill() {
    if (stopped_) return;
    stopped_ = true;
    server_->stop(/*flush_timeout_ms=*/0);
    agent_->stop();
    engine_->stop();
  }

  std::uint16_t port() const { return server_->port(); }
  engine::EngineStats stats() const { return engine_->stats(); }
  net::StatsSnapshot snapshot() const { return engine_->snapshot(); }
  repair::MigrationAgent& agent() { return *agent_; }

 private:
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<engine::ServingEngine> engine_;
  std::unique_ptr<repair::MigrationAgent> agent_;
  bool stopped_ = false;
};

std::unique_ptr<RepairBackend> start_repair_backend(std::uint16_t port,
                                                    std::uint32_t backend_id) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    try {
      return std::make_unique<RepairBackend>(port, backend_id);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return std::make_unique<RepairBackend>(port, backend_id);
}

cluster::RouterConfig repair_config(
    const std::vector<std::unique_ptr<RepairBackend>>& backends) {
  cluster::RouterConfig config;
  for (const auto& backend : backends) {
    config.backends.push_back({"127.0.0.1", backend->port()});
  }
  config.replication = 2;
  config.chunks = 256;
  config.heartbeat_interval_ms = 10;
  config.heartbeat_timeout_ms = 50;
  config.request_timeout_ms = 500;
  config.repair.enabled = true;
  config.repair.max_concurrent = 4;
  config.repair.bytes_per_sec = 0;  // loopback tests: unthrottled
  config.repair.bytes_per_chunk = 512;
  config.repair.down_grace_ms = 50;
  config.repair.scan_interval_ms = 20;
  return config;
}

bool wait_live(const cluster::Router& router, std::size_t want,
               std::uint64_t deadline_ms = 5000) {
  return wait_until(
      [&] { return router.membership().live_count() == want; }, deadline_ms);
}

struct ClientTally {
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t protocol_errors = 0;
  std::set<std::uint64_t> answered_ids;
};

void run_client(std::uint16_t port, std::uint64_t quota,
                std::size_t concurrency, std::uint64_t id_base,
                std::uint64_t seed, ClientTally& tally) {
  net::Client client;
  client.connect("127.0.0.1", port);
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
  while (completed < quota && client.read_response(response)) {
    if (response.request_id < id_base || response.request_id >= next_id ||
        !tally.answered_ids.insert(response.request_id).second) {
      ++tally.protocol_errors;
      break;
    }
    ++completed;
    if (response.status == net::Status::kOk) {
      ++tally.ok;
    } else if (net::is_reject(response.status)) {
      ++tally.rejected;
    } else {
      ++tally.errors;
    }
    if (sent < quota) {
      send_one();
      client.flush();
    }
  }
  client.close();
}

/// Chunks whose base choice set contains `backend` (the repair workload
/// after that backend dies).
std::uint64_t chunks_on(const core::Placement& base, std::uint64_t chunks,
                        std::uint32_t backend) {
  std::uint64_t count = 0;
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    if (base.choices(chunk).contains(backend)) ++count;
  }
  return count;
}

TEST(RepairCluster, ReReplicatesAfterBackendLossWithoutPausingServing) {
  std::vector<std::unique_ptr<RepairBackend>> backends;
  for (std::uint32_t i = 0; i < 4; ++i) {
    backends.push_back(std::make_unique<RepairBackend>(/*port=*/0, i));
  }
  const cluster::RouterConfig config = repair_config(backends);
  const core::Placement base(config.backends.size(), config.replication,
                             config.seed);
  constexpr std::uint32_t kDead = 1;
  const std::uint64_t expected = chunks_on(base, config.chunks, kDead);
  ASSERT_GT(expected, 0u);

  cluster::Router router(config);
  router.start();
  ASSERT_TRUE(wait_live(router, 4));
  EXPECT_EQ(router.placement_epoch(), 0u);

  backends[kDead]->kill();

  // Serving continues through detection + repair: every request answered,
  // no errors (hop-level rejects are legal for in-flight losses).
  ClientTally during;
  run_client(router.port(), 3000, 32, /*id_base=*/1, /*seed=*/21, during);
  EXPECT_EQ(during.protocol_errors, 0u);
  EXPECT_EQ(during.errors, 0u);
  EXPECT_EQ(during.answered_ids.size(), 3000u);

  // Repair must fully re-replicate: one migration per lost-replica chunk.
  ASSERT_TRUE(wait_until([&] {
    const net::RepairStats r = router.repair_stats();
    return r.migrations_done >= expected && r.chunks_pending == 0;
  })) << "repair stalled: done="
      << router.repair_stats().migrations_done << "/" << expected
      << " pending=" << router.repair_stats().chunks_pending;

  const net::RepairStats repair = router.repair_stats();
  EXPECT_EQ(repair.migrations_done, expected);
  EXPECT_EQ(repair.migrations_failed, 0u);
  EXPECT_EQ(repair.bytes_sent, expected * config.repair.bytes_per_chunk);
  EXPECT_GE(router.placement_epoch(), 1u);

  // Replaying the committed history over the base placement must leave no
  // chunk on the dead backend, with every move landing on a live one.
  std::vector<std::set<core::ServerId>> sets(config.chunks);
  for (std::uint64_t chunk = 0; chunk < config.chunks; ++chunk) {
    const core::ChoiceList cl = base.choices(chunk);
    sets[chunk] = {cl.begin(), cl.end()};
  }
  const std::vector<core::PlacementDelta> history = router.placement_history();
  EXPECT_EQ(router.placement_epoch(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].epoch, i + 1) << "epochs advance by exactly one";
    for (const core::ChunkRemap& remap : history[i].remaps) {
      EXPECT_EQ(remap.from, kDead) << "repair only moves off the dead backend";
      EXPECT_NE(remap.to, kDead);
      EXPECT_LT(remap.to, backends.size());
      ASSERT_LT(remap.chunk, config.chunks);
      ASSERT_EQ(sets[remap.chunk].erase(remap.from), 1u);
      ASSERT_TRUE(sets[remap.chunk].insert(remap.to).second);
    }
  }
  for (std::uint64_t chunk = 0; chunk < config.chunks; ++chunk) {
    EXPECT_EQ(sets[chunk].count(kDead), 0u) << "chunk " << chunk;
    EXPECT_EQ(sets[chunk].size(), config.replication);
  }

  // The repair traffic really flowed through the surviving agents.
  std::uint64_t streamed_in = 0;
  for (std::uint32_t i = 0; i < backends.size(); ++i) {
    if (i != kDead) streamed_in += backends[i]->agent().bytes_in();
  }
  EXPECT_EQ(streamed_in, expected * config.repair.bytes_per_chunk);

  // Heartbeat piggyback: surviving backends converge on the new epoch.
  const std::uint64_t epoch = router.placement_epoch();
  ASSERT_TRUE(wait_until(
      [&] { return backends[0]->snapshot().placement_epoch == epoch; }, 2000))
      << "backend never learned the repair epoch";

  // Post-repair, the placement is whole again: traffic is clean.
  ClientTally after;
  run_client(router.port(), 2000, 16, /*id_base=*/1 << 20, /*seed=*/23, after);
  EXPECT_EQ(after.protocol_errors, 0u);
  EXPECT_EQ(after.errors, 0u);
  EXPECT_EQ(after.answered_ids.size(), 2000u);

  router.stop();
}

TEST(RepairCluster, RecoveryWithinGraceCancelsRepair) {
  std::vector<std::unique_ptr<RepairBackend>> backends;
  for (std::uint32_t i = 0; i < 3; ++i) {
    backends.push_back(std::make_unique<RepairBackend>(/*port=*/0, i));
  }
  cluster::RouterConfig config = repair_config(backends);
  config.repair.down_grace_ms = 1500;  // far longer than the flap below
  cluster::Router router(config);
  router.start();
  ASSERT_TRUE(wait_live(router, 3));

  // Flap: kill and immediately restart on the same port.  The backend is
  // back up (probation passed) well inside the grace window, so the
  // planner must never queue a migration and the epoch must not move.
  const std::uint16_t port = backends[2]->port();
  backends[2]->kill();
  ASSERT_TRUE(wait_live(router, 2));
  backends[2] = start_repair_backend(port, 2);
  ASSERT_TRUE(wait_live(router, 3));

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const net::RepairStats repair = router.repair_stats();
  EXPECT_EQ(repair.migrations_done, 0u) << "flap within grace repaired";
  EXPECT_EQ(repair.chunks_pending, 0u);
  EXPECT_EQ(router.placement_epoch(), 0u);
  router.stop();
}

// ---- epoch-skew cutover -------------------------------------------------

/// `count` single-remap deltas over the base placement, epochs 1..count:
/// chunk k's first replica moves to the (unique, for 3 backends at d=2)
/// backend outside its choice set.  Distinct chunks, so base-derived
/// remaps stay valid when applied in sequence.
std::vector<core::PlacementDelta> make_skew_deltas(const core::Placement& base,
                                                   std::size_t backends,
                                                   std::uint64_t count) {
  std::vector<core::PlacementDelta> deltas;
  for (std::uint64_t chunk = 0; chunk < count; ++chunk) {
    const core::ChoiceList cl = base.choices(chunk);
    core::ChunkRemap remap;
    remap.chunk = chunk;
    remap.from = cl[0];
    for (core::ServerId s = 0; s < backends; ++s) {
      if (!cl.contains(s)) {
        remap.to = s;
        break;
      }
    }
    core::PlacementDelta delta;
    delta.epoch = chunk + 1;
    delta.remaps.push_back(remap);
    deltas.push_back(delta);
  }
  return deltas;
}

TEST(RepairCluster, RouterAheadOfBackendsServesAndConverges) {
  // Router starts at epoch 8 (initial deltas); backends start at 0.  The
  // skew must be invisible to clients — backends serve any key, the
  // router's epoch only shapes candidate sets — and heartbeats must pull
  // the backends forward to the router's epoch.
  std::vector<std::unique_ptr<RepairBackend>> backends;
  for (std::uint32_t i = 0; i < 3; ++i) {
    backends.push_back(std::make_unique<RepairBackend>(/*port=*/0, i));
  }
  cluster::RouterConfig config = repair_config(backends);
  const core::Placement base(config.backends.size(), config.replication,
                             config.seed);
  config.initial_deltas = make_skew_deltas(base, backends.size(), 8);
  cluster::Router router(config);
  EXPECT_EQ(router.placement_epoch(), 8u);
  EXPECT_EQ(router.placement_history().size(), 8u);
  router.start();
  ASSERT_TRUE(wait_live(router, 3));

  constexpr std::uint64_t kQuota = 2000;
  ClientTally tally;
  run_client(router.port(), kQuota, 32, /*id_base=*/1, /*seed=*/31, tally);
  EXPECT_EQ(tally.protocol_errors, 0u);
  EXPECT_EQ(tally.errors, 0u);
  EXPECT_EQ(tally.answered_ids.size(), kQuota);
  EXPECT_EQ(tally.ok + tally.rejected, kQuota);
  EXPECT_EQ(router.stats().rejected_upstream_down, 0u)
      << "skew must never make a live backend unroutable";

  // Conservation across the skew: backends saw exactly the forwarded hops.
  const cluster::RouterStats stats = router.stats();
  std::uint64_t backend_submitted = 0;
  for (auto& backend : backends) {
    backend_submitted += backend->stats().submitted;
  }
  EXPECT_EQ(backend_submitted, stats.forwarded);

  ASSERT_TRUE(wait_until(
      [&] {
        for (auto& backend : backends) {
          if (backend->snapshot().placement_epoch != 8) return false;
        }
        return true;
      },
      2000))
      << "heartbeats must carry the router's epoch to every backend";
  router.stop();
}

TEST(RepairCluster, BackendAheadOfRouterServesAndNeverRegresses) {
  // Backends believe epoch 100; the router is at 0 (its heartbeats carry
  // no epoch).  Requests still route — the backend's epoch is advisory —
  // and the backends' epoch must never roll back to the router's.
  std::vector<std::unique_ptr<RepairBackend>> backends;
  for (std::uint32_t i = 0; i < 3; ++i) {
    backends.push_back(std::make_unique<RepairBackend>(/*port=*/0, i));
  }
  cluster::RouterConfig config = repair_config(backends);
  config.repair.enabled = false;
  cluster::Router router(config);
  router.start();
  ASSERT_TRUE(wait_live(router, 3));
  for (auto& backend : backends) {
    // Simulate a backend that outlived a previous router incarnation.
    net::Client c;
    c.connect("127.0.0.1", backend->port());
    c.set_recv_timeout_ms(1000);
    c.send_stats_request(0, /*epoch=*/100);
    c.flush();
    net::StatsSnapshot snap;
    ASSERT_TRUE(c.read_stats_response(snap));
    c.close();
  }

  ClientTally tally;
  run_client(router.port(), 2000, 32, /*id_base=*/1, /*seed=*/37, tally);
  EXPECT_EQ(tally.protocol_errors, 0u);
  EXPECT_EQ(tally.errors, 0u);
  EXPECT_EQ(tally.answered_ids.size(), 2000u);

  // Many epoch-0 heartbeats have passed by now; the backends must still
  // report 100 (set_placement_epoch is monotonic, 0 is never sent).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (auto& backend : backends) {
    EXPECT_EQ(backend->snapshot().placement_epoch, 100u);
  }
  EXPECT_EQ(router.placement_epoch(), 0u);
  router.stop();
}

TEST(RepairCluster, InapplicableInitialDeltaThrows) {
  std::vector<std::unique_ptr<RepairBackend>> backends;
  backends.push_back(std::make_unique<RepairBackend>(/*port=*/0, 0));
  backends.push_back(std::make_unique<RepairBackend>(/*port=*/0, 1));
  backends.push_back(std::make_unique<RepairBackend>(/*port=*/0, 2));
  cluster::RouterConfig config = repair_config(backends);
  core::PlacementDelta delta;
  delta.epoch = 2;  // must start at 1
  config.initial_deltas.push_back(delta);
  EXPECT_THROW(cluster::Router{config}, std::invalid_argument);
}

}  // namespace
}  // namespace rlb
