// Experiment E24 — self-healing repair under load.
//
// The cluster topology of E23 with the repair plane switched on: four
// rlbd-shaped backends behind a cluster::Router hosting a
// RepairCoordinator.  The run starts from a maximally skewed placement
// (initial PlacementDeltas hand every chunk a replica on one overloaded
// backend), then SIGKILLs a different backend mid-run while closed-loop
// clients keep driving.
//
// Measured:
//   * steps_to_safe — 10 ms samples of the live backends' backlog
//     estimates from the kill until check_safe_distribution (Definition
//     3.2) holds again: how long the loss keeps the cluster outside the
//     paper's safe envelope
//   * repair_ms / epochs — wall time and committed placement epochs until
//     every lost replica is re-replicated (chunks_pending back to zero)
//   * client-visible p99 during repair vs quiesced (after repair), the
//     tentpole claim: re-replication must not pause serving
//
// Flags: see --help.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/router.hpp"
#include "common.hpp"
#include "core/placement.hpp"
#include "core/placement_epoch.hpp"
#include "core/safe_distribution.hpp"
#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "repair/migrate_agent.hpp"
#include "stats/histogram.hpp"
#include "stats/rng.hpp"

namespace {

using namespace rlb;
using Clock = std::chrono::steady_clock;

struct RunResult {
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t protocol_errors = 0;
  double elapsed_seconds = 0.0;
  stats::CountingHistogram latency_us{200000};
};

/// One rlbd-shaped backend with the repair agent installed.
class Backend {
 public:
  Backend(std::uint32_t backend_id, std::size_t max_connections) {
    engine::EngineConfig config;
    config.servers = 32;
    config.shards = 2;
    config.processing_rate = 4;
    config.seed = 7 + backend_id;
    config.backend_id = backend_id;
    net::ServerConfig net_config;
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

  ~Backend() { stop(); }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    agent_->stop();
    engine_->stop();
    server_->stop();
  }

  /// SIGKILL-shaped loss: sockets first, so the router sees a drop.
  void kill() {
    if (stopped_) return;
    stopped_ = true;
    server_->stop(/*flush_timeout_ms=*/0);
    agent_->stop();
    engine_->stop();
  }

  std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<engine::ServingEngine> engine_;
  std::unique_ptr<repair::MigrationAgent> agent_;
  bool stopped_ = false;
};

void client_worker(std::uint16_t port, std::uint64_t quota,
                   std::uint64_t seed, std::size_t concurrency,
                   std::uint64_t id_base, RunResult& result) {
  net::Client client;
  try {
    client.connect("127.0.0.1", port);
  } catch (const std::exception& e) {
    std::cerr << "bench_repair: " << e.what() << "\n";
    result.errors += quota;
    return;
  }
  std::unordered_map<std::uint64_t, Clock::time_point> in_flight;
  stats::Rng rng(seed);
  std::uint64_t next_id = id_base;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  auto send_one = [&] {
    const std::uint64_t id = next_id++;
    in_flight.emplace(id, Clock::now());
    client.send_request(id, rng.next());
    ++sent;
  };
  try {
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(concurrency, quota);
         ++i) {
      send_one();
    }
    client.flush();
    net::ResponseMsg response;
    while (completed < quota && client.read_response(response)) {
      const auto it = in_flight.find(response.request_id);
      if (it == in_flight.end()) {
        ++result.protocol_errors;
        break;
      }
      const std::uint64_t us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                it->second)
              .count());
      in_flight.erase(it);
      ++completed;
      if (response.status == net::Status::kOk) {
        ++result.ok;
        result.latency_us.add(us);
      } else if (net::is_reject(response.status)) {
        ++result.rejected;
      } else {
        ++result.errors;
      }
      if (sent < quota) {
        send_one();
        client.flush();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_repair: " << e.what() << "\n";
    ++result.protocol_errors;
  }
  client.close();
}

RunResult drive(std::uint16_t port, std::uint64_t requests,
                std::size_t connections, std::size_t concurrency) {
  std::vector<RunResult> partials(connections);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t w = 0; w < connections; ++w) {
    const std::uint64_t quota =
        requests / connections + (w < requests % connections ? 1 : 0);
    threads.emplace_back([&, w, quota] {
      client_worker(port, quota, 100 + w, concurrency,
                    (static_cast<std::uint64_t>(w) << 40) + 1, partials[w]);
    });
  }
  for (auto& thread : threads) thread.join();
  RunResult total;
  total.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const RunResult& partial : partials) {
    total.ok += partial.ok;
    total.rejected += partial.rejected;
    total.errors += partial.errors;
    total.protocol_errors += partial.protocol_errors;
    total.latency_us.merge(partial.latency_us);
  }
  return total;
}

bool wait_live(const cluster::Router& router, std::size_t want) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    if (router.membership().live_count() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Maximal skew over the base placement: every chunk that does not
/// already have a replica on `hot` gets its first replica remapped there,
/// one single-remap delta per chunk (epochs 1..k).
std::vector<core::PlacementDelta> skew_onto(const core::Placement& base,
                                            std::uint64_t chunks,
                                            core::ServerId hot) {
  std::vector<core::PlacementDelta> deltas;
  std::uint64_t epoch = 0;
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    const core::ChoiceList cl = base.choices(chunk);
    if (cl.contains(hot)) continue;
    core::ChunkRemap remap;
    remap.chunk = chunk;
    remap.from = cl[0];
    remap.to = hot;
    core::PlacementDelta delta;
    delta.epoch = ++epoch;
    delta.remaps.push_back(remap);
    deltas.push_back(delta);
  }
  return deltas;
}

/// Chunks whose skewed choice set contains `backend`: the repair workload
/// once that backend dies.
std::uint64_t chunks_on(const core::Placement& base,
                        const std::vector<core::PlacementDelta>& skew,
                        std::uint64_t chunks, core::ServerId backend) {
  std::uint64_t moved_off = 0;
  std::uint64_t count = 0;
  for (const core::PlacementDelta& delta : skew) {
    for (const core::ChunkRemap& remap : delta.remaps) {
      if (remap.from == backend) ++moved_off;
    }
  }
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    if (base.choices(chunk).contains(backend)) ++count;
  }
  return count - moved_off;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t requests = 60000;
  std::size_t connections = 4;
  std::size_t concurrency = 32;
  std::uint64_t chunks = 2048;
  std::uint64_t repair_bps = 8ull << 20;
  rlb::bench::Flags flags("E24 self-healing repair under load.");
  flags.num("--requests", "n", "requests per phase", requests)
      .num("--connections", "c", "client connections", connections, 1)
      .num("--concurrency", "k", "outstanding requests per connection",
           concurrency, 1)
      .num("--chunks", "n", "chunk count", chunks, 1)
      .num("--repair-bytes-per-sec", "n", "repair byte budget; 0 = unthrottled",
           repair_bps);
  rlb::bench::add_output_flags(flags);
  flags.parse(argc, argv);

  rlb::bench::print_banner(
      "E24 self-healing repair under load",
      "from a maximally skewed placement, a mid-run backend SIGKILL leaves "
      "every chunk on it under-replicated; the repair plane re-replicates "
      "live (throttled MIGRATE streams, versioned epoch commits) while "
      "closed-loop clients keep driving",
      "repair completes with zero client errors; p99 during repair stays "
      "within a small factor of the quiesced p99; the backlog distribution "
      "returns to the Definition-3.2 safe envelope without a restart");
  rlb::bench::json_value("requests", requests);
  rlb::bench::json_value("connections", static_cast<std::uint64_t>(connections));
  rlb::bench::json_value("concurrency", static_cast<std::uint64_t>(concurrency));
  rlb::bench::json_value("chunks", chunks);
  rlb::bench::json_value("repair_bytes_per_sec", repair_bps);

  constexpr std::size_t kBackends = 4;
  constexpr std::uint32_t kHot = 1;   // overloaded by the initial skew
  constexpr std::uint32_t kDead = 0;  // killed mid-run

  std::vector<std::unique_ptr<Backend>> backends;
  for (std::uint32_t i = 0; i < kBackends; ++i) {
    backends.push_back(std::make_unique<Backend>(i, connections + 8));
  }

  cluster::RouterConfig config;
  for (const auto& backend : backends) {
    config.backends.push_back({"127.0.0.1", backend->port()});
  }
  config.replication = 2;
  config.chunks = chunks;
  config.heartbeat_interval_ms = 10;
  config.heartbeat_timeout_ms = 50;
  config.max_connections = connections + 8;
  config.repair.enabled = true;
  config.repair.max_concurrent = 4;
  config.repair.bytes_per_sec = repair_bps;
  config.repair.bytes_per_chunk = 4096;
  config.repair.down_grace_ms = 100;
  config.repair.scan_interval_ms = 20;

  const core::Placement base(kBackends, config.replication, config.seed);
  const std::vector<core::PlacementDelta> skew =
      skew_onto(base, chunks, kHot);
  config.initial_deltas = skew;
  const std::uint64_t skew_epochs = skew.size();
  const std::uint64_t lost_replicas = chunks_on(base, skew, chunks, kDead);
  rlb::bench::json_value("skew_epochs", skew_epochs);
  rlb::bench::json_value("lost_replicas", lost_replicas);

  cluster::Router router(config);
  router.start();
  if (!wait_live(router, kBackends)) {
    std::cerr << "bench_repair: backends never became live\n";
    return 1;
  }

  // Backlog sampler: every 10 ms, Definition 3.2 over the live backends'
  // load estimates.  One sample = one "step" of the steps-to-safe metric.
  std::atomic<bool> sampling{true};
  std::atomic<std::uint64_t> kill_sample{0};
  std::atomic<std::uint64_t> safe_sample{0};  // first safe sample post-kill
  std::atomic<std::uint64_t> sample_count{0};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      std::vector<std::uint32_t> backlogs;
      for (std::uint32_t id = 0; id < kBackends; ++id) {
        if (!router.membership().is_live(id)) continue;
        backlogs.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(router.membership().view(id).load_estimate,
                                    0xFFFFFFFFull)));
      }
      const std::uint64_t n = sample_count.fetch_add(1) + 1;
      const core::SafetyReport report = core::check_safe_distribution(backlogs);
      if (report.safe && kill_sample.load() != 0 && safe_sample.load() == 0) {
        safe_sample.store(n);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // Phase A: load through the kill and the whole repair window.
  std::atomic<double> repair_ms{0.0};
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    kill_sample.store(std::max<std::uint64_t>(sample_count.load(), 1));
    const auto t_kill = Clock::now();
    backends[kDead]->kill();
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      const net::RepairStats r = router.repair_stats();
      if (r.migrations_done >= lost_replicas && r.chunks_pending == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    repair_ms.store(
        std::chrono::duration<double, std::milli>(Clock::now() - t_kill)
            .count());
  });
  const RunResult during =
      drive(router.port(), requests, connections, concurrency);
  chaos.join();

  // Phase B: quiesced baseline on the repaired cluster.
  const RunResult after =
      drive(router.port(), requests, connections, concurrency);

  sampling.store(false);
  sampler.join();

  const net::RepairStats repair = router.repair_stats();
  const std::uint64_t epochs_total = router.placement_epoch();
  const std::uint64_t steps_to_safe =
      safe_sample.load() != 0 ? safe_sample.load() - kill_sample.load() : 0;
  rlb::bench::json_value("migrations_done", repair.migrations_done);
  rlb::bench::json_value("migrations_failed", repair.migrations_failed);
  rlb::bench::json_value("repair_bytes", repair.bytes_sent);
  rlb::bench::json_value("repair_ms", repair_ms.load());
  rlb::bench::json_value("epochs_committed", epochs_total - skew_epochs);
  rlb::bench::json_value("steps_to_safe_10ms", steps_to_safe);
  rlb::bench::json_value("safe_regained",
                         static_cast<std::uint64_t>(safe_sample.load() != 0));

  report::Table table({"phase", "throughput_rps", "reject_rate", "p50_us",
                       "p95_us", "p99_us", "errors", "protocol_errors"});
  for (const auto& [phase, r] :
       {std::pair<const char*, const RunResult&>{"during-repair", during},
        std::pair<const char*, const RunResult&>{"quiesced", after}}) {
    const std::uint64_t answered = r.ok + r.rejected;
    const double throughput =
        r.elapsed_seconds > 0
            ? static_cast<double>(answered) / r.elapsed_seconds
            : 0.0;
    const double reject_rate =
        answered
            ? static_cast<double>(r.rejected) / static_cast<double>(answered)
            : 0.0;
    table.row()
        .cell(phase)
        .cell(throughput, 0)
        .cell_sci(reject_rate)
        .cell(r.latency_us.quantile(0.50))
        .cell(r.latency_us.quantile(0.95))
        .cell(r.latency_us.quantile(0.99))
        .cell(r.errors)
        .cell(r.protocol_errors);
  }
  rlb::bench::emit(table);

  router.stop();
  for (auto& backend : backends) backend->stop();
  return 0;
}
