// Experiment E23 — cluster router hop overhead and fan-out scaling.
//
// Runs the multi-process cluster topology of docs/CLUSTER.md inside one
// process: rlbd-shaped backends (net::NetServer + engine::ServingEngine)
// behind a cluster::Router front-end, with closed-loop net::Client worker
// threads driving the client port.  Three topologies isolate the cost of
// the extra hop:
//
//   direct     — clients talk straight to one backend (the no-hop baseline)
//   router-1   — the same single backend behind a router: every request
//                pays decode + membership pick + re-encode + one extra
//                loopback round trip, so (router-1 minus direct) IS the
//                hop overhead
//   router-3   — three backends, d = 2 candidates per chunk: the paper's
//                d-choice balancer lifted to process level, plus the
//                fan-out's pipelining win
//
// Reports end-to-end throughput, rejection rate, and latency quantiles per
// topology.  Flags: see --help.
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
#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/histogram.hpp"
#include "stats/rng.hpp"

namespace {

using namespace rlb;

struct RunResult {
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t protocol_errors = 0;
  double elapsed_seconds = 0.0;
  obs::LogHistogram latency_us;
};

/// One rlbd-shaped backend on an ephemeral loopback port.
class Backend {
 public:
  explicit Backend(std::uint32_t backend_id, std::size_t max_connections) {
    engine::EngineConfig config;
    config.servers = 32;
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
        [this](std::uint64_t token, const net::StatsRequestMsg&) {
          server_->send_stats(token, engine_->snapshot());
        });
    engine_->start();
    server_->start();
  }

  ~Backend() {
    engine_->stop();
    server_->stop();
  }

  std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<engine::ServingEngine> engine_;
};

void client_worker(std::uint16_t port, std::uint64_t quota, std::uint64_t seed,
                   std::size_t concurrency, std::uint64_t id_base,
                   RunResult& result) {
  net::Client client;
  try {
    client.connect("127.0.0.1", port);
  } catch (const std::exception& e) {
    std::cerr << "bench_cluster: " << e.what() << "\n";
    result.errors += quota;
    return;
  }
  using Clock = std::chrono::steady_clock;
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
    // Burst loop: one blocking read, then drain every response already
    // buffered, then top the window back up with a single flush — one
    // write syscall per burst instead of one per request.
    net::ResponseMsg response;
    bool stream_ok = true;
    while (stream_ok && completed < quota && client.read_response(response)) {
      std::size_t burst = 0;
      for (;;) {
        const auto it = in_flight.find(response.request_id);
        if (it == in_flight.end()) {
          ++result.protocol_errors;
          stream_ok = false;
          break;
        }
        const std::uint64_t us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - it->second)
                .count());
        in_flight.erase(it);
        ++completed;
        ++burst;
        if (response.status == net::Status::kOk) {
          ++result.ok;
          result.latency_us.record(us);
        } else if (net::is_reject(response.status)) {
          ++result.rejected;
        } else {
          ++result.errors;
        }
        if (completed >= quota) break;
        if (!client.poll_buffered_response(response)) break;
      }
      std::size_t refill = 0;
      for (; refill < burst && sent < quota; ++refill) send_one();
      if (refill > 0) client.flush();
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_cluster: " << e.what() << "\n";
    ++result.protocol_errors;
  }
  client.close();
}

RunResult drive(std::uint16_t port, std::uint64_t requests,
                std::size_t connections, std::size_t concurrency) {
  std::vector<RunResult> partials(connections);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
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
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const RunResult& partial : partials) {
    total.ok += partial.ok;
    total.rejected += partial.rejected;
    total.errors += partial.errors;
    total.protocol_errors += partial.protocol_errors;
    total.latency_us.merge(partial.latency_us);
  }
  return total;
}

/// Wait for the router to mark every backend live before measuring.
bool wait_live(const cluster::Router& router, std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (router.membership().live_count() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

RunResult run_topology(const std::string& topology, std::uint64_t requests,
                       std::size_t connections, std::size_t concurrency) {
  const std::size_t backend_count = topology == "router-3" ? 3 : 1;
  std::vector<std::unique_ptr<Backend>> backends;
  for (std::size_t i = 0; i < backend_count; ++i) {
    backends.push_back(std::make_unique<Backend>(
        static_cast<std::uint32_t>(i), connections + 8));
  }

  if (topology == "direct") {
    return drive(backends[0]->port(), requests, connections, concurrency);
  }

  cluster::RouterConfig config;
  for (const auto& backend : backends) {
    config.backends.push_back({"127.0.0.1", backend->port()});
  }
  config.replication = backend_count > 1 ? 2 : 1;
  config.chunks = 1 << 14;
  config.heartbeat_interval_ms = 50;
  config.max_connections = connections + 8;
  cluster::Router router(config);
  router.start();
  if (!wait_live(router, backend_count)) {
    std::cerr << "bench_cluster: backends never became live\n";
    return RunResult{};
  }
  RunResult result =
      drive(router.port(), requests, connections, concurrency);
  router.stop();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t requests = 100000;
  std::size_t connections = 4;
  std::size_t concurrency = 32;
  rlb::bench::Flags flags("E23 cluster router hop overhead.");
  flags.num("--requests", "n", "requests per topology", requests)
      .num("--connections", "c", "client connections", connections, 1)
      .num("--concurrency", "k", "outstanding requests per connection",
           concurrency, 1);
  rlb::bench::add_output_flags(flags);
  flags.parse(argc, argv);

  rlb::bench::print_banner(
      "E23 cluster router hop overhead",
      "forwarding through the rlb_router front-end costs one extra loopback "
      "round trip per request; d-choice fan-out over three backends keeps "
      "rejection behaviour while adding capacity (tentpole of the cluster PR)",
      "router-1 p50 sits tens of microseconds above direct; router-3 serves "
      "with zero rejects and errors (its three backends share this host's "
      "CPUs, so it need not beat direct throughput)");
  rlb::bench::json_value("requests", requests);
  rlb::bench::json_value("connections",
                         static_cast<std::uint64_t>(connections));
  rlb::bench::json_value("concurrency",
                         static_cast<std::uint64_t>(concurrency));

  report::Table table({"topology", "backends", "throughput_rps", "reject_rate",
                       "p50_us", "p95_us", "p99_us", "errors",
                       "protocol_errors"});
  for (const std::string topology : {"direct", "router-1", "router-3"}) {
    const RunResult r =
        run_topology(topology, requests, connections, concurrency);
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
        .cell(topology)
        .cell(static_cast<std::uint64_t>(topology == "router-3" ? 3 : 1))
        .cell(throughput, 0)
        .cell_sci(reject_rate)
        .cell(r.latency_us.quantile(0.50))
        .cell(r.latency_us.quantile(0.95))
        .cell(r.latency_us.quantile(0.99))
        .cell(r.errors)
        .cell(r.protocol_errors);
  }
  rlb::bench::emit(table);
  return 0;
}
