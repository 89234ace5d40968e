// Experiment E22 — live serving engine throughput/latency.
//
// Runs the full serving stack in one process — net::NetServer on an
// ephemeral loopback port, engine::ServingEngine embedding a policy, and
// closed-loop net::Client worker threads — and reports end-to-end
// throughput, rejection rate, and latency quantiles per (policy, shards)
// configuration.  This is the engine-level companion to the simulator
// experiments: the same policies, measured as microseconds instead of time
// steps (cf. Aktaş et al.'s argument that redundancy-aware routing must be
// judged by served-request latency in a running store).
//
// While each configuration runs, a scraper thread polls engine.snapshot()
// (the same lock-free merge the STATS wire opcode serves) every
// --scrape-ms milliseconds and the run emits the samples as a time-series
// table, so a --json run records how backlog, in-flight depth, and the
// safe-set ratio evolve over the run rather than just the end state.
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

#include "common.hpp"
#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/stats.hpp"
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

// One in-run engine.snapshot() sample (see the scraper thread below).
struct ScrapeSample {
  std::uint64_t t_ms = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t backlog = 0;
  std::uint64_t inflight = 0;
  std::uint64_t waiting = 0;
  double safe_worst_ratio = 0.0;
  std::uint64_t wire_p99_us = 0;
};

void client_worker(std::uint16_t port, std::uint64_t quota, std::uint64_t seed,
                   std::size_t concurrency, std::uint64_t id_base,
                   RunResult& result) {
  net::Client client;
  try {
    client.connect("127.0.0.1", port);
  } catch (const std::exception& e) {
    std::cerr << "bench_serving: " << e.what() << "\n";
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
        } else if (response.status == net::Status::kReject) {
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
    std::cerr << "bench_serving: " << e.what() << "\n";
    ++result.protocol_errors;
  }
  client.close();
}

RunResult run_config(const std::string& policy, std::size_t shards,
                     std::uint64_t requests, std::size_t connections,
                     std::size_t concurrency, std::uint64_t scrape_ms,
                     std::vector<ScrapeSample>* samples) {
  engine::EngineConfig config;
  config.policy = policy;
  config.servers = 64;
  config.replication = 2;
  config.processing_rate = 4;
  config.shards = shards;
  config.seed = 7;

  engine::ServingEngine* engine_raw = nullptr;
  net::ServerConfig net_config;  // ephemeral port
  net_config.max_connections = connections + 8;
  net::NetServer server(
      net_config, [&engine_raw, &server](std::uint64_t token,
                                         const net::RequestMsg& msg) {
        const net::ServerRequest one{token, msg};
        engine::submit_requests(*engine_raw, server, &one, 1);
      });
  server.set_request_batch_handler(
      [&engine_raw, &server](const net::ServerRequest* batch,
                             std::size_t count) {
        engine::submit_requests(*engine_raw, server, batch, count);
      });
  engine::ServingEngine engine(
      config, [&server](const engine::EngineResponse& r) {
        net::ResponseMsg msg;
        msg.request_id = r.request_id;
        msg.status = static_cast<net::Status>(r.status);
        msg.server = static_cast<std::uint32_t>(r.server);
        msg.wait_steps = r.wait_steps;
        server.send_response(r.conn_token, msg);
      });
  engine_raw = &engine;
  engine.start();
  server.start();

  std::vector<RunResult> partials(connections);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();

  // The scraper exercises exactly the path rlb_stat hits over the wire:
  // snapshot() merges shard atomics without taking any engine lock, so the
  // sampling itself should not perturb the run.
  std::atomic<bool> scrape_stop{false};
  std::thread scraper;
  if (scrape_ms > 0 && samples != nullptr) {
    scraper = std::thread([&] {
      while (!scrape_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(scrape_ms));
        const net::StatsSnapshot snapshot = engine.snapshot();
        const net::ShardStats totals = snapshot.totals();
        ScrapeSample sample;
        sample.t_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        sample.submitted = totals.submitted;
        sample.completed = totals.completed;
        sample.rejected = totals.rejected_total();
        sample.backlog = totals.backlog;
        sample.inflight = totals.inflight;
        sample.waiting = totals.waiting_depth;
        sample.safe_worst_ratio = snapshot.safe_worst_ratio;
        sample.wire_p99_us = snapshot.latency.quantile(0.99);
        samples->push_back(sample);
      }
    });
  }

  for (std::size_t w = 0; w < connections; ++w) {
    const std::uint64_t quota =
        requests / connections + (w < requests % connections ? 1 : 0);
    threads.emplace_back([&, w, quota] {
      client_worker(server.port(), quota, 100 + w, concurrency,
                    (static_cast<std::uint64_t>(w) << 40) + 1, partials[w]);
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (scraper.joinable()) {
    scrape_stop.store(true, std::memory_order_relaxed);
    scraper.join();
  }
  engine.stop();
  server.stop();

  RunResult total;
  total.elapsed_seconds = elapsed;
  for (const RunResult& partial : partials) {
    total.ok += partial.ok;
    total.rejected += partial.rejected;
    total.errors += partial.errors;
    total.protocol_errors += partial.protocol_errors;
    total.latency_us.merge(partial.latency_us);
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t requests = 200000;
  std::size_t connections = 4;
  std::size_t concurrency = 64;
  std::uint64_t scrape_ms = 100;
  rlb::bench::Flags flags("E22 serving engine throughput/latency.");
  flags.num("--requests", "n", "requests per configuration", requests)
      .num("--connections", "c", "client connections", connections, 1)
      .num("--concurrency", "k", "outstanding requests per connection",
           concurrency, 1)
      .num("--scrape-ms", "ms", "in-run STATS scrape period; 0 = off",
           scrape_ms);
  rlb::bench::add_output_flags(flags);
  flags.parse(argc, argv);

  rlb::bench::print_banner(
      "E22 serving engine throughput/latency",
      "the routing policies keep their rejection behaviour when embedded in "
      "a concurrent request router (tentpole of the serving-engine PR)",
      "greedy serves a uniform closed loop with zero rejections and "
      "microsecond-scale p50; more shards raise throughput");
  rlb::bench::json_value("requests", requests);
  rlb::bench::json_value("connections", static_cast<std::uint64_t>(connections));
  rlb::bench::json_value("concurrency", static_cast<std::uint64_t>(concurrency));

  report::Table table({"policy", "shards", "throughput_rps", "reject_rate",
                       "p50_us", "p95_us", "p99_us", "errors",
                       "protocol_errors"});
  report::Table series({"policy", "shards", "t_ms", "submitted", "completed",
                        "rejected", "backlog", "inflight", "waiting",
                        "safe_worst_ratio", "wire_p99_us"});
  const std::vector<std::pair<std::string, std::size_t>> configs = {
      {"greedy", 1}, {"greedy", 4}, {"random-of-d", 4}, {"round-robin", 4}};
  for (const auto& [policy, shards] : configs) {
    std::vector<ScrapeSample> samples;
    const RunResult r = run_config(policy, shards, requests, connections,
                                   concurrency, scrape_ms, &samples);
    for (const ScrapeSample& sample : samples) {
      series.row()
          .cell(policy)
          .cell(static_cast<std::uint64_t>(shards))
          .cell(sample.t_ms)
          .cell(sample.submitted)
          .cell(sample.completed)
          .cell(sample.rejected)
          .cell(sample.backlog)
          .cell(sample.inflight)
          .cell(sample.waiting)
          .cell(sample.safe_worst_ratio, 3)
          .cell(sample.wire_p99_us);
    }
    const std::uint64_t answered = r.ok + r.rejected;
    const double throughput =
        r.elapsed_seconds > 0 ? static_cast<double>(answered) / r.elapsed_seconds
                              : 0.0;
    const double reject_rate =
        answered ? static_cast<double>(r.rejected) /
                       static_cast<double>(answered)
                 : 0.0;
    table.row()
        .cell(policy)
        .cell(static_cast<std::uint64_t>(shards))
        .cell(throughput, 0)
        .cell_sci(reject_rate)
        .cell(r.latency_us.quantile(0.50))
        .cell(r.latency_us.quantile(0.95))
        .cell(r.latency_us.quantile(0.99))
        .cell(r.errors)
        .cell(r.protocol_errors);
  }
  rlb::bench::emit(table);
  if (series.row_count() > 0) {
    std::cout << "\n== snapshot time-series (every " << scrape_ms
              << "ms) ==\n";
    rlb::bench::emit(series);
  }
  return 0;
}
