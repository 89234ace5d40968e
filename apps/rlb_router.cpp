// rlb_router — the cluster front-end.
//
// Speaks the ordinary wire protocol to clients (rlb_loadgen works
// unchanged) and forwards every request to one of its chunk's d candidate
// rlbd backends — least estimated backlog among the live ones, estimates
// refreshed by heartbeat STATS pings, liveness by the membership state
// machine in src/cluster/membership.hpp.  See docs/CLUSTER.md.
//
// SIGINT/SIGTERM rejects in-flight hops and drains the client listener.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include <unistd.h>

#include "cluster/router.hpp"
#include "harness/flags.hpp"
#include "net/stats.hpp"
#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

void handle_dump_signal(int) { g_dump_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace rlb;

  cluster::RouterConfig config;
  config.port = 4116;
  std::uint64_t stats_interval_s = 0;
  std::uint64_t span_slow_us =
      obs::SpanRecorder::instance().slow_budget_ns() / 1000;
  std::string flight_recorder_path = "rlb_router_flight.json";

  harness::Flags flags(
      "The cluster front-end.  rlb_stat polls the STATS admin opcode on the\n"
      "router port; add --cluster to scrape the backends too, --events for\n"
      "the journal.");
  flags
      .custom("--backends", "host:port,...",
              "rlbd endpoints, comma separated (required)", "",
              [&config](const std::string& value) {
                try {
                  config.backends = cluster::parse_backend_list(value);
                } catch (const std::exception& e) {
                  return std::string(e.what());
                }
                return std::string();
              })
      .num("--d", "replication", "candidate backends per chunk",
           config.replication)
      .num("--chunks", "n", "chunk count for the key hash", config.chunks)
      .num("--seed", "s", "placement seed", config.seed)
      .num("--port", "p", "listen port; 0 = ephemeral", config.port)
      .text("--host", "addr", "bind address", config.host)
      .num("--heartbeat-ms", "ms", "STATS ping period per backend",
           config.heartbeat_interval_ms, 1)
      .num("--heartbeat-timeout-ms", "ms", "ping reply deadline",
           config.heartbeat_timeout_ms, 1)
      .num("--miss-threshold", "n", "consecutive misses -> mark-down",
           config.membership.miss_threshold, 1)
      .num("--probation", "n", "consecutive successes -> mark-up",
           config.membership.probation_successes, 1)
      .num("--timeout-ms", "ms", "per-hop response deadline",
           config.request_timeout_ms, 1)
      .num("--max-attempts", "n", "forward attempts per request; 0 = d",
           config.max_attempts)
      .toggle("--repair", "enable the self-healing repair plane",
              config.repair.enabled)
      .num("--repair-concurrent", "n", "max concurrent migrations",
           config.repair.max_concurrent, 1)
      .num("--repair-bytes-per-sec", "n", "repair byte budget; 0 = unthrottled",
           config.repair.bytes_per_sec)
      .num("--repair-chunk-bytes", "n", "nominal state per chunk",
           config.repair.bytes_per_chunk)
      .num("--repair-grace-ms", "ms", "down time before repair starts",
           config.repair.down_grace_ms)
      .num("--repair-timeout-ms", "ms", "per-migration deadline",
           config.repair.migrate_timeout_ms, 1)
      .num("--repair-scan-ms", "ms", "planner scan period",
           config.repair.scan_interval_ms, 1)
      .num("--span-slow-us", "us",
           "keep unsampled spans slower than this\n"
           "(tail sampling; 0 = sampled/failed only)",
           span_slow_us, 0, UINT64_MAX / 1000)
      .num("--stats-interval", "s", "print live stats every s seconds (0=off)",
           stats_interval_s)
      .text("--flight-recorder", "path",
            "flight-record JSON dump target for SIGQUIT /\n"
            "drain (empty string disables)",
            flight_recorder_path);
  flags.parse(argc, argv);
  obs::SpanRecorder::instance().set_slow_budget_ns(span_slow_us * 1000);

  if (config.backends.empty()) {
    std::cerr << "rlb_router: --backends: required (see --help)\n";
    return 2;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGQUIT, handle_dump_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Span recording on by default: zero cost until a request carries a wire
  // context, and span scrapes (rlb_stat --spans) expect spans.
  obs::set_span_recording(true);

  std::unique_ptr<cluster::Router> router;
  try {
    router = std::make_unique<cluster::Router>(config);
    router->start();
  } catch (const std::exception& e) {
    std::cerr << "rlb_router: " << e.what() << "\n";
    return 1;
  }

  std::cout << "rlb_router: routing to " << config.backends.size()
            << " backends (d=" << config.replication
            << ", heartbeat=" << config.heartbeat_interval_ms << "ms"
            << ", timeout=" << config.request_timeout_ms << "ms"
            << (config.repair.enabled ? ", repair=on" : "") << ") on "
            << config.host << ":" << router->port() << std::endl;

  // Flight recorder: journal tail + cluster-view snapshot, written from
  // ordinary context (SIGQUIT only flags).
  auto dump_flight_record = [&](const char* why) {
    if (flight_recorder_path.empty()) return;
    if (obs::write_flight_record(flight_recorder_path, "router", 0,
                                 net::render_json(router->snapshot()))) {
      std::cout << "rlb_router: flight record (" << why << ") -> "
                << flight_recorder_path << std::endl;
    } else {
      std::cerr << "rlb_router: flight record write failed: "
                << flight_recorder_path << "\n";
    }
  };

  // The alerting watchdog: one evaluation per second over the cluster-view
  // windowed signals (down backends, heartbeat flaps, windowed hop-RTT p99,
  // repair progress).
  obs::HealthWatchdog watchdog;

  std::uint64_t iterations = 0;
  while (!g_stop_requested) {
    ::usleep(200 * 1000);
    ++iterations;
    if (g_dump_requested) {
      g_dump_requested = 0;
      dump_flight_record("SIGQUIT");
    }
    if (iterations % 5 == 0) {
      const net::StatsSnapshot snap = router->snapshot();
      const net::ShardStats totals = snap.totals();
      obs::HealthSample sample;
      sample.safe_worst_ratio = snap.safe_worst_ratio;
      sample.win_p99_us = snap.win_hop_rtt.quantile(0.99);
      sample.down_count = totals.servers_down;
      // totals() keeps the max of max_batch; the flap rule needs the SUM of
      // per-backend mark-down counts (row.max_batch carries them).
      sample.transitions_down = 0;
      for (const net::ShardStats& row : snap.shards) {
        sample.transitions_down += row.max_batch;
      }
      sample.repair_pending = snap.repair.chunks_pending;
      sample.repair_done = snap.repair.migrations_done;
      watchdog.evaluate(sample);
      obs::set_active_alerts(watchdog.active());
    }
    if (stats_interval_s > 0 && iterations % (5 * stats_interval_s) == 0) {
      const cluster::RouterStats s = router->stats();
      std::cout << "rlb_router: received=" << s.received
                << " forwarded=" << s.forwarded << " ok=" << s.relayed_ok
                << " rejected="
                << (s.relayed_reject + s.rejected_upstream_down +
                    s.rejected_upstream_timeout)
                << " retries=" << s.retries << " drops=" << s.backend_drops
                << " live=" << router->membership().live_count() << "/"
                << config.backends.size() << std::endl;
      if (config.repair.enabled) {
        const net::RepairStats r = router->repair_stats();
        std::cout << "rlb_router: repair epoch=" << router->placement_epoch()
                  << " migrated=" << r.migrations_done
                  << " failed=" << r.migrations_failed
                  << " inflight=" << r.migrations_inflight
                  << " pending=" << r.chunks_pending
                  << " bytes=" << r.bytes_sent << std::endl;
      }
    }
  }

  std::cout << "rlb_router: draining..." << std::endl;
  // Capture the post-mortem before stop() tears down the upstream view.
  dump_flight_record("drain");
  router->stop();

  const cluster::RouterStats s = router->stats();
  std::cout << "rlb_router: done. received=" << s.received
            << " forwarded=" << s.forwarded << " ok=" << s.relayed_ok
            << " backend_rejects=" << s.relayed_reject
            << " upstream_down=" << s.rejected_upstream_down
            << " upstream_timeout=" << s.rejected_upstream_timeout
            << " retries=" << s.retries << " timeouts=" << s.timeouts
            << " late=" << s.late_responses << " drops=" << s.backend_drops
            << " failovers=" << s.send_failovers << std::endl;
  if (config.repair.enabled) {
    const net::RepairStats r = router->repair_stats();
    std::cout << "rlb_router: repair done. epoch=" << router->placement_epoch()
              << " migrated=" << r.migrations_done
              << " failed=" << r.migrations_failed
              << " bytes=" << r.bytes_sent << std::endl;
  }
  return 0;
}
