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
#include "harness/output.hpp"
#include "net/stats.hpp"
#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

void handle_dump_signal(int) { g_dump_requested = 1; }

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --backends <host:port,...> [flags]\n"
      << "  --backends <list>      rlbd endpoints, comma separated (required)\n"
      << "  --d <replication>      candidate backends per chunk (default 2)\n"
      << "  --chunks <n>           chunk count for the key hash (default 2^16)\n"
      << "  --seed <s>             placement seed (default 1)\n"
      << "  --port <p>             listen port; 0 = ephemeral (default 4116)\n"
      << "  --host <addr>          bind address (default 127.0.0.1)\n"
      << "  --heartbeat-ms <ms>    STATS ping period per backend (default 100)\n"
      << "  --heartbeat-timeout-ms <ms>\n"
      << "                         ping reply deadline (default 100)\n"
      << "  --miss-threshold <n>   consecutive misses -> mark-down (default 3)\n"
      << "  --probation <n>        consecutive successes -> mark-up (default 2)\n"
      << "  --timeout-ms <ms>      per-hop response deadline (default 2000)\n"
      << "  --max-attempts <n>     forward attempts per request; 0 = d\n"
      << "  --repair               enable the self-healing repair plane\n"
      << "  --repair-concurrent <n>    max concurrent migrations (default 2)\n"
      << "  --repair-bytes-per-sec <n> repair byte budget; 0=unthrottled\n"
      << "                             (default 8 MiB/s)\n"
      << "  --repair-chunk-bytes <n>   nominal state per chunk (default 4096)\n"
      << "  --repair-grace-ms <ms>     down time before repair starts\n"
      << "                             (default 300)\n"
      << "  --repair-timeout-ms <ms>   per-migration deadline (default 2000)\n"
      << "  --repair-scan-ms <ms>      planner scan period (default 100)\n"
      << "  --span-slow-us <us>    keep unsampled spans slower than this\n"
      << "                         (tail sampling; 0 = sampled/failed only)\n"
      << "  --stats-interval <s>   print live stats every s seconds (0=off)\n"
      << "  --flight-recorder <path>\n"
      << "                         flight-record JSON dump target for\n"
      << "                         SIGQUIT / drain (default\n"
      << "                         rlb_router_flight.json; empty disables)\n"
      << "  (plus --probes / --trace <path> from the obs layer)\n"
      << "rlb_stat polls the STATS admin opcode on the router port; add\n"
      << "--cluster to scrape the backends too, --events for the journal.\n";
}

bool parse_u64_flag(const char* name, const std::string& value,
                    std::uint64_t& out) {
  try {
    std::size_t pos = 0;
    const unsigned long long parsed = std::stoull(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    out = parsed;
    return true;
  } catch (const std::exception&) {
    std::cerr << "rlb_router: bad value for " << name << ": '" << value
              << "'\n";
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rlb;

  harness::init_output(argc, argv);

  cluster::RouterConfig config;
  config.port = 4116;
  std::uint64_t stats_interval_s = 0;
  std::string flight_recorder_path = "rlb_router_flight.json";

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    auto value = [&]() -> std::string { return argv[++i]; };
    std::uint64_t u64 = 0;
    if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else if (flag == "--backends" && has_value) {
      try {
        config.backends = cluster::parse_backend_list(value());
      } catch (const std::exception& e) {
        std::cerr << "rlb_router: " << e.what() << "\n";
        return 2;
      }
    } else if (flag == "--d" && has_value) {
      if (!parse_u64_flag("--d", value(), u64)) return 2;
      config.replication = static_cast<unsigned>(u64);
    } else if (flag == "--chunks" && has_value) {
      if (!parse_u64_flag("--chunks", value(), u64)) return 2;
      config.chunks = u64;
    } else if (flag == "--seed" && has_value) {
      if (!parse_u64_flag("--seed", value(), u64)) return 2;
      config.seed = u64;
    } else if (flag == "--port" && has_value) {
      if (!parse_u64_flag("--port", value(), u64) || u64 > 65535) return 2;
      config.port = static_cast<std::uint16_t>(u64);
    } else if (flag == "--host" && has_value) {
      config.host = value();
    } else if (flag == "--heartbeat-ms" && has_value) {
      if (!parse_u64_flag("--heartbeat-ms", value(), u64) || u64 == 0) {
        return 2;
      }
      config.heartbeat_interval_ms = u64;
    } else if (flag == "--heartbeat-timeout-ms" && has_value) {
      if (!parse_u64_flag("--heartbeat-timeout-ms", value(), u64) || u64 == 0) {
        return 2;
      }
      config.heartbeat_timeout_ms = u64;
    } else if (flag == "--miss-threshold" && has_value) {
      if (!parse_u64_flag("--miss-threshold", value(), u64) || u64 == 0) {
        return 2;
      }
      config.membership.miss_threshold = static_cast<unsigned>(u64);
    } else if (flag == "--probation" && has_value) {
      if (!parse_u64_flag("--probation", value(), u64) || u64 == 0) return 2;
      config.membership.probation_successes = static_cast<unsigned>(u64);
    } else if (flag == "--timeout-ms" && has_value) {
      if (!parse_u64_flag("--timeout-ms", value(), u64) || u64 == 0) return 2;
      config.request_timeout_ms = u64;
    } else if (flag == "--max-attempts" && has_value) {
      if (!parse_u64_flag("--max-attempts", value(), u64)) return 2;
      config.max_attempts = static_cast<unsigned>(u64);
    } else if (flag == "--repair") {
      config.repair.enabled = true;
    } else if (flag == "--repair-concurrent" && has_value) {
      if (!parse_u64_flag("--repair-concurrent", value(), u64) || u64 == 0) {
        return 2;
      }
      config.repair.max_concurrent = static_cast<unsigned>(u64);
    } else if (flag == "--repair-bytes-per-sec" && has_value) {
      if (!parse_u64_flag("--repair-bytes-per-sec", value(), u64)) return 2;
      config.repair.bytes_per_sec = u64;
    } else if (flag == "--repair-chunk-bytes" && has_value) {
      if (!parse_u64_flag("--repair-chunk-bytes", value(), u64)) return 2;
      config.repair.bytes_per_chunk = u64;
    } else if (flag == "--repair-grace-ms" && has_value) {
      if (!parse_u64_flag("--repair-grace-ms", value(), u64)) return 2;
      config.repair.down_grace_ms = u64;
    } else if (flag == "--repair-timeout-ms" && has_value) {
      if (!parse_u64_flag("--repair-timeout-ms", value(), u64) || u64 == 0) {
        return 2;
      }
      config.repair.migrate_timeout_ms = u64;
    } else if (flag == "--repair-scan-ms" && has_value) {
      if (!parse_u64_flag("--repair-scan-ms", value(), u64) || u64 == 0) {
        return 2;
      }
      config.repair.scan_interval_ms = u64;
    } else if (flag == "--span-slow-us" && has_value) {
      if (!parse_u64_flag("--span-slow-us", value(), u64)) return 2;
      rlb::obs::SpanRecorder::instance().set_slow_budget_ns(u64 * 1000);
    } else if (flag == "--stats-interval" && has_value) {
      if (!parse_u64_flag("--stats-interval", value(), u64)) return 2;
      stats_interval_s = u64;
    } else if (flag == "--flight-recorder" && has_value) {
      flight_recorder_path = value();
    } else if (flag == "--format" || flag == "--trace") {
      ++i;  // consumed by init_output
    } else if (flag == "--probes" || flag == "--trace-detail") {
      // consumed by init_output
    } else {
      std::cerr << "rlb_router: unknown flag '" << flag << "'\n";
      usage(argv[0]);
      return 2;
    }
  }

  if (config.backends.empty()) {
    std::cerr << "rlb_router: --backends is required\n";
    usage(argv[0]);
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
      sample.win_p99_us =
          static_cast<std::uint64_t>(snap.win_hop_rtt.quantile_us(0.99));
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
  // Flush trace sinks during the drain (atomic tmp+rename): no truncated
  // --trace / span JSONL on SIGTERM.
  obs::flush_trace();
  obs::flush_spans();

  const cluster::RouterStats s = router->stats();
  std::cout << "rlb_router: done. received=" << s.received
            << " forwarded=" << s.forwarded << " ok=" << s.relayed_ok
            << " backend_rejects=" << s.relayed_reject
            << " upstream_down=" << s.rejected_upstream_down
            << " upstream_timeout=" << s.rejected_upstream_timeout
            << " retries=" << s.retries << " timeouts=" << s.timeouts
            << " late=" << s.late_responses << " drops=" << s.backend_drops
            << std::endl;
  if (config.repair.enabled) {
    const net::RepairStats r = router->repair_stats();
    std::cout << "rlb_router: repair done. epoch=" << router->placement_epoch()
              << " migrated=" << r.migrations_done
              << " failed=" << r.migrations_failed
              << " bytes=" << r.bytes_sent << std::endl;
  }
  harness::emit_probes();
  return 0;
}
