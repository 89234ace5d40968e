// rlbd — the live serving daemon.
//
// Wires the three layers of the serving stack together:
//   net::NetServer    — loopback TCP listener + wire protocol framing
//   engine::ServingEngine — sharded workers embedding a core::LoadBalancer
//   store::KeyMapper  — GET(key) -> chunk (inside the engine)
// Every REQUEST frame becomes engine.submit(); every balancer outcome comes
// back through the RequestSink path as a RESPONSE frame (OK with the
// serving server id and queueing delay, or REJECT when the paper's bounded
// queue — or the engine's admission control — says no).
//
// SIGINT/SIGTERM triggers a graceful drain: the engine stops admitting,
// answers everything queued, then the listener flushes and closes.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include <unistd.h>

#include "engine/engine.hpp"
#include "harness/output.hpp"
#include "net/events_wire.hpp"
#include "net/server.hpp"
#include "net/stats.hpp"
#include "net/wire.hpp"
#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "repair/migrate_agent.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

void handle_dump_signal(int) { g_dump_requested = 1; }

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [flags]\n"
      << "  --policy <name>        routing policy (default greedy)\n"
      << "  --m <servers>          total servers (default 64)\n"
      << "  --d <replication>      replicas per chunk (default 2)\n"
      << "  --g <rate>             service per server per tick (default 2)\n"
      << "  --q <capacity>         queue bound; 0 = theorem default\n"
      << "  --shards <n>           worker threads (default 1)\n"
      << "  --chunks <n>           chunk count (default 2^20)\n"
      << "  --mapper <hash|range>  key->chunk scheme (default hash)\n"
      << "  --key-space <n>        range-mapper key space; 0 = chunks\n"
      << "  --port <p>             listen port; 0 = ephemeral (default 4117)\n"
      << "  --host <addr>          bind address (default 127.0.0.1)\n"
      << "  --seed <s>             master seed (default 1)\n"
      << "  --max-batch <n>        distinct chunks per tick per shard\n"
      << "  --waiting-limit <n>    per-shard admission bound\n"
      << "  --tick-us <us>         minimum tick period; 0 = free-running\n"
      << "  --failure-schedule <spec>\n"
      << "                         script:t,s,down|up;...  bernoulli:p,mttr\n"
      << "                         rack:racks,p,mttr (ticks as the clock)\n"
      << "  --dump-on-crash        reject a crashed server's queue\n"
      << "  --backend-id <n>       cluster identity echoed in STATS\n"
      << "                         snapshots (rlb_router / rlb_stat --cluster)\n"
      << "  --span-slow-us <us>    keep unsampled spans slower than this\n"
      << "                         (tail sampling; 0 = sampled/failed only)\n"
      << "  --stats-interval <s>   print live stats every s seconds (0=off)\n"
      << "  --safe-set-log <path>  append one safe-set JSONL record per\n"
      << "                         stats interval (forces 1s when unset)\n"
      << "  --flight-recorder <path>\n"
      << "                         flight-record JSON dump target for\n"
      << "                         SIGQUIT / drain (default rlbd_flight.json;\n"
      << "                         empty string disables)\n"
      << "  (plus --probes / --trace <path> from the obs layer)\n"
      << "rlb_stat polls the STATS admin opcode on the same port;\n"
      << "rlb_stat --events drains the control-plane journal (EVENTS).\n";
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
    std::cerr << "rlbd: bad value for " << name << ": '" << value << "'\n";
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rlb;

  harness::init_output(argc, argv);

  engine::EngineConfig config;
  net::ServerConfig net_config;
  net_config.port = 4117;
  std::uint64_t stats_interval_s = 0;
  std::string safe_set_log_path;
  std::string flight_recorder_path = "rlbd_flight.json";

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    auto value = [&]() -> std::string { return argv[++i]; };
    std::uint64_t u64 = 0;
    if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else if (flag == "--policy" && has_value) {
      config.policy = value();
    } else if (flag == "--m" && has_value) {
      if (!parse_u64_flag("--m", value(), u64)) return 2;
      config.servers = static_cast<std::size_t>(u64);
    } else if (flag == "--d" && has_value) {
      if (!parse_u64_flag("--d", value(), u64)) return 2;
      config.replication = static_cast<unsigned>(u64);
    } else if (flag == "--g" && has_value) {
      if (!parse_u64_flag("--g", value(), u64)) return 2;
      config.processing_rate = static_cast<unsigned>(u64);
    } else if (flag == "--q" && has_value) {
      if (!parse_u64_flag("--q", value(), u64)) return 2;
      config.queue_capacity = static_cast<std::size_t>(u64);
    } else if (flag == "--shards" && has_value) {
      if (!parse_u64_flag("--shards", value(), u64)) return 2;
      config.shards = static_cast<std::size_t>(u64);
    } else if (flag == "--chunks" && has_value) {
      if (!parse_u64_flag("--chunks", value(), u64)) return 2;
      config.chunks = static_cast<std::size_t>(u64);
    } else if (flag == "--mapper" && has_value) {
      config.mapper = value();
    } else if (flag == "--key-space" && has_value) {
      if (!parse_u64_flag("--key-space", value(), u64)) return 2;
      config.key_space = u64;
    } else if (flag == "--port" && has_value) {
      if (!parse_u64_flag("--port", value(), u64) || u64 > 65535) return 2;
      net_config.port = static_cast<std::uint16_t>(u64);
    } else if (flag == "--host" && has_value) {
      net_config.host = value();
    } else if (flag == "--seed" && has_value) {
      if (!parse_u64_flag("--seed", value(), u64)) return 2;
      config.seed = u64;
    } else if (flag == "--max-batch" && has_value) {
      if (!parse_u64_flag("--max-batch", value(), u64)) return 2;
      config.max_batch = static_cast<std::size_t>(u64);
    } else if (flag == "--waiting-limit" && has_value) {
      if (!parse_u64_flag("--waiting-limit", value(), u64)) return 2;
      config.waiting_limit = static_cast<std::size_t>(u64);
    } else if (flag == "--tick-us" && has_value) {
      if (!parse_u64_flag("--tick-us", value(), u64)) return 2;
      config.tick_interval_us = u64;
    } else if (flag == "--failure-schedule" && has_value) {
      config.failure_spec = value();
    } else if (flag == "--dump-on-crash") {
      config.dump_queue_on_crash = true;
    } else if (flag == "--backend-id" && has_value) {
      if (!parse_u64_flag("--backend-id", value(), u64) || u64 > 0xFFFFFFFFULL) {
        return 2;
      }
      config.backend_id = static_cast<std::uint32_t>(u64);
    } else if (flag == "--stats-interval" && has_value) {
      if (!parse_u64_flag("--stats-interval", value(), u64)) return 2;
      stats_interval_s = u64;
    } else if (flag == "--safe-set-log" && has_value) {
      safe_set_log_path = value();
    } else if (flag == "--flight-recorder" && has_value) {
      flight_recorder_path = value();
    } else if (flag == "--span-slow-us" && has_value) {
      if (!parse_u64_flag("--span-slow-us", value(), u64)) return 2;
      rlb::obs::SpanRecorder::instance().set_slow_budget_ns(u64 * 1000);
    } else if (flag == "--format" || flag == "--trace" ||
               flag == "--fail-rate" || flag == "--mttr") {
      ++i;  // consumed by init_output / reserved
    } else if (flag == "--probes" || flag == "--trace-detail") {
      // consumed by init_output
    } else {
      std::cerr << "rlbd: unknown flag '" << flag << "'\n";
      usage(argv[0]);
      return 2;
    }
  }

  // Server and engine reference each other (requests flow down, responses
  // flow back up); both lambdas capture through pointers filled in below.
  engine::ServingEngine* engine_raw = nullptr;
  net::NetServer server(
      net_config, [&engine_raw, &server](std::uint64_t conn_token,
                                         const net::RequestMsg& request) {
        if (!engine_raw->submit(conn_token, request.request_id, request.key,
                                request.trace)) {
          net::ResponseMsg msg;
          msg.request_id = request.request_id;
          msg.status = net::Status::kError;
          server.send_response(conn_token, msg);
        }
      });
  std::unique_ptr<engine::ServingEngine> engine_ptr;
  try {
    engine_ptr = std::make_unique<engine::ServingEngine>(
        config, [&server](const engine::EngineResponse& r) {
          net::ResponseMsg msg;
          msg.request_id = r.request_id;
          msg.status = static_cast<net::Status>(r.status);
          msg.server = static_cast<std::uint32_t>(r.server);
          msg.wait_steps = r.wait_steps;
          server.send_response(r.conn_token, msg);
        });
  } catch (const std::exception& e) {
    std::cerr << "rlbd: " << e.what() << "\n";
    return 2;
  }
  engine::ServingEngine& engine = *engine_ptr;
  engine_raw = engine_ptr.get();

  // Batched submit: the server hands over each wakeup's worth of decoded
  // REQUEST frames in one call, and the engine groups them by shard so a
  // burst costs one shard-lock + notify per shard instead of one per
  // request (the per-request handler above stays as the fallback path).
  server.set_request_batch_handler(
      [&engine_raw, &server](const net::ServerRequest* batch,
                             std::size_t count) {
        thread_local std::vector<engine::ServingEngine::SubmitItem> items;
        thread_local std::vector<std::size_t> rejected;
        items.clear();
        rejected.clear();
        items.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          items.push_back({batch[i].conn_token, batch[i].msg.request_id,
                           batch[i].msg.key, batch[i].msg.trace});
        }
        engine_raw->submit_batch(items.data(), count, rejected);
        for (const std::size_t i : rejected) {
          net::ResponseMsg msg;
          msg.request_id = batch[i].msg.request_id;
          msg.status = net::Status::kError;
          server.send_response(batch[i].conn_token, msg);
        }
      });

  // STATS admin frames answer from the event-loop thread: snapshot() is a
  // lock-free merge of shard atomics, so no worker tick ever blocks on it.
  // A router heartbeat piggybacks its placement epoch on the request; the
  // engine records it so the snapshot echoes cluster cutover progress.
  server.set_stats_handler(
      [&engine, &server](std::uint64_t conn_token,
                         const net::StatsRequestMsg& msg) {
        if (msg.epoch != 0) engine.set_placement_epoch(msg.epoch);
        server.send_stats(conn_token, engine.snapshot());
      });

  // Repair plane: MIGRATE orders from a repair coordinator stream chunk
  // state between backends without touching the serving path (the agent's
  // worker thread does the blocking I/O).
  repair::MigrationAgent migration_agent(server);
  migration_agent.set_on_migration_in(
      [&engine](std::uint64_t bytes) { engine.note_migration_in(bytes); });
  migration_agent.set_on_migration_out(
      [&engine](std::uint64_t bytes) { engine.note_migration_out(bytes); });
  migration_agent.install();

  // EVENTS reads the control-plane journal or the span flight recorder by
  // cursor (non-destructive, so any number of rlb_stat scrapers coexist).
  // Span recording is on by default (zero cost until a request actually
  // carries a wire context).
  obs::set_span_recording(true);
  const std::uint32_t backend_id = config.backend_id;
  server.set_events_handler(
      [&server, backend_id](std::uint64_t conn_token,
                            const net::EventsRequestMsg& msg) {
        server.send_events(conn_token,
                           net::make_events_snapshot(net::NodeRole::kBackend,
                                                     backend_id, msg.cursor,
                                                     msg.ring()));
      });

  std::ofstream safe_set_log;
  if (!safe_set_log_path.empty()) {
    safe_set_log.open(safe_set_log_path, std::ios::app);
    if (!safe_set_log) {
      std::cerr << "rlbd: cannot open --safe-set-log path '"
                << safe_set_log_path << "'\n";
      return 2;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGQUIT, handle_dump_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // Flight recorder: journal tail + current snapshot as one atomic JSON
  // document.  Not async-signal-safe, so SIGQUIT only flags and the main
  // loop calls this from ordinary context.
  auto dump_flight_record = [&](const char* why) {
    if (flight_recorder_path.empty()) return;
    if (obs::write_flight_record(flight_recorder_path, "backend",
                                 config.backend_id,
                                 net::render_json(engine.snapshot()))) {
      std::cout << "rlbd: flight record (" << why << ") -> "
                << flight_recorder_path << std::endl;
    } else {
      std::cerr << "rlbd: flight record write failed: "
                << flight_recorder_path << "\n";
    }
  };

  // The alerting watchdog: one evaluation per second over this backend's
  // own windowed signals; active rule names feed the STATS snapshot via
  // obs::set_active_alerts().
  obs::HealthWatchdog watchdog;

  engine.start();
  migration_agent.start();
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "rlbd: " << e.what() << "\n";
    migration_agent.stop();
    engine.stop();
    return 1;
  }

  std::cout << "rlbd: serving policy=" << config.policy
            << " backend=" << config.backend_id
            << " m=" << config.servers << " d=" << config.replication
            << " g=" << config.processing_rate
            << " shards=" << config.shards << " on " << net_config.host << ":"
            << server.port() << std::endl;

  // One loop iteration = 200ms.  The safe-set log samples every
  // stats-interval (1s when --stats-interval is unset).
  const std::uint64_t log_period =
      5 * (stats_interval_s > 0 ? stats_interval_s : 1);
  std::uint64_t iterations = 0;
  while (!g_stop_requested) {
    ::usleep(200 * 1000);
    ++iterations;
    if (g_dump_requested) {
      g_dump_requested = 0;
      dump_flight_record("SIGQUIT");
    }
    if (iterations % 5 == 0) {
      const net::StatsSnapshot snap = engine.snapshot();
      obs::HealthSample sample;
      sample.safe_worst_ratio = snap.safe_worst_ratio;
      sample.win_p99_us =
          static_cast<std::uint64_t>(snap.win_latency.quantile_us(0.99));
      sample.down_count = snap.totals().servers_down;
      sample.slow_consumer_drops = server.stats().slow_consumer_drops;
      watchdog.evaluate(sample);
      obs::set_active_alerts(watchdog.active());
    }
    if (safe_set_log.is_open() && iterations % log_period == 0) {
      safe_set_log << net::render_json(engine.snapshot()) << "\n";
      safe_set_log.flush();
    }
    if (stats_interval_s > 0 && iterations % (5 * stats_interval_s) == 0) {
      const engine::EngineStats s = engine.stats();
      const net::ServerStats n = server.stats();
      std::cout << "rlbd: submitted=" << s.submitted
                << " completed=" << s.completed << " rejected=" << s.rejected
                << " overload=" << s.overload_rejected
                << " backlog=" << s.backlog << " ticks=" << s.ticks
                << " down=" << s.servers_down
                << " conns=" << (n.connections_accepted - n.connections_closed)
                << " proto_errors=" << n.protocol_errors << std::endl;
    }
  }

  std::cout << "rlbd: draining..." << std::endl;
  // Capture the post-mortem before the engine stops: the snapshot still
  // shows the state the incident left behind.
  dump_flight_record("drain");
  // Drain order matters: the engine answers everything in flight first
  // (responses land in the listener's outbound buffers), then the listener
  // flushes those buffers and closes.  The migration agent goes first so
  // no new repair stream starts against a draining peer.
  migration_agent.stop();
  engine.stop();
  server.stop();
  // Flush trace sinks as part of the drain (atomic tmp+rename) so a SIGTERM
  // never leaves a truncated --trace / span JSONL behind.
  obs::flush_trace();
  obs::flush_spans();

  const engine::EngineStats s = engine.stats();
  const net::ServerStats n = server.stats();
  std::cout << "rlbd: done. submitted=" << s.submitted
            << " completed=" << s.completed << " rejected=" << s.rejected
            << " overload=" << s.overload_rejected
            << " crashes=" << s.crashes << " recoveries=" << s.recoveries
            << " bytes_in=" << n.bytes_in << " bytes_out=" << n.bytes_out
            << " proto_errors=" << n.protocol_errors << std::endl;
  harness::emit_probes();
  return 0;
}
