// rlbd — the live serving daemon.
//
// Wires the three layers of the serving stack together:
//   net::NetServer    — loopback TCP listener + wire protocol framing
//   engine::ServingEngine — sharded workers embedding a core::LoadBalancer
//   store::KeyMapper  — GET(key) -> chunk (inside the engine)
// Every REQUEST frame goes to engine.submit_batch(); every balancer outcome
// comes back through the RequestSink path as a RESPONSE frame (OK with the
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

}  // namespace

int main(int argc, char** argv) {
  using namespace rlb;

  engine::EngineConfig config;
  net::ServerConfig net_config;
  net_config.port = 4117;
  std::uint64_t stats_interval_s = 0;
  std::uint64_t span_slow_us =
      obs::SpanRecorder::instance().slow_budget_ns() / 1000;
  std::string safe_set_log_path;
  std::string flight_recorder_path = "rlbd_flight.json";

  harness::Flags flags(
      "The live serving daemon.  rlb_stat polls the STATS admin opcode on\n"
      "the same port; rlb_stat --events reads the control-plane journal.");
  flags.text("--policy", "name", "routing policy", config.policy)
      .num("--m", "servers", "total servers", config.servers)
      .num("--d", "replication", "replicas per chunk", config.replication)
      .num("--g", "rate", "service per server per tick",
           config.processing_rate)
      .num("--q", "capacity", "queue bound; 0 = theorem default",
           config.queue_capacity)
      .num("--shards", "n", "worker threads", config.shards)
      .num("--chunks", "n", "chunk count", config.chunks)
      .text("--mapper", "hash|range", "key->chunk scheme", config.mapper)
      .num("--key-space", "n", "range-mapper key space; 0 = chunks",
           config.key_space)
      .num("--port", "p", "listen port; 0 = ephemeral", net_config.port)
      .text("--host", "addr", "bind address", net_config.host)
      .num("--seed", "s", "master seed", config.seed)
      .num("--max-batch", "n", "distinct chunks per tick per shard",
           config.max_batch)
      .num("--waiting-limit", "n", "per-shard admission bound",
           config.waiting_limit)
      .num("--tick-us", "us", "minimum tick period; 0 = free-running",
           config.tick_interval_us)
      .text("--failure-schedule", "spec",
            "script:t,s,down|up;...  bernoulli:p,mttr\n"
            "rack:racks,p,mttr (ticks as the clock)",
            config.failure_spec)
      .toggle("--dump-on-crash", "reject a crashed server's queue",
              config.dump_queue_on_crash)
      .num("--backend-id", "n",
           "cluster identity echoed in STATS snapshots\n"
           "(rlb_router / rlb_stat --cluster)",
           config.backend_id)
      .num("--span-slow-us", "us",
           "keep unsampled spans slower than this\n"
           "(tail sampling; 0 = sampled/failed only)",
           span_slow_us, 0, UINT64_MAX / 1000)
      .num("--stats-interval", "s", "print live stats every s seconds (0=off)",
           stats_interval_s)
      .text("--safe-set-log", "path",
            "append one safe-set JSONL record per stats\n"
            "interval (forces 1s when unset)",
            safe_set_log_path)
      .text("--flight-recorder", "path",
            "flight-record JSON dump target for SIGQUIT /\n"
            "drain (empty string disables)",
            flight_recorder_path);
  harness::add_output_flags(flags);
  flags.parse(argc, argv);
  obs::SpanRecorder::instance().set_slow_budget_ns(span_slow_us * 1000);

  // Server and engine reference each other (requests flow down, responses
  // flow back up); the handlers capture through pointers filled in below.
  // The server hands over each wakeup's worth of decoded REQUEST frames in
  // one call, and the engine groups them by shard so a burst costs one
  // shard-lock + notify per shard instead of one per request.
  engine::ServingEngine* engine_raw = nullptr;
  net::NetServer server(
      net_config, [&engine_raw, &server](std::uint64_t conn_token,
                                         const net::RequestMsg& request) {
        const net::ServerRequest one{conn_token, request};
        engine::submit_requests(*engine_raw, server, &one, 1);
      });
  server.set_request_batch_handler(
      [&engine_raw, &server](const net::ServerRequest* batch,
                             std::size_t count) {
        engine::submit_requests(*engine_raw, server, batch, count);
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
