// Non-blocking loopback TCP listener for the serving engine, on a
// net::Reactor (net/reactor.hpp).
//
// The server owns one Reactor: its loop thread accepts connections (up to
// ServerConfig::max_connections), reassembles frames and hands decoded
// REQUEST messages to the registered handler, and admin frames (STATS,
// EVENTS, MIGRATE) to theirs.  Other components may register their own
// connections on the same reactor through reactor(): a cluster::Router
// dials its backends there, so one thread reads client requests, writes
// hops, reads backend responses and writes relays.
//
// There is no global lock on the data path.  Responses sent on the loop
// thread (a router relaying a backend's answer) go straight into the
// connection's drain buffer, as do an unpaced engine's, whose tick runs on
// the loop; responses sent from OTHER threads (the engine's own thread on
// a paced or frozen-queue clock or the shutdown drain, and the repair
// plane) are staged under a per-connection mutex and the loop is woken
// only when it sleeps.  Either way the loop writes each
// connection once per pass (see net/reactor.hpp).  Server counters are
// relaxed per-field atomics aggregated by stats().
//
// Connections are addressed by opaque 64-bit tokens (slot index + a
// generation counter), so a late response for a connection that already
// closed is dropped instead of reaching a recycled socket.  A connection
// whose pending outbound bytes exceed ServerConfig::max_outbound_bytes
// (a stalled or slow-reading client) is disconnected and counted as a
// slow-consumer drop instead of growing its buffer without bound.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/events_wire.hpp"
#include "net/stats.hpp"
#include "net/wire.hpp"

namespace rlb::net {

class Reactor;

struct ServerConfig {
  /// Bind address.  The serving engine is loopback-only for now.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Concurrent connection cap; accepts beyond it are closed immediately.
  std::size_t max_connections = 256;
  /// Backpressure cap: a connection whose queued outbound bytes (staged +
  /// not yet written) exceed this is closed and counted in
  /// slow_consumer_drops.  0 disables the cap.  It applies to every
  /// connection on the server's reactor, dialed ones included.
  std::size_t max_outbound_bytes = 8u << 20;
  /// SO_SNDBUF override for accepted sockets; 0 keeps the OS default.
  /// Mainly a test hook for forcing partial writes.
  int sndbuf = 0;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  /// Framing/decode violations (each also closes its connection).
  std::uint64_t protocol_errors = 0;
  std::uint64_t requests_decoded = 0;
  std::uint64_t responses_sent = 0;
  /// STATS admin frames served.
  std::uint64_t stats_requests = 0;
  /// EVENTS admin frames served.
  std::uint64_t events_requests = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Connections dropped for exceeding max_outbound_bytes.
  std::uint64_t slow_consumer_drops = 0;
};

/// Called on the event-loop thread for every decoded REQUEST frame.
using RequestHandler =
    std::function<void(std::uint64_t conn_token, const RequestMsg& request)>;

/// One decoded REQUEST with the connection it arrived on, for the batch
/// handler form.
struct ServerRequest {
  std::uint64_t conn_token = 0;
  RequestMsg msg;
};

/// Batch form of the request handler: called on the event-loop thread
/// with every REQUEST decoded from one readable burst (across reads of
/// one connection, flushed before any admin frame so ordering per
/// connection is preserved).  When installed it replaces the per-request
/// handler on the hot path, letting the engine take one queue lock per
/// burst instead of one per frame.
using RequestBatchHandler =
    std::function<void(const ServerRequest* batch, std::size_t count)>;

/// Called on the event-loop thread for every decoded STATS frame.  The
/// handler answers with send_stats() (immediately or later); it must be
/// fast — a snapshot built from shard-local atomics, not a blocking walk.
using StatsHandler =
    std::function<void(std::uint64_t conn_token, const StatsRequestMsg&)>;

/// Called on the event-loop thread for every decoded EVENTS frame.  The
/// handler answers with send_events(); building a batch is a short
/// cursor read of the requested ring (a few uncontended mutexes), cheap
/// enough for the loop thread.
using EventsHandler =
    std::function<void(std::uint64_t conn_token, const EventsRequestMsg&)>;

/// Called on the event-loop thread for every decoded MIGRATE frame (the
/// repair coordinator ordering this backend to stream a chunk out).  The
/// handler must be fast: hand the order to the migration agent's worker
/// queue and return; the eventual outcome is reported with
/// send_migrate_ack().
using MigrateHandler =
    std::function<void(std::uint64_t conn_token, const MigrateMsg&)>;

/// Called on the event-loop thread for every decoded MIGRATE_DATA frame
/// (a source backend streaming chunk state into this one).  Verification
/// is a checksum over an already-decoded payload — cheap enough for the
/// loop thread; the handler acks the final slice with send_migrate_ack().
using MigrateDataHandler =
    std::function<void(std::uint64_t conn_token, const MigrateDataMsg&)>;

class NetServer {
 public:
  explicit NetServer(const ServerConfig& config, RequestHandler on_request);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bind + listen + spawn the event loop.  Throws std::runtime_error on
  /// socket failures (port in use, etc.).
  void start();

  /// The reactor serving this server's connections; others may register
  /// dialed connections on it (see net/upstream.hpp).
  Reactor& reactor() noexcept;

  /// The bound port (after start(); resolves port 0 to the real one).
  std::uint16_t port() const noexcept { return port_; }

  /// Graceful shutdown: stop accepting, flush pending outbound bytes for
  /// up to `flush_timeout_ms`, close every connection on the reactor
  /// (dialed ones included), join the loop thread.  Idempotent.
  void stop(std::uint64_t flush_timeout_ms = 1000);

  /// Queue a response for delivery.  Thread-safe; callable from engine
  /// worker threads and from the loop thread itself.  Returns false when
  /// the connection is gone (the response is dropped).
  bool send_response(std::uint64_t conn_token, const ResponseMsg& response);

  /// Install the batch request handler (see RequestBatchHandler).  Call
  /// before start().  Takes precedence over the per-request handler.
  void set_request_batch_handler(RequestBatchHandler on_batch);

  /// Install the STATS admin handler.  Call before start(); without one,
  /// inbound STATS frames are protocol errors (connection closed).
  void set_stats_handler(StatsHandler on_stats);

  /// Queue a STATS_RESP snapshot for delivery.  Thread-safe.  Returns
  /// false when the connection is gone or the encoded snapshot exceeds
  /// kMaxFramePayload (the frame is dropped, connection left alone).
  bool send_stats(std::uint64_t conn_token, const StatsSnapshot& snapshot);

  /// Install the EVENTS admin handler.  Call before start(); without one,
  /// inbound EVENTS frames are protocol errors (connection closed).
  void set_events_handler(EventsHandler on_events);

  /// Queue an EVENTS_RESP batch for delivery.  Thread-safe; same
  /// semantics as send_stats().
  bool send_events(std::uint64_t conn_token, const EventsSnapshot& snapshot);

  /// Install the MIGRATE / MIGRATE_DATA repair handlers.  Call before
  /// start(); without them, inbound repair frames are protocol errors
  /// (connection closed) — a backend not running a migration agent
  /// refuses the repair plane outright.
  void set_migrate_handler(MigrateHandler on_migrate);
  void set_migrate_data_handler(MigrateDataHandler on_migrate_data);

  /// Queue a MIGRATE_ACK for delivery.  Thread-safe; returns false when
  /// the connection is gone (the ack is dropped — the coordinator's
  /// migration timeout handles the loss).
  bool send_migrate_ack(std::uint64_t conn_token, const MigrateAckMsg& ack);

  /// Aggregated from relaxed atomics; each field is individually
  /// consistent but the snapshot is not a cross-field atomic cut.
  ServerStats stats() const;

 private:
  struct Impl;
  Impl* impl_;
  std::uint16_t port_ = 0;
};

}  // namespace rlb::net
