// The rlb_router front-end: the paper's d-choice policy lifted one level,
// from servers inside a process to backend PROCESSES across a cluster.
//
// A Router speaks the ordinary wire protocol to clients (rlb_loadgen works
// unchanged): its NetServer reactor decodes REQUEST frames, the key is
// hashed to a chunk, and core::Placement maps the chunk to its d candidate
// *backends* — the same stable, reappearance-inducing placement the
// in-process engine applies to servers.  The request is forwarded to the
// least-estimated-backlog live candidate over that backend's multiplexed
// UpstreamConn, with the request id remapped to a router-assigned hop id
// (client ids from different connections collide; hop ids never do).  The
// response is relayed back via send_response() keyed by the recorded
// {conn token, client id}.
//
// Thread model: the data plane is one thread.  Every UpstreamConn is
// registered on the NetServer's own reactor (net/reactor.hpp), so its loop
// reads client requests, writes hops, reads backend responses, writes
// relays and runs the hop-timeout sweep on a timer; the in-flight hop
// table is private to it.  Besides that loop the router runs one
// heartbeat prober thread per backend and, when enabled, the repair
// plane's threads.
//
// Failure handling is budgeted: a hop that times out, or whose backend
// connection drops, is retried on the next-best untried live candidate
// until the per-request attempt budget (= d) is spent, then rejected with
// a hop-level cause — Status::kRejectUpstreamDown when no live candidate
// was available, Status::kRejectUpstreamTimeout when forwarded attempts
// exhausted the timeout budget.  Membership (cluster/membership.hpp) is
// fed by per-backend heartbeat probers and by data-plane drop events.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/membership.hpp"
#include "core/placement_epoch.hpp"
#include "net/stats.hpp"
#include "repair/coordinator.hpp"

namespace rlb::cluster {

struct BackendEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parse "host:port,host:port,..." (host defaults to 127.0.0.1 when a bare
/// port is given).  Throws std::invalid_argument on malformed input.
std::vector<BackendEndpoint> parse_backend_list(const std::string& spec);

struct RouterConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  std::size_t max_connections = 256;

  std::vector<BackendEndpoint> backends;
  /// Cluster-level replication: each chunk's candidate backend count.
  unsigned replication = 2;
  /// Chunk-id space for the key hash (mirrors rlbd --chunks).
  std::uint64_t chunks = 1u << 16;
  std::uint64_t seed = 1;

  std::uint64_t heartbeat_interval_ms = 100;
  /// Receive timeout for one heartbeat STATS round trip.
  std::uint64_t heartbeat_timeout_ms = 100;
  MembershipConfig membership;

  /// Per-hop response deadline; an expired hop is retried or rejected.
  std::uint64_t request_timeout_ms = 2000;
  /// Total forward attempts per request; 0 = one per candidate backend.
  unsigned max_attempts = 0;

  /// Self-healing repair plane (repair/coordinator.hpp); disabled by
  /// default.  When enabled the router hosts a RepairCoordinator fed by
  /// membership transitions.
  repair::RepairConfig repair;
  /// Placement deltas applied at construction, before serving starts —
  /// benches and tests use this to start from a skewed placement (each
  /// delta's epoch must be 1 + the previous; an inapplicable delta throws
  /// std::invalid_argument).
  std::vector<core::PlacementDelta> initial_deltas;
};

/// Router-level counters (cumulative since start()).
struct RouterStats {
  std::uint64_t received = 0;       ///< REQUEST frames from clients
  std::uint64_t forwarded = 0;      ///< hop sends (retries included)
  std::uint64_t relayed_ok = 0;
  std::uint64_t relayed_reject = 0;  ///< backend-origin kReject
  std::uint64_t relayed_error = 0;
  std::uint64_t rejected_upstream_down = 0;     ///< no live candidate
  std::uint64_t rejected_upstream_timeout = 0;  ///< attempt budget spent
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;        ///< hop deadlines that expired
  std::uint64_t late_responses = 0;  ///< answers for already-retired hops
  std::uint64_t backend_drops = 0;   ///< data-plane disconnect events
  /// Forwards whose enqueue found the backend's connection dead, failed
  /// over within the same attempt budget.
  std::uint64_t send_failovers = 0;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind the client listener, dial every backend (now, on the reactor),
  /// arm the hop-timeout sweep and launch the heartbeat probers.  Throws
  /// std::runtime_error when the listener cannot bind.
  void start();

  /// Join the probers, then on the reactor close every upstream (rejecting
  /// its pending hops), and drain the client listener.  Idempotent.
  void stop();

  std::uint16_t port() const noexcept;

  [[nodiscard]] RouterStats stats() const;
  [[nodiscard]] const Membership& membership() const;

  /// Current placement epoch (0 until the first repair commit).
  [[nodiscard]] std::uint64_t placement_epoch() const;
  /// Every placement delta committed so far, in epoch order.
  [[nodiscard]] std::vector<core::PlacementDelta> placement_history() const;
  /// Router-side repair counters (all-zero when repair is disabled).
  [[nodiscard]] net::RepairStats repair_stats() const;

  /// Cluster view as a StatsSnapshot (served for STATS pings): role =
  /// kRouter, one ShardStats row per backend — see docs/CLUSTER.md for
  /// the field mapping (e.g. ticks/batches carry heartbeat ok/miss
  /// counts, backlog carries the live load estimate).
  [[nodiscard]] net::StatsSnapshot snapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rlb::cluster
