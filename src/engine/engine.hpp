// The live serving engine: concurrent request routing over the paper's
// policies.
//
// The simulator is step-synchronous and single-threaded per trial; the
// engine runs the SAME policy objects under real concurrency.  It embeds
// one core::LoadBalancer over all m servers, so each chunk is routed among
// its d candidates out of all m and the Def 3.2 bounds (m/2^j) speak of
// the whole server set, as in the paper.  One mutex guards the tick, so the
// balancer sees exactly the model it was built for: one ticking thread at
// a time, distinct chunks per step.  Scale-out is more rlbd backends
// behind rlb_router, not more balancers in one engine.
//
// Request path:  GET(key) -> store::KeyMapper -> chunk -> admission into a
// bounded waiting room, on the thread calling submit_batch() (overflow =
// immediate REJECT, answered there — admission control ahead of routing).
// Each drain tick assembles a micro-batch of DISTINCT chunks from the
// waiting room (duplicates wait for the next tick, preserving the model's
// distinct-chunks-per-step contract) and runs one LoadBalancer::step(),
// which routes the batch and applies g service per server.  The paper's
// bounded queue q turns into protocol-level backpressure: a full queue
// rejects the arrival, and the installed core::RequestSink converts that
// into a REJECT response for the exact client waiting on it.
//
// Who ticks: with tick_interval_us == 0, the thread calling submit_batch()
// runs the ticks itself until the engine settles (under rlbd, the
// NetServer reactor, so responses leave with no cross-thread hand-off).
// The engine's one thread, waiting on one condition variable, does the
// rest: it advances the tick clock when a tick makes no progress (a queue
// frozen on crashed servers), runs every tick of a paced engine, rechecks
// the safe set while idle and violated, and drains at shutdown.
//
// Failure schedules (core::FailureSchedule) run live: the engine consults
// the schedule at every tick boundary and applies crash / recover
// transitions through set_server_up — the same failover machinery the
// fault-injection experiments exercise, now under real traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/failure.hpp"
#include "core/types.hpp"
#include "net/server.hpp"
#include "net/stats.hpp"
#include "obs/span.hpp"
#include "store/key_mapper.hpp"

namespace rlb::engine {

struct EngineConfig {
  /// Routing policy name (policies::make_policy); must support per-request
  /// reporting (core::RequestSink) — every built-in policy does except
  /// "migrating-d1" and "batched-greedy".
  std::string policy = "greedy";
  /// m — total servers.
  std::size_t servers = 64;
  /// d — replication factor.
  unsigned replication = 2;
  /// g — per-server service per drain-clock tick.
  unsigned processing_rate = 2;
  /// q — bounded queue length; 0 = the policy's theorem default.
  std::size_t queue_capacity = 0;
  /// Must be 1 (the constructor throws otherwise): one balancer over all m
  /// servers.  Kept so existing configs that set it still compile.
  std::size_t shards = 1;
  /// n — number of chunks the key space shards into.
  std::size_t chunks = 1 << 20;
  /// Key -> chunk scheme: "hash" (HashShardMapper) or "range"
  /// (RangeShardMapper; with key_space == chunks this is the identity map,
  /// useful for driving the engine with chunk-level workloads).
  std::string mapper = "hash";
  /// Range mapper key space; 0 = chunks (identity-width ranges).
  std::uint64_t key_space = 0;
  std::uint64_t seed = 1;
  /// Distinct chunks routed per tick; 0 = servers (the model's "up to m
  /// requests per step").
  std::size_t max_batch = 0;
  /// Pre-routing waiting room; arrivals beyond it are rejected
  /// immediately.  0 = 8 x max_batch.
  std::size_t waiting_limit = 0;
  /// Minimum drain-clock period in microseconds; 0 = free-running (a tick
  /// fires whenever there is work).
  std::uint64_t tick_interval_us = 0;
  /// Live outage script; see parse_failure_spec().  Empty = no faults.
  std::string failure_spec;
  /// Crash semantics: reject a crashed server's queued requests at crash
  /// time (true) or freeze them until recovery (false).  A crash the
  /// failure schedule never recovers from always rejects.
  bool dump_queue_on_crash = false;
  /// Operator-assigned cluster identity, echoed in STATS snapshots so a
  /// router / rlb_stat --cluster can tell backends apart (rlbd
  /// --backend-id).  Purely informational inside the engine.
  std::uint32_t backend_id = 0;
};

/// One answered request, delivered to the ResponseFn from whichever thread
/// answers it: the thread calling submit_batch(), before that call returns
/// (every admission shed, and every tick of an unpaced engine), or the
/// engine's own thread (paced ticks, a frozen queue's clock, the shutdown
/// drain).  Thread-safe delivery is the callback's responsibility, and the
/// callback must not call submit_batch() itself.
struct EngineResponse {
  std::uint64_t conn_token = 0;
  std::uint64_t request_id = 0;
  /// 0 = served, 1 = rejected (bounded queue / waiting room / all replicas
  /// down), 2 = error (engine not accepting).
  std::uint8_t status = 0;
  /// Global server id that served the request (status 0 only).
  core::ServerId server = 0;
  /// Drain-clock steps spent queued (status 0 only).
  std::uint32_t wait_steps = 0;
};

inline constexpr std::uint8_t kEngineOk = 0;
inline constexpr std::uint8_t kEngineReject = 1;
inline constexpr std::uint8_t kEngineError = 2;

using ResponseFn = std::function<void(const EngineResponse&)>;

/// Parse a live outage spec into a schedule over `servers` servers whose
/// clock is the engine's tick counter.  Formats:
///   script:<tick>,<server>,<down|up>[;<tick>,<server>,<down|up>...]
///   bernoulli:<fail_rate>,<mttr>
///   rack:<racks>,<rack_fail_rate>,<mttr>
/// Returns nullptr for an empty spec; throws std::invalid_argument on a
/// malformed one.
std::unique_ptr<core::FailureSchedule> parse_failure_spec(
    const std::string& spec, std::size_t servers, std::uint64_t seed);

class ServingEngine {
 public:
  /// Throws std::invalid_argument for bad configs (unknown policy/mapper,
  /// a policy without RequestSink support, shards other than 1, or a
  /// malformed failure_spec).
  ServingEngine(const EngineConfig& config, ResponseFn on_response);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Spawn the engine's thread and start admitting.
  void start();

  /// Graceful drain: stop admitting, answer everything in flight, join the
  /// thread.  Idempotent.
  void stop();

  /// One request in a submit_batch() call.
  struct SubmitItem {
    std::uint64_t conn_token = 0;
    std::uint64_t request_id = 0;
    store::KeyId key = 0;
    obs::TraceContext trace;
  };

  /// Route GET(key) for a server wakeup's worth of requests — the one
  /// entry point.  Takes the tick lock once, admits every item into the
  /// waiting room (answering sheds with kEngineReject on this thread) and,
  /// with no tick pacing, runs the drain ticks until the engine settles, so
  /// ResponseFn may run on the calling thread before this returns.  A
  /// paced engine leaves the ticks to its thread.  A valid trace context
  /// rides its request through the waiting room into the drain tick, and an
  /// `engine.request` span (parented to it) lands in the SpanRecorder when
  /// the response is delivered.  Indices of items that were NOT admitted
  /// (engine not accepting, or stopping) are appended to `rejected`; the
  /// caller answers those with an error.  `rejected` is not cleared first.
  /// Thread-safe.
  void submit_batch(const SubmitItem* items, std::size_t count,
                    std::vector<std::size_t>& rejected);

  /// Full metrics snapshot for the STATS wire channel: one shard row
  /// (snapshot().totals() is the engine-wide view), the histograms, and the
  /// Def 3.2 safe-set monitor over the m-server backlog vector.  Lock-free —
  /// reads the engine's atomics without taking the tick lock — so the row is
  /// internally consistent only up to an in-flight tick.  Safe to call from
  /// any thread at any time, and free of side effects: the ticks journal the
  /// safe-set edges (SAFE_SET_VIOLATED / SAFE_SET_RECOVERED) themselves,
  /// checking at most every 100 ms, whether or not anyone scrapes.
  net::StatsSnapshot snapshot() const;

  const EngineConfig& config() const;

  /// Record the placement epoch piggybacked on the router's heartbeat
  /// STATS frame; echoed in snapshot().placement_epoch.  Monotonic: a
  /// stale heartbeat can never move the recorded epoch backwards.
  void set_placement_epoch(std::uint64_t epoch);

  /// Repair-plane accounting (fed by the MigrationAgent callbacks): one
  /// completed inbound / outbound migration of `bytes` bytes.  Surfaced
  /// in snapshot().repair.
  void note_migration_in(std::uint64_t bytes);
  void note_migration_out(std::uint64_t bytes);
  /// One inbound migration slice failed verification.
  void note_corrupt_slice();

  /// The chunk a key maps to (tests/tools).
  core::ChunkId chunk_of(store::KeyId key) const;

 private:
  struct Impl;
  Impl* impl_;
};

/// The request wiring of rlbd and the loopback fixtures: hand one NetServer
/// wakeup's REQUEST frames to engine.submit_batch() and answer every
/// refused one with a kError RESPONSE.
void submit_requests(ServingEngine& engine, net::NetServer& server,
                     const net::ServerRequest* batch, std::size_t count);

}  // namespace rlb::engine
