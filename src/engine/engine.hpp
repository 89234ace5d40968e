// The live serving engine: concurrent request routing over the paper's
// policies.
//
// The simulator is step-synchronous and single-threaded per trial; the
// engine runs the SAME policy objects under real concurrency by sharding.
// The m servers split into `shards` contiguous partitions, each with one
// worker thread and its own embedded core::LoadBalancer over the
// partition.  Chunks hash to shards, so a shard's balancer sees exactly
// the model it was built for: a private set of servers, one ticking thread
// at a time, distinct chunks per step.
//
// Request path:  GET(key) -> store::KeyMapper -> chunk -> shard (seeded
// hash) -> the shard's MPSC inbound queue.  Each drain tick swaps the
// inbound queue, admits into a bounded waiting room (overflow = immediate
// REJECT — admission control ahead of routing), assembles a micro-batch of
// DISTINCT chunks (duplicates wait for the next tick, preserving the
// model's distinct-chunks-per-step contract), and runs one
// LoadBalancer::step(), which routes the batch and applies g service per
// server.  The paper's bounded queue q turns into protocol-level
// backpressure: a full queue rejects the arrival, and the installed
// core::RequestSink converts that into a REJECT response for the exact
// client waiting on it.
//
// Who ticks: with one shard and tick_interval_us == 0, the thread calling
// submit_batch() runs the ticks itself until the shard settles (under
// rlbd, the NetServer reactor, so responses leave with no cross-thread
// hand-off).  The shard's worker takes over when a tick makes no progress
// (a queue frozen on crashed servers needs the tick clock advanced), when
// another thread holds the tick, and for the shutdown drain.  Multi-shard
// and paced engines tick on their workers only.
//
// Failure schedules (core::FailureSchedule) run live: each shard consults
// its slice of the schedule at every tick boundary and applies crash /
// recover transitions through set_server_up — the same failover machinery
// the fault-injection experiments exercise, now under real traffic.
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
  /// m — total servers across all shards.
  std::size_t servers = 64;
  /// d — replication factor.
  unsigned replication = 2;
  /// g — per-server service per drain-clock tick.
  unsigned processing_rate = 2;
  /// q — bounded queue length; 0 = the policy's theorem default.
  std::size_t queue_capacity = 0;
  /// Worker threads; servers split into `shards` contiguous partitions.
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
  /// Distinct chunks routed per tick per shard; 0 = the shard's server
  /// count (the model's "up to m requests per step").
  std::size_t max_batch = 0;
  /// Pre-routing waiting room per shard; arrivals beyond it are rejected
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
/// runs the shard's tick: a shard worker, or — for a one-shard engine with
/// no tick pacing — the thread calling submit_batch(), before that call
/// returns.  Thread-safe delivery is the callback's responsibility, and the
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
  /// a policy without RequestSink support, more shards than servers, or a
  /// malformed failure_spec).
  ServingEngine(const EngineConfig& config, ResponseFn on_response);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Spawn the shard workers.
  void start();

  /// Graceful drain: stop admitting, answer everything in flight, join the
  /// workers.  Idempotent.
  void stop();

  /// One request in a submit_batch() call.
  struct SubmitItem {
    std::uint64_t conn_token = 0;
    std::uint64_t request_id = 0;
    store::KeyId key = 0;
    obs::TraceContext trace;
  };

  /// Route GET(key) for a server wakeup's worth of requests — the one
  /// entry point.  Items are grouped by destination shard so each shard's
  /// mutex is taken — and its worker woken — at most once per call.  An
  /// engine with one shard and no tick pacing runs the drain ticks in this
  /// call instead of waking its worker (unless another thread holds the
  /// tick), so ResponseFn may run on the calling thread before it returns.
  /// A valid trace context rides its request through the MPSC queue and
  /// waiting room into the drain tick, and an `engine.request` span
  /// (parented to it) lands in the SpanRecorder when the response is
  /// delivered.  Indices of items that were NOT admitted (engine not
  /// accepting, or shard stopping) are appended to `rejected`; the caller
  /// answers those with an error.  `rejected` is not cleared first.
  /// Thread-safe.
  void submit_batch(const SubmitItem* items, std::size_t count,
                    std::vector<std::size_t>& rejected);

  /// Full metrics snapshot for the STATS wire channel: per-shard rows
  /// (snapshot().totals() is the engine-wide view), merged histograms, and
  /// the Def 3.2 safe-set monitor over the merged backlog vector.  Lock-free — reads each shard's atomics
  /// without stopping its worker — so a row is internally consistent only
  /// up to in-flight ticks.  Safe to call from any thread at any time, and
  /// free of side effects: the shard workers journal the safe-set edges
  /// (SAFE_SET_VIOLATED / SAFE_SET_RECOVERED) themselves, checking at most
  /// every 100 ms, whether or not anyone scrapes.
  net::StatsSnapshot snapshot() const;

  std::size_t shard_count() const;
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

  /// The chunk a key maps to and the shard that owns it (tests/tools).
  core::ChunkId chunk_of(store::KeyId key) const;
  std::size_t shard_of_chunk(core::ChunkId chunk) const;

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
