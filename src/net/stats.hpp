// The STATS_RESP snapshot: what a running rlbd reports about itself.
//
// A snapshot is a pure data object — the engine fills one from its
// shard-local atomics (no global lock, see ServingEngine::snapshot()) and
// the wire layer ships it as one STATS_RESP frame.  The encoding is
// versioned and self-contained: u8 type=4, u32 version, then the fields in
// declaration order.  Integers are little-endian fixed-width, doubles
// travel as IEEE-754 bit patterns in a u64, strings as u16 length + bytes,
// vectors as u32 count + entries.  A decoder that sees an unknown version
// rejects the payload (clients and daemons ship together; there is no
// cross-version skew to paper over).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace rlb::net {

/// Bump on any layout change.  v2: role + backend_id (cluster mode).
/// v3: per-hop latency histograms (hop_rtt, queue_wait).
/// v4: placement epoch + repair/migration counters (self-healing tier).
/// v5: windowed (trailing ~10 s) histograms + counter deltas and active
///     watchdog alerts (health plane).
/// v6: every histogram is an obs::LogHistogram (log-linear, 1/16 relative
///     error), sent as count, sum, max, then u16 first + u16 n and the n
///     bucket counts of its nonzero span.
inline constexpr std::uint32_t kStatsVersion = 6;

/// Which tier produced a snapshot.
enum class NodeRole : std::uint8_t { kBackend = 0, kRouter = 1 };

const char* to_string(NodeRole role) noexcept;

/// One worker shard's counters.  Counters are cumulative since engine
/// start; *_depth / inflight / backlog / servers_down are gauges sampled
/// at scrape time.
struct ShardStats {
  std::uint32_t shard = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_all_down = 0;
  std::uint64_t rejected_admission = 0;  ///< waiting-room overflow
  std::uint64_t rejected_drop = 0;       ///< queue dumps / drain flushes
  std::uint64_t errors = 0;              ///< kError responses (drain)
  std::uint64_t ticks = 0;
  std::uint64_t batches = 0;         ///< ticks that served a non-empty batch
  std::uint64_t batched_chunks = 0;  ///< sum of micro-batch sizes
  std::uint64_t max_batch = 0;
  std::uint64_t inbound_depth = 0;
  std::uint64_t waiting_depth = 0;
  std::uint64_t inflight = 0;
  std::uint64_t backlog = 0;
  std::uint64_t servers_down = 0;
  std::uint64_t step_ns = 0;  ///< cumulative balancer step() time

  [[nodiscard]] std::uint64_t rejected_total() const {
    return rejected_queue_full + rejected_all_down + rejected_admission +
           rejected_drop;
  }
};

/// Self-healing repair state (v4).  A router fills the coordinator-side
/// fields (migrations_done/failed/inflight, chunks_pending, bytes_sent);
/// a backend fills the agent-side fields (migrations_in/out and their
/// byte totals).  The counterpart fields stay zero for each role.
struct RepairStats {
  std::uint64_t migrations_done = 0;      ///< committed into an epoch
  std::uint64_t migrations_failed = 0;    ///< acked failure / timed out
  std::uint64_t migrations_inflight = 0;  ///< gauge: currently streaming
  std::uint64_t chunks_pending = 0;       ///< gauge: queued, not yet done
  std::uint64_t bytes_sent = 0;           ///< repair bytes moved so far
  std::uint64_t migrations_in = 0;        ///< slices received + verified
  std::uint64_t migrations_out = 0;       ///< MIGRATE orders streamed out
  std::uint64_t migration_bytes_in = 0;
  std::uint64_t migration_bytes_out = 0;
};

/// One level of the Def 3.2 envelope as observed at scrape time.
struct SafeSetLevelStats {
  std::uint32_t level = 0;    ///< j
  std::uint64_t observed = 0; ///< servers with backlog > j
  double bound = 0.0;         ///< m / 2^j
  double ratio = 0.0;         ///< observed / bound
};

/// The full snapshot carried by one STATS_RESP frame.
struct StatsSnapshot {
  std::uint32_t version = kStatsVersion;
  std::uint64_t uptime_ms = 0;

  /// Cluster identity: which tier answered, and (for backends) the
  /// operator-assigned id (`rlbd --backend-id`).  A router's snapshot
  /// carries one ShardStats row per backend instead, with `shard` = the
  /// backend id (see docs/CLUSTER.md for the row mapping).
  NodeRole role = NodeRole::kBackend;
  std::uint32_t backend_id = 0;

  // Engine configuration (static for the daemon's lifetime).
  std::string policy;
  std::uint32_t servers = 0;
  std::uint32_t replication = 0;
  std::uint32_t processing_rate = 0;
  std::uint32_t queue_capacity = 0;
  std::uint32_t shard_count = 0;

  std::vector<ShardStats> shards;
  /// Wire-to-response latency (microseconds), merged across shards.
  obs::LogHistogram latency;

  // Per-hop latency decomposition (v3).  On a backend, `queue_wait` is the
  // submit-to-drain-tick wait inside the MPSC queue + waiting room; on a
  // router, `hop_rtt` is the forward-to-response round trip per upstream
  // hop (retries sample once per attempt).  The counterpart histogram is
  // empty for each role.
  obs::LogHistogram hop_rtt;
  obs::LogHistogram queue_wait;

  // Safe-set invariant monitor (Def 3.2 over the merged backlog vector).
  std::vector<SafeSetLevelStats> safe_set;
  double safe_worst_ratio = 0.0;
  std::uint32_t safe_violated_level = 0;  ///< 0 when safe

  // Self-healing tier (v4): the node's current placement epoch (0 until a
  // repair cutover commits; backends learn theirs from the heartbeat
  // piggyback) and the repair/migration counters for its role.
  std::uint64_t placement_epoch = 0;
  RepairStats repair;

  // Health plane (v5): the same histograms again, but as deltas over the
  // trailing window (obs::WindowedAggregator, ~10 x 1 s), so an incident's
  // p99 spike shows up within a scrape interval instead of drowning in
  // lifetime samples.  window_span_ms is the wall time the deltas cover
  // (0 = no windowed data); win_submitted/completed/rejected are counter
  // deltas over the same span, i.e. rate gauges after dividing by it.
  std::uint64_t window_span_ms = 0;
  std::uint64_t win_submitted = 0;
  std::uint64_t win_completed = 0;
  std::uint64_t win_rejected = 0;
  obs::LogHistogram win_latency;
  obs::LogHistogram win_hop_rtt;
  obs::LogHistogram win_queue_wait;

  // Active watchdog alerts (obs::HealthWatchdog rule names), rendered as
  // rlb_alert_active{rule=...} gauges in the Prometheus exposition.
  std::vector<std::string> active_alerts;

  /// Sum of all shard rows (shard id meaningless in the result).
  [[nodiscard]] ShardStats totals() const;
};

/// Serialize `snapshot` as a STATS_RESP payload (type byte included, no
/// frame length prefix) appended to `out`.
void encode_stats_payload(const StatsSnapshot& snapshot,
                          std::vector<std::uint8_t>& out);

/// Parse a STATS_RESP payload.  Returns false on a malformed body or a
/// version other than kStatsVersion; `out` is unspecified on failure.
bool decode_stats_payload(const std::uint8_t* data, std::size_t size,
                          StatsSnapshot& out);

/// Read just the version word of a STATS_RESP payload, without parsing
/// the body.  True when the payload is a STATS_RESP with room for the
/// version; lets a scraper distinguish "peer speaks snapshot v<N>" from
/// "malformed bytes" when decode_stats_payload rejects (rlb_stat
/// --cluster renders a version-mismatch row instead of 'unreachable').
bool peek_stats_version(const std::uint8_t* data, std::size_t size,
                        std::uint32_t& version);

/// Prometheus text exposition (one `# TYPE` line per family, `{shard=...}`
/// and `{level=...}` labels, each histogram as cumulative counts at the
/// power-of-two `le` edges 2..2^32 plus +Inf).
std::string render_prometheus(const StatsSnapshot& snapshot);

/// One-line JSON object (for --safe-set-log streams and bench output).
std::string render_json(const StatsSnapshot& snapshot);

}  // namespace rlb::net
