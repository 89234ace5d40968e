// The STATS_RESP snapshot: what a running rlbd reports about itself.
//
// A snapshot is a pure data object — the engine fills one from its
// shard-local atomics (no global lock, see ServingEngine::snapshot()) and
// the wire layer ships it as one STATS_RESP frame.  The encoding is
// versioned and self-contained: u8 type=4, u32 version, then the fields in
// declaration order, the ShardStats / RepairStats blocks in the order of
// their descriptor tables.  Integers are little-endian fixed-width, doubles
// travel as IEEE-754 bit patterns in a u64, strings as u16 length + bytes,
// vectors as u32 count + entries.  A decoder that sees an unknown version
// rejects the payload (clients and daemons ship together; there is no
// cross-version skew to paper over).
#pragma once

#include <algorithm>
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
/// v7: the scalar blocks travel in descriptor-table order (kShardFields,
///     kRepairFields), which adds shard counters sink_orphans, crashes and
///     recoveries and repair counters unplaceable and slices_corrupt; the
///     engine's per-tick step_ns and batch_size histograms follow
///     queue_wait.
inline constexpr std::uint32_t kStatsVersion = 7;

/// Which tier produced a snapshot.
enum class NodeRole : std::uint8_t { kBackend = 0, kRouter = 1 };

const char* to_string(NodeRole role) noexcept;

/// One row of counters: a backend engine's (it sends one), or on a router
/// one backend's (see docs/CLUSTER.md for the row mapping).  Every member
/// but `shard` is described once in kShardFields, which drives the codec,
/// totals() and every rendering.
struct ShardStats {
  std::uint32_t shard = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_all_down = 0;
  std::uint64_t rejected_admission = 0;
  std::uint64_t rejected_drop = 0;
  std::uint64_t errors = 0;
  std::uint64_t ticks = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_chunks = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t inbound_depth = 0;
  std::uint64_t waiting_depth = 0;
  std::uint64_t inflight = 0;
  std::uint64_t backlog = 0;
  std::uint64_t servers_down = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t sink_orphans = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;

  [[nodiscard]] std::uint64_t rejected_total() const {
    return rejected_queue_full + rejected_all_down + rejected_admission +
           rejected_drop;
  }
};

/// Self-healing repair state.  A router fills the coordinator-side
/// fields, a backend the agent-side ones; the counterpart fields stay
/// zero.  Described once in kRepairFields.
struct RepairStats {
  std::uint64_t migrations_done = 0;
  std::uint64_t migrations_failed = 0;
  std::uint64_t migrations_inflight = 0;
  std::uint64_t chunks_pending = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t migration_bytes_in = 0;
  std::uint64_t migration_bytes_out = 0;
  std::uint64_t unplaceable = 0;
  std::uint64_t slices_corrupt = 0;
};

/// How a field reads in Prometheus.
enum class MetricKind : std::uint8_t { kCounter, kGauge };
/// How totals() folds a field across rows.
enum class Merge : std::uint8_t { kSum, kMax };

/// One scalar field of a stats block: its JSON key (also the rlb_stat
/// label), Prometheus family and help, kind, merge rule and member.  A
/// block's table order is its wire order.
template <typename Block>
struct FieldDesc {
  const char* key;
  const char* family;
  const char* help;
  MetricKind kind;
  Merge merge;
  std::uint64_t Block::* member;
};

inline constexpr FieldDesc<ShardStats> kShardFields[] = {
    {"submitted", "rlb_engine_submitted_total",
     "Requests accepted into a shard's inbound queue.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::submitted},
    {"completed", "rlb_engine_completed_total",
     "Requests served.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::completed},
    {"rejected_queue_full", "rlb_engine_rejected_queue_full_total",
     "Rejections: bounded server queue full (q-bound rule).",
     MetricKind::kCounter, Merge::kSum, &ShardStats::rejected_queue_full},
    {"rejected_all_down", "rlb_engine_rejected_all_down_total",
     "Rejections: every replica of the chunk was down.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::rejected_all_down},
    {"rejected_admission", "rlb_engine_rejected_admission_total",
     "Rejections: shard waiting room overflow.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::rejected_admission},
    {"rejected_drop", "rlb_engine_rejected_drop_total",
     "Rejections: dropped in a queue dump or drain flush.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::rejected_drop},
    {"errors", "rlb_engine_errors_total",
     "Requests answered kError (e.g. shutdown drain).",
     MetricKind::kCounter, Merge::kSum, &ShardStats::errors},
    {"ticks", "rlb_engine_ticks_total",
     "Worker loop iterations.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::ticks},
    {"batches", "rlb_engine_batches_total",
     "Ticks that stepped a non-empty micro-batch.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::batches},
    {"batched_chunks", "rlb_engine_batched_chunks_total",
     "Distinct chunks stepped, summed over batches.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::batched_chunks},
    {"max_batch", "rlb_engine_max_batch",
     "Largest micro-batch stepped so far.",
     MetricKind::kGauge, Merge::kMax, &ShardStats::max_batch},
    {"inbound_depth", "rlb_engine_inbound_depth",
     "Requests queued ahead of the shard worker.",
     MetricKind::kGauge, Merge::kSum, &ShardStats::inbound_depth},
    {"waiting_depth", "rlb_engine_waiting_depth",
     "Waiting-room occupancy.",
     MetricKind::kGauge, Merge::kSum, &ShardStats::waiting_depth},
    {"inflight", "rlb_engine_inflight",
     "Requests inside the balancer (queued on servers).",
     MetricKind::kGauge, Merge::kSum, &ShardStats::inflight},
    {"backlog", "rlb_engine_backlog",
     "Sum of server backlogs in the shard.",
     MetricKind::kGauge, Merge::kSum, &ShardStats::backlog},
    {"servers_down", "rlb_engine_servers_down",
     "Servers currently marked down.",
     MetricKind::kGauge, Merge::kSum, &ShardStats::servers_down},
    {"step_ns", "rlb_engine_step_ns_total",
     "Nanoseconds spent inside balancer step().",
     MetricKind::kCounter, Merge::kSum, &ShardStats::step_ns},
    {"sink_orphans", "rlb_engine_sink_orphans_total",
     "Balancer outcomes that matched no pending request.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::sink_orphans},
    {"crashes", "rlb_engine_crashes_total",
     "Server crash transitions applied by the failure schedule.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::crashes},
    {"recoveries", "rlb_engine_recoveries_total",
     "Server recovery transitions applied by the failure schedule.",
     MetricKind::kCounter, Merge::kSum, &ShardStats::recoveries},
};

inline constexpr FieldDesc<RepairStats> kRepairFields[] = {
    {"migrations_done", "rlb_repair_migrations_done_total",
     "Chunks re-replicated and committed into an epoch.",
     MetricKind::kCounter, Merge::kSum, &RepairStats::migrations_done},
    {"migrations_failed", "rlb_repair_migrations_failed_total",
     "Migrations that failed or timed out.",
     MetricKind::kCounter, Merge::kSum, &RepairStats::migrations_failed},
    {"migrations_inflight", "rlb_repair_migrations_inflight",
     "Migrations streaming right now.",
     MetricKind::kGauge, Merge::kSum, &RepairStats::migrations_inflight},
    {"chunks_pending", "rlb_repair_chunks_pending",
     "Under-replicated chunks queued, not yet migrated.",
     MetricKind::kGauge, Merge::kSum, &RepairStats::chunks_pending},
    {"bytes_sent", "rlb_repair_bytes_sent_total",
     "Repair bytes accounted against the throttle.",
     MetricKind::kCounter, Merge::kSum, &RepairStats::bytes_sent},
    {"migrations_in", "rlb_migrations_in_total",
     "Chunk states ingested as a migration target.",
     MetricKind::kCounter, Merge::kSum, &RepairStats::migrations_in},
    {"migrations_out", "rlb_migrations_out_total",
     "Chunk states streamed out as a migration source.",
     MetricKind::kCounter, Merge::kSum, &RepairStats::migrations_out},
    {"migration_bytes_in", "rlb_migration_bytes_in_total",
     "Migration bytes ingested.",
     MetricKind::kCounter, Merge::kSum, &RepairStats::migration_bytes_in},
    {"migration_bytes_out", "rlb_migration_bytes_out_total",
     "Migration bytes streamed out.",
     MetricKind::kCounter, Merge::kSum, &RepairStats::migration_bytes_out},
    {"unplaceable", "rlb_repair_unplaceable_total",
     "Migrations skipped: no live source or target at plan time.",
     MetricKind::kCounter, Merge::kSum, &RepairStats::unplaceable},
    {"slices_corrupt", "rlb_migration_slices_corrupt_total",
     "Inbound migration slices that failed their checksum or pattern.",
     MetricKind::kCounter, Merge::kSum, &RepairStats::slices_corrupt},
};

/// Fold `row` into `into` by each field's merge rule.
template <typename Block, std::size_t N>
void merge_fields(Block& into, const Block& row,
                  const FieldDesc<Block> (&fields)[N]) {
  for (const FieldDesc<Block>& f : fields) {
    std::uint64_t& v = into.*f.member;
    v = f.merge == Merge::kMax ? std::max(v, row.*f.member)
                               : v + row.*f.member;
  }
}

/// `"key":value` for every field of `block`, comma separated, no braces.
template <typename Block, std::size_t N>
std::string json_fields(const Block& block,
                        const FieldDesc<Block> (&fields)[N]) {
  std::string out;
  for (const FieldDesc<Block>& f : fields) {
    if (!out.empty()) out += ',';
    out += '"';
    out += f.key;
    out += "\":";
    out += std::to_string(block.*f.member);
  }
  return out;
}

/// One level of the Def 3.2 envelope as observed at scrape time.
struct SafeSetLevelStats {
  std::uint32_t level = 0;    ///< j
  std::uint64_t observed = 0; ///< servers with backlog > j
  double bound = 0.0;         ///< m / 2^j
  double ratio = 0.0;         ///< observed / bound
};

struct StatsSnapshot;

/// One histogram of the snapshot: JSON key prefix, unit suffix ("us",
/// "ns", or "" for counts), Prometheus family, help and member.
struct HistogramDesc {
  const char* key;
  const char* unit;
  const char* family;
  const char* help;
  obs::LogHistogram StatsSnapshot::* member;
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
  // submit-to-drain-tick wait inside the waiting room; on a router,
  // `hop_rtt` is the forward-to-response round trip per upstream hop
  // (retries sample once per attempt).  The counterpart histogram is empty
  // for each role.
  obs::LogHistogram hop_rtt;
  obs::LogHistogram queue_wait;

  // Drain-tick cost (v7), recorded once per engine tick:
  // nanoseconds inside balancer step(), and the distinct chunks stepped
  // (non-empty batches only).  Empty on a router.
  obs::LogHistogram step_ns;
  obs::LogHistogram batch_size;

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

  /// All shard rows folded by kShardFields' merge rules (shard id
  /// meaningless in the result).
  [[nodiscard]] ShardStats totals() const;
};

/// The lifetime histograms, in wire order.  JSON reads each as
/// `<key>_count` and `<key>_{p50,p99,max}[_<unit>]`.
inline constexpr HistogramDesc kHistogramFields[] = {
    {"latency", "us", "rlb_engine_latency_us",
     "Wire-to-response latency (microseconds).", &StatsSnapshot::latency},
    {"hop_rtt", "us", "rlb_router_hop_rtt_us",
     "Router-side upstream hop round trip (microseconds), one sample per "
     "forward attempt.",
     &StatsSnapshot::hop_rtt},
    {"queue_wait", "us", "rlb_engine_queue_wait_us",
     "Submit-to-drain-tick wait inside the engine's inbound queue + waiting "
     "room (microseconds).",
     &StatsSnapshot::queue_wait},
    {"step", "ns", "rlb_engine_step_duration_ns",
     "Balancer step() time per drain tick (nanoseconds).",
     &StatsSnapshot::step_ns},
    {"batch_size", "", "rlb_engine_batch_size",
     "Distinct chunks per stepped micro-batch.", &StatsSnapshot::batch_size},
};

/// The trailing-window histograms, in wire order (JSON carries their
/// quantiles inside the "window" object).
inline constexpr HistogramDesc kWindowHistogramFields[] = {
    {"latency", "us", "rlb_win_latency_us",
     "Wire-to-response latency over the trailing window (microseconds).",
     &StatsSnapshot::win_latency},
    {"hop_rtt", "us", "rlb_win_hop_rtt_us",
     "Upstream hop round trip over the trailing window (microseconds).",
     &StatsSnapshot::win_hop_rtt},
    {"queue_wait", "us", "rlb_win_queue_wait_us",
     "Queue wait over the trailing window (microseconds).",
     &StatsSnapshot::win_queue_wait},
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
