#include "net/stats.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "net/wire.hpp"

namespace rlb::net {

namespace {

// Little-endian primitives, mirroring wire.cpp.  The snapshot body reuses
// the same conventions so a STATS_RESP is one hexdump-friendly format.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  const auto n = static_cast<std::uint16_t>(
      s.size() > 0xFFFF ? 0xFFFF : s.size());
  put_u16(out, n);
  out.insert(out.end(), s.begin(), s.begin() + n);
}

/// Bounds-checked sequential reader over a payload body.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u8(std::uint8_t& v) {
    if (!has(1)) return false;
    v = data_[pos_];
    pos_ += 1;
    return true;
  }

  bool u16(std::uint16_t& v) {
    if (!has(2)) return false;
    v = static_cast<std::uint16_t>(data_[pos_]) |
        static_cast<std::uint16_t>(data_[pos_ + 1] << 8);
    pos_ += 2;
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (!has(4)) return false;
    v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (!has(8)) return false;
    v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return true;
  }

  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }

  bool str(std::string& v) {
    std::uint16_t n = 0;
    if (!u16(n) || !has(n)) return false;
    v.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  [[nodiscard]] bool has(std::size_t n) const { return size_ - pos_ >= n; }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void put_shard(std::vector<std::uint8_t>& out, const ShardStats& s) {
  put_u32(out, s.shard);
  put_u64(out, s.submitted);
  put_u64(out, s.completed);
  put_u64(out, s.rejected_queue_full);
  put_u64(out, s.rejected_all_down);
  put_u64(out, s.rejected_admission);
  put_u64(out, s.rejected_drop);
  put_u64(out, s.errors);
  put_u64(out, s.ticks);
  put_u64(out, s.batches);
  put_u64(out, s.batched_chunks);
  put_u64(out, s.max_batch);
  put_u64(out, s.inbound_depth);
  put_u64(out, s.waiting_depth);
  put_u64(out, s.inflight);
  put_u64(out, s.backlog);
  put_u64(out, s.servers_down);
  put_u64(out, s.step_ns);
}

bool get_shard(Cursor& c, ShardStats& s) {
  return c.u32(s.shard) && c.u64(s.submitted) && c.u64(s.completed) &&
         c.u64(s.rejected_queue_full) && c.u64(s.rejected_all_down) &&
         c.u64(s.rejected_admission) && c.u64(s.rejected_drop) &&
         c.u64(s.errors) && c.u64(s.ticks) &&
         c.u64(s.batches) && c.u64(s.batched_chunks) && c.u64(s.max_batch) &&
         c.u64(s.inbound_depth) && c.u64(s.waiting_depth) &&
         c.u64(s.inflight) && c.u64(s.backlog) && c.u64(s.servers_down) &&
         c.u64(s.step_ns);
}

/// A histogram travels as count, sum, max, then the nonzero span of its
/// buckets: u16 first, u16 n, and n counts (an empty histogram sends n = 0).
void put_hist(std::vector<std::uint8_t>& out, const obs::LogHistogram& h) {
  put_u64(out, h.count);
  put_u64(out, h.sum);
  put_u64(out, h.max);
  std::size_t first = 0;
  std::size_t last = obs::hist::kBuckets;
  while (last > 0 && h.buckets[last - 1] == 0) --last;
  while (first < last && h.buckets[first] == 0) ++first;
  put_u16(out, static_cast<std::uint16_t>(first));
  put_u16(out, static_cast<std::uint16_t>(last - first));
  for (std::size_t i = first; i < last; ++i) put_u64(out, h.buckets[i]);
}

bool get_hist(Cursor& c, obs::LogHistogram& h) {
  std::uint16_t first = 0;
  std::uint16_t n = 0;
  if (!c.u64(h.count) || !c.u64(h.sum) || !c.u64(h.max) || !c.u16(first) ||
      !c.u16(n)) {
    return false;
  }
  if (std::size_t{first} + n > obs::hist::kBuckets) return false;
  h.buckets.fill(0);
  for (std::size_t i = first; i < std::size_t{first} + n; ++i) {
    if (!c.u64(h.buckets[i])) return false;
  }
  return true;
}

}  // namespace

const char* to_string(NodeRole role) noexcept {
  switch (role) {
    case NodeRole::kBackend:
      return "backend";
    case NodeRole::kRouter:
      return "router";
  }
  return "unknown";
}

ShardStats StatsSnapshot::totals() const {
  ShardStats t;
  for (const ShardStats& s : shards) {
    t.submitted += s.submitted;
    t.completed += s.completed;
    t.rejected_queue_full += s.rejected_queue_full;
    t.rejected_all_down += s.rejected_all_down;
    t.rejected_admission += s.rejected_admission;
    t.rejected_drop += s.rejected_drop;
    t.errors += s.errors;
    t.ticks += s.ticks;
    t.batches += s.batches;
    t.batched_chunks += s.batched_chunks;
    t.max_batch = s.max_batch > t.max_batch ? s.max_batch : t.max_batch;
    t.inbound_depth += s.inbound_depth;
    t.waiting_depth += s.waiting_depth;
    t.inflight += s.inflight;
    t.backlog += s.backlog;
    t.servers_down += s.servers_down;
    t.step_ns += s.step_ns;
  }
  return t;
}

void encode_stats_payload(const StatsSnapshot& snapshot,
                          std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(MsgType::kStatsResponse));
  put_u32(out, snapshot.version);
  put_u64(out, snapshot.uptime_ms);
  out.push_back(static_cast<std::uint8_t>(snapshot.role));
  put_u32(out, snapshot.backend_id);
  put_string(out, snapshot.policy);
  put_u32(out, snapshot.servers);
  put_u32(out, snapshot.replication);
  put_u32(out, snapshot.processing_rate);
  put_u32(out, snapshot.queue_capacity);
  put_u32(out, snapshot.shard_count);

  put_u32(out, static_cast<std::uint32_t>(snapshot.shards.size()));
  for (const ShardStats& s : snapshot.shards) put_shard(out, s);

  put_hist(out, snapshot.latency);
  put_hist(out, snapshot.hop_rtt);
  put_hist(out, snapshot.queue_wait);

  put_u32(out, static_cast<std::uint32_t>(snapshot.safe_set.size()));
  for (const SafeSetLevelStats& level : snapshot.safe_set) {
    put_u32(out, level.level);
    put_u64(out, level.observed);
    put_f64(out, level.bound);
    put_f64(out, level.ratio);
  }
  put_f64(out, snapshot.safe_worst_ratio);
  put_u32(out, snapshot.safe_violated_level);

  // v4: placement epoch + repair counters.
  put_u64(out, snapshot.placement_epoch);
  put_u64(out, snapshot.repair.migrations_done);
  put_u64(out, snapshot.repair.migrations_failed);
  put_u64(out, snapshot.repair.migrations_inflight);
  put_u64(out, snapshot.repair.chunks_pending);
  put_u64(out, snapshot.repair.bytes_sent);
  put_u64(out, snapshot.repair.migrations_in);
  put_u64(out, snapshot.repair.migrations_out);
  put_u64(out, snapshot.repair.migration_bytes_in);
  put_u64(out, snapshot.repair.migration_bytes_out);

  // v5: windowed deltas + active alerts (health plane).
  put_u64(out, snapshot.window_span_ms);
  put_u64(out, snapshot.win_submitted);
  put_u64(out, snapshot.win_completed);
  put_u64(out, snapshot.win_rejected);
  put_hist(out, snapshot.win_latency);
  put_hist(out, snapshot.win_hop_rtt);
  put_hist(out, snapshot.win_queue_wait);
  put_u32(out, static_cast<std::uint32_t>(snapshot.active_alerts.size()));
  for (const std::string& alert : snapshot.active_alerts) {
    put_string(out, alert);
  }
}

bool decode_stats_payload(const std::uint8_t* data, std::size_t size,
                          StatsSnapshot& out) {
  if (size == 0 ||
      data[0] != static_cast<std::uint8_t>(MsgType::kStatsResponse)) {
    return false;
  }
  Cursor c(data + 1, size - 1);
  if (!c.u32(out.version)) return false;
  if (out.version != kStatsVersion) return false;
  std::uint8_t role = 0;
  if (!c.u64(out.uptime_ms) || !c.u8(role)) return false;
  if (role > static_cast<std::uint8_t>(NodeRole::kRouter)) return false;
  out.role = static_cast<NodeRole>(role);
  if (!c.u32(out.backend_id)) return false;
  if (!c.str(out.policy) || !c.u32(out.servers) ||
      !c.u32(out.replication) || !c.u32(out.processing_rate) ||
      !c.u32(out.queue_capacity) || !c.u32(out.shard_count)) {
    return false;
  }

  std::uint32_t shard_rows = 0;
  if (!c.u32(shard_rows)) return false;
  // A snapshot never carries more rows than fit in a max-size frame.
  if (shard_rows > kMaxFramePayload / sizeof(ShardStats)) return false;
  out.shards.assign(shard_rows, ShardStats{});
  for (ShardStats& s : out.shards) {
    if (!get_shard(c, s)) return false;
  }

  if (!get_hist(c, out.latency) || !get_hist(c, out.hop_rtt) ||
      !get_hist(c, out.queue_wait)) {
    return false;
  }

  std::uint32_t levels = 0;
  if (!c.u32(levels)) return false;
  if (levels > kMaxFramePayload / sizeof(SafeSetLevelStats)) return false;
  out.safe_set.assign(levels, SafeSetLevelStats{});
  for (SafeSetLevelStats& level : out.safe_set) {
    if (!c.u32(level.level) || !c.u64(level.observed) ||
        !c.f64(level.bound) || !c.f64(level.ratio)) {
      return false;
    }
  }
  if (!c.f64(out.safe_worst_ratio) || !c.u32(out.safe_violated_level)) {
    return false;
  }

  if (!c.u64(out.placement_epoch) || !c.u64(out.repair.migrations_done) ||
      !c.u64(out.repair.migrations_failed) ||
      !c.u64(out.repair.migrations_inflight) ||
      !c.u64(out.repair.chunks_pending) || !c.u64(out.repair.bytes_sent) ||
      !c.u64(out.repair.migrations_in) || !c.u64(out.repair.migrations_out) ||
      !c.u64(out.repair.migration_bytes_in) ||
      !c.u64(out.repair.migration_bytes_out)) {
    return false;
  }

  // v5: windowed deltas + active alerts (health plane).
  if (!c.u64(out.window_span_ms) || !c.u64(out.win_submitted) ||
      !c.u64(out.win_completed) || !c.u64(out.win_rejected)) {
    return false;
  }
  if (!get_hist(c, out.win_latency) || !get_hist(c, out.win_hop_rtt) ||
      !get_hist(c, out.win_queue_wait)) {
    return false;
  }
  std::uint32_t alerts = 0;
  if (!c.u32(alerts)) return false;
  // Each alert is a short rule name; the payload can't carry more than
  // one per two bytes (u16 length + at least nothing).
  if (alerts > kMaxFramePayload / 2) return false;
  out.active_alerts.assign(alerts, std::string());
  for (std::string& alert : out.active_alerts) {
    if (!c.str(alert)) return false;
  }
  return c.exhausted();
}

bool peek_stats_version(const std::uint8_t* data, std::size_t size,
                        std::uint32_t& version) {
  if (size < 5 ||
      data[0] != static_cast<std::uint8_t>(MsgType::kStatsResponse)) {
    return false;
  }
  version = 0;
  for (int i = 4; i >= 1; --i) {
    version = (version << 8) | data[i];
  }
  return true;
}

namespace {

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_fmt(std::string& out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) out.append(buffer, static_cast<std::size_t>(n));
}

void prom_shard_counter(std::string& out, const StatsSnapshot& snapshot,
                        const char* name, const char* help,
                        std::uint64_t ShardStats::* field,
                        const char* type = "counter") {
  append_fmt(out, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
  for (const ShardStats& s : snapshot.shards) {
    append_fmt(out, "%s{shard=\"%" PRIu32 "\"} %" PRIu64 "\n", name, s.shard,
               s.*field);
  }
}

/// Cumulative counts at the power-of-two edges 2..2^32.  Each edge is a
/// bucket edge, so the count at le=2^k is exactly the samples below 2^k.
/// The sums saturate and +Inf is at least the last edge's count, so the
/// series stays monotonic when a torn read left `count` behind its
/// buckets (or a decoded payload's counts disagree).
void prom_histogram(std::string& out, const char* name, const char* help,
                    const obs::LogHistogram& h) {
  append_fmt(out, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name);
  std::uint64_t cumulative = 0;
  std::size_t i = 0;
  for (unsigned k = 1; k <= obs::hist::kTopBits; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << k;
    for (; obs::hist::upper_edge(i) <= edge; ++i) {
      cumulative += std::min(h.buckets[i], ~cumulative);
    }
    append_fmt(out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", name, edge,
               cumulative);
  }
  const std::uint64_t total = std::max(h.count, cumulative);
  append_fmt(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name, total);
  append_fmt(out, "%s_sum %" PRIu64 "\n", name, h.sum);
  append_fmt(out, "%s_count %" PRIu64 "\n", name, total);
}

/// `"<name>_count":..,"<name>_p50_us":..,"<name>_p99_us":..,
/// "<name>_max_us":..,` for one histogram.
void json_histogram(std::string& out, const char* name,
                    const obs::LogHistogram& h) {
  append_fmt(out,
             "\"%s_count\":%" PRIu64 ",\"%s_p50_us\":%" PRIu64
             ",\"%s_p99_us\":%" PRIu64 ",\"%s_max_us\":%" PRIu64 ",",
             name, h.count, name, h.quantile(0.5), name, h.quantile(0.99),
             name, h.max);
}

}  // namespace

std::string render_prometheus(const StatsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  out += "# HELP rlb_up Daemon liveness.\n# TYPE rlb_up gauge\nrlb_up 1\n";
  out += "# TYPE rlb_uptime_ms gauge\n";
  append_fmt(out, "rlb_uptime_ms %" PRIu64 "\n", snapshot.uptime_ms);
  append_fmt(out,
             "rlb_engine_info{policy=\"%s\",role=\"%s\",backend_id=\"%" PRIu32
             "\",servers=\"%" PRIu32
             "\",replication=\"%" PRIu32 "\",rate=\"%" PRIu32
             "\",queue_capacity=\"%" PRIu32 "\",shards=\"%" PRIu32 "\"} 1\n",
             snapshot.policy.c_str(), to_string(snapshot.role),
             snapshot.backend_id, snapshot.servers, snapshot.replication,
             snapshot.processing_rate, snapshot.queue_capacity,
             snapshot.shard_count);

  prom_shard_counter(out, snapshot, "rlb_engine_submitted_total",
                     "Requests accepted into a shard's inbound queue.",
                     &ShardStats::submitted);
  prom_shard_counter(out, snapshot, "rlb_engine_completed_total",
                     "Requests served.", &ShardStats::completed);
  prom_shard_counter(out, snapshot, "rlb_engine_rejected_queue_full_total",
                     "Rejections: bounded server queue full (q-bound rule).",
                     &ShardStats::rejected_queue_full);
  prom_shard_counter(out, snapshot, "rlb_engine_rejected_all_down_total",
                     "Rejections: every replica of the chunk was down.",
                     &ShardStats::rejected_all_down);
  prom_shard_counter(out, snapshot, "rlb_engine_rejected_admission_total",
                     "Rejections: shard waiting room overflow.",
                     &ShardStats::rejected_admission);
  prom_shard_counter(out, snapshot, "rlb_engine_rejected_drop_total",
                     "Rejections: dropped in a queue dump or drain flush.",
                     &ShardStats::rejected_drop);
  prom_shard_counter(out, snapshot, "rlb_engine_errors_total",
                     "Requests answered kError (e.g. shutdown drain).",
                     &ShardStats::errors);
  prom_shard_counter(out, snapshot, "rlb_engine_ticks_total",
                     "Worker loop iterations.", &ShardStats::ticks);
  prom_shard_counter(out, snapshot, "rlb_engine_batches_total",
                     "Ticks that stepped a non-empty micro-batch.",
                     &ShardStats::batches);
  prom_shard_counter(out, snapshot, "rlb_engine_batched_chunks_total",
                     "Distinct chunks stepped, summed over batches.",
                     &ShardStats::batched_chunks);
  prom_shard_counter(out, snapshot, "rlb_engine_step_ns_total",
                     "Nanoseconds spent inside balancer step().",
                     &ShardStats::step_ns);
  prom_shard_counter(out, snapshot, "rlb_engine_inbound_depth",
                     "Requests queued ahead of the shard worker.",
                     &ShardStats::inbound_depth, "gauge");
  prom_shard_counter(out, snapshot, "rlb_engine_waiting_depth",
                     "Waiting-room occupancy.", &ShardStats::waiting_depth,
                     "gauge");
  prom_shard_counter(out, snapshot, "rlb_engine_inflight",
                     "Requests inside the balancer (queued on servers).",
                     &ShardStats::inflight, "gauge");
  prom_shard_counter(out, snapshot, "rlb_engine_backlog",
                     "Sum of server backlogs in the shard.",
                     &ShardStats::backlog, "gauge");
  prom_shard_counter(out, snapshot, "rlb_engine_servers_down",
                     "Servers currently marked down.",
                     &ShardStats::servers_down, "gauge");

  prom_histogram(out, "rlb_engine_latency_us",
                 "Wire-to-response latency (microseconds).",
                 snapshot.latency);
  prom_histogram(out, "rlb_router_hop_rtt_us",
                 "Router-side upstream hop round trip (microseconds), one "
                 "sample per forward attempt.",
                 snapshot.hop_rtt);
  prom_histogram(out, "rlb_engine_queue_wait_us",
                 "Submit-to-drain-tick wait inside the engine's inbound "
                 "queue + waiting room (microseconds).",
                 snapshot.queue_wait);

  out +=
      "# HELP rlb_safe_set_observed Servers with backlog > j (Def 3.2).\n"
      "# TYPE rlb_safe_set_observed gauge\n";
  for (const SafeSetLevelStats& level : snapshot.safe_set) {
    append_fmt(out, "rlb_safe_set_observed{level=\"%" PRIu32 "\"} %" PRIu64
               "\n",
               level.level, level.observed);
  }
  out += "# TYPE rlb_safe_set_bound gauge\n";
  for (const SafeSetLevelStats& level : snapshot.safe_set) {
    append_fmt(out, "rlb_safe_set_bound{level=\"%" PRIu32 "\"} %g\n",
               level.level, level.bound);
  }
  out += "# TYPE rlb_safe_set_ratio gauge\n";
  for (const SafeSetLevelStats& level : snapshot.safe_set) {
    append_fmt(out, "rlb_safe_set_ratio{level=\"%" PRIu32 "\"} %g\n",
               level.level, level.ratio);
  }
  out +=
      "# HELP rlb_safe_set_worst_ratio Max over j of observed/(m/2^j); <= 1 "
      "iff the backlog distribution is safe.\n"
      "# TYPE rlb_safe_set_worst_ratio gauge\n";
  append_fmt(out, "rlb_safe_set_worst_ratio %g\n", snapshot.safe_worst_ratio);
  out += "# TYPE rlb_safe_set_violated_level gauge\n";
  append_fmt(out, "rlb_safe_set_violated_level %" PRIu32 "\n",
             snapshot.safe_violated_level);

  out +=
      "# HELP rlb_placement_epoch Current placement epoch (0 = no repair "
      "cutover yet).\n# TYPE rlb_placement_epoch gauge\n";
  append_fmt(out, "rlb_placement_epoch %" PRIu64 "\n",
             snapshot.placement_epoch);
  out += "# TYPE rlb_repair_migrations_done_total counter\n";
  append_fmt(out, "rlb_repair_migrations_done_total %" PRIu64 "\n",
             snapshot.repair.migrations_done);
  out += "# TYPE rlb_repair_migrations_failed_total counter\n";
  append_fmt(out, "rlb_repair_migrations_failed_total %" PRIu64 "\n",
             snapshot.repair.migrations_failed);
  out += "# TYPE rlb_repair_migrations_inflight gauge\n";
  append_fmt(out, "rlb_repair_migrations_inflight %" PRIu64 "\n",
             snapshot.repair.migrations_inflight);
  out += "# TYPE rlb_repair_chunks_pending gauge\n";
  append_fmt(out, "rlb_repair_chunks_pending %" PRIu64 "\n",
             snapshot.repair.chunks_pending);
  out += "# TYPE rlb_repair_bytes_sent_total counter\n";
  append_fmt(out, "rlb_repair_bytes_sent_total %" PRIu64 "\n",
             snapshot.repair.bytes_sent);
  out += "# TYPE rlb_migrations_in_total counter\n";
  append_fmt(out, "rlb_migrations_in_total %" PRIu64 "\n",
             snapshot.repair.migrations_in);
  out += "# TYPE rlb_migrations_out_total counter\n";
  append_fmt(out, "rlb_migrations_out_total %" PRIu64 "\n",
             snapshot.repair.migrations_out);
  out += "# TYPE rlb_migration_bytes_in_total counter\n";
  append_fmt(out, "rlb_migration_bytes_in_total %" PRIu64 "\n",
             snapshot.repair.migration_bytes_in);
  out += "# TYPE rlb_migration_bytes_out_total counter\n";
  append_fmt(out, "rlb_migration_bytes_out_total %" PRIu64 "\n",
             snapshot.repair.migration_bytes_out);

  out +=
      "# HELP rlb_win_span_ms Wall time covered by the windowed deltas "
      "below (0 = no windowed data).\n# TYPE rlb_win_span_ms gauge\n";
  append_fmt(out, "rlb_win_span_ms %" PRIu64 "\n", snapshot.window_span_ms);
  out += "# TYPE rlb_win_submitted gauge\n";
  append_fmt(out, "rlb_win_submitted %" PRIu64 "\n", snapshot.win_submitted);
  out += "# TYPE rlb_win_completed gauge\n";
  append_fmt(out, "rlb_win_completed %" PRIu64 "\n", snapshot.win_completed);
  out += "# TYPE rlb_win_rejected gauge\n";
  append_fmt(out, "rlb_win_rejected %" PRIu64 "\n", snapshot.win_rejected);
  prom_histogram(out, "rlb_win_latency_us",
                 "Wire-to-response latency over the trailing window "
                 "(microseconds).",
                 snapshot.win_latency);
  prom_histogram(out, "rlb_win_hop_rtt_us",
                 "Upstream hop round trip over the trailing window "
                 "(microseconds).",
                 snapshot.win_hop_rtt);
  prom_histogram(out, "rlb_win_queue_wait_us",
                 "Queue wait over the trailing window (microseconds).",
                 snapshot.win_queue_wait);

  out +=
      "# HELP rlb_alert_active Watchdog alert currently raised "
      "(absent rule = not firing).\n# TYPE rlb_alert_active gauge\n";
  for (const std::string& alert : snapshot.active_alerts) {
    append_fmt(out, "rlb_alert_active{rule=\"%s\"} 1\n", alert.c_str());
  }
  return out;
}

std::string render_json(const StatsSnapshot& snapshot) {
  const ShardStats t = snapshot.totals();
  std::string out = "{";
  append_fmt(out, "\"uptime_ms\":%" PRIu64 ",", snapshot.uptime_ms);
  append_fmt(out, "\"role\":\"%s\",\"backend_id\":%" PRIu32 ",",
             to_string(snapshot.role), snapshot.backend_id);
  append_fmt(out, "\"policy\":\"%s\",", snapshot.policy.c_str());
  append_fmt(out, "\"servers\":%" PRIu32 ",\"shards\":%" PRIu32 ",",
             snapshot.servers, snapshot.shard_count);
  append_fmt(out,
             "\"submitted\":%" PRIu64 ",\"completed\":%" PRIu64
             ",\"rejected_queue_full\":%" PRIu64
             ",\"rejected_all_down\":%" PRIu64
             ",\"rejected_admission\":%" PRIu64 ",\"rejected_drop\":%" PRIu64
             ",\"errors\":%" PRIu64 ",",
             t.submitted, t.completed, t.rejected_queue_full,
             t.rejected_all_down, t.rejected_admission, t.rejected_drop,
             t.errors);
  append_fmt(out,
             "\"inbound_depth\":%" PRIu64 ",\"waiting_depth\":%" PRIu64
             ",\"inflight\":%" PRIu64 ",\"backlog\":%" PRIu64
             ",\"servers_down\":%" PRIu64 ",",
             t.inbound_depth, t.waiting_depth, t.inflight, t.backlog,
             t.servers_down);
  json_histogram(out, "latency", snapshot.latency);
  json_histogram(out, "hop_rtt", snapshot.hop_rtt);
  json_histogram(out, "queue_wait", snapshot.queue_wait);
  out += "\"safe_set\":[";
  for (std::size_t i = 0; i < snapshot.safe_set.size(); ++i) {
    const SafeSetLevelStats& level = snapshot.safe_set[i];
    append_fmt(out,
               "%s{\"level\":%" PRIu32 ",\"observed\":%" PRIu64
               ",\"bound\":%g,\"ratio\":%g}",
               i == 0 ? "" : ",", level.level, level.observed, level.bound,
               level.ratio);
  }
  out += "],";
  append_fmt(out, "\"safe_worst_ratio\":%g,\"safe_violated_level\":%" PRIu32
             ",",
             snapshot.safe_worst_ratio, snapshot.safe_violated_level);
  append_fmt(out,
             "\"placement_epoch\":%" PRIu64
             ",\"repair\":{\"migrations_done\":%" PRIu64
             ",\"migrations_failed\":%" PRIu64
             ",\"migrations_inflight\":%" PRIu64
             ",\"chunks_pending\":%" PRIu64 ",\"bytes_sent\":%" PRIu64
             ",\"migrations_in\":%" PRIu64 ",\"migrations_out\":%" PRIu64
             ",\"migration_bytes_in\":%" PRIu64
             ",\"migration_bytes_out\":%" PRIu64 "}",
             snapshot.placement_epoch, snapshot.repair.migrations_done,
             snapshot.repair.migrations_failed,
             snapshot.repair.migrations_inflight,
             snapshot.repair.chunks_pending, snapshot.repair.bytes_sent,
             snapshot.repair.migrations_in, snapshot.repair.migrations_out,
             snapshot.repair.migration_bytes_in,
             snapshot.repair.migration_bytes_out);
  append_fmt(out,
             ",\"window\":{\"span_ms\":%" PRIu64 ",\"submitted\":%" PRIu64
             ",\"completed\":%" PRIu64 ",\"rejected\":%" PRIu64
             ",\"latency_p50_us\":%" PRIu64 ",\"latency_p99_us\":%" PRIu64
             ",\"hop_rtt_p99_us\":%" PRIu64 ",\"queue_wait_p99_us\":%" PRIu64
             "}",
             snapshot.window_span_ms, snapshot.win_submitted,
             snapshot.win_completed, snapshot.win_rejected,
             snapshot.win_latency.quantile(0.5),
             snapshot.win_latency.quantile(0.99),
             snapshot.win_hop_rtt.quantile(0.99),
             snapshot.win_queue_wait.quantile(0.99));
  out += ",\"alerts\":[";
  for (std::size_t i = 0; i < snapshot.active_alerts.size(); ++i) {
    append_fmt(out, "%s\"%s\"", i == 0 ? "" : ",",
               snapshot.active_alerts[i].c_str());
  }
  out += "]}";
  return out;
}

}  // namespace rlb::net
