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

template <typename Block, std::size_t N>
void put_fields(std::vector<std::uint8_t>& out, const Block& block,
                const FieldDesc<Block> (&fields)[N]) {
  for (const FieldDesc<Block>& f : fields) put_u64(out, block.*f.member);
}

template <typename Block, std::size_t N>
bool get_fields(Cursor& c, Block& block, const FieldDesc<Block> (&fields)[N]) {
  for (const FieldDesc<Block>& f : fields) {
    if (!c.u64(block.*f.member)) return false;
  }
  return true;
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
  for (const ShardStats& s : shards) merge_fields(t, s, kShardFields);
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
  for (const ShardStats& s : snapshot.shards) {
    put_u32(out, s.shard);
    put_fields(out, s, kShardFields);
  }
  for (const HistogramDesc& h : kHistogramFields) {
    put_hist(out, snapshot.*h.member);
  }

  put_u32(out, static_cast<std::uint32_t>(snapshot.safe_set.size()));
  for (const SafeSetLevelStats& level : snapshot.safe_set) {
    put_u32(out, level.level);
    put_u64(out, level.observed);
    put_f64(out, level.bound);
    put_f64(out, level.ratio);
  }
  put_f64(out, snapshot.safe_worst_ratio);
  put_u32(out, snapshot.safe_violated_level);

  put_u64(out, snapshot.placement_epoch);
  put_fields(out, snapshot.repair, kRepairFields);

  put_u64(out, snapshot.window_span_ms);
  put_u64(out, snapshot.win_submitted);
  put_u64(out, snapshot.win_completed);
  put_u64(out, snapshot.win_rejected);
  for (const HistogramDesc& h : kWindowHistogramFields) {
    put_hist(out, snapshot.*h.member);
  }
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
    if (!c.u32(s.shard) || !get_fields(c, s, kShardFields)) return false;
  }
  for (const HistogramDesc& h : kHistogramFields) {
    if (!get_hist(c, out.*h.member)) return false;
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

  if (!c.u64(out.placement_epoch) ||
      !get_fields(c, out.repair, kRepairFields)) {
    return false;
  }

  if (!c.u64(out.window_span_ms) || !c.u64(out.win_submitted) ||
      !c.u64(out.win_completed) || !c.u64(out.win_rejected)) {
    return false;
  }
  for (const HistogramDesc& h : kWindowHistogramFields) {
    if (!get_hist(c, out.*h.member)) return false;
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

void prom_family(std::string& out, const char* family, const char* help,
                 const char* type) {
  append_fmt(out, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, type);
}

const char* type_name(MetricKind kind) {
  return kind == MetricKind::kGauge ? "gauge" : "counter";
}

/// Cumulative counts at the power-of-two edges 2..2^32.  Each edge is a
/// bucket edge, so the count at le=2^k is exactly the samples below 2^k.
/// The sums saturate and +Inf is at least the last edge's count, so the
/// series stays monotonic when a torn read left `count` behind its
/// buckets (or a decoded payload's counts disagree).
void prom_histogram(std::string& out, const HistogramDesc& desc,
                    const obs::LogHistogram& h) {
  const char* name = desc.family;
  prom_family(out, name, desc.help, "histogram");
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

/// `"<key>_count":..,"<key>_p50<u>":..,"<key>_p99<u>":..,"<key>_max<u>":..,`
/// for one histogram, <u> being `_<unit>` (nothing for a unitless one).
void json_histogram(std::string& out, const HistogramDesc& desc,
                    const obs::LogHistogram& h) {
  const std::string unit = *desc.unit ? std::string("_") + desc.unit : "";
  const char* key = desc.key;
  const char* u = unit.c_str();
  append_fmt(out,
             "\"%s_count\":%" PRIu64 ",\"%s_p50%s\":%" PRIu64
             ",\"%s_p99%s\":%" PRIu64 ",\"%s_max%s\":%" PRIu64 ",",
             key, h.count, key, u, h.quantile(0.5), key, u, h.quantile(0.99),
             key, u, h.max);
}

}  // namespace

std::string render_prometheus(const StatsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  out += "# HELP rlb_up Daemon liveness.\n# TYPE rlb_up gauge\nrlb_up 1\n";
  out += "# TYPE rlb_uptime_ms gauge\n";
  append_fmt(out, "rlb_uptime_ms %" PRIu64 "\n", snapshot.uptime_ms);
  out += "# TYPE rlb_engine_info gauge\n";
  append_fmt(out,
             "rlb_engine_info{policy=\"%s\",role=\"%s\",backend_id=\"%" PRIu32
             "\",servers=\"%" PRIu32
             "\",replication=\"%" PRIu32 "\",rate=\"%" PRIu32
             "\",queue_capacity=\"%" PRIu32 "\",shards=\"%" PRIu32 "\"} 1\n",
             snapshot.policy.c_str(), to_string(snapshot.role),
             snapshot.backend_id, snapshot.servers, snapshot.replication,
             snapshot.processing_rate, snapshot.queue_capacity,
             snapshot.shard_count);

  for (const FieldDesc<ShardStats>& f : kShardFields) {
    prom_family(out, f.family, f.help, type_name(f.kind));
    for (const ShardStats& s : snapshot.shards) {
      append_fmt(out, "%s{shard=\"%" PRIu32 "\"} %" PRIu64 "\n", f.family,
                 s.shard, s.*f.member);
    }
  }
  for (const HistogramDesc& h : kHistogramFields) {
    prom_histogram(out, h, snapshot.*h.member);
  }

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
  for (const FieldDesc<RepairStats>& f : kRepairFields) {
    prom_family(out, f.family, f.help, type_name(f.kind));
    append_fmt(out, "%s %" PRIu64 "\n", f.family, snapshot.repair.*f.member);
  }

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
  for (const HistogramDesc& h : kWindowHistogramFields) {
    prom_histogram(out, h, snapshot.*h.member);
  }

  out +=
      "# HELP rlb_alert_active Watchdog alert currently raised "
      "(absent rule = not firing).\n# TYPE rlb_alert_active gauge\n";
  for (const std::string& alert : snapshot.active_alerts) {
    append_fmt(out, "rlb_alert_active{rule=\"%s\"} 1\n", alert.c_str());
  }
  return out;
}

std::string render_json(const StatsSnapshot& snapshot) {
  std::string out = "{";
  append_fmt(out, "\"uptime_ms\":%" PRIu64 ",", snapshot.uptime_ms);
  append_fmt(out, "\"role\":\"%s\",\"backend_id\":%" PRIu32 ",",
             to_string(snapshot.role), snapshot.backend_id);
  append_fmt(out, "\"policy\":\"%s\",", snapshot.policy.c_str());
  append_fmt(out, "\"servers\":%" PRIu32 ",\"shards\":%" PRIu32 ",",
             snapshot.servers, snapshot.shard_count);
  out += json_fields(snapshot.totals(), kShardFields);
  out += ',';
  for (const HistogramDesc& h : kHistogramFields) {
    json_histogram(out, h, snapshot.*h.member);
  }
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
  append_fmt(out, "\"placement_epoch\":%" PRIu64 ",\"repair\":{",
             snapshot.placement_epoch);
  out += json_fields(snapshot.repair, kRepairFields);
  append_fmt(out,
             "},\"window\":{\"span_ms\":%" PRIu64 ",\"submitted\":%" PRIu64
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
