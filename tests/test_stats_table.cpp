// The STATS descriptor tables (net/stats.hpp): v6 compatibility of the
// renderings, a pinned v7 byte layout, the merge rules behind totals(),
// and the docs/OBSERVABILITY.md catalog checked against what the
// renderers emit, in both directions.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/stats.hpp"
#include "stats_snapshots.hpp"

namespace rlb::net {
namespace {

using testing::make_backend_snapshot;
using testing::make_full_snapshot;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Flattens one JSON document into path -> raw scalar text.  Object
/// members join with '.', array elements append "[i]"; an empty array
/// reads as the scalar "[]".
class JsonFlattener {
 public:
  explicit JsonFlattener(const std::string& text) : s_(text) {}

  std::map<std::string, std::string> flatten() {
    std::map<std::string, std::string> out;
    value("", out);
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing bytes in " << s_;
    return out;
  }

 private:
  bool space_at(std::size_t i) const {
    return std::isspace(static_cast<unsigned char>(s_[i])) != 0;
  }

  void skip_ws() {
    while (pos_ < s_.size() && space_at(pos_)) ++pos_;
  }

  std::string string_token() {
    const std::size_t start = pos_++;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      pos_ += s_[pos_] == '\\' ? 2 : 1;
    }
    ++pos_;
    return s_.substr(start, pos_ - start);
  }

  void value(const std::string& path, std::map<std::string, std::string>& out) {
    skip_ws();
    if (pos_ >= s_.size()) {
      ADD_FAILURE() << "truncated JSON";
      return;
    }
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      skip_ws();
      if (s_[pos_] == close) {
        ++pos_;
        out[path] = c == '{' ? "{}" : "[]";
        return;
      }
      for (std::size_t i = 0;; ++i) {
        skip_ws();
        std::string child;
        if (c == '{') {
          const std::string key = string_token();
          child = (path.empty() ? "" : path + ".") +
                  key.substr(1, key.size() - 2);
          skip_ws();
          ++pos_;  // ':'
        } else {
          child = path + "[" + std::to_string(i) + "]";
        }
        value(child, out);
        skip_ws();
        if (s_[pos_++] == close) return;
      }
    }
    if (c == '"') {
      out[path] = string_token();
      return;
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ']' && !space_at(pos_)) {
      ++pos_;
    }
    out[path] = s_.substr(start, pos_ - start);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::map<std::string, std::string> flatten_json(const std::string& text) {
  return JsonFlattener(text).flatten();
}

/// A path with its array indices removed ("safe_set[1].level" ->
/// "safe_set.level"): the key a catalog documents.
std::string catalog_key(const std::string& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '[') {
      i = path.find(']', i);
      continue;
    }
    out += path[i];
  }
  return out;
}

std::set<std::string> prometheus_families(const std::string& text) {
  std::set<std::string> families;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    families.insert(line.substr(7, line.find(' ', 7) - 7));
  }
  return families;
}

struct RoleCase {
  const char* name;
  NodeRole role;
};

constexpr RoleCase kRoles[] = {{"router", NodeRole::kRouter},
                               {"backend", NodeRole::kBackend}};

TEST(StatsTable, V6PrometheusSampleLinesSurviveUnchanged) {
  for (const RoleCase& c : kRoles) {
    const std::string v6 = read_file(std::string(RLB_TEST_DATA_DIR) +
                                     "/stats_v6_" + c.name + ".prom");
    const std::vector<std::string> now =
        lines_of(render_prometheus(make_full_snapshot(c.role)));
    const std::set<std::string> present(now.begin(), now.end());
    std::size_t samples = 0;
    for (const std::string& line : lines_of(v6)) {
      if (line.empty() || line[0] == '#') continue;
      ++samples;
      EXPECT_EQ(present.count(line), 1u) << c.name << ": lost " << line;
    }
    EXPECT_GT(samples, 250u) << c.name;
  }
}

TEST(StatsTable, V6JsonKeysSurviveWithTheirValues) {
  for (const RoleCase& c : kRoles) {
    const std::map<std::string, std::string> v6 = flatten_json(read_file(
        std::string(RLB_TEST_DATA_DIR) + "/stats_v6_" + c.name + ".json"));
    const std::map<std::string, std::string> now =
        flatten_json(render_json(make_full_snapshot(c.role)));
    ASSERT_GT(v6.size(), 50u) << c.name;
    for (const auto& [path, value] : v6) {
      const auto it = now.find(path);
      ASSERT_NE(it, now.end()) << c.name << ": lost key " << path;
      EXPECT_EQ(it->second, value) << c.name << ": " << path;
    }
  }
}

TEST(StatsTable, EveryFieldReachesPrometheusAndJson) {
  const StatsSnapshot snapshot = make_full_snapshot();
  const std::set<std::string> families =
      prometheus_families(render_prometheus(snapshot));
  const std::map<std::string, std::string> json =
      flatten_json(render_json(snapshot));
  const ShardStats totals = snapshot.totals();
  for (const FieldDesc<ShardStats>& f : kShardFields) {
    EXPECT_EQ(families.count(f.family), 1u) << f.family;
    ASSERT_EQ(json.count(f.key), 1u) << f.key;
    EXPECT_EQ(json.at(f.key), std::to_string(totals.*f.member)) << f.key;
  }
  for (const FieldDesc<RepairStats>& f : kRepairFields) {
    EXPECT_EQ(families.count(f.family), 1u) << f.family;
    const std::string key = std::string("repair.") + f.key;
    ASSERT_EQ(json.count(key), 1u) << key;
    EXPECT_EQ(json.at(key), std::to_string(snapshot.repair.*f.member)) << key;
  }
  for (const HistogramDesc& h : kHistogramFields) {
    EXPECT_EQ(families.count(h.family), 1u) << h.family;
    const std::string count_key = std::string(h.key) + "_count";
    ASSERT_EQ(json.count(count_key), 1u) << count_key;
    EXPECT_EQ(json.at(count_key), std::to_string((snapshot.*h.member).count));
  }
  for (const HistogramDesc& h : kWindowHistogramFields) {
    EXPECT_EQ(families.count(h.family), 1u) << h.family;
  }
}

TEST(StatsTable, TotalsFollowEachFieldsMergeRule) {
  StatsSnapshot snapshot;
  snapshot.shards.resize(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (const FieldDesc<ShardStats>& f : kShardFields) {
      snapshot.shards[i].*f.member = 10 * (i + 1) + (i == 1 ? 100 : 0);
    }
  }
  const ShardStats totals = snapshot.totals();
  for (const FieldDesc<ShardStats>& f : kShardFields) {
    EXPECT_EQ(totals.*f.member, f.merge == Merge::kMax ? 120u : 160u)
        << f.key;
  }
  EXPECT_EQ(totals.max_batch, 120u);  // the one max-merged field
  EXPECT_EQ(totals.submitted, 160u);
}

/// Small fixed snapshot for the golden encoding: every field set by name
/// to its own value, so a reordered, dropped or added table row changes
/// the bytes.
StatsSnapshot make_golden_snapshot() {
  StatsSnapshot s;
  s.uptime_ms = 0x0102;
  s.role = NodeRole::kBackend;
  s.backend_id = 3;
  s.policy = "g";
  s.servers = 4;
  s.replication = 2;
  s.processing_rate = 1;
  s.queue_capacity = 5;
  s.shard_count = 1;
  ShardStats row;
  row.shard = 9;
  row.submitted = 0x11;
  row.completed = 0x12;
  row.rejected_queue_full = 0x13;
  row.rejected_all_down = 0x14;
  row.rejected_admission = 0x15;
  row.rejected_drop = 0x16;
  row.errors = 0x17;
  row.ticks = 0x18;
  row.batches = 0x19;
  row.batched_chunks = 0x1a;
  row.max_batch = 0x1b;
  row.inbound_depth = 0x1c;
  row.waiting_depth = 0x1d;
  row.inflight = 0x1e;
  row.backlog = 0x1f;
  row.servers_down = 0x20;
  row.step_ns = 0x21;
  row.sink_orphans = 0x22;
  row.crashes = 0x23;
  row.recoveries = 0x24;
  s.shards.push_back(row);
  s.latency.record(1);
  s.step_ns.record(2);
  s.batch_size.record(3);
  s.safe_worst_ratio = 0.5;
  s.placement_epoch = 0x30;
  s.repair.migrations_done = 0x41;
  s.repair.migrations_failed = 0x42;
  s.repair.migrations_inflight = 0x43;
  s.repair.chunks_pending = 0x44;
  s.repair.bytes_sent = 0x45;
  s.repair.migrations_in = 0x46;
  s.repair.migrations_out = 0x47;
  s.repair.migration_bytes_in = 0x48;
  s.repair.migration_bytes_out = 0x49;
  s.repair.unplaceable = 0x4a;
  s.repair.slices_corrupt = 0x4b;
  s.window_span_ms = 0x50;
  s.win_submitted = 0x51;
  s.win_completed = 0x52;
  s.win_rejected = 0x53;
  s.active_alerts = {"a"};
  return s;
}

/// Hex of a u64 little-endian word.
std::string u64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const auto byte = static_cast<std::uint8_t>(v >> (8 * i));
    out += digits[byte >> 4];
    out += digits[byte & 15];
  }
  return out;
}

/// An empty histogram: count, sum, max, first, n all zero.
std::string empty_hist() { return u64(0) + u64(0) + u64(0) + "00000000"; }

/// A one-sample histogram of value v < 32 (bucket index v).
std::string one_sample_hist(std::uint8_t v) {
  static const char* digits = "0123456789abcdef";
  std::string first;
  first += digits[v >> 4];
  first += digits[v & 15];
  return u64(1) + u64(v) + u64(v) + first + "00" + "0100" + u64(1);
}

TEST(StatsTable, GoldenV7Encoding) {
  // The v7 layout spelled out by hand: header, one shard row (u32 id, then
  // kShardFields in table order), the five lifetime histograms, the safe
  // set, epoch + kRepairFields, the window block, the alerts.
  std::string expected =
      "04"                  // type
      "07000000"            // version 7
      + u64(0x0102) +       // uptime_ms
      "00"                  // role backend
      "03000000"            // backend_id
      "0100" "67"           // policy "g"
      "04000000" "02000000" "01000000" "05000000" "01000000"
      "01000000"            // one shard row
      "09000000";           // shard id
  for (std::uint64_t v = 0x11; v <= 0x24; ++v) expected += u64(v);
  expected += one_sample_hist(1);   // latency
  expected += empty_hist();         // hop_rtt
  expected += empty_hist();         // queue_wait
  expected += one_sample_hist(2);   // step_ns
  expected += one_sample_hist(3);   // batch_size
  expected += "00000000";           // no safe-set levels
  expected += u64(0x3fe0000000000000ull);  // safe_worst_ratio 0.5
  expected += "00000000";                  // safe_violated_level
  expected += u64(0x30);                   // placement_epoch
  for (std::uint64_t v = 0x41; v <= 0x4b; ++v) expected += u64(v);
  for (std::uint64_t v = 0x50; v <= 0x53; ++v) expected += u64(v);
  expected += empty_hist() + empty_hist() + empty_hist();  // win_*
  expected += "01000000" "0100" "61";                      // alerts ["a"]

  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_golden_snapshot(), payload);
  std::string actual;
  for (const std::uint8_t byte : payload) {
    static const char* digits = "0123456789abcdef";
    actual += digits[byte >> 4];
    actual += digits[byte & 15];
  }
  EXPECT_EQ(actual, expected);
  StatsSnapshot decoded;
  ASSERT_TRUE(decode_stats_payload(payload.data(), payload.size(), decoded));
  EXPECT_EQ(render_json(decoded), render_json(make_golden_snapshot()));
}

/// The STATS catalog of docs/OBSERVABILITY.md: every table row under the
/// "### STATS catalog" heading lists JSON keys (first column) and
/// Prometheus families (second column, `rlb_*`) in backticks.
void read_catalog(std::set<std::string>& keys,
                  std::set<std::string>& families) {
  const std::vector<std::string> lines =
      lines_of(read_file(std::string(RLB_DOCS_DIR) + "/OBSERVABILITY.md"));
  bool inside = false;
  for (const std::string& line : lines) {
    if (line.rfind("#", 0) == 0) {
      inside = line.rfind("### STATS catalog", 0) == 0;
      continue;
    }
    if (!inside || line.rfind("|", 0) != 0) continue;
    std::vector<std::string> cells;
    std::stringstream row(line.substr(1));
    for (std::string cell; std::getline(row, cell, '|');) cells.push_back(cell);
    for (std::size_t column = 0; column < 2 && column < cells.size();
         ++column) {
      const std::string& cell = cells[column];
      for (std::size_t at = cell.find('`'); at != std::string::npos;) {
        const std::size_t end = cell.find('`', at + 1);
        if (end == std::string::npos) break;
        const std::string token = cell.substr(at + 1, end - at - 1);
        if (column == 0) {
          keys.insert(token);
        } else if (token.rfind("rlb_", 0) == 0) {  // not a label example
          families.insert(token);
        }
        at = cell.find('`', end + 1);
      }
    }
  }
}

TEST(StatsTable, DocsCatalogMatchesTheRenderings) {
  std::set<std::string> doc_keys;
  std::set<std::string> doc_families;
  read_catalog(doc_keys, doc_families);
  ASSERT_FALSE(doc_keys.empty()) << "no STATS catalog in OBSERVABILITY.md";

  std::set<std::string> keys;
  std::set<std::string> families;
  for (const StatsSnapshot& snapshot :
       {make_full_snapshot(NodeRole::kRouter),
        make_full_snapshot(NodeRole::kBackend), make_backend_snapshot()}) {
    for (const auto& [path, value] : flatten_json(render_json(snapshot))) {
      keys.insert(catalog_key(path));
    }
    const std::set<std::string> f =
        prometheus_families(render_prometheus(snapshot));
    families.insert(f.begin(), f.end());
  }
  for (const std::string& key : keys) {
    EXPECT_EQ(doc_keys.count(key), 1u) << "JSON key missing from docs: " << key;
  }
  for (const std::string& key : doc_keys) {
    EXPECT_EQ(keys.count(key), 1u) << "docs list an unrendered JSON key: "
                                   << key;
  }
  for (const std::string& family : families) {
    EXPECT_EQ(doc_families.count(family), 1u)
        << "Prometheus family missing from docs: " << family;
  }
  for (const std::string& family : doc_families) {
    EXPECT_EQ(families.count(family), 1u)
        << "docs list an unrendered Prometheus family: " << family;
  }
}

}  // namespace
}  // namespace rlb::net
