// Unit tests for the STATS wire channel (net/stats.hpp + the kStats /
// kStatsResponse opcodes in net/wire.hpp): snapshot codec round-trip,
// malformed-payload and version-mismatch rejection, the histograms'
// sparse bucket spans and a seeded mutation loop over the decoder, frame
// classification, and the Prometheus / JSON renderings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/stats.hpp"
#include "net/wire.hpp"
#include "stats_snapshots.hpp"

namespace rlb::net {
namespace {

using testing::make_backend_snapshot;
using testing::make_full_snapshot;

/// Every histogram of the snapshot, lifetime then windowed (wire order).
std::vector<obs::LogHistogram StatsSnapshot::*> histogram_members() {
  std::vector<obs::LogHistogram StatsSnapshot::*> out;
  for (const HistogramDesc& h : kHistogramFields) out.push_back(h.member);
  for (const HistogramDesc& h : kWindowHistogramFields) {
    out.push_back(h.member);
  }
  return out;
}

/// Byte offset of each histogram (the `count` word that opens it) in
/// `snapshot`'s encoding, found by re-encoding with one histogram's count
/// changed and locating the first differing byte.
std::vector<std::size_t> histogram_offsets(const StatsSnapshot& snapshot) {
  std::vector<std::uint8_t> base;
  encode_stats_payload(snapshot, base);
  std::vector<std::size_t> offsets;
  for (obs::LogHistogram StatsSnapshot::* h : histogram_members()) {
    StatsSnapshot marked = snapshot;
    (marked.*h).count ^= 0xA5;
    std::vector<std::uint8_t> bytes;
    encode_stats_payload(marked, bytes);
    std::size_t at = 0;
    while (bytes[at] == base[at]) ++at;
    offsets.push_back(at);
  }
  return offsets;
}

void put_u16_at(std::vector<std::uint8_t>& bytes, std::size_t at,
                std::uint16_t v) {
  bytes[at] = static_cast<std::uint8_t>(v);
  bytes[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t get_u16_at(const std::vector<std::uint8_t>& bytes,
                         std::size_t at) {
  return static_cast<std::uint16_t>(bytes[at] | (bytes[at + 1] << 8));
}

void put_u64_at(std::vector<std::uint8_t>& bytes, std::size_t at,
                std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// What a decoded snapshot, however hostile its bytes, must still give:
/// quantiles that never exceed max, and a Prometheus rendering whose
/// histogram series are 33 monotone cumulative counts ending at +Inf.
void expect_in_bounds(const StatsSnapshot& snapshot) {
  const std::vector<obs::LogHistogram StatsSnapshot::*> members =
      histogram_members();
  for (obs::LogHistogram StatsSnapshot::* h : members) {
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
      ASSERT_LE((snapshot.*h).quantile(q), (snapshot.*h).max) << "q=" << q;
    }
  }
  std::istringstream text(render_prometheus(snapshot));
  std::string line;
  std::string family;
  std::uint64_t previous = 0;
  std::size_t rows = 0;
  std::size_t series = 0;
  while (std::getline(text, line)) {
    const std::size_t bucket = line.find("_bucket{le=\"");
    if (bucket == std::string::npos) continue;
    const std::uint64_t value = std::stoull(line.substr(line.rfind(' ') + 1));
    if (line.substr(0, bucket) != family) {
      family = line.substr(0, bucket);
      previous = 0;
      rows = 0;
      ++series;
    }
    ASSERT_GE(value, previous) << line;
    previous = value;
    ++rows;
    if (line.find("le=\"+Inf\"") != std::string::npos) {
      ASSERT_EQ(rows, obs::hist::kTopBits + 1) << family;
    }
  }
  ASSERT_EQ(series, members.size());
  ASSERT_FALSE(render_json(snapshot).empty());
}

TEST(StatsCodec, RoundTripPreservesEveryField) {
  const StatsSnapshot original = make_full_snapshot();
  std::vector<std::uint8_t> payload;
  encode_stats_payload(original, payload);
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(payload[0], static_cast<std::uint8_t>(MsgType::kStatsResponse));

  StatsSnapshot decoded;
  ASSERT_TRUE(decode_stats_payload(payload.data(), payload.size(), decoded));
  EXPECT_EQ(decoded.version, kStatsVersion);
  EXPECT_EQ(decoded.uptime_ms, original.uptime_ms);
  EXPECT_EQ(decoded.role, original.role);
  EXPECT_EQ(decoded.backend_id, original.backend_id);
  EXPECT_EQ(decoded.policy, original.policy);
  EXPECT_EQ(decoded.servers, original.servers);
  EXPECT_EQ(decoded.replication, original.replication);
  EXPECT_EQ(decoded.processing_rate, original.processing_rate);
  EXPECT_EQ(decoded.queue_capacity, original.queue_capacity);
  EXPECT_EQ(decoded.shard_count, original.shard_count);
  ASSERT_EQ(decoded.shards.size(), original.shards.size());
  for (std::size_t i = 0; i < original.shards.size(); ++i) {
    const ShardStats& a = original.shards[i];
    const ShardStats& b = decoded.shards[i];
    EXPECT_EQ(b.shard, a.shard);
    for (const FieldDesc<ShardStats>& f : kShardFields) {
      EXPECT_EQ(b.*f.member, a.*f.member) << f.key;
    }
  }
  for (obs::LogHistogram StatsSnapshot::* h : histogram_members()) {
    EXPECT_EQ(decoded.*h, original.*h);
  }
  ASSERT_EQ(decoded.safe_set.size(), original.safe_set.size());
  for (std::size_t i = 0; i < original.safe_set.size(); ++i) {
    EXPECT_EQ(decoded.safe_set[i].level, original.safe_set[i].level);
    EXPECT_EQ(decoded.safe_set[i].observed, original.safe_set[i].observed);
    EXPECT_DOUBLE_EQ(decoded.safe_set[i].bound, original.safe_set[i].bound);
    EXPECT_DOUBLE_EQ(decoded.safe_set[i].ratio, original.safe_set[i].ratio);
  }
  EXPECT_DOUBLE_EQ(decoded.safe_worst_ratio, original.safe_worst_ratio);
  EXPECT_EQ(decoded.safe_violated_level, original.safe_violated_level);
  EXPECT_EQ(decoded.placement_epoch, original.placement_epoch);
  for (const FieldDesc<RepairStats>& f : kRepairFields) {
    EXPECT_EQ(decoded.repair.*f.member, original.repair.*f.member) << f.key;
  }
  EXPECT_EQ(decoded.window_span_ms, original.window_span_ms);
  EXPECT_EQ(decoded.win_submitted, original.win_submitted);
  EXPECT_EQ(decoded.win_completed, original.win_completed);
  EXPECT_EQ(decoded.win_rejected, original.win_rejected);
  EXPECT_EQ(decoded.active_alerts, original.active_alerts);
}

TEST(StatsCodec, EmptySnapshotRoundTrips) {
  StatsSnapshot original;  // default-constructed: no shards, no safe set
  std::vector<std::uint8_t> payload;
  encode_stats_payload(original, payload);
  StatsSnapshot decoded;
  ASSERT_TRUE(decode_stats_payload(payload.data(), payload.size(), decoded));
  EXPECT_TRUE(decoded.shards.empty());
  EXPECT_TRUE(decoded.safe_set.empty());
  EXPECT_EQ(decoded.policy, "");
}

TEST(StatsCodec, TruncationAtEveryPrefixIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  StatsSnapshot decoded;
  // Every strict prefix must fail cleanly: either a cursor bounds check
  // or the final exhaustion check catches it.
  for (std::size_t size = 0; size < payload.size(); ++size) {
    EXPECT_FALSE(decode_stats_payload(payload.data(), size, decoded))
        << "prefix of " << size << " bytes decoded";
  }
}

TEST(StatsCodec, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  payload.push_back(0xAB);
  StatsSnapshot decoded;
  EXPECT_FALSE(decode_stats_payload(payload.data(), payload.size(), decoded));
}

TEST(StatsCodec, VersionMismatchIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  // version is the u32 right after the type byte (little-endian)
  payload[1] = static_cast<std::uint8_t>(kStatsVersion + 1);
  StatsSnapshot decoded;
  EXPECT_FALSE(decode_stats_payload(payload.data(), payload.size(), decoded));
}

TEST(StatsCodec, VersionSkewIsRejectedNotMisparsed) {
  // A v5 node scraped by a v4-only decoder (or vice versa) must fail the
  // version check up front — never read v5 bytes as v4 fields.  The codec
  // checks the version word before touching any other field, so ANY other
  // version value is rejected no matter what follows.
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  for (const std::uint8_t skewed :
       {static_cast<std::uint8_t>(kStatsVersion - 1),
        static_cast<std::uint8_t>(kStatsVersion + 1)}) {
    std::vector<std::uint8_t> patched = payload;
    patched[1] = skewed;
    StatsSnapshot decoded;
    decoded.placement_epoch = 0xDEAD;
    EXPECT_FALSE(
        decode_stats_payload(patched.data(), patched.size(), decoded));
  }
}

TEST(StatsCodec, PeekVersionReadsTheVersionWordOnly) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  std::uint32_t version = 0;
  ASSERT_TRUE(peek_stats_version(payload.data(), payload.size(), version));
  EXPECT_EQ(version, kStatsVersion);

  // The peek works on a version-skewed (undecodable) payload — that is
  // its whole point: classifying the failure for StatsVersionMismatch.
  payload[1] = 4;
  payload[2] = 0;
  ASSERT_TRUE(peek_stats_version(payload.data(), payload.size(), version));
  EXPECT_EQ(version, 4u);

  // Too-short buffers and non-STATS_RESP type bytes don't peek.
  EXPECT_FALSE(peek_stats_version(payload.data(), 4, version));
  payload[0] = static_cast<std::uint8_t>(MsgType::kResponse);
  EXPECT_FALSE(peek_stats_version(payload.data(), payload.size(), version));
}

TEST(StatsCodec, UnknownRoleByteIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  // Layout: type u8, version u32, uptime u64 -> role byte at offset 13.
  ASSERT_GT(payload.size(), 13u);
  ASSERT_EQ(payload[13], static_cast<std::uint8_t>(NodeRole::kRouter));
  payload[13] = static_cast<std::uint8_t>(NodeRole::kRouter) + 1;
  StatsSnapshot decoded;
  EXPECT_FALSE(decode_stats_payload(payload.data(), payload.size(), decoded));
}

TEST(StatsCodec, WrongTypeByteIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  payload[0] = static_cast<std::uint8_t>(MsgType::kResponse);
  StatsSnapshot decoded;
  EXPECT_FALSE(decode_stats_payload(payload.data(), payload.size(), decoded));
}

TEST(StatsCodec, HistogramsTravelAsTheirNonzeroSpan) {
  // One sample adds exactly one bucket word to the encoding: count, sum,
  // max and the span header are there even for an empty histogram.
  StatsSnapshot snapshot;
  std::vector<std::uint8_t> empty;
  encode_stats_payload(snapshot, empty);
  snapshot.latency.record(460);
  std::vector<std::uint8_t> one;
  encode_stats_payload(snapshot, one);
  EXPECT_EQ(one.size(), empty.size() + 8);

  const std::size_t at = histogram_offsets(snapshot)[0];
  EXPECT_EQ(get_u16_at(one, at + 24), obs::hist::index_of(460));
  EXPECT_EQ(get_u16_at(one, at + 26), 1u);
  StatsSnapshot decoded;
  ASSERT_TRUE(decode_stats_payload(one.data(), one.size(), decoded));
  EXPECT_EQ(decoded.latency, snapshot.latency);
}

TEST(StatsCodec, HistogramSpanPastTheLayoutIsRejected) {
  const StatsSnapshot snapshot = make_backend_snapshot();
  std::vector<std::uint8_t> payload;
  encode_stats_payload(snapshot, payload);
  for (const std::size_t at : histogram_offsets(snapshot)) {
    const std::uint16_t n = get_u16_at(payload, at + 26);
    // Ending exactly at kBuckets is the largest legal span...
    std::vector<std::uint8_t> edge = payload;
    put_u16_at(edge, at + 24,
               static_cast<std::uint16_t>(obs::hist::kBuckets - n));
    StatsSnapshot decoded;
    EXPECT_TRUE(decode_stats_payload(edge.data(), edge.size(), decoded));
    // ...one bucket further is not.
    std::vector<std::uint8_t> past = payload;
    put_u16_at(past, at + 24,
               static_cast<std::uint16_t>(obs::hist::kBuckets - n + 1));
    EXPECT_FALSE(decode_stats_payload(past.data(), past.size(), decoded));
  }
}

TEST(StatsCodec, SeededMutationsFailCleanlyOrStayInBounds) {
  // A mutation loop over valid backend and router encodings: truncation,
  // bit flips and bucket-span edits.  Each mutant either decodes to false
  // or to a snapshot whose quantiles and Prometheus rendering stay in
  // bounds.  Runs under the ASan/UBSan job, which also catches any read
  // past the payload.
  std::mt19937_64 rng(0x57a7'5f0a'2bu);
  for (const StatsSnapshot& seed :
       {make_backend_snapshot(), make_full_snapshot()}) {
    std::vector<std::uint8_t> payload;
    encode_stats_payload(seed, payload);
    const std::vector<std::size_t> hists = histogram_offsets(seed);
    for (int round = 0; round < 4000; ++round) {
      std::vector<std::uint8_t> bytes = payload;
      const std::size_t at = hists[rng() % hists.size()];
      const std::uint16_t n = get_u16_at(bytes, at + 26);
      bool must_fail = false;
      bool must_pass = false;
      switch (round % 7) {
        case 0:  // truncation
          bytes.resize(rng() % bytes.size());
          must_fail = true;
          break;
        case 1:  // 1-4 bit flips anywhere
          for (std::uint64_t k = 0, flips = 1 + rng() % 4; k < flips; ++k) {
            bytes[rng() % bytes.size()] ^=
                static_cast<std::uint8_t>(1u << (rng() % 8));
          }
          break;
        case 2:  // n = 0: the span's counts now misparse as later fields
          put_u16_at(bytes, at + 26, 0);
          break;
        case 3:  // span moved to end exactly at kBuckets
          put_u16_at(bytes, at + 24,
                     static_cast<std::uint16_t>(obs::hist::kBuckets - n));
          must_pass = true;
          break;
        case 4:  // span past kBuckets
          put_u16_at(bytes, at + 24,
                     static_cast<std::uint16_t>(obs::hist::kBuckets - n + 1 +
                                                rng() % 64));
          must_fail = true;
          break;
        case 5:  // count disagrees with the bucket sum
          put_u64_at(bytes, at, rng() >> (rng() % 64));
          must_pass = true;
          break;
        case 6:  // one bucket (or max) takes an arbitrary value
          if (n > 0 && rng() % 2 == 0) {
            put_u64_at(bytes, at + 28 + 8 * (rng() % n), rng());
          } else {
            put_u64_at(bytes, at + 16, rng() % 4096);
          }
          must_pass = true;
          break;
      }
      StatsSnapshot decoded;
      const bool ok = decode_stats_payload(bytes.data(), bytes.size(), decoded);
      if (must_fail) {
        ASSERT_FALSE(ok) << "round " << round;
      }
      if (must_pass) {
        ASSERT_TRUE(ok) << "round " << round;
      }
      if (ok) {
        ASSERT_NO_FATAL_FAILURE(expect_in_bounds(decoded)) << "round "
                                                           << round;
      }
    }
  }
}

TEST(StatsWire, StatsRequestRoundTripsThroughDecodePayload) {
  std::vector<std::uint8_t> frame;
  encode_stats_request(StatsRequestMsg{0xDEADBEEF}, frame);
  // Frame = u32 length prefix + payload.
  ASSERT_EQ(frame.size(), 4 + kStatsPayloadSize);
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats),
            Decoded::kStats);
  EXPECT_EQ(stats.flags, 0xDEADBEEFu);
}

TEST(StatsWire, EpochedStatsRequestCarriesEpoch) {
  // A nonzero sender epoch switches to the extended 13-byte payload...
  std::vector<std::uint8_t> frame;
  encode_stats_request(StatsRequestMsg{7, 42}, frame);
  ASSERT_EQ(frame.size(), 4 + kStatsEpochPayloadSize);
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats),
            Decoded::kStats);
  EXPECT_EQ(stats.flags, 7u);
  EXPECT_EQ(stats.epoch, 42u);

  // ...while epoch 0 keeps the legacy 5-byte form, so pre-repair peers
  // never see the extension.
  frame.clear();
  encode_stats_request(StatsRequestMsg{7, 0}, frame);
  ASSERT_EQ(frame.size(), 4 + kStatsPayloadSize);
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats),
            Decoded::kStats);
  EXPECT_EQ(stats.epoch, 0u);
}

TEST(StatsWire, StatsRequestWithWrongSizeIsMalformed) {
  std::vector<std::uint8_t> frame;
  encode_stats_request(StatsRequestMsg{1}, frame);
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4 - 1, request,
                           response, stats),
            Decoded::kMalformed);
}

TEST(StatsWire, ResponseFrameWrapsPayloadAndRejectsOversize) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_stats_response_frame(payload, frame));
  ASSERT_EQ(frame.size(), payload.size() + 4);

  // The framed payload classifies as kStatsResponse...
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats),
            Decoded::kStatsResponse);
  // ...and still decodes to the snapshot.
  StatsSnapshot decoded;
  EXPECT_TRUE(decode_stats_payload(frame.data() + 4, frame.size() - 4,
                                   decoded));

  // A payload over the frame cap must be refused, not truncated.
  std::vector<std::uint8_t> oversize(kMaxFramePayload + 1,
                                     static_cast<std::uint8_t>(
                                         MsgType::kStatsResponse));
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(encode_stats_response_frame(oversize, out));
}

TEST(StatsRender, PrometheusExpositionIsWellFormed) {
  const std::string text = render_prometheus(make_full_snapshot());
  EXPECT_NE(text.find("rlb_up 1\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_engine_submitted_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_engine_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_router_hop_rtt_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_engine_queue_wait_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_safe_set_ratio{level=\"2\"}"), std::string::npos);
  EXPECT_NE(text.find("rlb_safe_set_worst_ratio"), std::string::npos);
  EXPECT_NE(text.find("rlb_placement_epoch 11\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_repair_migrations_done_total 21\n"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_repair_chunks_pending 5\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_win_span_ms 9500\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_win_completed 4100\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_win_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_alert_active{rule=\"safe_set\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_alert_active{rule=\"p99_jump\"} 1\n"),
            std::string::npos);
  // Every non-comment line splits into `body value` with a numeric value.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string value = line.substr(space + 1);
    std::size_t pos = 0;
    EXPECT_NO_THROW({
      (void)std::stod(value, &pos);
      EXPECT_EQ(pos, value.size()) << line;
    }) << line;
  }
}

TEST(StatsRender, JsonCarriesTotalsAndSafeSet) {
  const std::string json = render_json(make_full_snapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Totals sum the two shard rows (1000 + 1001 submitted).
  EXPECT_NE(json.find("\"submitted\":2001"), std::string::npos);
  EXPECT_NE(json.find("\"hop_rtt_count\":77"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_count\":333"), std::string::npos);
  EXPECT_NE(json.find("\"safe_worst_ratio\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"safe_violated_level\":2"), std::string::npos);
  EXPECT_NE(json.find("\"placement_epoch\":11"), std::string::npos);
  EXPECT_NE(json.find("\"migrations_done\":21"), std::string::npos);
  EXPECT_NE(json.find("\"policy\":\"greedy\""), std::string::npos);
  // v5 additions are strictly additive keys (existing consumers keep
  // parsing): the windowed block and the active-alert list.
  EXPECT_NE(json.find("\"window\":{\"span_ms\":9500"), std::string::npos);
  EXPECT_NE(json.find("\"alerts\":[\"safe_set\",\"p99_jump\"]"),
            std::string::npos);
}

TEST(StatsRender, PrometheusKeepsPowerOfTwoEdgesWithExactCounts) {
  // The le series are the power-of-two edges 2..2^32 + +Inf whatever the
  // bucket layout; each is a bucket edge, so le="2^k" counts exactly the
  // samples below 2^k.
  StatsSnapshot snapshot;
  for (std::uint64_t us = 0; us < 5000; ++us) snapshot.latency.record(us);
  snapshot.latency.record(300'000'000);  // past 2^28, below 2^32
  snapshot.latency.record(std::uint64_t{1} << 40);  // the catch-all
  const std::string text = render_prometheus(snapshot);
  for (unsigned k = 1; k <= 32; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << k;
    const std::uint64_t below = std::min<std::uint64_t>(edge, 5000) +
                                (edge > 300'000'000 ? 1 : 0);
    const std::string row = "rlb_engine_latency_us_bucket{le=\"" +
                            std::to_string(edge) + "\"} " +
                            std::to_string(below) + "\n";
    EXPECT_NE(text.find(row), std::string::npos) << row;
  }
  EXPECT_NE(text.find("rlb_engine_latency_us_bucket{le=\"+Inf\"} 5002\n"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_engine_latency_us_count 5002\n"),
            std::string::npos);
  expect_in_bounds(snapshot);
}

TEST(StatsRender, RoleAndBackendIdAppearInBothRenderings) {
  const StatsSnapshot snapshot = make_full_snapshot();
  const std::string prom = render_prometheus(snapshot);
  EXPECT_NE(prom.find("role=\"router\""), std::string::npos);
  EXPECT_NE(prom.find("backend_id=\"7\""), std::string::npos);
  const std::string json = render_json(snapshot);
  EXPECT_NE(json.find("\"role\":\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"backend_id\":7"), std::string::npos);
}

}  // namespace
}  // namespace rlb::net
