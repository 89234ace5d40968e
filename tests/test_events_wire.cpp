// EVENTS wire-format tests.  One set of codec checks runs over both rings
// (EventsCodec over the journal, TraceCodec over the spans): round trip,
// truncation at every prefix, trailing garbage, version skew, bogus
// role/ring, an oversized record count rejected before allocation, the
// encoder's per-frame cap, and the retired TRACE opcodes.  Then make_events_snapshot cursor semantics
// against the process rings, the shared clock alignment, the end-to-end
// NetServer/Client EVENTS exchange (including two clients reading the
// same spans), and the client-side StatsVersionMismatch raised against a
// peer speaking a different snapshot version.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/events_wire.hpp"
#include "net/server.hpp"
#include "net/stats.hpp"
#include "net/wire.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"

namespace rlb::net {
namespace {

EventsSnapshot make_journal_snapshot() {
  EventsSnapshot snap;
  snap.ring = RingId::kJournal;
  snap.role = NodeRole::kRouter;
  snap.backend_id = 42;
  snap.steady_ns = 111'222'333;
  snap.dropped = 12;
  snap.next_cursor = 20;
  snap.remaining = 3;
  EventRecord down;
  down.seq = 18;
  down.steady_ns = 100;
  down.wall_ns = 200;
  down.type = 2;  // MEMBER_DOWN
  down.a0 = 4;
  down.a1 = 1;
  snap.events.push_back(down);
  EventRecord alert;
  alert.seq = 19;
  alert.steady_ns = 150;
  alert.wall_ns = 250;
  alert.type = 12;  // ALERT_RAISED
  alert.a0 = 0;
  alert.a1 = 1;
  alert.detail = "backend_down";
  snap.events.push_back(alert);
  EventRecord epoch;
  epoch.seq = 20;
  epoch.type = 4;  // EPOCH_COMMIT
  epoch.a0 = 7;
  epoch.a1 = 64;
  snap.events.push_back(epoch);
  return snap;
}

obs::Span make_span(std::uint64_t n) {
  obs::Span span;
  span.seq = 100 + n;
  span.trace_id = 0x1000 + n;
  span.span_id = 0x2000 + n;
  span.parent_span_id = 0x3000 + n;
  span.start_ns = 1'000'000 * n;
  span.end_ns = 1'000'000 * n + 5'000;
  span.queue_depth = n;
  span.name = (n % 2 == 0) ? "engine.request" : "router.hop";
  span.shard = static_cast<std::uint32_t>(n % 8);
  span.tid = static_cast<std::uint32_t>(n % 4);
  span.flags = (n % 3 == 0) ? obs::kSpanSampled : 0;
  span.cause = static_cast<std::uint8_t>(n % 5);
  return span;
}

EventsSnapshot make_span_snapshot() {
  EventsSnapshot snap;
  snap.ring = RingId::kSpans;
  snap.role = NodeRole::kBackend;
  snap.backend_id = 3;
  snap.steady_ns = 55'123'456'789ULL;
  snap.dropped = 17;
  snap.next_cursor = 105;
  snap.remaining = 42;
  for (std::uint64_t n = 1; n <= 5; ++n) snap.spans.push_back(make_span(n));
  return snap;
}

/// The codec checks' table: every check runs once per ring.
struct RingCase {
  const char* name;
  RingId ring;
  std::size_t max_records;
  EventsSnapshot (*make)();
};

constexpr RingCase kRings[] = {
    {"journal", RingId::kJournal, kMaxEventsPerResponse,
     &make_journal_snapshot},
    {"spans", RingId::kSpans, kMaxSpansPerResponse, &make_span_snapshot},
};

std::vector<std::uint8_t> encode(const EventsSnapshot& snap) {
  std::vector<std::uint8_t> payload;
  encode_events_payload(snap, payload);
  return payload;
}

void expect_same_records(const EventsSnapshot& a, const EventsSnapshot& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].seq, b.events[i].seq);
    EXPECT_EQ(a.events[i].steady_ns, b.events[i].steady_ns);
    EXPECT_EQ(a.events[i].wall_ns, b.events[i].wall_ns);
    EXPECT_EQ(a.events[i].type, b.events[i].type);
    EXPECT_EQ(a.events[i].a0, b.events[i].a0);
    EXPECT_EQ(a.events[i].a1, b.events[i].a1);
    EXPECT_EQ(a.events[i].detail, b.events[i].detail);
  }
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].seq, b.spans[i].seq);
    EXPECT_EQ(a.spans[i].trace_id, b.spans[i].trace_id);
    EXPECT_EQ(a.spans[i].span_id, b.spans[i].span_id);
    EXPECT_EQ(a.spans[i].parent_span_id, b.spans[i].parent_span_id);
    EXPECT_EQ(a.spans[i].start_ns, b.spans[i].start_ns);
    EXPECT_EQ(a.spans[i].end_ns, b.spans[i].end_ns);
    EXPECT_EQ(a.spans[i].queue_depth, b.spans[i].queue_depth);
    EXPECT_STREQ(a.spans[i].name, b.spans[i].name);
    EXPECT_EQ(a.spans[i].shard, b.spans[i].shard);
    EXPECT_EQ(a.spans[i].tid, b.spans[i].tid);
    EXPECT_EQ(a.spans[i].flags, b.spans[i].flags);
    EXPECT_EQ(a.spans[i].cause, b.spans[i].cause);
  }
}

// The codec checks, each run once per ring: the EventsCodec suite runs
// them over the journal ring, the TraceCodec suite over the span ring.
void check_round_trip(const RingCase& rc) {
  const EventsSnapshot original = rc.make();
  const std::vector<std::uint8_t> payload = encode(original);
  EventsSnapshot decoded;
  ASSERT_TRUE(decode_events_payload(payload.data(), payload.size(), decoded));
  EXPECT_EQ(decoded.version, kEventsVersion);
  EXPECT_EQ(decoded.ring, rc.ring);
  EXPECT_EQ(decoded.role, original.role);
  EXPECT_EQ(decoded.backend_id, original.backend_id);
  EXPECT_EQ(decoded.steady_ns, original.steady_ns);
  EXPECT_EQ(decoded.dropped, original.dropped);
  EXPECT_EQ(decoded.next_cursor, original.next_cursor);
  EXPECT_EQ(decoded.remaining, original.remaining);
  expect_same_records(decoded, original);
}

void check_truncation_at_every_prefix(const RingCase& rc) {
  const std::vector<std::uint8_t> payload = encode(rc.make());
  EventsSnapshot out;
  for (std::size_t size = 0; size < payload.size(); ++size) {
    EXPECT_FALSE(decode_events_payload(payload.data(), size, out))
        << "prefix of " << size << " bytes must not decode";
  }
}

void check_trailing_garbage(const RingCase& rc) {
  std::vector<std::uint8_t> payload = encode(rc.make());
  payload.push_back(0);
  EventsSnapshot out;
  EXPECT_FALSE(decode_events_payload(payload.data(), payload.size(), out));
}

void check_version_skew_and_wrong_type(const RingCase& rc) {
  std::vector<std::uint8_t> payload = encode(rc.make());
  EventsSnapshot out;
  payload[1] = static_cast<std::uint8_t>(kEventsVersion + 1);  // LE low
  EXPECT_FALSE(decode_events_payload(payload.data(), payload.size(), out));
  payload[1] = static_cast<std::uint8_t>(kEventsVersion - 1);
  EXPECT_FALSE(decode_events_payload(payload.data(), payload.size(), out));
  payload[1] = static_cast<std::uint8_t>(kEventsVersion);
  payload[0] = static_cast<std::uint8_t>(MsgType::kStatsResponse);
  EXPECT_FALSE(decode_events_payload(payload.data(), payload.size(), out));
}

void check_bogus_role_and_oversized_count(const RingCase& rc) {
  EventsSnapshot empty;
  empty.ring = rc.ring;
  const std::vector<std::uint8_t> payload = encode(empty);
  // Layout: type(1) version(4) ring(1) role(1) id(4) steady(8)
  // dropped(8) next_cursor(8) remaining(8) count(4).
  ASSERT_EQ(payload.size(), 47u);
  EventsSnapshot out;
  std::vector<std::uint8_t> bad_ring = payload;
  bad_ring[5] = 2;
  EXPECT_FALSE(decode_events_payload(bad_ring.data(), bad_ring.size(), out));
  std::vector<std::uint8_t> bad_role = payload;
  bad_role[6] = 7;
  EXPECT_FALSE(decode_events_payload(bad_role.data(), bad_role.size(), out));

  // One record over the ring's ceiling, and a poison 2^31 count: both
  // fail on the count itself, before anything is allocated for it.
  for (const std::uint32_t count :
       {static_cast<std::uint32_t>(rc.max_records + 1), 0x7fffffffu}) {
    std::vector<std::uint8_t> bad_count = payload;
    for (int i = 0; i < 4; ++i) {
      bad_count[43 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    }
    EXPECT_FALSE(
        decode_events_payload(bad_count.data(), bad_count.size(), out));
    EXPECT_TRUE(out.events.empty());
    EXPECT_TRUE(out.spans.empty());
  }
}

const RingCase& kJournalRing = kRings[0];
const RingCase& kSpanRing = kRings[1];

TEST(EventsCodec, RoundTripPreservesEverything) {
  check_round_trip(kJournalRing);
}
TEST(TraceCodec, RoundTripPreservesEveryField) { check_round_trip(kSpanRing); }

TEST(EventsCodec, TruncationAtEveryPrefixIsRejected) {
  check_truncation_at_every_prefix(kJournalRing);
}
TEST(TraceCodec, EveryTruncationIsRejected) {
  check_truncation_at_every_prefix(kSpanRing);
}

TEST(EventsCodec, TrailingGarbageIsRejected) {
  check_trailing_garbage(kJournalRing);
}
TEST(TraceCodec, TrailingGarbageIsRejected) {
  check_trailing_garbage(kSpanRing);
}

TEST(EventsCodec, VersionSkewIsRejected) {
  check_version_skew_and_wrong_type(kJournalRing);
}
TEST(TraceCodec, WrongVersionOrTypeIsRejected) {
  check_version_skew_and_wrong_type(kSpanRing);
}

TEST(EventsCodec, BogusRoleAndOversizedCountAreRejected) {
  check_bogus_role_and_oversized_count(kJournalRing);
}
TEST(TraceCodec, PoisonSpanCountIsRejected) {
  check_bogus_role_and_oversized_count(kSpanRing);
}

TEST(EventsCodec, EncoderCapsTheBatchAtTheFrameCeiling) {
  for (const RingCase& rc : kRings) {
    SCOPED_TRACE(rc.name);
    EventsSnapshot snap;
    snap.ring = rc.ring;
    for (std::size_t i = 0; i < rc.max_records + 10; ++i) {
      EventRecord e;
      e.seq = i + 1;
      e.detail = "alert_rule_name";
      snap.events.push_back(e);
      snap.spans.push_back(make_span(i));
    }
    const std::vector<std::uint8_t> payload = encode(snap);
    std::vector<std::uint8_t> frame;
    EXPECT_TRUE(encode_events_response_frame(payload, frame));
    EventsSnapshot out;
    ASSERT_TRUE(decode_events_payload(payload.data(), payload.size(), out));
    // Only the named ring's records travel, capped at its ceiling.
    const bool spans = rc.ring == RingId::kSpans;
    EXPECT_EQ(spans ? out.spans.size() : out.events.size(), rc.max_records);
    EXPECT_TRUE(spans ? out.events.empty() : out.spans.empty());
  }
}

TEST(EventsCodec, RetiredTraceOpcodesAreMalformed) {
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  EventsRequestMsg events;
  const std::vector<std::uint8_t> trace = {5, 0, 0, 0, 0};
  EXPECT_EQ(decode_payload(trace.data(), trace.size(), request, response,
                           stats, events),
            Decoded::kMalformed);
  std::vector<std::uint8_t> trace_resp = encode(make_span_snapshot());
  trace_resp[0] = 6;
  EXPECT_EQ(decode_payload(trace_resp.data(), trace_resp.size(), request,
                           response),
            Decoded::kMalformed);

  // The ring rides the low byte of an EVENTS request's flags; an unknown
  // ring is malformed too.
  for (const RingCase& rc : kRings) {
    SCOPED_TRACE(rc.name);
    std::vector<std::uint8_t> frame;
    encode_events_request(
        EventsRequestMsg{static_cast<std::uint32_t>(rc.ring), 9}, frame);
    ASSERT_EQ(frame.size(), 4 + kEventsPayloadSize);
    EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                             response, stats, events),
              Decoded::kEvents);
    EXPECT_EQ(events.ring(), rc.ring);
    EXPECT_EQ(events.cursor, 9u);
  }
  std::vector<std::uint8_t> unknown_ring;
  encode_events_request(EventsRequestMsg{2, 0}, unknown_ring);
  EXPECT_EQ(decode_payload(unknown_ring.data() + 4, unknown_ring.size() - 4,
                           request, response, stats, events),
            Decoded::kMalformed);
}

TEST(ClockAlignment, PeerWallSkewDoesNotMoveTheAnchorOffTheRttMidpoint) {
  // The daemon answered somewhere inside our [sent, recv] round trip, so
  // its anchor lands on the midpoint.  Its journal records carry its own
  // wall clock, here 5 s fast; alignment ignores it and places records by
  // their steady timestamps alone.
  const std::uint64_t sent = 1'700'000'000'000'000'000ull;
  const std::uint64_t recv = sent + 800'000;  // 0.8 ms RTT
  const std::uint64_t midpoint = sent + 400'000;
  EventsSnapshot snap = make_journal_snapshot();
  snap.steady_ns = 90'000'000'000ull;  // the peer's uptime
  snap.events[0].steady_ns = snap.steady_ns - 250'000;
  snap.events[0].wall_ns = midpoint - 250'000 + 5'000'000'000ull;
  const std::int64_t offset = clock_offset_ns(sent, recv, snap.steady_ns);
  EXPECT_EQ(static_cast<std::int64_t>(snap.steady_ns) + offset,
            static_cast<std::int64_t>(midpoint));
  EXPECT_EQ(static_cast<std::int64_t>(snap.events[0].steady_ns) + offset,
            static_cast<std::int64_t>(midpoint - 250'000));
  // A peer whose steady clock reads past our wall clock still aligns.
  EXPECT_EQ(clock_offset_ns(1'000, 3'000, 1'000'000), 2'000 - 1'000'000);
}

#if !defined(RLB_OBS_DISABLED)
TEST(EventsSnapshotBuilder, ResumesFromTheCursorAndStampsTheAnchor) {
  obs::Journal& journal = obs::Journal::instance();
  const std::uint64_t cursor = journal.next_seq() - 1;  // skip older tests
  journal.append(obs::JournalType::kMemberDown, 4, 0);
  journal.append(obs::JournalType::kMigrateDone, 17, 2);
  journal.append(obs::JournalType::kEpochCommit, 9, 3, "repair");

  EventsSnapshot snap =
      make_events_snapshot(NodeRole::kBackend, 6, cursor);
  EXPECT_EQ(snap.ring, RingId::kJournal);
  EXPECT_EQ(snap.role, NodeRole::kBackend);
  EXPECT_EQ(snap.backend_id, 6u);
  EXPECT_GT(snap.steady_ns, 0u);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.remaining, 0u);
  EXPECT_TRUE(snap.spans.empty());
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.events[0].type,
            static_cast<std::uint8_t>(obs::JournalType::kMemberDown));
  EXPECT_EQ(snap.events[0].seq, cursor + 1);
  EXPECT_EQ(snap.events[2].detail, "repair");
  EXPECT_EQ(snap.next_cursor, cursor + 3);

  // Resuming from the returned cursor finds nothing new and holds still.
  const EventsSnapshot again =
      make_events_snapshot(NodeRole::kBackend, 6, snap.next_cursor);
  EXPECT_TRUE(again.events.empty());
  EXPECT_EQ(again.next_cursor, snap.next_cursor);
  EXPECT_GT(again.steady_ns, 0u);  // anchor present even with no events
}

/// Reset the span recorder and return a cursor past everything in it.
std::uint64_t fresh_span_cursor() {
  obs::SpanRecorder& recorder = obs::SpanRecorder::instance();
  recorder.clear();
  recorder.set_slow_budget_ns(0);
  std::vector<obs::Span> none;
  return recorder.read_from(0, 0, none).next_cursor;
}

void record_sampled_spans(std::size_t count) {
  for (std::size_t n = 0; n < count; ++n) {
    obs::Span span = make_span(n);
    span.flags = obs::kSpanSampled;
    obs::SpanRecorder::instance().record(span);
  }
}

TEST(EventsSnapshotBuilder, SpanRingChunksAtTheFrameCeilingWithoutDraining) {
  const std::uint64_t cursor = fresh_span_cursor();
  record_sampled_spans(kMaxSpansPerResponse + 10);

  const EventsSnapshot first =
      make_events_snapshot(NodeRole::kBackend, 9, cursor, RingId::kSpans);
  EXPECT_EQ(first.ring, RingId::kSpans);
  EXPECT_EQ(first.backend_id, 9u);
  EXPECT_GT(first.steady_ns, 0u);
  EXPECT_TRUE(first.events.empty());
  ASSERT_EQ(first.spans.size(), kMaxSpansPerResponse);
  EXPECT_EQ(first.remaining, 10u);
  EXPECT_EQ(first.dropped, 0u);
  EXPECT_EQ(first.spans.front().seq, cursor + 1);
  EXPECT_EQ(first.next_cursor, cursor + kMaxSpansPerResponse);

  const EventsSnapshot second = make_events_snapshot(
      NodeRole::kBackend, 9, first.next_cursor, RingId::kSpans);
  EXPECT_EQ(second.spans.size(), 10u);
  EXPECT_EQ(second.remaining, 0u);

  // Reads are non-destructive: the first cursor still sees the first batch.
  const EventsSnapshot again =
      make_events_snapshot(NodeRole::kBackend, 9, cursor, RingId::kSpans);
  EXPECT_EQ(again.spans.size(), kMaxSpansPerResponse);

  // A full batch still fits one wire frame.
  std::vector<std::uint8_t> frame;
  EXPECT_TRUE(encode_events_response_frame(encode(first), frame));
  obs::SpanRecorder::instance().clear();
}

TEST(EventsEndToEnd, TwoClientsEachReadTheFullSpanSet) {
  const std::uint64_t start = fresh_span_cursor();
  constexpr std::size_t kSpans = 2 * kMaxSpansPerResponse + 7;
  record_sampled_spans(kSpans);

  ServerConfig config;  // ephemeral loopback port
  NetServer server(config, /*on_request=*/nullptr);
  server.set_events_handler(
      [&server](std::uint64_t conn_token, const EventsRequestMsg& msg) {
        server.send_events(conn_token,
                           make_events_snapshot(NodeRole::kRouter, 0,
                                                msg.cursor, msg.ring()));
      });
  server.start();

  // Interleave the two readers batch by batch: with a draining read they
  // would split the spans between them.
  Client a;
  Client b;
  a.connect("127.0.0.1", server.port());
  b.connect("127.0.0.1", server.port());
  std::uint64_t cursor_a = start;
  std::uint64_t cursor_b = start;
  std::vector<std::uint64_t> seqs_a;
  std::vector<std::uint64_t> seqs_b;
  const auto read_batch = [](Client& client, std::uint64_t& cursor,
                             std::vector<std::uint64_t>& seqs) {
    client.send_events_request(cursor, RingId::kSpans);
    client.flush();
    EventsSnapshot snap;
    EXPECT_TRUE(client.read_events_response(snap));
    EXPECT_EQ(snap.ring, RingId::kSpans);
    EXPECT_EQ(snap.dropped, 0u);
    for (const obs::Span& span : snap.spans) seqs.push_back(span.seq);
    cursor = snap.next_cursor;
    return snap.remaining;
  };
  bool more_a = true;
  bool more_b = true;
  for (int round = 0; (more_a || more_b) && round < 100; ++round) {
    if (more_a) more_a = read_batch(a, cursor_a, seqs_a) > 0;
    if (more_b) more_b = read_batch(b, cursor_b, seqs_b) > 0;
  }
  EXPECT_EQ(seqs_a.size(), kSpans);
  EXPECT_EQ(seqs_a, seqs_b);
  EXPECT_EQ(cursor_a, start + kSpans);
  a.close();
  b.close();
  server.stop();
  obs::SpanRecorder::instance().clear();
}
#endif

TEST(EventsEndToEnd, ClientDrainsAServersCannedBatch) {
  ServerConfig config;  // ephemeral loopback port
  NetServer server(config, /*on_request=*/nullptr);
  std::atomic<std::uint64_t> seen_cursor{~0ull};
  server.set_events_handler(
      [&server, &seen_cursor](std::uint64_t conn_token,
                              const EventsRequestMsg& msg) {
        seen_cursor.store(msg.cursor);
        EventsSnapshot snap = make_journal_snapshot();
        snap.next_cursor = msg.cursor + snap.events.size();
        server.send_events(conn_token, snap);
      });
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  client.send_events_request(/*cursor=*/7);
  client.flush();
  EventsSnapshot snap;
  ASSERT_TRUE(client.read_events_response(snap));
  EXPECT_EQ(seen_cursor.load(), 7u);
  EXPECT_EQ(snap.role, NodeRole::kRouter);
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.events[1].detail, "backend_down");
  EXPECT_EQ(snap.next_cursor, 10u);
  client.close();
  server.stop();
}

// A one-shot canned-response listener: accepts a single connection, reads
// (and discards) whatever the client sent, writes `frame`, and closes.
class CannedServer {
 public:
  explicit CannedServer(std::vector<std::uint8_t> frame)
      : frame_(std::move(frame)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::uint8_t scratch[256];
      (void)::recv(fd, scratch, sizeof(scratch), 0);
      (void)::send(fd, frame_.data(), frame_.size(), MSG_NOSIGNAL);
      ::close(fd);
    });
  }

  ~CannedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  std::vector<std::uint8_t> frame_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ClientVersionSkew, StatsMismatchThrowsWithThePeersVersion) {
  // A future/old daemon answering STATS with a different snapshot version
  // must surface as StatsVersionMismatch carrying that version — not as a
  // garbled snapshot or a generic framing error.
  StatsSnapshot snap;
  snap.role = NodeRole::kBackend;
  std::vector<std::uint8_t> payload;
  encode_stats_payload(snap, payload);
  payload[1] = static_cast<std::uint8_t>(kStatsVersion + 3);  // LE low byte
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_stats_response_frame(payload, frame));

  CannedServer peer(frame);
  Client client;
  client.connect("127.0.0.1", peer.port());
  client.send_stats_request();
  client.flush();
  StatsSnapshot out;
  try {
    client.read_stats_response(out);
    FAIL() << "expected StatsVersionMismatch";
  } catch (const StatsVersionMismatch& e) {
    EXPECT_EQ(e.peer_version(), kStatsVersion + 3);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  client.close();
}

}  // namespace
}  // namespace rlb::net
