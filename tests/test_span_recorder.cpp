// Unit tests for the distributed-tracing plane: the REQUEST trace-context
// extension (v1 frame compatibility both ways), the SpanRecorder keep
// policy and cursor reads (concurrent scrapers, ring wrap), and the span
// JSONL round trip rlb_stat --spans consumes.  The span ring's wire codec
// is covered with the journal's in test_events_wire.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace rlb::net {
namespace {

obs::Span make_span(std::uint64_t n) {
  obs::Span span;
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

TEST(RequestTraceExtension, PlainRequestStaysV1Sized) {
  // No context -> the classic 17-byte payload, so old peers parse it.
  RequestMsg msg;
  msg.request_id = 77;
  msg.key = 0xDEADBEEF;
  std::vector<std::uint8_t> frame;
  encode_request(msg, frame);
  ASSERT_EQ(frame.size(), 4 + kRequestPayloadSize);

  RequestMsg decoded;
  ResponseMsg response;
  EXPECT_EQ(
      decode_payload(frame.data() + 4, frame.size() - 4, decoded, response),
      Decoded::kRequest);
  EXPECT_EQ(decoded.request_id, msg.request_id);
  EXPECT_EQ(decoded.key, msg.key);
  EXPECT_FALSE(decoded.trace.valid());
}

TEST(RequestTraceExtension, TracedRequestRoundTrips) {
  RequestMsg msg;
  msg.request_id = 99;
  msg.key = 1234;
  msg.trace.trace_id = 0xABCDEF0123456789ULL;
  msg.trace.parent_span_id = 0x1122334455667788ULL;
  msg.trace.flags = obs::kSpanSampled;
  std::vector<std::uint8_t> frame;
  encode_request(msg, frame);
  ASSERT_EQ(frame.size(), 4 + kRequestTracedPayloadSize);

  RequestMsg decoded;
  ResponseMsg response;
  EXPECT_EQ(
      decode_payload(frame.data() + 4, frame.size() - 4, decoded, response),
      Decoded::kRequest);
  EXPECT_EQ(decoded.request_id, msg.request_id);
  EXPECT_EQ(decoded.key, msg.key);
  EXPECT_EQ(decoded.trace.trace_id, msg.trace.trace_id);
  EXPECT_EQ(decoded.trace.parent_span_id, msg.trace.parent_span_id);
  EXPECT_EQ(decoded.trace.flags, msg.trace.flags);
  EXPECT_TRUE(decoded.trace.sampled());

  // A REQUEST with a half-written extension is malformed, not v1.
  RequestMsg scratch;
  EXPECT_EQ(decode_payload(frame.data() + 4, kRequestPayloadSize + 1, scratch,
                           response),
            Decoded::kMalformed);
}

#if !defined(RLB_OBS_DISABLED)

class SpanRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SpanRecorder::instance().clear();
    obs::SpanRecorder::instance().set_slow_budget_ns(0);
    obs::set_span_recording(true);
  }
  void TearDown() override {
    obs::SpanRecorder::instance().clear();
    obs::SpanRecorder::instance().set_slow_budget_ns(0);
    obs::set_span_recording(false);
  }
};

TEST_F(SpanRecorderTest, KeepPolicy) {
  obs::SpanRecorder& recorder = obs::SpanRecorder::instance();

  obs::Span sampled = make_span(1);
  sampled.flags = obs::kSpanSampled;
  sampled.cause = 0;
  recorder.record(sampled);

  obs::Span failed = make_span(2);
  failed.flags = 0;
  failed.cause = static_cast<std::uint8_t>(Status::kReject);
  recorder.record(failed);

  obs::Span fast = make_span(3);
  fast.flags = 0;
  fast.cause = 0;
  recorder.record(fast);  // unsampled, served OK, no slow budget -> dropped

  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.filtered(), 1u);

  // With a slow budget, an unsampled OK span over budget is kept.
  recorder.set_slow_budget_ns(1'000);
  obs::Span slow = make_span(4);
  slow.flags = 0;
  slow.cause = 0;
  slow.start_ns = 0;
  slow.end_ns = 2'000;
  recorder.record(slow);
  EXPECT_EQ(recorder.size(), 3u);

  obs::Span under_budget = make_span(5);
  under_budget.flags = 0;
  under_budget.cause = 0;
  under_budget.start_ns = 0;
  under_budget.end_ns = 500;
  recorder.record(under_budget);
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.filtered(), 2u);
}

TEST_F(SpanRecorderTest, DrainRemovesAndChunks) {
  obs::SpanRecorder& recorder = obs::SpanRecorder::instance();
  for (std::uint64_t n = 0; n < 10; ++n) {
    obs::Span span = make_span(n);
    span.flags = obs::kSpanSampled;
    recorder.record(span);
  }
  ASSERT_EQ(recorder.size(), 10u);
  const std::vector<obs::Span> first = recorder.drain(4);
  ASSERT_EQ(first.size(), 4u);
  const std::vector<obs::Span> rest = recorder.drain(100);
  ASSERT_EQ(rest.size(), 6u);
  EXPECT_EQ(rest.front().seq, first.back().seq + 1);
  EXPECT_TRUE(recorder.drain(100).empty());
  // drain() only advances the recorder's own cursor: the spans stay
  // buffered for every other reader.
  EXPECT_EQ(recorder.size(), 10u);
  std::vector<obs::Span> all;
  recorder.read_from(first.front().seq - 1, 100, all);
  EXPECT_EQ(all.size(), 10u);
}

obs::Span sampled_span(std::uint64_t n) {
  obs::Span span = make_span(n);
  span.flags = obs::kSpanSampled;
  return span;
}

/// A cursor past every span recorded so far.
std::uint64_t current_cursor() {
  std::vector<obs::Span> none;
  return obs::SpanRecorder::instance().read_from(0, 0, none).next_cursor;
}

TEST_F(SpanRecorderTest, ConcurrentCursorScrapersEachSeeEveryKeptSpan) {
  // 4 recording threads against 2 independent cursor scrapers: each
  // scraper accounts for every kept span exactly once (returned or
  // dropped), and never sees a sequence number twice.
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 3000;
  obs::SpanRecorder& recorder = obs::SpanRecorder::instance();
  recorder.set_ring_capacity(1u << 14);
  const std::uint64_t start = current_cursor();

  std::atomic<bool> writers_done{false};
  struct Tally {
    std::uint64_t returned = 0;
    std::uint64_t dropped = 0;
    std::uint64_t repeats = 0;
    std::uint64_t cursor = 0;
  };
  Tally tallies[2];
  std::vector<std::thread> scrapers;
  for (Tally& tally : tallies) {
    scrapers.emplace_back([&recorder, &writers_done, &tally, start] {
      std::uint64_t cursor = start;
      std::uint64_t last_seq = start;
      std::vector<obs::Span> batch;
      for (;;) {
        const bool done = writers_done.load(std::memory_order_acquire);
        batch.clear();
        const obs::JournalReadResult r = recorder.read_from(cursor, 64, batch);
        for (const obs::Span& span : batch) {
          if (span.seq <= last_seq) ++tally.repeats;
          last_seq = span.seq;
        }
        tally.returned += batch.size();
        tally.dropped += r.dropped;
        cursor = r.next_cursor;
        if (done && batch.empty() && r.remaining == 0) break;
      }
      tally.cursor = cursor;
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder] {
      for (std::uint64_t n = 0; n < kPerWriter; ++n) {
        recorder.record(sampled_span(n));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();

  const std::uint64_t kept = kWriters * kPerWriter;
  for (const Tally& tally : tallies) {
    EXPECT_EQ(tally.returned + tally.dropped, kept);
    EXPECT_EQ(tally.dropped, 0u);  // rings hold every span here
    EXPECT_EQ(tally.repeats, 0u);
    EXPECT_EQ(tally.cursor, start + kept);
  }
}

TEST_F(SpanRecorderTest, RingWrapReportsDroppedExactly) {
  obs::SpanRecorder& recorder = obs::SpanRecorder::instance();
  recorder.set_ring_capacity(8);
  const std::uint64_t start = current_cursor();
  // A fresh thread gets a fresh ring with the small capacity.
  std::thread([&recorder] {
    for (std::uint64_t n = 0; n < 20; ++n) recorder.record(sampled_span(n));
  }).join();
  recorder.set_ring_capacity(1u << 14);

  // 20 kept, the ring holds the newest 8: seqs start+13 .. start+20.
  std::vector<obs::Span> all;
  obs::JournalReadResult r = recorder.read_from(start, 100, all);
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all.front().seq, start + 13);
  EXPECT_EQ(r.dropped, 12u);
  EXPECT_EQ(r.next_cursor, start + 20);
  EXPECT_EQ(r.remaining, 0u);

  // A cursor inside the evicted range loses only the spans past it.
  std::vector<obs::Span> mid;
  r = recorder.read_from(start + 5, 100, mid);
  EXPECT_EQ(mid.size(), 8u);
  EXPECT_EQ(r.dropped, 7u);

  // A short batch stops at its last span and reports what is left.
  std::vector<obs::Span> head;
  r = recorder.read_from(start, 3, head);
  ASSERT_EQ(head.size(), 3u);
  EXPECT_EQ(r.dropped, 12u);
  EXPECT_EQ(r.next_cursor, start + 15);
  EXPECT_EQ(r.remaining, 5u);
  std::vector<obs::Span> tail;
  r = recorder.read_from(r.next_cursor, 100, tail);
  EXPECT_EQ(tail.size(), 5u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.next_cursor, start + 20);
}

TEST_F(SpanRecorderTest, RecordingSwitchGates) {
  obs::set_span_recording(false);
  EXPECT_FALSE(obs::span_recording_enabled());
  obs::set_span_recording(true);
  EXPECT_TRUE(obs::span_recording_enabled());
}

#endif  // !defined(RLB_OBS_DISABLED)

TEST(SpanJsonl, RoundTripWithAnchor) {
  std::vector<obs::Span> spans;
  for (std::uint64_t n = 1; n <= 4; ++n) spans.push_back(make_span(n));
  std::stringstream buffer;
  obs::write_spans_jsonl(spans, buffer, 123'456'789, 987'654'321);

  std::uint64_t anchor_steady = 0;
  std::uint64_t anchor_wall = 0;
  const std::vector<obs::Span> parsed =
      obs::parse_spans_jsonl(buffer, anchor_steady, anchor_wall);
  EXPECT_EQ(anchor_steady, 123'456'789u);
  EXPECT_EQ(anchor_wall, 987'654'321u);
  ASSERT_EQ(parsed.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, spans[i].span_id);
    EXPECT_EQ(parsed[i].parent_span_id, spans[i].parent_span_id);
    EXPECT_EQ(parsed[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(parsed[i].end_ns, spans[i].end_ns);
    EXPECT_EQ(parsed[i].queue_depth, spans[i].queue_depth);
    EXPECT_STREQ(parsed[i].name, spans[i].name);
    EXPECT_EQ(parsed[i].shard, spans[i].shard);
    EXPECT_EQ(parsed[i].tid, spans[i].tid);
    EXPECT_EQ(parsed[i].flags, spans[i].flags);
    EXPECT_EQ(parsed[i].cause, spans[i].cause);
  }
}

TEST(SpanJsonl, GarbageLinesAreSkipped) {
  std::stringstream buffer;
  buffer << "not json at all\n"
         << "{\"trace_id\":1}\n"  // missing required fields
         << "{\"trace_id\":7,\"span_id\":8,\"start_ns\":9,\"name\":\"x\","
            "\"end_ns\":10}\n";
  std::uint64_t anchor_steady = 0;
  std::uint64_t anchor_wall = 0;
  const std::vector<obs::Span> parsed =
      obs::parse_spans_jsonl(buffer, anchor_steady, anchor_wall);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].trace_id, 7u);
  EXPECT_STREQ(parsed[0].name, "x");
}

TEST(TraceContext, ValidityAndIds) {
  obs::TraceContext none;
  EXPECT_FALSE(none.valid());
  EXPECT_FALSE(none.sampled());

  obs::TraceContext ctx;
  ctx.trace_id = obs::next_span_id();
  ctx.flags = obs::kSpanSampled;
  EXPECT_TRUE(ctx.valid());
  EXPECT_TRUE(ctx.sampled());

  // next_span_id never returns 0 and does not repeat over a small window.
  std::uint64_t previous = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = obs::next_span_id();
    EXPECT_NE(id, 0u);
    EXPECT_NE(id, previous);
    previous = id;
  }
}

}  // namespace
}  // namespace rlb::net
