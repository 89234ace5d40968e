// Health-plane semantics: the control-plane event journal (ring wrap and
// dropped-count accounting, cursor resume across a wrap, concurrent
// writers vs a draining reader), the alerting watchdog's edge-triggering
// (raise once, clear once, no flapping on a steady signal), the windowed
// aggregator's trailing-window fold, and the flight-recorder dump.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/window.hpp"

namespace rlb::obs {
namespace {

// The journal-semantics suite only exists where the journal does:
// under RLB_OBS_DISABLED append() compiles to a no-op by design, so
// every ring/cursor/accounting property trivially degenerates.
#if !defined(RLB_OBS_DISABLED)

TEST(Journal, AppendsAreSequencedAndTimestamped) {
  Journal journal(16);
  EXPECT_EQ(journal.next_seq(), 1u);
  journal.append(JournalType::kMemberDown, 3, 0);
  journal.append(JournalType::kEpochCommit, 7, 42, "note");
  ASSERT_EQ(journal.size(), 2u);

  std::vector<JournalEvent> events;
  const JournalReadResult r = journal.read_from(0, 100, events);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.remaining, 0u);
  EXPECT_EQ(r.next_cursor, 2u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].type, JournalType::kMemberDown);
  EXPECT_EQ(events[0].a0, 3u);
  EXPECT_GT(events[0].steady_ns, 0u);
  EXPECT_GT(events[0].wall_ns, 0u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[1].a0, 7u);
  EXPECT_EQ(events[1].a1, 42u);
  EXPECT_EQ(events[1].detail_view(), "note");
}

TEST(Journal, DetailIsTruncatedNotOverflowed) {
  Journal journal(4);
  const std::string longer(100, 'x');
  journal.append(JournalType::kAlertRaised, 0, 0, longer);
  std::vector<JournalEvent> events;
  journal.read_from(0, 10, events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail_view(), std::string(kJournalDetailMax, 'x'));
}

TEST(Journal, RingWrapReportsDroppedExactly) {
  Journal journal(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    journal.append(JournalType::kShed, i, 0);
  }
  // Only the last 8 events (seq 13..20) survive; a fresh reader must be
  // told about the 12 that wrapped out, never silently skipped.
  std::vector<JournalEvent> events;
  const JournalReadResult r = journal.read_from(0, 100, events);
  EXPECT_EQ(r.dropped, 12u);
  EXPECT_EQ(r.next_cursor, 20u);
  EXPECT_EQ(r.remaining, 0u);
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 13 + i);
    EXPECT_EQ(events[i].a0, 12 + i);  // payload rode along with its seq
  }
}

TEST(Journal, CursorResumesAcrossAWrap) {
  Journal journal(8);
  for (std::uint64_t i = 0; i < 6; ++i) {
    journal.append(JournalType::kShed, i, 0);
  }
  std::vector<JournalEvent> events;
  JournalReadResult r = journal.read_from(0, 100, events);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.next_cursor, 6u);

  // 14 more appends wrap the ring well past the cursor: seq 7..12 are
  // gone (6 lost), seq 13..20 retained.
  for (std::uint64_t i = 0; i < 14; ++i) {
    journal.append(JournalType::kShed, 100 + i, 0);
  }
  events.clear();
  r = journal.read_from(r.next_cursor, 100, events);
  EXPECT_EQ(r.dropped, 6u);
  EXPECT_EQ(r.next_cursor, 20u);
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().seq, 13u);
  EXPECT_EQ(events.back().seq, 20u);
}

TEST(Journal, BatchedReadsChainThroughNextCursor) {
  Journal journal(64);
  for (std::uint64_t i = 0; i < 10; ++i) {
    journal.append(JournalType::kMigrateDone, i, 0);
  }
  std::vector<JournalEvent> all;
  std::uint64_t cursor = 0;
  for (;;) {
    std::vector<JournalEvent> batch;
    const JournalReadResult r = journal.read_from(cursor, 3, batch);
    EXPECT_EQ(r.dropped, 0u);
    all.insert(all.end(), batch.begin(), batch.end());
    cursor = r.next_cursor;
    if (r.remaining == 0) break;
    EXPECT_EQ(batch.size(), 3u);  // full batches until the tail
  }
  ASSERT_EQ(all.size(), 10u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, i + 1);
  }
}

TEST(Journal, ReadsAreNonDestructive) {
  Journal journal(16);
  journal.append(JournalType::kMemberUp, 1, 0);
  journal.append(JournalType::kMemberDown, 2, 0);
  // Two independent scrapers each see the full history.
  for (int reader = 0; reader < 2; ++reader) {
    std::vector<JournalEvent> events;
    const JournalReadResult r = journal.read_from(0, 100, events);
    EXPECT_EQ(events.size(), 2u);
    EXPECT_EQ(r.next_cursor, 2u);
  }
}

TEST(Journal, TailReturnsTheNewestEvents) {
  Journal journal(8);
  for (std::uint64_t i = 0; i < 12; ++i) {
    journal.append(JournalType::kShed, i, 0);
  }
  std::vector<JournalEvent> events;
  journal.tail(3, events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 10u);
  EXPECT_EQ(events[2].seq, 12u);
}

TEST(Journal, ConcurrentWritersAndReaderStaySane) {
  // 4 writers x 2000 appends against a reader polling by cursor the whole
  // time.  Run under TSan this doubles as the data-race check for the
  // mutex-guarded ring; the invariant here is accounting: every event is
  // either delivered in seq order or counted as dropped.
  Journal journal(256);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 2000;

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&journal, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        journal.append(JournalType::kSlowConsumer,
                       static_cast<std::uint64_t>(w), i);
      }
    });
  }

  std::uint64_t cursor = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t last_seq = 0;
  const auto drain = [&] {
    for (;;) {
      std::vector<JournalEvent> batch;
      const JournalReadResult r = journal.read_from(cursor, 64, batch);
      dropped += r.dropped;
      for (const JournalEvent& ev : batch) {
        EXPECT_GT(ev.seq, last_seq);  // strictly increasing, no repeats
        last_seq = ev.seq;
      }
      delivered += batch.size();
      cursor = r.next_cursor;
      if (batch.empty() && r.remaining == 0) break;
    }
  };
  for (int spin = 0; spin < 50; ++spin) drain();
  for (std::thread& t : writers) t.join();
  drain();

  EXPECT_EQ(delivered + dropped, kWriters * kPerWriter);
  EXPECT_EQ(last_seq, kWriters * kPerWriter);
}

#endif  // !RLB_OBS_DISABLED

// ---------------------------------------------------------------------------
// HealthWatchdog

HealthSample safe_sample() { return HealthSample{}; }

TEST(HealthWatchdog, RaisesOnceAfterHysteresisAndClearsOnce) {
  Journal journal(64);
  HealthWatchdogConfig config;
  config.raise_after = 3;
  config.clear_after = 2;
  HealthWatchdog dog(config, &journal);

  HealthSample breach = safe_sample();
  breach.safe_worst_ratio = 1.5;

  // Two breaching ticks: below the raise threshold, nothing fires.
  dog.evaluate(breach);
  dog.evaluate(breach);
  EXPECT_TRUE(dog.active().empty());
  EXPECT_EQ(dog.raised_total(), 0u);

  // Third tick raises — and a long steady breach never re-raises.
  for (int i = 0; i < 20; ++i) dog.evaluate(breach);
  ASSERT_EQ(dog.active(), std::vector<std::string>{"safe_set"});
  EXPECT_EQ(dog.raised_total(), 1u);

  // Recovery: one healthy tick is not enough, the second clears — once.
  dog.evaluate(safe_sample());
  EXPECT_EQ(dog.active().size(), 1u);
  for (int i = 0; i < 20; ++i) dog.evaluate(safe_sample());
  EXPECT_TRUE(dog.active().empty());
  EXPECT_EQ(dog.raised_total(), 1u);

#if !defined(RLB_OBS_DISABLED)
  // The journal saw exactly one raise edge and one clear edge.
  std::vector<JournalEvent> events;
  journal.read_from(0, 100, events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, JournalType::kAlertRaised);
  EXPECT_EQ(events[0].detail_view(), "safe_set");
  EXPECT_EQ(events[1].type, JournalType::kAlertCleared);
  EXPECT_EQ(events[1].detail_view(), "safe_set");
#endif
}

TEST(HealthWatchdog, SteadySignalNeverFlaps) {
  Journal journal(64);
  HealthWatchdog dog({}, &journal);
  HealthSample breach = safe_sample();
  breach.down_count = 1;  // backend_down raises on the first tick
  for (int i = 0; i < 100; ++i) dog.evaluate(breach);
  EXPECT_EQ(dog.raised_total(), 1u);
  for (int i = 0; i < 100; ++i) dog.evaluate(safe_sample());
  EXPECT_TRUE(dog.active().empty());
#if !defined(RLB_OBS_DISABLED)
  std::vector<JournalEvent> events;
  journal.read_from(0, 200, events);
  EXPECT_EQ(events.size(), 2u);  // one raise + one clear, 200 ticks
#endif
}

TEST(HealthWatchdog, BackendDownIsFastRaiseFastClear) {
  Journal journal(64);
  HealthWatchdog dog({}, &journal);  // defaults: raise_after=3 for the rest
  HealthSample breach = safe_sample();
  breach.down_count = 2;
  dog.evaluate(breach);  // first tick already raises
  ASSERT_EQ(dog.active(), std::vector<std::string>{"backend_down"});
  dog.evaluate(safe_sample());  // first healthy tick already clears
  EXPECT_TRUE(dog.active().empty());
}

TEST(HealthWatchdog, P99JumpComparesAgainstFrozenBaseline) {
  Journal journal(64);
  HealthWatchdogConfig config;
  config.raise_after = 2;
  config.clear_after = 2;
  config.p99_jump_factor = 8.0;
  config.p99_min_us = 2000;
  HealthWatchdog dog(config, &journal);

  // Establish a ~500us baseline.
  HealthSample calm = safe_sample();
  calm.win_p99_us = 500;
  for (int i = 0; i < 10; ++i) dog.evaluate(calm);
  EXPECT_TRUE(dog.active().empty());

  // An 8x+ jump above both the baseline and the absolute floor raises
  // after the hysteresis; staying degraded does not launder the baseline.
  HealthSample spike = safe_sample();
  spike.win_p99_us = 20000;
  for (int i = 0; i < 10; ++i) dog.evaluate(spike);
  ASSERT_EQ(dog.active(), std::vector<std::string>{"p99_jump"});
  EXPECT_EQ(dog.raised_total(), 1u);

  // Recovery to the old regime clears.
  for (int i = 0; i < 10; ++i) dog.evaluate(calm);
  EXPECT_TRUE(dog.active().empty());
}

TEST(HealthWatchdog, HeartbeatFlapSumsTransitionDeltas) {
  Journal journal(64);
  HealthWatchdogConfig config;
  config.raise_after = 1;
  config.flap_threshold = 3;
  config.flap_window = 10;
  HealthWatchdog dog(config, &journal);

  HealthSample sample = safe_sample();
  dog.evaluate(sample);  // establish the cumulative-counter base
  // Three mark-downs land within the window: flap.
  sample.transitions_down = 1;
  dog.evaluate(sample);
  sample.transitions_down = 2;
  dog.evaluate(sample);
  EXPECT_TRUE(dog.active().empty());
  sample.transitions_down = 3;
  dog.evaluate(sample);
  ASSERT_EQ(dog.active(), std::vector<std::string>{"heartbeat_flap"});
}

TEST(HealthWatchdog, RepairStallNeedsPendingWithoutProgress) {
  Journal journal(64);
  HealthWatchdogConfig config;
  config.raise_after = 1;
  config.repair_stall_after = 3;
  HealthWatchdog dog(config, &journal);

  HealthSample sample = safe_sample();
  sample.repair_pending = 5;
  sample.repair_done = 10;
  dog.evaluate(sample);  // pending, but done just moved: streak resets
  for (int i = 0; i < 2; ++i) dog.evaluate(sample);
  EXPECT_TRUE(dog.active().empty());
  dog.evaluate(sample);  // third no-progress tick
  ASSERT_EQ(dog.active(), std::vector<std::string>{"repair_stall"});

  // Any completed migration clears the stall.
  sample.repair_done = 11;
  dog.evaluate(sample);
  for (int i = 0; i < 5; ++i) {
    sample.repair_done++;
    dog.evaluate(sample);
  }
  EXPECT_TRUE(dog.active().empty());
}

// ---------------------------------------------------------------------------
// WindowedAggregator (driven with explicit clocks: fully deterministic)

TEST(WindowedAggregator, FoldsTheTrailingWindowOnly) {
  WindowedAggregator win(/*windows=*/4, /*window_ns=*/1000);
  win.record(100, 500);   // window 0
  win.record(200, 1500);  // window 1
  win.add(0, 7, 1500);    // counter in window 1

  WindowedAggregator::Snapshot snap = win.read(1750);
  EXPECT_EQ(snap.hist.count, 2u);
  EXPECT_EQ(snap.hist.sum, 300u);
  EXPECT_EQ(snap.hist.max, 200u);
  EXPECT_EQ(snap.counters[0], 7u);
  EXPECT_EQ(snap.windows, 2u);
  // Window 0 full (1000ns) + window 1 partial (750ns) = 1750ns span; the
  // aggregator reports milliseconds, so this tiny test clock floors to 0 —
  // assert through the ns math instead with a second, bigger clock below.

  // 4 windows later the old slots are dead history.
  snap = win.read(6500);
  EXPECT_EQ(snap.hist.count, 0u);
  EXPECT_EQ(snap.windows, 0u);
  EXPECT_EQ(snap.span_ms, 0u);
}

TEST(WindowedAggregator, SpanSubtractsTheUnfilledPartialWindow) {
  WindowedAggregator win(/*windows=*/10, /*window_ns=*/1'000'000'000);
  const std::uint64_t t0 = 5'000'000'000;  // window 5 begins
  win.record(10, t0);
  win.record(20, t0 + 1'500'000'000);  // window 6, half filled
  const WindowedAggregator::Snapshot snap = win.read(t0 + 1'500'000'000);
  EXPECT_EQ(snap.hist.count, 2u);
  EXPECT_EQ(snap.windows, 2u);
  // Window 5 fully counted + window 6 at 500ms elapsed.
  EXPECT_EQ(snap.span_ms, 1500u);
}

TEST(WindowedAggregator, SlotRecyclingZeroesOldData) {
  WindowedAggregator win(/*windows=*/2, /*window_ns=*/1000);
  win.record(100, 500);   // window 0 -> slot 0
  win.record(200, 2500);  // window 2 -> recycles slot 0
  const WindowedAggregator::Snapshot snap = win.read(2500);
  // Only the window-2 sample survives; the recycled slot was zeroed.
  EXPECT_EQ(snap.hist.count, 1u);
  EXPECT_EQ(snap.hist.sum, 200u);
}

TEST(WindowedAggregator, FoldEqualsAPlainHistogramOfTheSameSamples) {
  // Samples spread over three windows of a four-window ring: the fold is
  // the same LogHistogram as recording every sample into one, bucket for
  // bucket (so a window snapshot needs no layout conversion).
  WindowedAggregator win(/*windows=*/4, /*window_ns=*/1000);
  LogHistogram plain;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const std::uint64_t us = (i * 7919) % 250'000;
    win.record(us, 1000 + i);
    plain.record(us);
  }
  const WindowedAggregator::Snapshot snap = win.read(3999);
  EXPECT_EQ(snap.windows, 3u);
  EXPECT_EQ(snap.hist, plain);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, WritesParseableJsonAtomically) {
  Journal& journal = Journal::instance();
  journal.append(JournalType::kMemberDown, 4, 2);
  journal.append(JournalType::kAlertRaised, 0, 1, "backend_down");
  set_active_alerts({"backend_down"});

  const std::string path = "flight_test_out.json";
  ASSERT_TRUE(write_flight_record(path, "backend", 9,
                                  "{\"submitted\":123}"));
  set_active_alerts({});

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  std::remove(path.c_str());

  EXPECT_NE(doc.find("\"flight_record\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"role\":\"backend\""), std::string::npos);
  EXPECT_NE(doc.find("\"backend_id\":9"), std::string::npos);
  EXPECT_NE(doc.find("\"snapshot\":{\"submitted\":123}"), std::string::npos);
  EXPECT_NE(doc.find("\"alerts\":[\"backend_down\"]"), std::string::npos);
#if !defined(RLB_OBS_DISABLED)
  EXPECT_NE(doc.find("\"type\":\"MEMBER_DOWN\""), std::string::npos);
  EXPECT_NE(doc.find("\"type\":\"ALERT_RAISED\""), std::string::npos);
  EXPECT_NE(doc.find("\"detail\":\"backend_down\""), std::string::npos);
#endif
  // No tmp file left behind (atomic tmp + rename).
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
}

}  // namespace
}  // namespace rlb::obs
