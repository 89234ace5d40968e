// Tests for ServingEngine::snapshot() — the lock-free read the STATS wire
// channel serves — under the engine's real thread model, plus the
// end-to-end STATS round-trip over a live NetServer, and the safe-set
// journal edges the ticks append with nobody scraping.
//
// The concurrency tests run a scraper against submitters that tick and
// mutate the engine's atomics at full speed; they are meant to execute
// under the TSan CI job as-is.  Correctness here means: cumulative
// counters never move backwards between successive scrapes, and after a
// drain the totals obey exact conservation against what the submitters
// pushed in.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/stats.hpp"
#include "obs/journal.hpp"

namespace rlb {
namespace {

engine::EngineConfig small_config() {
  engine::EngineConfig config;
  config.policy = "greedy";
  config.servers = 32;
  config.replication = 2;
  config.processing_rate = 4;
  config.seed = 17;
  return config;
}

/// One request through submit_batch().
void submit_one(engine::ServingEngine& engine, std::uint64_t conn_token,
                std::uint64_t request_id, store::KeyId key) {
  const engine::ServingEngine::SubmitItem item{conn_token, request_id, key,
                                               {}};
  std::vector<std::size_t> rejected;
  engine.submit_batch(&item, 1, rejected);
}

TEST(EngineStatsSnapshot, ConcurrentScrapeSeesMonotoneCountersOneShard) {
  // Three submitters race each other for the tick while a scraper reads.
  std::atomic<std::uint64_t> responses{0};
  engine::ServingEngine engine(
      small_config(),
      [&responses](const engine::EngineResponse&) {
        responses.fetch_add(1, std::memory_order_relaxed);
      });
  engine.start();

  constexpr std::size_t kSubmitters = 3;
  constexpr std::uint64_t kPerSubmitter = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&engine, s] {
      for (std::uint64_t i = 0; i < kPerSubmitter; ++i) {
        const std::uint64_t id = (static_cast<std::uint64_t>(s) << 40) + i;
        submit_one(engine, /*conn_token=*/s, id, /*key=*/id * 2654435761u);
      }
    });
  }

  // Scrape continuously while the submitters run.  Each cumulative
  // counter must be non-decreasing between successive snapshots.
  std::thread scraper([&engine, &done] {
    net::ShardStats prev;
    std::uint64_t last_latency_count = 0;
    std::uint64_t scrapes = 0;
    while (!done.load(std::memory_order_acquire)) {
      const net::StatsSnapshot snapshot = engine.snapshot();
      ASSERT_EQ(snapshot.shards.size(), 1u);
      const net::ShardStats& row = snapshot.shards.front();
      EXPECT_GE(row.submitted, prev.submitted);
      EXPECT_GE(row.completed, prev.completed);
      EXPECT_GE(row.rejected_queue_full, prev.rejected_queue_full);
      EXPECT_GE(row.rejected_all_down, prev.rejected_all_down);
      EXPECT_GE(row.rejected_admission, prev.rejected_admission);
      EXPECT_GE(row.rejected_drop, prev.rejected_drop);
      EXPECT_GE(row.ticks, prev.ticks);
      EXPECT_GE(row.batches, prev.batches);
      EXPECT_GE(row.batched_chunks, prev.batched_chunks);
      EXPECT_GE(row.step_ns, prev.step_ns);
      EXPECT_GE(row.max_batch, prev.max_batch);
      prev = row;
      EXPECT_GE(snapshot.latency.count, last_latency_count);
      last_latency_count = snapshot.latency.count;
      ++scrapes;
    }
    EXPECT_GT(scrapes, 0u);
  });

  for (auto& thread : submitters) thread.join();
  engine.stop();  // drain: everything submitted gets an answer
  done.store(true, std::memory_order_release);
  scraper.join();

  // Exact conservation after the drain, against the submitters' totals:
  // every submit is answered exactly once, and the snapshot's cause-split
  // accounts for every submitted request.
  const net::StatsSnapshot final_snapshot = engine.snapshot();
  const net::ShardStats totals = final_snapshot.totals();
  const std::uint64_t expected = kSubmitters * kPerSubmitter;
  EXPECT_EQ(totals.submitted, expected);
  EXPECT_EQ(responses.load(), expected);
  EXPECT_EQ(totals.completed + totals.rejected_total() + totals.errors,
            expected);
  // The per-tick histograms agree with the counters they shadow: one
  // batch_size sample per non-empty batch, and step_ns sums to the
  // cumulative step time.
  EXPECT_EQ(final_snapshot.batch_size.count, totals.batches);
  EXPECT_EQ(final_snapshot.batch_size.sum, totals.batched_chunks);
  EXPECT_EQ(final_snapshot.batch_size.max, totals.max_batch);
  EXPECT_EQ(final_snapshot.step_ns.sum, totals.step_ns);
  EXPECT_GE(final_snapshot.step_ns.count, totals.batches);
  // Latency was recorded for every answered request.
  EXPECT_EQ(final_snapshot.latency.count, expected);
}

TEST(EngineStatsSnapshot, OneShardUnpacedEngineAnswersOnTheSubmittingThread) {
  // Where the ResponseFn runs: an unpaced engine ticks on the thread that
  // calls submit_batch(), so every answer is delivered there, before the
  // call returns.  A paced clock answers from the engine's thread.
  struct Case {
    std::uint64_t tick_interval_us;
    bool on_submitter;
  };
  for (const Case& c : {Case{0, true}, Case{100, false}}) {
    SCOPED_TRACE(testing::Message() << "tick every " << c.tick_interval_us
                                    << " us");
    engine::EngineConfig config = small_config();
    config.tick_interval_us = c.tick_interval_us;
    const std::thread::id submitter = std::this_thread::get_id();
    std::atomic<std::uint64_t> answered{0};
    std::atomic<std::uint64_t> on_submitter{0};
    engine::ServingEngine engine(
        config, [&](const engine::EngineResponse&) {
          if (std::this_thread::get_id() == submitter) {
            on_submitter.fetch_add(1, std::memory_order_relaxed);
          }
          answered.fetch_add(1, std::memory_order_release);
        });
    engine.start();
    // Let the engine's thread park first, so it is not awake when the work
    // arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    constexpr std::uint64_t kRequests = 200;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      submit_one(engine, 0, i, i * 2654435761u);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (answered.load(std::memory_order_acquire) < kRequests &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(answered.load(), kRequests);
    EXPECT_EQ(on_submitter.load(), c.on_submitter ? kRequests : 0u);
    engine.stop();
  }
}

TEST(EngineStatsSnapshot, ReportsConfigAndSafeSetShape) {
  engine::EngineConfig config = small_config();
  config.queue_capacity = 6;
  engine::ServingEngine engine(config, [](const engine::EngineResponse&) {});
  engine.start();
  for (std::uint64_t i = 0; i < 5000; ++i) {
    submit_one(engine, 0, i, i * 40503u);
  }
  engine.stop();

  const net::StatsSnapshot snapshot = engine.snapshot();
  EXPECT_EQ(snapshot.version, net::kStatsVersion);
  EXPECT_EQ(snapshot.policy, "greedy");
  EXPECT_EQ(snapshot.servers, 32u);
  EXPECT_EQ(snapshot.replication, 2u);
  EXPECT_EQ(snapshot.processing_rate, 4u);
  EXPECT_EQ(snapshot.queue_capacity, 6u);
  EXPECT_EQ(snapshot.shard_count, 1u);
  ASSERT_EQ(snapshot.shards.size(), 1u);
  // After a drain the balancer is empty: the safe-set monitor must
  // report a clean state.
  EXPECT_DOUBLE_EQ(snapshot.safe_worst_ratio, 0.0);
  EXPECT_EQ(snapshot.safe_violated_level, 0u);
  const net::ShardStats totals = snapshot.totals();
  EXPECT_EQ(totals.backlog, 0u);
  EXPECT_EQ(totals.inflight, 0u);
}

TEST(EngineStatsSnapshot, StatsOverLiveNetServer) {
  // Full wire round-trip: NetServer answers STATS frames from its event
  // loop with engine.snapshot(), a net::Client decodes the STATS_RESP —
  // exactly what rlbd + rlb_stat do.
  engine::ServingEngine* engine_raw = nullptr;
  net::ServerConfig net_config;  // ephemeral loopback port
  net::NetServer server(
      net_config, [&engine_raw, &server](std::uint64_t token,
                                         const net::RequestMsg& msg) {
        const net::ServerRequest one{token, msg};
        engine::submit_requests(*engine_raw, server, &one, 1);
      });
  server.set_request_batch_handler(
      [&engine_raw, &server](const net::ServerRequest* batch,
                             std::size_t count) {
        engine::submit_requests(*engine_raw, server, batch, count);
      });
  engine::ServingEngine engine(
      small_config(), [&server](const engine::EngineResponse& r) {
        net::ResponseMsg msg;
        msg.request_id = r.request_id;
        msg.status = static_cast<net::Status>(r.status);
        msg.server = static_cast<std::uint32_t>(r.server);
        msg.wait_steps = r.wait_steps;
        server.send_response(r.conn_token, msg);
      });
  engine_raw = &engine;
  server.set_stats_handler(
      [&engine, &server](std::uint64_t token, const net::StatsRequestMsg&) {
        server.send_stats(token, engine.snapshot());
      });
  engine.start();
  server.start();

  // Some request traffic on one connection...
  net::Client traffic;
  traffic.connect("127.0.0.1", server.port());
  constexpr std::uint64_t kRequests = 2000;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    traffic.send_request(i + 1, i * 7919u);
  }
  traffic.flush();
  net::ResponseMsg response;
  std::uint64_t answered = 0;
  while (answered < kRequests && traffic.read_response(response)) ++answered;
  EXPECT_EQ(answered, kRequests);

  // ...and STATS polls on a dedicated admin connection.
  net::Client admin;
  admin.connect("127.0.0.1", server.port());
  net::StatsSnapshot first;
  admin.send_stats_request();
  admin.flush();
  ASSERT_TRUE(admin.read_stats_response(first));
  EXPECT_EQ(first.version, net::kStatsVersion);
  EXPECT_EQ(first.policy, "greedy");
  EXPECT_EQ(first.totals().submitted, kRequests);

  // Repeat polls on the same connection keep working and stay monotone.
  net::StatsSnapshot second;
  admin.send_stats_request();
  admin.flush();
  ASSERT_TRUE(admin.read_stats_response(second));
  EXPECT_GE(second.totals().ticks, first.totals().ticks);
  EXPECT_GE(second.uptime_ms, first.uptime_ms);

  admin.close();
  traffic.close();
  engine.stop();
  server.stop();
  EXPECT_EQ(server.stats().stats_requests, 2u);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(EngineStatsSnapshot, SafeSetMonitorSeesInjectedBacklog) {
  // Overload a tiny cluster so backlog actually accumulates, then check
  // the monitor's level rows are internally consistent: observed counts
  // decrease in j, and ratio == observed / (m / 2^j) at every level.
  engine::EngineConfig config;
  config.policy = "greedy";
  config.servers = 4;
  config.replication = 2;
  config.processing_rate = 1;
  config.queue_capacity = 64;
  config.tick_interval_us = 2000;  // slow drain clock: backlog builds up
  config.seed = 5;
  engine::ServingEngine engine(config, [](const engine::EngineResponse&) {});
  engine.start();
  for (std::uint64_t i = 0; i < 4000; ++i) {
    submit_one(engine, 0, i, i * 2654435761u);
  }

  net::StatsSnapshot snapshot;
  bool saw_backlog = false;
  for (int attempt = 0; attempt < 200 && !saw_backlog; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    snapshot = engine.snapshot();
    saw_backlog = !snapshot.safe_set.empty();
  }
  engine.stop();
  ASSERT_TRUE(saw_backlog) << "no backlog > 1 ever observed";
  double worst = 0.0;
  std::uint64_t prev_observed = ~0ull;
  for (const net::SafeSetLevelStats& level : snapshot.safe_set) {
    EXPECT_LE(level.observed, prev_observed);  // tails shrink with j
    prev_observed = level.observed;
    EXPECT_DOUBLE_EQ(level.bound,
                     4.0 / static_cast<double>(1ull << level.level));
    EXPECT_DOUBLE_EQ(level.ratio,
                     static_cast<double>(level.observed) / level.bound);
    worst = std::max(worst, level.ratio);
  }
  EXPECT_DOUBLE_EQ(snapshot.safe_worst_ratio, worst);
}

#if !defined(RLB_OBS_DISABLED)

/// The safe-set edges journaled after `cursor`, in order.
std::vector<obs::JournalType> safe_set_edges(std::uint64_t cursor) {
  std::vector<obs::JournalEvent> events;
  obs::Journal::instance().read_from(cursor, 4096, events);
  std::vector<obs::JournalType> edges;
  for (const obs::JournalEvent& event : events) {
    if (event.type == obs::JournalType::kSafeSetViolated ||
        event.type == obs::JournalType::kSafeSetRecovered) {
      edges.push_back(event.type);
    }
  }
  return edges;
}

TEST(EngineStatsSnapshot, CrashWaveJournalsSafeSetEdgesWithoutAScrape) {
  // One engine of eight servers; a scripted wave crashes six of them at
  // tick 1 and brings them back at tick 60, while a steady stream piles
  // onto the survivors.  Nobody calls snapshot(): the ticks alone must
  // journal the violation and, once the backlog drains, the recovery.
  engine::EngineConfig config;
  config.policy = "greedy";
  config.servers = 8;
  config.replication = 2;
  config.processing_rate = 1;
  config.queue_capacity = 64;
  config.tick_interval_us = 5000;
  config.seed = 5;
  config.failure_spec =
      "script:1,0,down;1,1,down;1,2,down;1,4,down;1,5,down;1,6,down;"
      "60,0,up;60,1,up;60,2,up;60,4,up;60,5,up;60,6,up";
  std::atomic<std::uint64_t> answered{0};
  engine::ServingEngine engine(
      config, [&answered](const engine::EngineResponse&) {
        answered.fetch_add(1, std::memory_order_relaxed);
      });
  const std::uint64_t cursor = obs::Journal::instance().next_seq() - 1;
  engine.start();

  constexpr std::uint64_t kBursts = 40;
  constexpr std::uint64_t kPerBurst = 40;
  std::uint64_t id = 0;
  for (std::uint64_t burst = 0; burst < kBursts; ++burst) {
    for (std::uint64_t i = 0; i < kPerBurst; ++i, ++id) {
      submit_one(engine, 0, id, id * 2654435761u);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<obs::JournalType> edges;
  while (std::chrono::steady_clock::now() < deadline) {
    edges = safe_set_edges(cursor);
    if (answered.load() == kBursts * kPerBurst && !edges.empty() &&
        edges.back() == obs::JournalType::kSafeSetRecovered) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  engine.stop();
  EXPECT_EQ(answered.load(), kBursts * kPerBurst);
  ASSERT_GE(edges.size(), 2u) << "the wave must be journaled, unscraped";
  EXPECT_EQ(edges.front(), obs::JournalType::kSafeSetViolated);
  EXPECT_EQ(edges.back(), obs::JournalType::kSafeSetRecovered);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_NE(edges[i], edges[i - 1]) << "one event per flip";
  }
}

TEST(EngineStatsSnapshot, ScrapingAQuietEngineJournalsNothing) {
  engine::ServingEngine engine(small_config(),
                               [](const engine::EngineResponse&) {});
  engine.start();
  const std::uint64_t cursor = obs::Journal::instance().next_seq() - 1;
  for (int i = 0; i < 100; ++i) {
    const net::StatsSnapshot snapshot = engine.snapshot();
    EXPECT_EQ(snapshot.safe_violated_level, 0u);
  }
  engine.stop();
  std::vector<obs::JournalEvent> events;
  obs::Journal::instance().read_from(cursor, 4096, events);
  EXPECT_TRUE(events.empty()) << events.size() << " events journaled";
}

#endif  // !defined(RLB_OBS_DISABLED)

}  // namespace
}  // namespace rlb
