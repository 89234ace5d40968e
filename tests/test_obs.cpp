// The observability layer (src/obs/): tracing, probes, timers, and their
// integration with the simulator and the parallel trial runner.
//
// Every test restores the process-global obs state (enabled flag, sink,
// detail level) on teardown — other test files run in the same process and
// assume instrumentation is off.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness/experiment.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "policies/delayed_cuckoo.hpp"
#include "policies/greedy.hpp"
#include "workloads/repeated_set.hpp"

namespace {

using namespace rlb;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_sink(nullptr);
    obs::set_enabled(false);
    obs::set_detail(false);
    obs::ProbeRegistry::instance().reset();
  }
  void TearDown() override {
    obs::set_sink(nullptr);
    obs::set_enabled(false);
    obs::set_detail(false);
    obs::ProbeRegistry::instance().reset();
  }
};

// ----------------------------------------------------------------- trace

TEST_F(ObsTest, EmitRecordsInOrderWithMonotonicTimestamps) {
  obs::RingTraceCollector collector;
  obs::set_sink(&collector);
  obs::set_enabled(true);

  obs::emit(obs::EventKind::kSubmit, "t.submit", 1, 10);
  obs::emit(obs::EventKind::kRoute, "t.route", 2, 20);
  obs::emit(obs::EventKind::kServe, "t.serve", 3, 30);

  const auto events = collector.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kSubmit);
  EXPECT_EQ(events[1].kind, obs::EventKind::kRoute);
  EXPECT_EQ(events[2].kind, obs::EventKind::kServe);
  EXPECT_STREQ(events[0].name, "t.submit");
  EXPECT_EQ(events[0].a0, 1u);
  EXPECT_EQ(events[0].a1, 10u);
  // Same thread: timestamps never go backwards.
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns, events[2].ts_ns);
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST_F(ObsTest, EmitIsNoOpWhenDisabledOrSinkless) {
  obs::RingTraceCollector collector;
  obs::set_sink(&collector);
  // Raw emit() is gated only on the sink; the RLB_TRACE_EVENT macro (and
  // the latched policy sites) add the enabled() check.
  obs::set_enabled(false);
  RLB_TRACE_EVENT(obs::EventKind::kSubmit, "t.off", 1);
  EXPECT_EQ(collector.size(), 0u);

  obs::set_enabled(true);
  obs::set_sink(nullptr);
  RLB_TRACE_EVENT(obs::EventKind::kSubmit, "t.nosink", 1);
  obs::set_sink(&collector);
  EXPECT_EQ(collector.size(), 0u);
}

TEST_F(ObsTest, RingOverwritesOldestAndCountsDropped) {
  obs::RingTraceCollector collector(/*capacity=*/4);
  obs::set_sink(&collector);
  obs::set_enabled(true);

  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::emit(obs::EventKind::kCounter, "t.ring", i);
  }
  EXPECT_EQ(collector.size(), 4u);
  EXPECT_EQ(collector.dropped(), 6u);
  const auto events = collector.events();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest four, oldest-first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].a0, 6u + i);
  }

  collector.clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST_F(ObsTest, EventKindStringsRoundTrip) {
  for (int k = 0; k <= static_cast<int>(obs::EventKind::kCounter); ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    obs::EventKind parsed;
    ASSERT_TRUE(obs::kind_from_string(obs::to_string(kind), parsed))
        << obs::to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  obs::EventKind out;
  EXPECT_FALSE(obs::kind_from_string("not-a-kind", out));
}

TEST_F(ObsTest, JsonlExportParsesBackIdentically) {
  obs::RingTraceCollector collector;
  obs::set_sink(&collector);
  obs::set_enabled(true);

  obs::emit(obs::EventKind::kKickChain, "cuckoo.kick", 7, 3);
  obs::emit(obs::EventKind::kPhaseBegin, "cuckoo.phase", 1, 2);
  obs::emit_scope("sim.step", /*start_ns=*/100, /*dur_ns=*/250, /*a0=*/5);

  const auto original = collector.events();
  std::stringstream stream;
  obs::write_jsonl(original, stream);

  const auto parsed = obs::parse_jsonl(stream);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, original[i].kind) << i;
    EXPECT_STREQ(parsed[i].name, original[i].name) << i;
    EXPECT_EQ(parsed[i].ts_ns, original[i].ts_ns) << i;
    EXPECT_EQ(parsed[i].dur_ns, original[i].dur_ns) << i;
    EXPECT_EQ(parsed[i].a0, original[i].a0) << i;
    EXPECT_EQ(parsed[i].a1, original[i].a1) << i;
    EXPECT_EQ(parsed[i].tid, original[i].tid) << i;
  }
}

TEST_F(ObsTest, ParseJsonlSkipsGarbageLines) {
  std::stringstream stream;
  stream << "not json at all\n"
         << "{\"kind\":\"no-such-kind\",\"name\":\"x\",\"ts_ns\":1}\n"
         << "{\"kind\":\"route\",\"name\":\"ok\",\"ts_ns\":42,\"dur_ns\":0,"
            "\"a0\":1,\"a1\":2,\"tid\":0}\n"
         << "\n";
  const auto events = obs::parse_jsonl(stream);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kRoute);
  EXPECT_STREQ(events[0].name, "ok");
  EXPECT_EQ(events[0].ts_ns, 42u);
}

TEST_F(ObsTest, ChromeTraceExportShapesEventsByKind) {
  obs::RingTraceCollector collector;
  obs::set_sink(&collector);
  obs::set_enabled(true);

  obs::emit(obs::EventKind::kReject, "sq.reject", 1, 2);
  obs::emit(obs::EventKind::kPArrival, "pqueue.arrivals_per_phase", 3, 9);
  obs::emit_scope("simulate", 0, 5000, 0);

  std::stringstream stream;
  obs::write_chrome_trace(collector.events(), stream);
  const std::string json = stream.str();

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Instant, counter, and complete phases all present.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The counter event carries its sampled value (a1 = 9).
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
  // The scope's 5000 ns become 5 us.
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
}

TEST_F(ObsTest, TraceFileWritesFormatsByExtension) {
  const std::string dir = ::testing::TempDir();
  const std::string jsonl_path = dir + "/rlb_obs_test.jsonl";
  obs::set_trace_file(jsonl_path);
  obs::emit(obs::EventKind::kStashHit, "cuckoo.stash", 11, 1);
  ASSERT_TRUE(obs::flush_trace());

  std::ifstream in(jsonl_path);
  ASSERT_TRUE(in.good());
  const auto events = obs::parse_jsonl(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kStashHit);
  EXPECT_EQ(events[0].a0, 11u);
  std::remove(jsonl_path.c_str());
}

// ----------------------------------------------------------------- probes

// Everything from here on exercises actual recording, which
// RLB_OBS_ENABLED=OFF compiles away; the #else branch checks exactly that.
#if !defined(RLB_OBS_DISABLED)

TEST_F(ObsTest, CounterGaugeHistogramSemantics) {
  obs::set_enabled(true);
  obs::Counter counter("test.counter");
  obs::Gauge gauge("test.gauge");
  obs::Histogram hist("test.hist");

  counter.add();
  counter.add(4);
  gauge.set(2.5);
  gauge.set(-1.0);
  for (const double v : {0.0, 1.0, 2.0, 3.0, 100.0}) hist.observe(v);

  obs::ProbeSnapshot snap;
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.counter", snap));
  EXPECT_EQ(snap.kind, obs::ProbeKind::kCounter);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.value(), 5.0);

  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.gauge", snap));
  EXPECT_EQ(snap.kind, obs::ProbeKind::kGauge);
  EXPECT_DOUBLE_EQ(snap.min, -1.0);
  EXPECT_DOUBLE_EQ(snap.max, 2.5);

  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.hist", snap));
  EXPECT_EQ(snap.kind, obs::ProbeKind::kHistogram);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.mean(), 106.0 / 5.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  // Values below 32 have a bucket each, and a quantile never reads above
  // the largest sample: the median of {0,1,2,3,100} reads exactly 2 and
  // the p99 exactly 100.
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 100.0);
  EXPECT_EQ(snap.hist.count, 5u);
}

TEST_F(ObsTest, RecordingIsGatedOnEnabled) {
  obs::Counter counter("test.gated");
  counter.add();  // obs disabled: must not record
  obs::ProbeSnapshot snap;
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.gated", snap));
  EXPECT_EQ(snap.count, 0u);

  obs::set_enabled(true);
  counter.add();
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.gated", snap));
  EXPECT_EQ(snap.count, 1u);
}

TEST_F(ObsTest, ReRegisteringANameReturnsTheSameProbe) {
  obs::set_enabled(true);
  obs::Counter first("test.same_name");
  obs::Counter second("test.same_name");
  first.add(2);
  second.add(3);
  obs::ProbeSnapshot snap;
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.same_name", snap));
  EXPECT_DOUBLE_EQ(snap.value(), 5.0);
}

TEST_F(ObsTest, ProbesMergeAcrossPoolThreads) {
  obs::set_enabled(true);
  obs::Counter counter("test.pool_counter");
  obs::Histogram hist("test.pool_hist");

  // Four workers, each recording from its own thread-local shard.
  parallel::ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  parallel::parallel_for(pool, kTasks, [&](std::size_t i) {
    counter.add();
    hist.observe(static_cast<double>(i));
  });

  // snapshot() merges live shards; workers are still parked in the pool.
  obs::ProbeSnapshot snap;
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.pool_counter", snap));
  EXPECT_EQ(snap.count, kTasks);
  EXPECT_DOUBLE_EQ(snap.value(), static_cast<double>(kTasks));

  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.pool_hist", snap));
  EXPECT_EQ(snap.count, kTasks);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kTasks - 1));
}

TEST_F(ObsTest, ShardsOfExitedThreadsSurviveInSnapshot) {
  obs::set_enabled(true);
  obs::Counter counter("test.exited_thread");
  {
    std::thread worker([&] { counter.add(7); });
    worker.join();
  }
  // The worker's shard was retired at thread exit; its total must remain.
  obs::ProbeSnapshot snap;
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.exited_thread", snap));
  EXPECT_DOUBLE_EQ(snap.value(), 7.0);
}

TEST_F(ObsTest, ToTableSkipsSilentProbesAndOrdersColumns) {
  obs::set_enabled(true);
  obs::Counter active("test.table_active");
  obs::Counter silent("test.table_silent");
  (void)silent;
  active.add(3);

  const report::Table table = obs::ProbeRegistry::instance().to_table();
  std::stringstream stream;
  table.print_csv(stream);
  const std::string csv = stream.str();
  EXPECT_NE(csv.find("test.table_active"), std::string::npos);
  EXPECT_EQ(csv.find("test.table_silent"), std::string::npos);
  EXPECT_EQ(csv.find("probe,kind,count,value"), 0u);
}

// ----------------------------------------------------------------- timer

TEST_F(ObsTest, ObsTimerMeasuresEvenWhenObsIsDisabled) {
  obs::ObsTimer timer("test.timer");
  const double running = timer.elapsed_seconds();
  EXPECT_GE(running, 0.0);
  const double total = timer.stop();
  EXPECT_GE(total, running);
  // stop() is idempotent: the second call returns the same duration.
  EXPECT_DOUBLE_EQ(timer.stop(), total);
}

TEST_F(ObsTest, ObsTimerEmitsScopeAndHistogramWhenEnabled) {
  obs::RingTraceCollector collector;
  obs::set_sink(&collector);
  obs::set_enabled(true);
  obs::Histogram hist("test.timer_hist");
  {
    obs::ObsTimer timer("test.scope", &hist, /*a0=*/42);
  }
  const auto events = collector.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kScope);
  EXPECT_STREQ(events[0].name, "test.scope");
  EXPECT_EQ(events[0].a0, 42u);

  obs::ProbeSnapshot snap;
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.timer_hist", snap));
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.sum), events[0].dur_ns);
}

// ------------------------------------------------------------ integration

TEST_F(ObsTest, SimulationEmitsStructuralEventsButNoFirehoseByDefault) {
  obs::RingTraceCollector collector;
  obs::set_sink(&collector);
  obs::set_enabled(true);

  auto config = policies::GreedyBalancer::theorem_config(64, 2, 4, 91);
  policies::GreedyBalancer balancer(config);
  workloads::RepeatedSetWorkload workload(64, 1ULL << 20, 91);
  core::SimConfig sim;
  sim.steps = 10;
  (void)core::simulate(balancer, workload, sim);

  bool saw_scope = false;
  for (const auto& event : collector.events()) {
    if (event.kind == obs::EventKind::kScope) saw_scope = true;
    // Per-request lifecycle events require the detail level.
    EXPECT_NE(event.kind, obs::EventKind::kSubmit);
    EXPECT_NE(event.kind, obs::EventKind::kEnqueue);
    EXPECT_NE(event.kind, obs::EventKind::kServe);
  }
  EXPECT_TRUE(saw_scope);

  // With detail on, the firehose appears.
  collector.clear();
  obs::set_detail(true);
  (void)core::simulate(balancer, workload, sim);
  bool saw_submit = false;
  for (const auto& event : collector.events()) {
    if (event.kind == obs::EventKind::kSubmit) saw_submit = true;
  }
  EXPECT_TRUE(saw_submit);
}

TEST_F(ObsTest, DelayedCuckooTracesPhaseBoundariesAndKickChains) {
  obs::RingTraceCollector collector;
  obs::set_sink(&collector);
  obs::set_enabled(true);

  policies::DelayedCuckooConfig config;
  config.servers = 64;
  config.seed = 92;
  policies::DelayedCuckooBalancer balancer(config);
  workloads::RepeatedSetWorkload workload(64, 1ULL << 20, 92);
  core::SimConfig sim;
  sim.steps = static_cast<std::size_t>(4 * balancer.phase_length());
  (void)core::simulate(balancer, workload, sim);

  std::size_t phase_events = 0;
  std::size_t kick_events = 0;
  for (const auto& event : collector.events()) {
    if (event.kind == obs::EventKind::kPhaseBegin) ++phase_events;
    if (event.kind == obs::EventKind::kKickChain) ++kick_events;
  }
  EXPECT_GE(phase_events, 3u);
  EXPECT_GT(kick_events, 0u);
}

// The ISSUE acceptance check: pqueue.arrivals_per_phase (the Lemma 4.5
// quantity) is recorded inside parallel trials and merged across the trial
// pool's per-thread shards.
TEST_F(ObsTest, ArrivalsPerPhaseProbeMergesAcrossParallelTrials) {
  obs::set_enabled(true);

  static constexpr std::size_t kServers = 64;
  static constexpr std::size_t kTrials = 4;
  const harness::BalancerFactory make_balancer = [](std::uint64_t seed) {
    policies::DelayedCuckooConfig config;
    config.servers = kServers;
    config.seed = seed;
    return std::make_unique<policies::DelayedCuckooBalancer>(config);
  };
  const harness::WorkloadFactory make_workload = [](std::uint64_t seed) {
    return std::make_unique<workloads::RepeatedSetWorkload>(
        kServers, 1ULL << 20, stats::derive_seed(seed, 1));
  };
  policies::DelayedCuckooConfig probe_config;
  probe_config.servers = kServers;
  const std::size_t phase_length =
      policies::DelayedCuckooBalancer(probe_config).phase_length();
  core::SimConfig sim;
  sim.steps = 4 * phase_length;

  const harness::TrialAggregate agg = harness::run_trials(
      kTrials, /*master_seed=*/93, make_balancer, make_workload, sim);
  EXPECT_EQ(agg.trials, kTrials);

  obs::ProbeSnapshot snap;
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("pqueue.arrivals_per_phase",
                                                  snap));
  EXPECT_EQ(snap.kind, obs::ProbeKind::kHistogram);
  // Every trial crosses >= 3 phase boundaries, each recording one value per
  // P_j queue — all of it must survive the per-thread shard merge.
  EXPECT_GE(snap.count, kTrials * 3 * kServers);
  // Lemma 4.5's bound is O(log log m) per queue per phase; the recorded
  // maximum should at least be sane (nonnegative, far below a full phase's
  // worth of the whole arrival stream).
  EXPECT_GE(snap.max, 0.0);
  EXPECT_LT(snap.max, static_cast<double>(kServers * phase_length));

  // The trial runner's own probes merged too.
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("trial.runs", snap));
  EXPECT_EQ(snap.count, kTrials);
}

#else  // RLB_OBS_DISABLED

TEST_F(ObsTest, InstrumentationIsCompiledOut) {
  obs::set_enabled(true);
  EXPECT_FALSE(obs::enabled());
  EXPECT_FALSE(obs::detail_enabled());

  obs::Counter counter("test.compiled_out");
  counter.add(5);
  obs::ProbeSnapshot snap;
  ASSERT_TRUE(obs::ProbeRegistry::instance().find("test.compiled_out", snap));
  EXPECT_EQ(snap.count, 0u);

  // Timing still works — benches rely on elapsed_seconds()/stop().
  obs::ObsTimer timer("test.compiled_out_timer");
  EXPECT_GE(timer.stop(), 0.0);
}

#endif  // RLB_OBS_DISABLED

}  // namespace
