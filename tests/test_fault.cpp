// Tests for the fault-injection subsystem: cluster up/down state, failure
// schedules, simulator wiring, and per-policy failover semantics.
#include "core/failure.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "core/metrics.hpp"
#include "core/simulator.hpp"
#include "harness/experiment.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/trial_runner.hpp"
#include "policies/delayed_cuckoo.hpp"
#include "policies/factory.hpp"
#include "policies/greedy.hpp"
#include "workloads/repeated_set.hpp"

namespace rlb {
namespace {

using core::FailureTransition;

// ---------------------------------------------------------------- cluster

TEST(ClusterFaultState, StartsAllUp) {
  core::Cluster cluster(4, 8);
  for (core::ServerId s = 0; s < 4; ++s) EXPECT_TRUE(cluster.is_up(s));
  EXPECT_TRUE(cluster.all_up());
  EXPECT_EQ(cluster.down_count(), 0u);
}

TEST(ClusterFaultState, SetUpTogglesAndCounts) {
  core::Cluster cluster(4, 8);
  cluster.set_up(1, false);
  cluster.set_up(3, false);
  EXPECT_FALSE(cluster.is_up(1));
  EXPECT_TRUE(cluster.is_up(2));
  EXPECT_EQ(cluster.down_count(), 2u);
  EXPECT_FALSE(cluster.all_up());
  cluster.set_up(1, true);
  EXPECT_EQ(cluster.down_count(), 1u);
}

TEST(ClusterFaultState, RepeatedSetIsNoOp) {
  core::Cluster cluster(2, 8);
  cluster.set_up(0, false);
  cluster.set_up(0, false);  // must not double-count
  EXPECT_EQ(cluster.down_count(), 1u);
  cluster.set_up(0, true);
  cluster.set_up(0, true);
  EXPECT_EQ(cluster.down_count(), 0u);
}

// -------------------------------------------------------------- schedules

TEST(ScriptedFailureSchedule, AppliesEventsAtTheirStep) {
  core::ScriptedFailureSchedule schedule({
      {/*step=*/5, /*server=*/1, /*up=*/false},
      {/*step=*/2, /*server=*/0, /*up=*/false},  // out of order on purpose
      {/*step=*/5, /*server=*/0, /*up=*/true},
  });
  std::vector<std::uint8_t> up(3, 1);
  std::vector<FailureTransition> out;

  schedule.transitions(2, up, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].server, 0u);
  EXPECT_FALSE(out[0].up);

  out.clear();
  schedule.transitions(3, up, out);
  EXPECT_TRUE(out.empty());

  schedule.transitions(5, up, out);  // appends, does not clear
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].server, 1u);
  EXPECT_FALSE(out[0].up);
  EXPECT_EQ(out[1].server, 0u);
  EXPECT_TRUE(out[1].up);
}

TEST(ScriptedFailureSchedule, ReportsWhetherACrashIsEverUndone) {
  const core::ScriptedFailureSchedule schedule({
      {/*step=*/2, /*server=*/0, /*up=*/false},
      {/*step=*/5, /*server=*/0, /*up=*/true},
      {/*step=*/2, /*server=*/1, /*up=*/false},
  });
  EXPECT_TRUE(schedule.recovers(0, 2));
  EXPECT_FALSE(schedule.recovers(0, 5));  // the recovery is not later
  EXPECT_FALSE(schedule.recovers(1, 2));  // never comes back

  EXPECT_TRUE(core::BernoulliFailureSchedule(0.1, 4.0, 1).recovers(0, 0));
  EXPECT_FALSE(core::BernoulliFailureSchedule(0.1, 0.0, 1).recovers(0, 0));
  EXPECT_FALSE(core::RackFailureSchedule(2, 0.1, 0.0, 1).recovers(0, 0));
}

TEST(ScriptedFailureSchedule, IgnoresOutOfRangeServers) {
  core::ScriptedFailureSchedule schedule({{0, /*server=*/9, false}});
  std::vector<std::uint8_t> up(2, 1);
  std::vector<FailureTransition> out;
  schedule.transitions(0, up, out);
  EXPECT_TRUE(out.empty());
}

TEST(BernoulliFailureSchedule, ValidatesArguments) {
  EXPECT_THROW(core::BernoulliFailureSchedule(-0.1, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(core::BernoulliFailureSchedule(1.5, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(core::BernoulliFailureSchedule(0.1, -1, 1),
               std::invalid_argument);
  EXPECT_THROW(core::RackFailureSchedule(0, 0.1, 10, 1),
               std::invalid_argument);
}

TEST(BernoulliFailureSchedule, DeterministicInSeed) {
  auto drive = [](core::FailureSchedule& schedule) {
    std::vector<std::uint8_t> up(32, 1);
    std::vector<std::pair<core::ServerId, bool>> seen;
    std::vector<FailureTransition> out;
    for (core::Time t = 0; t < 200; ++t) {
      out.clear();
      schedule.transitions(t, up, out);
      for (const auto& tr : out) {
        up[tr.server] = tr.up ? 1 : 0;
        seen.emplace_back(tr.server, tr.up);
      }
    }
    return seen;
  };
  core::BernoulliFailureSchedule a(0.05, 5.0, 99);
  core::BernoulliFailureSchedule b(0.05, 5.0, 99);
  core::BernoulliFailureSchedule c(0.05, 5.0, 100);
  const auto ta = drive(a);
  EXPECT_EQ(ta, drive(b));
  EXPECT_NE(ta, drive(c));
  EXPECT_FALSE(ta.empty());  // 32 servers x 200 steps at 5% must fire
}

TEST(BernoulliFailureSchedule, ZeroRateNeverFires) {
  core::BernoulliFailureSchedule schedule(0.0, 10.0, 7);
  std::vector<std::uint8_t> up(16, 1);
  std::vector<FailureTransition> out;
  for (core::Time t = 0; t < 100; ++t) schedule.transitions(t, up, out);
  EXPECT_TRUE(out.empty());
}

TEST(BernoulliFailureSchedule, MttrZeroMeansNoRecovery) {
  core::BernoulliFailureSchedule schedule(0.2, 0.0, 11);
  std::vector<std::uint8_t> up(16, 1);
  std::vector<FailureTransition> out;
  for (core::Time t = 0; t < 300; ++t) {
    out.clear();
    schedule.transitions(t, up, out);
    for (const auto& tr : out) {
      EXPECT_FALSE(tr.up);  // only crashes, never recoveries
      up[tr.server] = 0;
    }
  }
  // At 20% per step over 300 steps every server must have crashed.
  for (const auto flag : up) EXPECT_EQ(flag, 0);
}

TEST(RackFailureSchedule, RacksTransitionAsAUnit) {
  core::RackFailureSchedule schedule(/*racks=*/4, /*rate=*/0.3, /*mttr=*/3.0,
                                     13);
  std::vector<std::uint8_t> up(16, 1);
  std::vector<FailureTransition> out;
  bool fired = false;
  for (core::Time t = 0; t < 100; ++t) {
    out.clear();
    schedule.transitions(t, up, out);
    // Transitions arrive in whole racks of 4 contiguous servers.
    ASSERT_EQ(out.size() % 4, 0u);
    for (std::size_t i = 0; i < out.size(); i += 4) {
      const std::size_t rack = out[i].server / 4;
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_EQ(out[i + j].server, rack * 4 + j);
        EXPECT_EQ(out[i + j].up, out[i].up);
      }
    }
    for (const auto& tr : out) up[tr.server] = tr.up ? 1 : 0;
    fired = fired || !out.empty();
    // Invariant: each rack is uniformly up or uniformly down.
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t j = 1; j < 4; ++j) {
        EXPECT_EQ(up[r * 4 + j], up[r * 4]);
      }
    }
  }
  EXPECT_TRUE(fired);
}

// -------------------------------------------------- single-queue failover

policies::SingleQueueConfig tiny_config() {
  policies::SingleQueueConfig config;
  config.servers = 2;  // d = 2 over m = 2: every chunk's choices are {0, 1}
  config.replication = 2;
  config.processing_rate = 1;
  config.queue_capacity = 8;
  config.seed = 42;
  return config;
}

TEST(GreedyFailover, RoutesAroundDownReplica) {
  policies::GreedyBalancer greedy(tiny_config());
  core::Metrics metrics;
  greedy.set_server_up(0, false, /*dump_queue=*/true, metrics);
  EXPECT_FALSE(greedy.server_up(0));
  EXPECT_TRUE(greedy.server_up(1));

  const std::vector<core::ChunkId> requests{101, 202, 303};
  greedy.step(0, requests, metrics);
  EXPECT_EQ(greedy.backlog(0), 0u);  // nothing routed to the corpse
  EXPECT_EQ(metrics.rejected(), 0u);  // the live replica absorbed all 3
  EXPECT_EQ(metrics.submitted(), 3u);
}

TEST(GreedyFailover, RejectsWhenAllReplicasDown) {
  policies::GreedyBalancer greedy(tiny_config());
  core::Metrics metrics;
  greedy.set_server_up(0, false, true, metrics);
  greedy.set_server_up(1, false, true, metrics);

  const std::vector<core::ChunkId> requests{101, 202, 303};
  greedy.step(0, requests, metrics);
  EXPECT_EQ(metrics.rejected(), 3u);
  EXPECT_EQ(greedy.total_backlog(), 0u);

  // Recovery restores service.
  greedy.set_server_up(1, true, true, metrics);
  greedy.step(1, requests, metrics);
  EXPECT_EQ(metrics.rejected(), 3u);  // no new rejections
  EXPECT_EQ(greedy.backlog(0), 0u);
}

TEST(GreedyFailover, DownServerStopsProcessing) {
  auto config = tiny_config();
  config.processing_rate = 2;
  policies::GreedyBalancer greedy(config);
  core::Metrics metrics;
  const std::vector<core::ChunkId> requests{101, 202, 303, 404};
  greedy.step(0, requests, metrics);
  // Crash WITHOUT dumping: the queue must freeze, not drain.
  greedy.set_server_up(0, false, /*dump_queue=*/false, metrics);
  const auto frozen = greedy.backlog(0);
  const std::vector<core::ChunkId> none;
  greedy.step(1, none, metrics);
  greedy.step(2, none, metrics);
  EXPECT_EQ(greedy.backlog(0), frozen);
  // Recovery resumes draining.
  greedy.set_server_up(0, true, false, metrics);
  greedy.step(3, none, metrics);
  EXPECT_LE(greedy.backlog(0), frozen);
}

TEST(GreedyFailover, QueueDumpAccountsDroppedRequests) {
  auto config = tiny_config();
  config.per_server_rate = {0, 0};  // nothing ever drains
  policies::GreedyBalancer greedy(config);
  core::Metrics metrics;
  const std::vector<core::ChunkId> requests{101, 202, 303, 404, 505};
  greedy.step(0, requests, metrics);
  ASSERT_EQ(greedy.total_backlog(), 5u);

  const auto on_victim = greedy.backlog(0);
  greedy.set_server_up(0, false, /*dump_queue=*/true, metrics);
  EXPECT_EQ(greedy.backlog(0), 0u);
  EXPECT_EQ(metrics.dropped_from_queue(), on_victim);
  EXPECT_EQ(metrics.rejected(), on_victim);  // dumps count as rejections
  // Dumping an empty queue on a second crash of the other server is exact.
  greedy.set_server_up(1, false, true, metrics);
  EXPECT_EQ(metrics.dropped_from_queue(), 5u);
}

TEST(PolicyFailover, AllSingleQueuePoliciesSkipDownReplicas) {
  for (const std::string name :
       {"greedy", "threshold", "sticky", "random-of-d", "round-robin",
        "per-step-greedy"}) {
    policies::PolicyConfig config;
    config.servers = 2;
    config.replication = 2;
    config.processing_rate = 1;
    config.queue_capacity = 8;
    config.threshold = 2;
    config.seed = 5;
    auto balancer = policies::make_policy(name, config);
    core::Metrics metrics;
    balancer->set_server_up(0, false, true, metrics);

    const std::vector<core::ChunkId> requests{7, 8, 9};
    balancer->step(0, requests, metrics);
    EXPECT_EQ(balancer->backlog(0), 0u) << name;
    EXPECT_EQ(metrics.rejected(), 0u) << name;
  }
}

TEST(StickyFailover, CachedReplicaGoingDownForcesReassessment) {
  policies::PolicyConfig config;
  config.servers = 2;
  config.replication = 2;
  config.processing_rate = 1;
  config.queue_capacity = 8;
  config.threshold = 8;  // high trigger: sticky would never reassess
  config.seed = 5;
  auto balancer = policies::make_policy("sticky", config);
  core::Metrics metrics;

  // Let the sticky cache latch an assignment for every chunk...
  const std::vector<core::ChunkId> requests{7, 8, 9};
  balancer->step(0, requests, metrics);
  // ...then kill both servers, recover only server 1, and re-request: any
  // chunk whose cached pick was server 0 must fail over, not route blind.
  balancer->set_server_up(0, false, true, metrics);
  balancer->step(1, requests, metrics);
  EXPECT_EQ(balancer->backlog(0), 0u);
  EXPECT_EQ(metrics.rejected(), 0u);
}

// ---------------------------------------------------- delayed cuckoo

policies::DelayedCuckooConfig tiny_cuckoo_config() {
  policies::DelayedCuckooConfig config;
  config.servers = 2;
  config.processing_rate = 16;
  config.seed = 42;
  return config;
}

TEST(DelayedCuckooFailover, RoutesAroundDownReplica) {
  policies::DelayedCuckooBalancer cuckoo(tiny_cuckoo_config());
  core::Metrics metrics;
  cuckoo.set_server_up(0, false, true, metrics);

  const std::vector<core::ChunkId> requests{101, 202, 303};
  for (core::Time t = 0; t < 8; ++t) {
    cuckoo.step(t, requests, metrics);
    EXPECT_EQ(cuckoo.backlog(0), 0u);
  }
  EXPECT_EQ(metrics.rejected(), 0u);
  EXPECT_GT(metrics.completed(), 0u);
}

TEST(DelayedCuckooFailover, RejectsWhenAllReplicasDownThenRecovers) {
  policies::DelayedCuckooBalancer cuckoo(tiny_cuckoo_config());
  core::Metrics metrics;
  cuckoo.set_server_up(0, false, true, metrics);
  cuckoo.set_server_up(1, false, true, metrics);

  const std::vector<core::ChunkId> requests{101, 202, 303};
  cuckoo.step(0, requests, metrics);
  EXPECT_EQ(metrics.rejected(), 3u);
  EXPECT_EQ(cuckoo.total_backlog(), 0u);

  cuckoo.set_server_up(0, true, true, metrics);
  cuckoo.step(1, requests, metrics);
  EXPECT_EQ(metrics.rejected(), 3u);  // no new rejections after recovery
  EXPECT_EQ(cuckoo.backlog(1), 0u);
}

TEST(DelayedCuckooFailover, QueueDumpClearsAllFourQueues) {
  auto config = tiny_cuckoo_config();
  config.processing_rate = 4;  // slow drain so a backlog can build
  policies::DelayedCuckooBalancer cuckoo(config);
  core::Metrics metrics;
  std::vector<core::ChunkId> requests;
  for (core::ChunkId x = 0; x < 12; ++x) requests.push_back(1000 + x);
  cuckoo.step(0, requests, metrics);
  cuckoo.step(1, requests, metrics);
  ASSERT_GT(cuckoo.total_backlog(), 0u);

  const auto before = metrics.dropped_from_queue();
  const auto victim_backlog = cuckoo.backlog(0);
  cuckoo.set_server_up(0, false, /*dump_queue=*/true, metrics);
  EXPECT_EQ(cuckoo.backlog(0), 0u);
  EXPECT_EQ(metrics.dropped_from_queue() - before, victim_backlog);
}

// ------------------------------------------------------------- simulator

TEST(SimulatorFaults, AppliesScheduleAndCountsTransitions) {
  policies::GreedyBalancer greedy(tiny_config());
  workloads::RepeatedSetWorkload workload(2, 1ULL << 20, 3);
  core::ScriptedFailureSchedule schedule({
      {/*step=*/2, /*server=*/0, /*up=*/false},
      {/*step=*/5, /*server=*/0, /*up=*/true},
      {/*step=*/7, /*server=*/1, /*up=*/false},
  });
  core::SimConfig sim;
  sim.steps = 10;
  sim.failure_schedule = &schedule;
  const core::SimResult result = core::simulate(greedy, workload, sim);
  EXPECT_EQ(result.crashes, 2u);
  EXPECT_EQ(result.recoveries, 1u);
  EXPECT_EQ(result.down_at_end, 1u);
  EXPECT_FALSE(greedy.server_up(1));
}

TEST(SimulatorFaults, NoOpTransitionsAreIgnored) {
  policies::GreedyBalancer greedy(tiny_config());
  workloads::RepeatedSetWorkload workload(2, 1ULL << 20, 3);
  core::ScriptedFailureSchedule schedule({
      {1, 0, false},
      {2, 0, false},  // already down: must not double-count
      {3, 9, false},  // out of range: ignored
  });
  core::SimConfig sim;
  sim.steps = 5;
  sim.failure_schedule = &schedule;
  const core::SimResult result = core::simulate(greedy, workload, sim);
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(result.down_at_end, 1u);
}

TEST(SimulatorFaults, DeterministicAcrossThreadCounts) {
  // The full fault pipeline must aggregate identically no matter how many
  // worker threads run the trials: every stochastic component (workload,
  // placement, failure schedule) is rebuilt per trial from the derived
  // seed.
  struct Outcome {
    std::uint64_t rejected = 0;
    std::uint64_t submitted = 0;
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    bool operator==(const Outcome&) const = default;
  };
  const std::function<Outcome(std::uint64_t, std::size_t)> trial =
      [](std::uint64_t seed, std::size_t) {
        policies::SingleQueueConfig config;
        config.servers = 32;
        config.replication = 2;
        config.processing_rate = 2;
        config.queue_capacity = 6;
        config.seed = seed;
        policies::GreedyBalancer greedy(config);
        workloads::RepeatedSetWorkload workload(
            32, 1ULL << 30, stats::derive_seed(seed, 1));
        core::BernoulliFailureSchedule schedule(
            0.02, 10.0, stats::derive_seed(seed, 2));
        core::SimConfig sim;
        sim.steps = 60;
        sim.failure_schedule = &schedule;
        const core::SimResult r = core::simulate(greedy, workload, sim);
        return Outcome{r.metrics.rejected(), r.metrics.submitted(), r.crashes,
                       r.recoveries};
      };

  parallel::ThreadPool serial(1);
  parallel::ThreadPool wide(4);
  const auto a = parallel::run_trials<Outcome>(serial, 12, 77, trial);
  const auto b = parallel::run_trials<Outcome>(wide, 12, 77, trial);
  EXPECT_EQ(a, b);
  std::uint64_t crashes = 0;
  for (const auto& o : a) crashes += o.crashes;
  EXPECT_GT(crashes, 0u);  // the schedule actually fired
}

TEST(SimulatorFaults, HarnessFaultOverloadIsDeterministic) {
  const harness::BalancerFactory make_balancer = [](std::uint64_t seed) {
    policies::SingleQueueConfig config;
    config.servers = 32;
    config.replication = 2;
    config.processing_rate = 2;
    config.queue_capacity = 6;
    config.seed = seed;
    return std::make_unique<policies::GreedyBalancer>(config);
  };
  const harness::WorkloadFactory make_workload = [](std::uint64_t seed) {
    return std::make_unique<workloads::RepeatedSetWorkload>(
        32, 1ULL << 30, stats::derive_seed(seed, 1));
  };
  const harness::FailureScheduleFactory make_schedule =
      [](std::uint64_t seed) {
        return std::make_unique<core::BernoulliFailureSchedule>(
            0.02, 10.0, stats::derive_seed(seed, 2));
      };
  core::SimConfig sim;
  sim.steps = 60;
  const auto a = harness::run_trials(8, 123, make_balancer, make_workload,
                                     sim, make_schedule);
  const auto b = harness::run_trials(8, 123, make_balancer, make_workload,
                                     sim, make_schedule);
  EXPECT_EQ(a.total_rejected, b.total_rejected);
  EXPECT_EQ(a.total_crashes, b.total_crashes);
  EXPECT_EQ(a.total_recoveries, b.total_recoveries);
  EXPECT_GT(a.total_crashes, 0u);
}

}  // namespace
}  // namespace rlb
