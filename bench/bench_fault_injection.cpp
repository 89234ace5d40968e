// Experiment E19 — fault injection & failover (extension beyond the paper).
//
// The paper's placement is frozen: a chunk's d candidate servers can never
// be re-rolled, so a crashed server permanently removes one of a chunk's
// few routing options until it recovers.  This experiment injects seeded
// Bernoulli crash/recover faults (core::BernoulliFailureSchedule) and
// measures how rejection and latency degrade with the failure rate, and
// how much replication buys back: a request is forced to reject only when
// ALL d of its replicas are down simultaneously, so at steady-state down
// fraction p the floor scales like p^d.
//
// Expected shape (the acceptance criteria for the fault subsystem):
//   * at fixed d, rejection is monotone increasing in the failure rate;
//   * at fixed failure rate, rejection is monotone decreasing in d.
//
// A second section fixes the failure rate and compares failover behaviour
// across the single-queue policies and delayed cuckoo (d = 2 by
// construction), and a third contrasts independent failures with
// rack-correlated ones at a matched expected down fraction.
//
// Flags: --fail-rate <p> / --mttr <steps> (or RLB_FAIL_RATE / RLB_MTTR)
// replace the built-in sweep with a single operating point.
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/failure.hpp"
#include "policies/factory.hpp"
#include "report/table.hpp"
#include "workloads/repeated_set.hpp"

namespace {

using namespace rlb;

constexpr std::size_t kM = 256;
constexpr unsigned kRate = 4;
constexpr std::size_t kQueueCapacity = 11;
constexpr std::size_t kSteps = 400;
constexpr std::size_t kTrials = 8;
constexpr double kDefaultMttr = 50.0;
constexpr std::size_t kRacks = 16;
constexpr double kRackRate = 1e-3;

/// Steady-state fraction of down servers for the memoryless process:
/// crash at rate r, recover at rate 1/mttr  =>  p = r·mttr / (1 + r·mttr).
double steady_down_fraction(double fail_rate, double mttr) {
  if (mttr <= 0.0) return fail_rate > 0.0 ? 1.0 : 0.0;
  const double x = fail_rate * mttr;
  return x / (1.0 + x);
}

bench::BalancerFactory greedy_factory(unsigned replication) {
  return [replication](std::uint64_t seed) {
    policies::PolicyConfig config;
    config.servers = kM;
    config.replication = replication;
    config.processing_rate = kRate;
    config.queue_capacity = kQueueCapacity;
    config.seed = seed;
    return policies::make_policy("greedy", config);
  };
}

bench::WorkloadFactory workload_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<workloads::RepeatedSetWorkload>(
        kM, 1ULL << 40, stats::derive_seed(seed, 19));
  };
}

harness::FailureScheduleFactory bernoulli_factory(double fail_rate,
                                                  double mttr) {
  return [fail_rate, mttr](std::uint64_t seed) {
    return std::make_unique<core::BernoulliFailureSchedule>(
        fail_rate, mttr, stats::derive_seed(seed, 0xF417));
  };
}

void sweep_fail_rate(const bench::FaultFlags& flags) {
  bench::print_banner(
      "E21 / bench_fault_injection (extension)",
      "frozen placement means a crash removes a routing option for good; "
      "only d-way replication covers for it",
      "rejection grows monotonically with the failure rate at fixed d and "
      "shrinks with d at a fixed failure rate (floor ~ p_down^d)");

  const std::vector<double> rates =
      flags.any ? std::vector<double>{flags.fail_rate}
                : std::vector<double>{0.0, 2e-4, 1e-3, 5e-3, 2e-2};
  const double mttr = flags.any ? flags.mttr : kDefaultMttr;

  report::Table table({"fail_rate", "mttr", "down~%", "d",
                       "rejection(pooled)", "avg_latency", "crashes/trial"});
  for (const double fail_rate : rates) {
    for (const unsigned d : {2u, 3u, 4u}) {
      core::SimConfig sim;
      sim.steps = kSteps;
      const bench::TrialAggregate agg = bench::run_trials(
          kTrials, 19000 + 17 * d, greedy_factory(d), workload_factory(), sim,
          bernoulli_factory(fail_rate, mttr));
      table.row()
          .cell_sci(fail_rate)
          .cell(mttr, 0)
          .cell(100.0 * steady_down_fraction(fail_rate, mttr), 1)
          .cell(static_cast<double>(d), 0)
          .cell_sci(agg.pooled_rejection_rate())
          .cell(agg.average_latency.mean())
          .cell(static_cast<double>(agg.total_crashes) /
                    static_cast<double>(kTrials),
                1);
    }
  }
  bench::emit(table);
  std::cout << "\nReading guide: 'down~%' is the steady-state fraction of "
               "crashed servers (r*mttr / (1 + r*mttr)).  Rejections come "
               "from dumped queues at crash time plus requests whose d "
               "replicas are all down at once — the latter shrinks "
               "geometrically in d.\n";
}

void policy_comparison(const bench::FaultFlags& flags) {
  const double fail_rate = flags.any ? flags.fail_rate : 1e-3;
  const double mttr = flags.any ? flags.mttr : kDefaultMttr;
  std::cout << "\nFailover across policies at fail_rate = " << fail_rate
            << ", mttr = " << mttr << " (d = 2, m = " << kM << "):\n";

  report::Table table({"policy", "rejection(pooled)", "avg_latency",
                       "max_backlog", "crashes/trial"});
  for (const std::string name :
       {"greedy", "threshold", "sticky", "random-of-d", "delayed-cuckoo"}) {
    const bench::BalancerFactory make_balancer = [name](std::uint64_t seed) {
      policies::PolicyConfig config;
      config.servers = kM;
      config.replication = 2;
      config.threshold = 2;
      config.seed = seed;
      if (name == "delayed-cuckoo") {
        // The theorem's recipe: g = 16 split over four queues, derived
        // Θ(log log m) capacity (g = 4 cannot drain carried-over queues).
        config.processing_rate = 16;
        config.queue_capacity = 0;
      } else {
        config.processing_rate = kRate;
        config.queue_capacity = kQueueCapacity;
      }
      return policies::make_policy(name, config);
    };
    core::SimConfig sim;
    sim.steps = kSteps;
    const bench::TrialAggregate agg =
        bench::run_trials(kTrials, 19500, make_balancer, workload_factory(),
                          sim, bernoulli_factory(fail_rate, mttr));
    table.row()
        .cell(name)
        .cell_sci(agg.pooled_rejection_rate())
        .cell(agg.average_latency.mean())
        .cell(agg.max_backlog.mean(), 1)
        .cell(static_cast<double>(agg.total_crashes) /
                  static_cast<double>(kTrials),
              1);
  }
  bench::emit(table);
  std::cout << "  All single-queue policies share the base-class failover "
               "(down replicas are removed from the choice list before "
               "pick()); delayed cuckoo replans around down servers as "
               "removed cuckoo slots and falls back to the live replica's "
               "Q queue for orphaned reappearances.\n";
}

void correlated_failures() {
  // Match the expected down fraction: one rack of kM/kRacks servers failing
  // at rate kRackRate takes down the same expected server-mass as
  // independent failures at that rate — but all in the same instant and
  // place.
  std::cout << "\nCorrelated (rack) vs independent failures at matched "
               "expected down fraction (greedy, d = 2, "
            << kRacks << " racks):\n";

  report::Table table({"schedule", "rejection(pooled)", "avg_latency",
                       "max_backlog"});
  for (const bool correlated : {false, true}) {
    harness::FailureScheduleFactory make_schedule;
    if (correlated) {
      make_schedule = [](std::uint64_t seed) {
        return std::make_unique<core::RackFailureSchedule>(
            kRacks, kRackRate, kDefaultMttr, stats::derive_seed(seed, 0xF418));
      };
    } else {
      make_schedule = bernoulli_factory(kRackRate, kDefaultMttr);
    }
    core::SimConfig sim;
    sim.steps = kSteps;
    const bench::TrialAggregate agg =
        bench::run_trials(kTrials, 19700, greedy_factory(2),
                          workload_factory(), sim, make_schedule);
    table.row()
        .cell(correlated ? "rack-correlated" : "independent")
        .cell_sci(agg.pooled_rejection_rate())
        .cell(agg.average_latency.mean())
        .cell(agg.max_backlog.mean(), 1);
  }
  bench::emit(table);
  std::cout << "  With hashed placement, a chunk's two replicas rarely share "
               "a rack, so wholesale rack loss mostly still leaves one "
               "replica up — but the surviving replicas of a whole rack's "
               "chunks concentrate load while it is down.\n";
}

}  // namespace

int main(int argc, char** argv) {
  rlb::bench::FaultFlags faults;
  rlb::bench::Flags flags("E21 fault injection: rejection under crashes.");
  rlb::bench::add_output_flags(flags);
  rlb::bench::add_fault_flags(flags, faults);
  flags.parse(argc, argv);
  sweep_fail_rate(faults);
  policy_comparison(faults);
  correlated_failures();
  return 0;
}
