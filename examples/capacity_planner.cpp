// capacity_planner — how much server capacity does each policy need?
//
// The operator's question the paper answers in O-notation, answered in
// numbers: for a target workload, find the minimum processing rate g (at
// the policy's theorem-default queue size) that yields ZERO rejections
// across seeded trials, and report the average/max latency at that
// provisioning point.  Policies that fight reappearance dependencies well
// need less hardware.
//
//   $ ./capacity_planner                       # defaults: m=1024, repeated
//   $ ./capacity_planner --workload zipf --servers 4096
//
// Flags: see --help.
#include <iostream>
#include <memory>
#include <string>

#include "core/simulator.hpp"
#include "harness/flags.hpp"
#include "policies/factory.hpp"
#include "report/table.hpp"
#include "workloads/phased_churn.hpp"
#include "workloads/repeated_set.hpp"
#include "workloads/zipf_workload.hpp"

namespace {

using namespace rlb;

struct Options {
  std::size_t servers = 1024;
  std::size_t steps = 150;
  std::string workload = "repeated";
  std::uint64_t seed = 1;
};

std::unique_ptr<core::Workload> make_workload(const Options& options,
                                              std::uint64_t seed) {
  if (options.workload == "zipf") {
    return std::make_unique<workloads::ZipfWorkload>(
        options.servers, 8 * options.servers, 0.99, seed);
  }
  if (options.workload == "churn") {
    return std::make_unique<workloads::PhasedChurnWorkload>(options.servers,
                                                            0.25, 4, seed);
  }
  return std::make_unique<workloads::RepeatedSetWorkload>(
      options.servers, 1ULL << 40, seed);
}

/// Zero rejections across 3 seeds at processing rate g?
bool clean_at(const std::string& policy, unsigned g, const Options& options) {
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    policies::PolicyConfig config;
    config.servers = options.servers;
    config.replication = 2;
    // Delayed cuckoo needs multiples of 4; the factory rounds up, so probe
    // at the rounded value for every policy to keep rates comparable.
    config.processing_rate = g;
    config.queue_capacity = 0;
    config.seed = stats::derive_seed(options.seed, trial);
    auto balancer = policies::make_policy(policy, config);
    auto workload =
        make_workload(options, stats::derive_seed(options.seed, 90 + trial));
    core::SimConfig sim;
    sim.steps = options.steps;
    sim.sample_backlogs = false;
    if (core::simulate(*balancer, *workload, sim).metrics.rejected() > 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  harness::Flags flags(
      "Minimum processing rate g for zero rejections, per policy.");
  flags.num("--servers", "n", "servers m", options.servers)
      .num("--steps", "n", "simulated steps per trial", options.steps)
      .text("--workload", "name", "repeated | zipf | churn", options.workload)
      .num("--seed", "n", "master seed", options.seed);
  flags.parse(argc, argv);

  std::cout << "capacity_planner — minimum g for zero rejections (m = "
            << options.servers << ", workload = " << options.workload
            << ", q = theorem default, 3 seeds x " << options.steps
            << " steps)\n\n";

  report::Table table({"policy", "min g (zero rejections)", "avg_lat @ min g",
                       "max_lat @ min g"});
  for (const std::string policy :
       {"greedy", "greedy-left", "sticky", "threshold", "batched-greedy",
        "delayed-cuckoo", "per-step-greedy", "round-robin", "random-of-d",
        "greedy-d1"}) {
    // Linear scan over small g (the interesting range is tiny).  Delayed
    // cuckoo's four-queue discipline only exists at multiples of 4, so
    // probe those directly to report the true effective rate.
    unsigned found = 0;
    for (unsigned g = 1; g <= 32; g == 1 ? g = 2 : g += (g < 8 ? 1 : 4)) {
      const bool is_cuckoo = policy == "delayed-cuckoo";
      if (is_cuckoo && g % 4 != 0) continue;
      if (clean_at(policy, g, options)) {
        found = g;
        break;
      }
    }
    if (found == 0) {
      table.row().cell(policy).cell("> 32 (cannot be provisioned)").cell("-")
          .cell("-");
      continue;
    }
    // Report latency at the provisioning point (first seed).
    policies::PolicyConfig config;
    config.servers = options.servers;
    config.replication = 2;
    config.processing_rate = found;
    config.queue_capacity = 0;
    config.seed = stats::derive_seed(options.seed, 0);
    auto balancer = policies::make_policy(policy, config);
    auto workload = make_workload(options, stats::derive_seed(options.seed, 90));
    core::SimConfig sim;
    sim.steps = options.steps;
    const core::SimResult result = core::simulate(*balancer, *workload, sim);
    table.row()
        .cell(policy)
        .cell(found)
        .cell(result.metrics.average_latency(), 3)
        .cell(result.metrics.max_latency());
  }
  table.print(std::cout);
  std::cout << "\nHow to read this: g is per-server capacity (requests per "
               "step) against an arrival rate of ~1 per server per step.  "
               "History-aware policies provision at the arrival-rate floor; "
               "the d = 1 and isolated baselines need multiples of it — or "
               "cannot reach zero rejections at all — which is the paper's "
               "guarantees translated into hardware.\n";
  return 0;
}
