// policy_explorer — a small CLI for running any (policy, workload) cell of
// the design space.  The "downstream user" entry point: everything is a
// flag, defaults are sensible, output is one summary table.
//
//   $ ./policy_explorer                                  # defaults
//   $ ./policy_explorer --policy delayed-cuckoo --workload zipf
//         --servers 4096 --steps 500 --g 16 --seed 3     (one command)
//   $ ./policy_explorer --policy all --workload repeated
//
// Flags: see --help.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "harness/flags.hpp"
#include "policies/factory.hpp"
#include "report/table.hpp"
#include "workloads/fresh_uniform.hpp"
#include "workloads/mixed.hpp"
#include "workloads/phased_churn.hpp"
#include "workloads/reappearance_profile.hpp"
#include "workloads/repeated_set.hpp"
#include "workloads/zipf_workload.hpp"

namespace {

using namespace rlb;

struct Options {
  std::string policy = "greedy";
  std::string workload = "repeated";
  std::size_t servers = 1024;
  std::size_t steps = 200;
  unsigned d = 2;
  unsigned g = 8;
  std::size_t q = 0;
  std::uint64_t seed = 1;
};

std::unique_ptr<core::Workload> make_workload(const Options& options) {
  const std::size_t count = options.servers;
  const std::uint64_t seed = stats::derive_seed(options.seed, 100);
  if (options.workload == "repeated") {
    return std::make_unique<workloads::RepeatedSetWorkload>(count, 1ULL << 40,
                                                            seed);
  }
  if (options.workload == "fresh") {
    return std::make_unique<workloads::FreshUniformWorkload>(count);
  }
  if (options.workload == "zipf") {
    return std::make_unique<workloads::ZipfWorkload>(count, 8 * count, 0.99,
                                                     seed);
  }
  if (options.workload == "churn") {
    return std::make_unique<workloads::PhasedChurnWorkload>(count, 0.2, 4,
                                                            seed);
  }
  if (options.workload == "mixed") {
    return std::make_unique<workloads::MixedWorkload>(count, 0.5, seed);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

void run_one(const std::string& policy_name, const Options& options,
             report::Table& table) {
  policies::PolicyConfig config;
  config.servers = options.servers;
  config.replication = options.d;
  config.processing_rate = options.g;
  config.queue_capacity = options.q;
  config.seed = options.seed;
  auto balancer = policies::make_policy(policy_name, config);
  auto workload = make_workload(options);

  core::SimConfig sim;
  sim.steps = options.steps;
  sim.check_safety = true;
  const core::SimResult r = core::simulate(*balancer, *workload, sim);

  table.row()
      .cell(policy_name)
      .cell_sci(r.metrics.rejection_rate())
      .cell(r.metrics.average_latency(), 3)
      .cell(r.metrics.latency_quantile(0.99))
      .cell(r.metrics.max_latency())
      .cell(r.max_backlog)
      .cell(r.metrics.safety_violations());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  harness::Flags flags("Run any (policy, workload) cell of the design space.");
  flags
      .text("--policy", "name",
            "greedy | greedy-d1 | delayed-cuckoo | random-of-d |\n"
            "per-step-greedy | round-robin | all",
            options.policy)
      .text("--workload", "name", "repeated | fresh | zipf | churn | mixed",
            options.workload)
      .num("--servers", "n", "servers m", options.servers)
      .num("--steps", "n", "simulated steps", options.steps)
      .num("--d", "n", "replication", options.d)
      .num("--g", "n", "processing rate", options.g)
      .num("--q", "n", "queue bound; 0 = theorem default", options.q)
      .num("--seed", "n", "master seed", options.seed);
  flags.parse(argc, argv);
  try {
    std::cout << "policy_explorer: m=" << options.servers
              << " steps=" << options.steps << " d=" << options.d
              << " g=" << options.g << " q="
              << (options.q ? std::to_string(options.q) : "theorem-default")
              << " workload=" << options.workload << " seed=" << options.seed
              << "\n\n";

    // Characterize the chosen workload's reappearance dependence first.
    {
      auto probe = make_workload(options);
      const workloads::ReappearanceProfile profile =
          workloads::profile_workload(*probe,
                                      std::min<std::size_t>(options.steps, 100));
      std::cout << "workload profile: reappearance fraction "
                << profile.reappearance_fraction() << ", median reuse distance "
                << profile.reuse_distance.quantile(0.5)
                << ", working-set ratio " << profile.working_set_ratio()
                << "\n\n";
    }

    report::Table table({"policy", "rejection", "avg_lat", "p99_lat",
                         "max_lat", "max_backlog", "safety_violations"});
    if (options.policy == "all") {
      for (const std::string& name : policies::policy_names()) {
        run_one(name, options, table);
      }
    } else {
      run_one(options.policy, options, table);
    }
    table.print(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
