// Experiment E12 — micro-benchmarks (google-benchmark).
//
// Throughput of the hot paths: placement hashing, routing decisions for
// each policy, the per-step offline cuckoo assignment, and the online
// cuckoo table.  These bound how large an (m, steps, trials) sweep the
// experiment harness can afford, and document the constant-factor cost of
// delayed cuckoo routing's extra machinery relative to greedy.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.hpp"
#include "core/placement.hpp"
#include "core/simulator.hpp"
#include "cuckoo/cuckoo_table.hpp"
#include "cuckoo/offline_assignment.hpp"
#include "policies/delayed_cuckoo.hpp"
#include "policies/factory.hpp"
#include "policies/greedy.hpp"
#include "workloads/repeated_set.hpp"

namespace {

using namespace rlb;

void BM_PlacementChoices(benchmark::State& state) {
  const core::Placement placement(
      static_cast<std::size_t>(state.range(0)), 2, 42);
  core::ChunkId x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement.choices(x++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PlacementChoices)->Arg(1024)->Arg(65536);

void BM_GreedyStep(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  auto config = policies::GreedyBalancer::theorem_config(m, 4, 4, 7);
  policies::GreedyBalancer balancer(config);
  workloads::RepeatedSetWorkload workload(m, 1ULL << 30, 7);
  std::vector<core::ChunkId> batch;
  core::Metrics metrics;
  core::Time t = 0;
  for (auto _ : state) {
    workload.fill_step(t, batch);
    balancer.step(t, batch, metrics);
    ++t;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
}
BENCHMARK(BM_GreedyStep)->Arg(1024)->Arg(16384);

void BM_DelayedCuckooStep(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  policies::DelayedCuckooConfig config;
  config.servers = m;
  config.processing_rate = 16;
  config.seed = 9;
  policies::DelayedCuckooBalancer balancer(config);
  workloads::RepeatedSetWorkload workload(m, 1ULL << 30, 9);
  std::vector<core::ChunkId> batch;
  core::Metrics metrics;
  core::Time t = 0;
  for (auto _ : state) {
    workload.fill_step(t, batch);
    balancer.step(t, batch, metrics);
    ++t;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
}
BENCHMARK(BM_DelayedCuckooStep)->Arg(1024)->Arg(16384);

void BM_OfflineAssignment(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(13);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> choices;
  for (std::size_t i = 0; i < m; ++i) {
    auto a = static_cast<std::uint32_t>(rng.next_below(m));
    auto b = static_cast<std::uint32_t>(rng.next_below(m));
    while (b == a) b = static_cast<std::uint32_t>(rng.next_below(m));
    choices.emplace_back(a, b);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cuckoo::assign_offline(choices, m, 4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
}
BENCHMARK(BM_OfflineAssignment)->Arg(1024)->Arg(16384);

void BM_CuckooTableInsert(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  std::uint64_t key = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cuckoo::CuckooTable table(m, 4, key);
    state.ResumeTiming();
    for (std::size_t i = 0; i < m / 3; ++i) {
      benchmark::DoNotOptimize(table.insert(key++));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m / 3));
}
BENCHMARK(BM_CuckooTableInsert)->Arg(3072)->Arg(49152);

void BM_FullSimulation(benchmark::State& state) {
  // End-to-end: 100 steps of the E11 matrix's hardest cell.
  const std::size_t m = 1024;
  for (auto _ : state) {
    policies::PolicyConfig config;
    config.servers = m;
    config.processing_rate = 4;
    config.seed = 17;
    auto balancer = policies::make_policy("delayed-cuckoo", config);
    workloads::RepeatedSetWorkload workload(m, 1ULL << 30, 17);
    core::SimConfig sim;
    sim.steps = 100;
    benchmark::DoNotOptimize(core::simulate(*balancer, workload, sim));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m) * 100);
}
BENCHMARK(BM_FullSimulation);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the flag table takes the shared
// output flags like every experiment binary.  `--json <path>` becomes
// google-benchmark's JSON reporter (machine-readable results, as from the
// table-based binaries), `--format csv` its CSV console format, and only
// --benchmark_* arguments reach google-benchmark.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<std::string> forwarded;
  rlb::bench::Flags flags("E12 micro-benchmarks (google-benchmark).");
  flags.text("--json", "path", "also write google-benchmark's JSON report",
             json_path)
      .pass_through("--benchmark_", "passed on to google-benchmark",
                    forwarded);
  rlb::bench::add_output_flags(flags, /*json=*/false);
  flags.parse(argc, argv);
  if (!json_path.empty()) {
    forwarded.push_back("--benchmark_out=" + json_path);
    forwarded.push_back("--benchmark_out_format=json");
  }
  if (rlb::harness::table_format() == rlb::harness::TableFormat::kCsv) {
    forwarded.insert(forwarded.begin(), "--benchmark_format=csv");
  }

  std::vector<char*> args = {argv[0]};
  for (std::string& arg : forwarded) args.push_back(arg.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
