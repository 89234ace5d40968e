// Bench-binary facade over the experiment harness (src/harness/).
//
// The aggregation and output machinery lives in the tested rlb_harness
// library; this header just pulls it into the rlb::bench namespace the
// experiment binaries use.
#pragma once

#include "harness/experiment.hpp"
#include "harness/output.hpp"

namespace rlb::bench {

using harness::BalancerFactory;
using harness::Flags;
using harness::TrialAggregate;
using harness::WorkloadFactory;

using harness::add_output_flags;
using harness::emit;
using harness::init_output;
using harness::json_enabled;
using harness::json_value;
using harness::print_banner;
using harness::run_trials;
using harness::write_json;

/// Fault-injection overrides shared by the experiment binaries:
///   --fail-rate <p>    per-server per-step crash probability in [0, 1]
///   --mttr <steps>     mean time to recovery in steps (0 = never recover)
/// with RLB_FAIL_RATE / RLB_MTTR environment fallbacks.  When either is
/// given (`any`), fault-aware benches replace their built-in sweep with the
/// single requested operating point.
struct FaultFlags {
  bool any = false;
  double fail_rate = 0.0;
  double mttr = 0.0;
};

/// Declare the fault flags in `flags`, writing into `faults`.  A bad value
/// warns on stderr and keeps the default.
void add_fault_flags(harness::Flags& flags, FaultFlags& faults);

}  // namespace rlb::bench
