#include "common.hpp"

#include <iostream>
#include <limits>
#include <string>

namespace rlb::bench {

namespace {

harness::Flags::Parser fault_parser(const char* name, double max,
                                    double& target, bool& any,
                                    const char* want) {
  return [name, max, &target, &any, want](const std::string& value) {
    if (harness::parse_number(value, 0.0, max, target).empty()) {
      any = true;
    } else {
      std::cerr << "rlb: ignoring bad " << name << " '" << value << "' (want "
                << want << ")\n";
    }
    return std::string();
  };
}

}  // namespace

void add_fault_flags(harness::Flags& flags, FaultFlags& faults) {
  flags
      .custom("--fail-rate", "p",
              "per-server per-step crash probability in [0, 1]; replaces\n"
              "the built-in sweep with this one operating point",
              "", fault_parser("--fail-rate", 1.0, faults.fail_rate, faults.any,
                               "a probability in [0, 1]"))
      .env("RLB_FAIL_RATE")
      .custom("--mttr", "steps",
              "mean time to recovery in steps (0 = never recover)", "",
              fault_parser("--mttr", std::numeric_limits<double>::max(),
                           faults.mttr, faults.any, "steps >= 0"))
      .env("RLB_MTTR");
}

}  // namespace rlb::bench
