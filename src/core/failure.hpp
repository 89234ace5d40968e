// Fault injection: per-server crash/recover schedules.
//
// The paper's placement is frozen — a chunk's d candidate servers can never
// be re-rolled — so a server failure permanently removes one of a chunk's
// few routing options.  That is exactly the regime where reappearance
// dependencies bite hardest (cf. Aspnes–Yang–Yin's unreliable-machines
// model), and the failure/recovery workload family this header opens.
//
// A FailureSchedule is a pluggable source of up/down transitions, consulted
// by core::simulate at the start of every step.  Schedules are oblivious
// (like workloads): they see only the current up/down state and the clock,
// never the balancer or the placement — and they are deterministic in their
// seed, so parallel trials aggregate identically regardless of thread
// scheduling.  The simulator applies transitions through
// LoadBalancer::set_server_up, which is where failover policy lives.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "stats/rng.hpp"

namespace rlb::core {

/// One up/down transition taking effect at the start of a step.
struct FailureTransition {
  ServerId server = 0;
  /// New state: false = crash, true = recover.
  bool up = false;
};

/// Pluggable source of per-step fault transitions.
class FailureSchedule {
 public:
  virtual ~FailureSchedule() = default;

  /// Append the transitions taking effect at the start of step `t` to
  /// `out` (not cleared).  `up[s] != 0` is server s's current state; the
  /// simulator ignores no-op transitions (crash of a down server etc.).
  /// Called once per step with strictly increasing `t`.
  virtual void transitions(Time t, const std::vector<std::uint8_t>& up,
                           std::vector<FailureTransition>& out) = 0;

  /// False when a crash of server `s` at step `t` is permanent: nothing in
  /// this schedule ever brings it back.  Requests frozen on such a server
  /// would never be answered, so the live engine rejects them at the crash.
  virtual bool recovers(ServerId /*s*/, Time /*t*/) const { return true; }
};

/// A fixed list of (step, server, up) events — deterministic outage scripts
/// ("servers 3 and 7 crash at step 100, recover at step 250").
class ScriptedFailureSchedule final : public FailureSchedule {
 public:
  struct Event {
    Time step = 0;
    ServerId server = 0;
    bool up = false;
  };

  /// Events may be given in any order; they are sorted by step (stable for
  /// equal steps, preserving script order).
  explicit ScriptedFailureSchedule(std::vector<Event> events);

  void transitions(Time t, const std::vector<std::uint8_t>& up,
                   std::vector<FailureTransition>& out) override;

  bool recovers(ServerId s, Time t) const override;

 private:
  std::vector<Event> events_;  // sorted by step
};

/// Seeded memoryless crash/recover process: each step, every up server
/// crashes with probability `fail_rate` and every down server recovers with
/// probability 1/mttr (mttr = mean time to recovery in steps; mttr == 0
/// means crashed servers never come back).
class BernoulliFailureSchedule final : public FailureSchedule {
 public:
  BernoulliFailureSchedule(double fail_rate, double mttr, std::uint64_t seed);

  void transitions(Time t, const std::vector<std::uint8_t>& up,
                   std::vector<FailureTransition>& out) override;

  bool recovers(ServerId, Time) const override { return mttr_ > 0.0; }

  double fail_rate() const noexcept { return fail_rate_; }
  double mttr() const noexcept { return mttr_; }

 private:
  double fail_rate_;
  double mttr_;
  stats::Rng rng_;
};

/// Correlated failures: servers are partitioned into `racks` contiguous
/// racks (sizes differ by at most one); each step every up rack loses ALL
/// of its servers with probability `rack_fail_rate`, and every down rack
/// recovers wholesale with probability 1/mttr.  A rack's state is read off
/// its first server, so racks always transition as a unit.
class RackFailureSchedule final : public FailureSchedule {
 public:
  RackFailureSchedule(std::size_t racks, double rack_fail_rate, double mttr,
                      std::uint64_t seed);

  void transitions(Time t, const std::vector<std::uint8_t>& up,
                   std::vector<FailureTransition>& out) override;

  bool recovers(ServerId, Time) const override { return mttr_ > 0.0; }

  std::size_t racks() const noexcept { return racks_; }

 private:
  std::size_t racks_;
  double rack_fail_rate_;
  double mttr_;
  stats::Rng rng_;
};

}  // namespace rlb::core
