#include "core/failure.hpp"

#include <algorithm>
#include <stdexcept>

namespace rlb::core {

ScriptedFailureSchedule::ScriptedFailureSchedule(std::vector<Event> events)
    : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) { return a.step < b.step; });
}

void ScriptedFailureSchedule::transitions(Time t,
                                          const std::vector<std::uint8_t>& up,
                                          std::vector<FailureTransition>& out) {
  const auto [begin, end] = std::equal_range(
      events_.begin(), events_.end(), Event{t, 0, false},
      [](const Event& a, const Event& b) { return a.step < b.step; });
  for (auto it = begin; it != end; ++it) {
    if (it->server >= up.size()) continue;  // script written for a larger m
    out.push_back(FailureTransition{it->server, it->up});
  }
}

bool ScriptedFailureSchedule::recovers(ServerId s, Time t) const {
  return std::any_of(events_.begin(), events_.end(), [&](const Event& e) {
    return e.server == s && e.up && e.step > t;
  });
}

BernoulliFailureSchedule::BernoulliFailureSchedule(double fail_rate,
                                                   double mttr,
                                                   std::uint64_t seed)
    : fail_rate_(fail_rate),
      mttr_(mttr),
      rng_(stats::derive_seed(seed, 0xFA11)) {
  if (fail_rate < 0.0 || fail_rate > 1.0) {
    throw std::invalid_argument(
        "BernoulliFailureSchedule: fail_rate in [0, 1]");
  }
  if (mttr < 0.0) {
    throw std::invalid_argument("BernoulliFailureSchedule: mttr >= 0");
  }
}

void BernoulliFailureSchedule::transitions(Time /*t*/,
                                           const std::vector<std::uint8_t>& up,
                                           std::vector<FailureTransition>& out) {
  // One draw per server per step, in server order, regardless of state —
  // the draw count is then independent of the trajectory, which keeps
  // scripted comparisons (same seed, different policies) aligned.
  const double recover_p = mttr_ > 0.0 ? std::min(1.0, 1.0 / mttr_) : 0.0;
  for (std::size_t s = 0; s < up.size(); ++s) {
    const bool flip = rng_.next_bernoulli(up[s] ? fail_rate_ : recover_p);
    if (!flip) continue;
    out.push_back(
        FailureTransition{static_cast<ServerId>(s), up[s] == 0});
  }
}

RackFailureSchedule::RackFailureSchedule(std::size_t racks,
                                         double rack_fail_rate, double mttr,
                                         std::uint64_t seed)
    : racks_(racks),
      rack_fail_rate_(rack_fail_rate),
      mttr_(mttr),
      rng_(stats::derive_seed(seed, 0xACC)) {
  if (racks == 0) {
    throw std::invalid_argument("RackFailureSchedule: racks >= 1");
  }
  if (rack_fail_rate < 0.0 || rack_fail_rate > 1.0) {
    throw std::invalid_argument(
        "RackFailureSchedule: rack_fail_rate in [0, 1]");
  }
  if (mttr < 0.0) {
    throw std::invalid_argument("RackFailureSchedule: mttr >= 0");
  }
}

void RackFailureSchedule::transitions(Time /*t*/,
                                      const std::vector<std::uint8_t>& up,
                                      std::vector<FailureTransition>& out) {
  const std::size_t m = up.size();
  const std::size_t racks = std::min(racks_, std::max<std::size_t>(1, m));
  const double recover_p = mttr_ > 0.0 ? std::min(1.0, 1.0 / mttr_) : 0.0;
  for (std::size_t r = 0; r < racks; ++r) {
    // Rack r owns the contiguous block [r*m/racks, (r+1)*m/racks).
    const std::size_t begin = r * m / racks;
    const std::size_t end = (r + 1) * m / racks;
    if (begin >= end) continue;
    const bool rack_up = up[begin] != 0;
    const bool flip = rng_.next_bernoulli(rack_up ? rack_fail_rate_ : recover_p);
    if (!flip) continue;
    for (std::size_t s = begin; s < end; ++s) {
      out.push_back(FailureTransition{static_cast<ServerId>(s), !rack_up});
    }
  }
}

}  // namespace rlb::core
