// Unit tests for the router's backend membership table
// (cluster/membership.hpp): the fast-down / slow-up health state machine,
// load estimation from stale gauges plus local in-flight deltas, and the
// least-loaded pick used by the forwarding path.
#include "cluster/membership.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

namespace rlb::cluster {
namespace {

HeartbeatSample sample(std::uint64_t backlog) {
  HeartbeatSample s;
  s.backlog = backlog;
  s.completed = 1;
  s.servers = 4;
  return s;
}

/// Drive a backend from the initial kDown to kUp with the default config
/// (probation_successes = 2).
void bring_up(Membership& membership, std::uint32_t id,
              std::uint64_t backlog = 0) {
  membership.record_success(id, sample(backlog));
  membership.record_success(id, sample(backlog));
}

TEST(Membership, StartsDownAndRequiresProbationToComeUp) {
  Membership membership(1, MembershipConfig{});
  EXPECT_FALSE(membership.is_live(0));
  EXPECT_EQ(membership.view(0).health, BackendHealth::kDown);

  // First success: probation, still not routable.
  membership.record_success(0, sample(3));
  EXPECT_FALSE(membership.is_live(0));
  EXPECT_EQ(membership.view(0).health, BackendHealth::kProbation);

  // Second consecutive success: up.
  membership.record_success(0, sample(3));
  EXPECT_TRUE(membership.is_live(0));
  EXPECT_EQ(membership.view(0).health, BackendHealth::kUp);
  EXPECT_EQ(membership.live_count(), 1u);
}

TEST(Membership, UpSurvivesMissesBelowThreshold) {
  MembershipConfig config;
  config.miss_threshold = 3;
  Membership membership(1, config);
  bring_up(membership, 0);

  membership.record_miss(0);
  membership.record_miss(0);
  EXPECT_TRUE(membership.is_live(0)) << "two of three misses must not kill";

  // A success resets the miss streak: two more misses still below threshold.
  membership.record_success(0, sample(0));
  membership.record_miss(0);
  membership.record_miss(0);
  EXPECT_TRUE(membership.is_live(0));

  membership.record_miss(0);
  EXPECT_FALSE(membership.is_live(0));
  EXPECT_EQ(membership.view(0).transitions_down, 1u);
}

TEST(Membership, AnyProbationMissDropsBackToDown) {
  Membership membership(1, MembershipConfig{});
  membership.record_success(0, sample(0));  // kProbation
  membership.record_miss(0);                // flapping: straight back down
  EXPECT_EQ(membership.view(0).health, BackendHealth::kDown);

  // The success streak restarts from scratch.
  membership.record_success(0, sample(0));
  EXPECT_EQ(membership.view(0).health, BackendHealth::kProbation);
  membership.record_success(0, sample(0));
  EXPECT_TRUE(membership.is_live(0));
}

TEST(Membership, ForceDownIsImmediateEvenWhenHealthy) {
  Membership membership(2, MembershipConfig{});
  bring_up(membership, 0);
  bring_up(membership, 1);
  EXPECT_EQ(membership.live_count(), 2u);

  membership.force_down(0);
  EXPECT_FALSE(membership.is_live(0));
  EXPECT_TRUE(membership.is_live(1));
  EXPECT_EQ(membership.view(0).transitions_down, 1u);

  // Reappearance is damped: one heartbeat success is not enough.
  membership.record_success(0, sample(0));
  EXPECT_FALSE(membership.is_live(0));
  membership.record_success(0, sample(0));
  EXPECT_TRUE(membership.is_live(0));
}

TEST(Membership, LoadEstimateIsGaugePlusLocalInflight) {
  Membership membership(1, MembershipConfig{});
  bring_up(membership, 0, /*backlog=*/10);
  EXPECT_EQ(membership.load_estimate(0), 10u);

  // Hops forwarded since the last heartbeat raise the estimate...
  membership.note_forwarded(0);
  membership.note_forwarded(0);
  EXPECT_EQ(membership.load_estimate(0), 12u);
  // ...and answered hops lower it again.
  membership.note_answered(0);
  EXPECT_EQ(membership.load_estimate(0), 11u);

  // A fresh heartbeat replaces the gauge but keeps the in-flight delta.
  membership.record_success(0, sample(5));
  EXPECT_EQ(membership.load_estimate(0), 6u);
}

// A drop can retire hops the forward path already answered, so
// note_answered() runs on a zero gauge; it must stay at zero, not wrap.
TEST(Membership, InflightFloorsAtZero) {
  Membership membership(2, MembershipConfig{});
  bring_up(membership, 0, /*backlog=*/3);
  membership.note_answered(0);
  EXPECT_EQ(membership.view(0).inflight, 0u);
  EXPECT_EQ(membership.load_estimate(0), 3u);

  membership.note_forwarded(0);
  membership.note_answered(0);
  membership.note_answered(0);
  EXPECT_EQ(membership.view(0).inflight, 0u);
  membership.note_forwarded(0);
  EXPECT_EQ(membership.view(0).inflight, 1u);
  EXPECT_EQ(membership.load_estimate(0), 4u);
  // Other backends' gauges are untouched.
  EXPECT_EQ(membership.view(1).inflight, 0u);
}

TEST(Membership, PickChoosesLeastLoadedLiveCandidate) {
  Membership membership(4, MembershipConfig{});
  bring_up(membership, 0, 9);
  bring_up(membership, 1, 4);
  bring_up(membership, 2, 7);
  // Backend 3 stays down.

  const std::uint32_t candidates[] = {0, 1, 2, 3};
  EXPECT_EQ(membership.pick(candidates, 4), 1);

  // Excluding the winner (a retry) falls through to the next-least-loaded.
  EXPECT_EQ(membership.pick(candidates, 4, /*exclude_mask=*/1ull << 1), 2);

  // Down candidates never win even at zero load.
  const std::uint32_t only_down[] = {3};
  EXPECT_EQ(membership.pick(only_down, 1), -1);

  // All candidates excluded -> no pick.
  EXPECT_EQ(membership.pick(candidates, 4, 0xF), -1);
}

TEST(Membership, PickBreaksTiesTowardLowestId) {
  Membership membership(3, MembershipConfig{});
  bring_up(membership, 0, 5);
  bring_up(membership, 1, 5);
  bring_up(membership, 2, 5);
  const std::uint32_t candidates[] = {2, 1, 0};
  EXPECT_EQ(membership.pick(candidates, 3), 0);
}

TEST(Membership, ViewReportsHeartbeatCountersAndSample) {
  Membership membership(1, MembershipConfig{});
  membership.record_miss(0);
  HeartbeatSample s;
  s.backlog = 2;
  s.completed = 42;
  s.servers = 8;
  s.servers_down = 1;
  membership.record_success(0, s);
  membership.record_success(0, s);

  const BackendView view = membership.view(0);
  EXPECT_EQ(view.id, 0u);
  EXPECT_EQ(view.heartbeats_ok, 2u);
  EXPECT_EQ(view.heartbeats_missed, 1u);
  EXPECT_EQ(view.completed, 42u);
  EXPECT_EQ(view.servers, 8u);
  EXPECT_EQ(view.servers_down, 1u);
  EXPECT_EQ(view.backlog_gauge, 2u);
  EXPECT_EQ(view.load_estimate, 2u);
}

// ---- transition subscription (repair-plane feed) ----------------------

using Transition = std::tuple<std::uint32_t, BackendHealth, BackendHealth>;

/// Subscribe a recording sink; the shared_ptr keeps the log alive inside
/// the std::function for the membership's lifetime.
std::shared_ptr<std::vector<Transition>> watch(Membership& membership) {
  auto log = std::make_shared<std::vector<Transition>>();
  membership.subscribe([log](std::uint32_t id, BackendHealth from,
                             BackendHealth to) {
    log->emplace_back(id, from, to);
  });
  return log;
}

TEST(MembershipSubscribe, FiresOncePerStateChangeWithBothEnds) {
  Membership membership(2, MembershipConfig{});
  auto log_ptr = watch(membership);
  std::vector<Transition>& log = *log_ptr;

  bring_up(membership, 0);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], Transition(0, BackendHealth::kDown,
                               BackendHealth::kProbation));
  EXPECT_EQ(log[1], Transition(0, BackendHealth::kProbation,
                               BackendHealth::kUp));

  // Steady-state successes are not transitions.
  membership.record_success(0, sample(1));
  membership.record_success(0, sample(2));
  EXPECT_EQ(log.size(), 2u);

  membership.force_down(0);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2], Transition(0, BackendHealth::kUp, BackendHealth::kDown));

  // Repeated force_down on an already-down backend stays silent.
  membership.force_down(0);
  EXPECT_EQ(log.size(), 3u);
}

TEST(MembershipSubscribe, MissesBelowThresholdDoNotNotify) {
  MembershipConfig config;
  config.miss_threshold = 3;
  Membership membership(1, config);
  auto log_ptr = watch(membership);
  std::vector<Transition>& log = *log_ptr;
  bring_up(membership, 0);
  log.clear();

  membership.record_miss(0);
  membership.record_miss(0);
  EXPECT_TRUE(log.empty()) << "sub-threshold misses are not transitions";
  membership.record_miss(0);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], Transition(0, BackendHealth::kUp, BackendHealth::kDown));
}

// The probation flap the repair plane must survive: down -> probation ->
// down again before probation_successes accumulate.  Each leg notifies
// exactly once and the subscriber never sees a spurious kUp — so a
// repair coordinator fed by this stream never cancels repair for a
// backend that merely flapped.
TEST(MembershipSubscribe, ProbationFlapNeverReportsUp) {
  MembershipConfig config;
  config.probation_successes = 2;
  Membership membership(1, config);
  auto log_ptr = watch(membership);
  std::vector<Transition>& log = *log_ptr;

  bring_up(membership, 0);
  membership.force_down(0);
  log.clear();

  // Flap twice: one success (probation), one miss (straight back down).
  for (int flap = 0; flap < 2; ++flap) {
    membership.record_success(0, sample(0));
    membership.record_miss(0);
  }
  ASSERT_EQ(log.size(), 4u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_NE(std::get<2>(log[i]), BackendHealth::kUp)
        << "transition " << i << " must not report a flapping backend up";
  }
  EXPECT_EQ(log[0], Transition(0, BackendHealth::kDown,
                               BackendHealth::kProbation));
  EXPECT_EQ(log[1], Transition(0, BackendHealth::kProbation,
                               BackendHealth::kDown));
  EXPECT_FALSE(membership.is_live(0));

  // Only a full probation walk reports kUp.
  log.clear();
  bring_up(membership, 0);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(std::get<2>(log[1]), BackendHealth::kUp);
}

TEST(MembershipSubscribe, SubscriberMayCallBackIntoAccessors) {
  Membership membership(1, MembershipConfig{});
  std::vector<BackendHealth> seen;
  membership.subscribe([&membership, &seen](std::uint32_t id, BackendHealth,
                                            BackendHealth) {
    // view() takes the membership lock: this deadlocks unless notify()
    // really fires after the lock is released.
    seen.push_back(membership.view(id).health);
  });
  bring_up(membership, 0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], BackendHealth::kUp);
}

}  // namespace
}  // namespace rlb::cluster
