// Backend membership: the router's heartbeat table.
//
// One entry per backend, driven by two independent signal sources:
//
//   * the heartbeat prober (periodic lightweight STATS ping) reports
//     record_success() — carrying the piggybacked queue-depth gauges from
//     the STATS_RESP — or record_miss() on timeout/connect failure;
//   * the data plane reports force_down() the instant an upstream
//     connection drops (a SIGKILL'd backend surfaces here in
//     milliseconds, long before `miss_threshold` heartbeats elapse) and
//     note_forwarded()/note_answered() around every in-flight hop.
//
// The health state machine is deliberately asymmetric — fast down, slow
// up: `miss_threshold` consecutive misses (or one data-plane drop) mark a
// backend kDown; the first heartbeat success after that only promotes it
// to kProbation, and `probation_successes` consecutive successes are
// required before the backend is routable (kUp) again.  That damping is
// the reappearance concern of the paper made operational: a flapping
// backend must prove itself before it re-enters the choice set.
//
// Backlog estimates combine the last piggybacked gauge (stale by up to a
// heartbeat interval) with the router's own count of hops forwarded since
// — the local delta is exactly the information the paper's instant-
// backlog balancer has and a heartbeat plane lacks (docs/CLUSTER.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace rlb::cluster {

enum class BackendHealth : std::uint8_t { kDown = 0, kProbation = 1, kUp = 2 };

const char* to_string(BackendHealth health) noexcept;

struct MembershipConfig {
  /// Consecutive heartbeat misses before kUp -> kDown.
  unsigned miss_threshold = 3;
  /// Consecutive heartbeat successes before kProbation -> kUp.
  unsigned probation_successes = 2;
};

/// Everything the stats plane reports about one backend.
struct BackendView {
  std::uint32_t id = 0;
  BackendHealth health = BackendHealth::kDown;
  std::uint64_t backlog_gauge = 0;  ///< last piggybacked queue depth
  std::uint64_t inflight = 0;       ///< hops forwarded, not yet answered
  std::uint64_t load_estimate = 0;  ///< backlog_gauge + inflight
  std::uint64_t heartbeats_ok = 0;
  std::uint64_t heartbeats_missed = 0;
  std::uint64_t transitions_down = 0;
  std::uint64_t completed = 0;  ///< from the last snapshot (backend-reported)
  std::uint32_t servers = 0;
  std::uint32_t servers_down = 0;
  /// EMA of the heartbeat round trip (3/4 old + 1/4 new); 0 until the
  /// first sample.
  std::uint64_t rtt_ema_us = 0;
};

/// Per-backend fields piggybacked on a heartbeat STATS_RESP.
struct HeartbeatSample {
  std::uint64_t backlog = 0;  ///< queue depth gauges summed over shards
  std::uint64_t completed = 0;
  std::uint32_t servers = 0;
  std::uint32_t servers_down = 0;
  /// Measured STATS round trip for this heartbeat, microseconds.
  std::uint64_t rtt_us = 0;
};

/// Health-transition callback: fired once per state change with the old
/// and new health.  Invoked on the thread that caused the transition (a
/// heartbeat prober or a data-plane drop) AFTER the membership lock is
/// released, so a subscriber may call back into any Membership accessor.
/// Subscribers must be fast or hand off: they run inline on probe paths.
using TransitionFn = std::function<void(std::uint32_t id, BackendHealth from,
                                        BackendHealth to)>;

class Membership {
 public:
  Membership(std::size_t backends, MembershipConfig config);

  /// Register a transition subscriber (see TransitionFn).  Not
  /// thread-safe against concurrent record_*/force_down — subscribe
  /// before the heartbeat planes start.
  void subscribe(TransitionFn on_transition);

  void record_success(std::uint32_t id, const HeartbeatSample& sample);
  void record_miss(std::uint32_t id);
  /// Data-plane drop: immediate kDown regardless of heartbeat history.
  void force_down(std::uint32_t id);

  /// Count one hop forwarded to / answered by (or retired from) backend
  /// `id`; the answer side floors at zero.  Single writer: only the router
  /// loop calls these (readers may be on any thread), so each is a relaxed
  /// load and store, no locked read-modify-write.
  void note_forwarded(std::uint32_t id);
  void note_answered(std::uint32_t id);

  [[nodiscard]] bool is_live(std::uint32_t id) const;
  [[nodiscard]] std::uint64_t load_estimate(std::uint32_t id) const;

  /// Least-loaded live backend among `candidates` (ties -> lowest id),
  /// excluding ids whose bit is set in `exclude_mask` (already-tried
  /// backends during a retry).  Returns -1 when none qualifies.
  [[nodiscard]] int pick(const std::uint32_t* candidates, std::size_t count,
                         std::uint64_t exclude_mask = 0) const;

  [[nodiscard]] BackendView view(std::uint32_t id) const;
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] std::size_t live_count() const;

 private:
  // The per-hop data-plane surface (health / backlog_gauge / inflight) is
  // atomic so pick(), is_live() and load_estimate() read it without the
  // lock while the heartbeat probers and the router loop write it.
  // `inflight` has one writer, the router loop (note_forwarded /
  // note_answered); health and backlog_gauge are written under mu_.  The
  // values are advisory routing state, so relaxed ordering is enough: a
  // picker racing a health transition merely routes one request on a
  // one-heartbeat-stale view.  The control-plane fields (miss/success
  // streaks, heartbeat counters, EMA) stay behind mu_, written only by
  // the heartbeat probers and drop events.
  struct Slot {
    std::atomic<BackendHealth> health{BackendHealth::kDown};
    std::atomic<std::uint64_t> backlog_gauge{0};
    std::atomic<std::uint64_t> inflight{0};
    unsigned misses = 0;
    unsigned successes = 0;
    std::uint64_t heartbeats_ok = 0;
    std::uint64_t heartbeats_missed = 0;
    std::uint64_t transitions_down = 0;
    std::uint64_t completed = 0;
    std::uint32_t servers = 0;
    std::uint32_t servers_down = 0;
    std::uint64_t rtt_ema_us = 0;
  };

  /// Fire every subscriber for one transition.  Called with mu_ NOT held.
  void notify(std::uint32_t id, BackendHealth from, BackendHealth to) const;

  MembershipConfig config_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  /// Installed before the probers start, read-only afterwards.
  std::vector<TransitionFn> subscribers_;
};

}  // namespace rlb::cluster
