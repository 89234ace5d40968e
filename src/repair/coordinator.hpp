// RepairCoordinator: the router-hosted control plane of self-healing
// placement.
//
// When a backend goes down and stays down past `down_grace_ms`, every
// chunk whose choice set contains it is under-replicated.  The
// coordinator's planner thread scans the (epoched) placement for such
// chunks, its worker threads drive one migration per chunk — MIGRATE
// order to the least-loaded surviving replica, which streams the chunk
// state to a least-loaded non-replica target — and the planner commits
// completed remaps as one versioned PlacementDelta per scan round, so the
// placement epoch advances atomically and in-flight requests routed on
// the previous epoch remain valid (backends serve any key; epochs only
// shape the router's candidate sets).
//
// Layering: the coordinator knows nothing of cluster::Membership.  The
// router (which owns both) subscribes to membership transitions and
// forwards them via on_backend_down()/on_backend_up(); liveness and load
// queries go through the Hooks functors.  That keeps rlb_repair below
// rlb_cluster in the link graph.
//
// Throttling: a byte token bucket (bytes_per_sec) plus a hard cap on
// concurrent migrations (max_concurrent workers).  Failure handling:
// a failed or timed-out migration simply leaves the chunk
// under-replicated; the next planner scan re-detects and re-queues it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/placement_epoch.hpp"
#include "net/stats.hpp"
#include "repair/throttle.hpp"

namespace rlb::repair {

/// Where to dial a backend's data port (mirrors the router's backend
/// table; indexed by backend id).
struct RepairEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

struct RepairConfig {
  /// Master switch; a disabled coordinator starts no threads.
  bool enabled = false;
  /// Concurrent in-flight migrations (worker threads).
  unsigned max_concurrent = 2;
  /// Repair-plane byte budget per second (token bucket); 0 = unthrottled.
  std::uint64_t bytes_per_sec = 8ull << 20;
  /// Nominal state size per chunk (what one migration streams).
  std::uint64_t bytes_per_chunk = 4096;
  /// How long a backend must stay down before repair starts; absorbs
  /// flaps so a rebooting backend is not repaired around pointlessly.
  std::uint64_t down_grace_ms = 300;
  /// End-to-end deadline for one migration (dial + stream + acks).
  std::uint64_t migrate_timeout_ms = 2000;
  /// Planner scan cadence.
  std::uint64_t scan_interval_ms = 100;
};

class RepairCoordinator {
 public:
  /// Liveness/load queries, answered by the router's membership table.
  struct Hooks {
    std::function<bool(std::uint32_t id)> is_live;
    std::function<std::uint64_t(std::uint32_t id)> load;
  };

  /// `chunks` bounds the planner's scan domain: chunk ids [0, chunks).
  /// `placement` must outlive the coordinator.
  RepairCoordinator(RepairConfig config, std::vector<RepairEndpoint> backends,
                    std::uint64_t chunks, core::EpochedPlacement& placement,
                    Hooks hooks);
  ~RepairCoordinator();

  RepairCoordinator(const RepairCoordinator&) = delete;
  RepairCoordinator& operator=(const RepairCoordinator&) = delete;

  /// Start planner + worker threads (no-op when !config.enabled).
  void start();
  void stop();

  /// Membership transition entry points; thread-safe, cheap (they only
  /// stamp state and wake the planner — heartbeat threads call these).
  void on_backend_down(std::uint32_t id);
  void on_backend_up(std::uint32_t id);

  /// Router-side repair counters for the STATS snapshot.  The backend-side
  /// RepairStats fields stay zero here; rlbd fills those from its
  /// MigrationAgent.
  [[nodiscard]] net::RepairStats stats() const;

  /// Chunks currently queued, in flight, or awaiting commit.
  [[nodiscard]] std::size_t pending_chunks() const;

 private:
  struct Migration {
    std::uint64_t chunk = 0;
    std::uint32_t from = 0;  ///< the dead replica being replaced
  };

  void planner_loop();
  void worker_loop();
  /// Run one migration end to end; returns the staged remap on success.
  bool execute(const Migration& m, core::ChunkRemap& out);
  void record_span(const char* name, std::uint64_t start_ns,
                   std::uint64_t chunk, std::uint64_t cause) const;

  const RepairConfig config_;
  const std::vector<RepairEndpoint> backends_;
  const std::uint64_t chunks_;
  core::EpochedPlacement& placement_;
  Hooks hooks_;
  TokenBucket throttle_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for pending_
  std::condition_variable plan_cv_;  ///< planner waits for scan tick / wake
  bool stopping_ = false;
  bool planner_wake_ = false;
  /// Backends currently down: id -> when they went down (for the grace
  /// window).
  std::unordered_map<std::uint32_t, std::chrono::steady_clock::time_point>
      down_at_;
  std::deque<Migration> pending_;
  /// Chunks queued, in flight, or staged — never enqueue twice.
  std::unordered_set<std::uint64_t> active_;
  /// Completed remaps awaiting the planner's next epoch commit.
  std::vector<core::ChunkRemap> staged_;

  std::thread planner_;
  std::vector<std::thread> workers_;
  bool started_ = false;

  std::atomic<std::uint64_t> next_migration_id_{1};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> unplaceable_{0};
};

}  // namespace rlb::repair
