// Versioned placement epochs: an epoch-stamped remap overlay on top of
// the stateless core::Placement.
//
// The base placement is deliberately frozen (see placement.hpp) — the
// paper's reappearance dependencies come from chunks always hashing to
// the same d servers.  Repair, however, must move replicas when a server
// dies.  EpochedPlacement reconciles the two: the base hash stays the
// chunk's *identity* mapping, and every repair commit layers a
// PlacementDelta (chunk-level from→to remaps) on top, bumping a
// monotonically increasing epoch number.
//
// Reads are RCU-style.  Every commit builds the next overlay off to the
// side, publishes it with one pointer store under a mutex held for that
// store alone (ThreadSanitizer models a mutex, not libstdc++'s
// atomic<shared_ptr> lock bit), then release-stores its epoch number.
// Writers (the repair coordinator) serialize on a second mutex.  Two read
// paths share one lookup:
//
//   * choices() copies the current shared_ptr<const Overlay> under that
//     mutex, for any thread;
//   * a View, owned by one thread (the router's loop), keeps the overlay
//     it last loaded and reloads it, as choices() does, only when the
//     published epoch differs from the cached overlay's.  Otherwise a
//     lookup is one acquire load, no lock and no reference-count update.
//
// Either way a lookup that starts after a commit's epoch store sees that
// commit, an in-flight request keeps routing against the epoch it started
// on, and cutover needs no stop-the-world barrier.
//
// Epochs advance by exactly one per applied delta, and the full delta
// history is retained so a peer at epoch N can be brought to N+k by
// replaying deltas_since(N) — the piggyback contract used by the router's
// heartbeats.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/placement.hpp"
#include "core/types.hpp"

namespace rlb::core {

/// One replica move: chunk's replica on `from` is now on `to`.
struct ChunkRemap {
  ChunkId chunk = 0;
  ServerId from = 0;
  ServerId to = 0;

  friend bool operator==(const ChunkRemap& a, const ChunkRemap& b) {
    return a.chunk == b.chunk && a.from == b.from && a.to == b.to;
  }
};

/// An atomic batch of remaps committing one epoch transition: applying
/// `remaps` to the placement at epoch-1 yields the placement at `epoch`.
struct PlacementDelta {
  std::uint64_t epoch = 0;
  std::vector<ChunkRemap> remaps;
};

/// Append the delta's canonical little-endian encoding to `out`:
/// u64 epoch, u32 count, then per remap u64 chunk, u32 from, u32 to.
void encode_placement_delta(const PlacementDelta& delta,
                            std::vector<std::uint8_t>& out);

/// Decode one delta from exactly `size` bytes (trailing bytes = failure).
[[nodiscard]] bool decode_placement_delta(const std::uint8_t* data,
                                          std::size_t size,
                                          PlacementDelta& out);

/// Placement with an epoch-stamped remap overlay.  Readers never wait on
/// a writer's work; apply() serializes writers internally.
class EpochedPlacement {
  struct Overlay;

 public:
  /// A lookup handle for one thread: choices() with no lock while no
  /// commit has landed since the last one.  Not thread-safe itself; the
  /// placement must outlive it.
  class View {
   public:
    explicit View(const EpochedPlacement& placement);

    /// Same answer as EpochedPlacement::choices() at the latest epoch.
    [[nodiscard]] ChoiceList choices(ChunkId chunk);
    /// The epoch of the overlay the last lookup used.
    [[nodiscard]] std::uint64_t epoch() const noexcept;

   private:
    const EpochedPlacement* placement_;
    std::shared_ptr<const Overlay> overlay_;
  };

  EpochedPlacement(std::size_t servers, unsigned replication,
                   std::uint64_t seed,
                   PlacementMode mode = PlacementMode::kUniform);

  /// The chunk's current d servers: the overlay entry when the chunk has
  /// ever been remapped, the stable base hash otherwise.
  [[nodiscard]] ChoiceList choices(ChunkId chunk) const;

  /// Current epoch; 0 until the first delta commits.
  [[nodiscard]] std::uint64_t epoch() const;

  /// Commit one delta.  Transactional: either every remap applies and the
  /// epoch advances to delta.epoch, or nothing changes.  Fails when
  /// delta.epoch != epoch() + 1, when a remap's `from` is not among the
  /// chunk's current choices, or when `to` already is (a remap whose
  /// from == to is rejected too).  Thread-safe against other writers and
  /// concurrent readers.
  bool apply(const PlacementDelta& delta);

  /// Every delta applied so far, in epoch order (epoch 1 first).
  [[nodiscard]] std::vector<PlacementDelta> history() const;

  /// The suffix of history() strictly after `epoch` — what a peer at that
  /// epoch must replay to catch up.
  [[nodiscard]] std::vector<PlacementDelta> deltas_since(
      std::uint64_t epoch) const;

  /// Number of chunks whose current choices differ from the base hash.
  [[nodiscard]] std::size_t remapped_chunks() const;

  const Placement& base() const noexcept { return base_; }
  std::size_t servers() const noexcept { return base_.servers(); }
  unsigned replication() const noexcept { return base_.replication(); }

 private:
  struct Overlay {
    std::uint64_t epoch = 0;
    std::unordered_map<ChunkId, ChoiceList> choices;
    std::vector<PlacementDelta> history;
  };

  /// The overlay readers see now (a reference-counted copy).
  [[nodiscard]] std::shared_ptr<const Overlay> load_overlay() const;
  /// The chunk's choices under `overlay`: its entry, else the base hash.
  [[nodiscard]] ChoiceList lookup(const Overlay& overlay, ChunkId chunk) const;

  Placement base_;
  mutable std::mutex overlay_mu_;  // guards the overlay_ pointer only
  std::shared_ptr<const Overlay> overlay_;
  /// overlay_->epoch, release-stored after each pointer swap.
  std::atomic<std::uint64_t> published_epoch_{0};
  std::mutex apply_mu_;  // serializes writers; readers never touch it
};

}  // namespace rlb::core
