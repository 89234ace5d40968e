// Windowed metrics: a ring of per-window histogram/counter deltas.
//
// Every histogram the serving stack exposed before this existed was
// lifetime-cumulative, so a p99 spike during a 5-second incident drowns
// in hours of quiet samples.  A WindowedAggregator keeps the last ~N
// seconds as N one-second slots; the writer records into the current slot
// and readers fold the live slots into one delta histogram covering the
// trailing window.
//
// Callers serialize writers (the engine records under its tick mutex, the
// router on its loop thread); readers may be on any thread.  So a record
// is relaxed loads and stores, no lock and no locked read-modify-write.
// Rotation is lazy and writer-driven: the writer that first touches a slot
// whose window index moved on zeroes it and then publishes the new index.
// A reader can observe a slot mid-reset, which is acceptable for advisory
// telemetry.
//
// Each slot records into an obs::AtomicLogHistogram, so a fold is a plain
// LogHistogram that drops straight into a STATS windowed histogram.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace rlb::obs {

class WindowedAggregator {
 public:
  /// Named counter slots; meaning is the owner's (the engine uses
  /// submitted/completed/rejected, the router forwarded/ok/rejected).
  static constexpr std::size_t kCounters = 4;

  explicit WindowedAggregator(std::size_t windows = 10,
                              std::uint64_t window_ns = 1'000'000'000)
      : slots_(std::make_unique<Slot[]>(windows == 0 ? 1 : windows)),
        nslots_(windows == 0 ? 1 : windows),
        window_ns_(window_ns == 0 ? 1 : window_ns) {}

  /// Writers pass the clock they already read (obs::now_ns()), so a
  /// record never reads it again.
  void record(std::uint64_t us, std::uint64_t now) {
    slot_for(now).hist.record(us);
  }

  void add(std::size_t counter, std::uint64_t delta, std::uint64_t now) {
    if (counter >= kCounters) return;
    bump(slot_for(now).counters[counter], delta);
  }

  /// The trailing window folded into one delta histogram + counter set.
  struct Snapshot {
    std::uint64_t windows = 0;  ///< distinct slots folded (incl. partial)
    std::uint64_t span_ms = 0;  ///< wall time the fold covers
    LogHistogram hist;
    std::array<std::uint64_t, kCounters> counters{};
  };

  [[nodiscard]] Snapshot read() const { return read(now_ns()); }

  [[nodiscard]] Snapshot read(std::uint64_t now) const {
    Snapshot out;
    const std::uint64_t current = now / window_ns_;
    bool current_included = false;
    for (std::size_t i = 0; i < nslots_; ++i) {
      const Slot& slot = slots_[i];
      const std::uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
      const std::uint64_t window = epoch == 0 ? 0 : epoch - 1;
      // Fold only slots from the trailing nslots_ windows; a stale slot
      // (process idle longer than the ring spans) is dead history.
      if (epoch == 0 || window > current || current - window >= nslots_) {
        continue;
      }
      ++out.windows;
      if (window == current) current_included = true;
      slot.hist.merge_into(out.hist);
      for (std::size_t c = 0; c < kCounters; ++c) {
        out.counters[c] += slot.counters[c].load(std::memory_order_relaxed);
      }
    }
    if (out.windows > 0) {
      std::uint64_t span_ns = out.windows * window_ns_;
      if (current_included) {
        // The newest slot is partial: count only its elapsed fraction.
        span_ns -= window_ns_ - (now - current * window_ns_);
      }
      out.span_ms = span_ns / 1'000'000;
    }
    return out;
  }

 private:
  struct Slot {
    /// Window index + 1 of the data this slot holds; 0 = never written.
    std::atomic<std::uint64_t> epoch{0};
    AtomicLogHistogram hist;
    std::array<std::atomic<std::uint64_t>, kCounters> counters{};
  };

  Slot& slot_for(std::uint64_t now) {
    const std::uint64_t window = now / window_ns_;
    Slot& slot = slots_[window % nslots_];
    const std::uint64_t want = window + 1;
    if (slot.epoch.load(std::memory_order_relaxed) != want) {
      // The writer recycles the slot: zero last window's data, then
      // publish the window it now holds.
      slot.hist.reset();
      for (auto& c : slot.counters) c.store(0, std::memory_order_relaxed);
      slot.epoch.store(want, std::memory_order_release);
    }
    return slot;
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t nslots_;
  std::uint64_t window_ns_;
};

}  // namespace rlb::obs
