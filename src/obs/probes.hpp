// Probe registry: named counters / gauges / histograms with per-thread
// sharded storage.
//
// Policies and the simulator register probes by dotted name
// ("greedy.choice_gap", "cuckoo.kick_chain_len", "pqueue.arrivals_per_phase",
// "safety.worst_ratio") and record into a thread-local shard — no
// cross-thread contention on the hot path.  snapshot() merges live shards
// plus the folded totals of exited threads, so values recorded inside
// parallel::run_trials worker threads aggregate correctly.
//
// Recording is gated on obs::enabled() inside the handle classes: probes
// off costs one predictable branch per site.  RLB_OBS_DISABLED compiles the
// recording away entirely.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "report/table.hpp"

namespace rlb::obs {

enum class ProbeKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(ProbeKind kind) noexcept;

/// Merged view of one probe across all threads.
struct ProbeSnapshot {
  std::string name;
  ProbeKind kind = ProbeKind::kCounter;
  /// Number of record() calls.
  std::uint64_t count = 0;
  /// Sum of recorded values (the counter's value).
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  /// Histograms only: the floored values (negative and NaN read as 0).
  LogHistogram hist;

  /// Headline value: counter -> sum, gauge -> max, histogram -> mean.
  double value() const noexcept;
  double mean() const noexcept { return count ? sum / static_cast<double>(count) : 0.0; }
  /// Histogram quantile (LogHistogram::quantile of the floored values);
  /// 0 when empty or not a histogram.
  double quantile(double q) const noexcept {
    return static_cast<double>(hist.quantile(q));
  }
};

/// Process-wide registry.  Probe ids are stable for the process lifetime;
/// handles (Counter/Gauge/Histogram) cache the id so steady-state recording
/// never touches the name map.
class ProbeRegistry {
 public:
  /// The singleton (immortal: never destroyed, so thread-exit hooks from
  /// late-dying pool threads stay safe).
  static ProbeRegistry& instance();

  /// Intern `name`, returning its id.  Re-registering an existing name
  /// returns the same id (the first registration's kind wins).
  std::size_t register_probe(const std::string& name, ProbeKind kind);

  /// Record `value` against probe `id` in the calling thread's shard.
  /// Lock-free: touches only thread-local storage.  `histogram` selects
  /// bucketed accumulation; the handle classes pass their own kind so the
  /// hot path never consults the name table.
  void record(std::size_t id, double value, bool histogram = false);

  /// Merged snapshots of every registered probe, in registration order.
  std::vector<ProbeSnapshot> snapshot() const;

  /// Snapshot of one probe by name; false if unregistered.
  bool find(const std::string& name, ProbeSnapshot& out) const;

  /// Render all probes with at least one recording as a report::Table
  /// (columns: probe, kind, count, value, mean, min, max, p50, p99).
  report::Table to_table() const;

  /// Zero every probe (tests).  Callers must ensure no thread is recording
  /// concurrently.
  void reset();

 private:
  struct Cell {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::unique_ptr<LogHistogram> hist;  // histograms only, lazily made

    void add(double value, bool histogram);
    void merge_into(Cell& target) const;
  };
  struct Shard {
    std::vector<Cell> cells;
  };
  struct ThreadShardHolder;

  ProbeRegistry() = default;

  Shard& local_shard();
  void retire(Shard* shard);
  void merge_shard_locked(const Shard& shard, std::vector<Cell>& into) const;

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, ProbeKind>> probes_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<Shard*> live_;
  Shard retired_;
};

// -- Cached-id handles ---------------------------------------------------

/// Monotonically increasing named counter.
class Counter {
 public:
  explicit Counter(const char* name)
      : id_(ProbeRegistry::instance().register_probe(name,
                                                     ProbeKind::kCounter)) {}
  void add(std::uint64_t n = 1) {
#if !defined(RLB_OBS_DISABLED)
    if (enabled()) {
      ProbeRegistry::instance().record(id_, static_cast<double>(n), false);
    }
#else
    (void)n;
#endif
  }

 private:
  std::size_t id_;
};

/// Last-value probe; the merged snapshot reports min/max over all sets.
class Gauge {
 public:
  explicit Gauge(const char* name)
      : id_(ProbeRegistry::instance().register_probe(name,
                                                     ProbeKind::kGauge)) {}
  void set(double value) {
#if !defined(RLB_OBS_DISABLED)
    if (enabled()) ProbeRegistry::instance().record(id_, value, false);
#else
    (void)value;
#endif
  }

 private:
  std::size_t id_;
};

/// Distribution probe (an obs::LogHistogram per thread shard).
class Histogram {
 public:
  explicit Histogram(const char* name)
      : id_(ProbeRegistry::instance().register_probe(
            name, ProbeKind::kHistogram)) {}
  void observe(double value) {
#if !defined(RLB_OBS_DISABLED)
    if (enabled()) ProbeRegistry::instance().record(id_, value, true);
#else
    (void)value;
#endif
  }

 private:
  std::size_t id_;
};

}  // namespace rlb::obs
