// The control-plane event journal: a bounded in-process ring of typed,
// timestamped, sequence-numbered events.
//
// Data-plane telemetry (latency histograms, counters) tells you THAT an
// incident happened; the journal records WHY — the discrete control-plane
// decisions around it: membership transitions, placement-epoch commits,
// repair migration outcomes, waiting-room sheds, slow-consumer
// disconnects, safe-set violation edges, watchdog alerts.  Every event
// carries a monotonically increasing sequence number plus a
// (steady_ns, wall_ns) timestamp pair, so a scraper can resume from a
// cursor (EVENTS wire opcode, net/events_wire.hpp) and rlb_stat --events
// can clock-align journals from several processes into one merged
// timeline.
//
// Reads are non-destructive: the ring keeps the last `capacity` events and
// any number of scrapers drain independently by cursor.  When the ring
// wraps past a scraper's cursor the lost span is reported as an explicit
// dropped count — never silently skipped.
//
// Appends are mutex-guarded but allocation-free (fixed-size POD events,
// preallocated ring) and only happen on control-plane edges, which are
// rare by construction; the serving hot path never touches the journal.
// Under RLB_OBS_DISABLED append() compiles to a no-op and the journal
// stays permanently empty.
#pragma once

#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rlb::obs {

/// Event types.  Wire-stable: values ride EVENTS_RESP frames verbatim, so
/// append new types at the end and never renumber.
enum class JournalType : std::uint8_t {
  kNone = 0,
  /// Membership transitions (a0 = backend id, a1 = previous health).
  kMemberUp = 1,
  kMemberDown = 2,
  kMemberProbation = 3,
  /// A placement epoch committed / was observed (a0 = epoch, a1 = remaps
  /// in the delta; a1 = 0 for a backend observing the heartbeat piggyback).
  kEpochCommit = 4,
  /// Repair migrations (a0 = chunk, a1 = target backend id).
  kMigrateStart = 5,
  kMigrateDone = 6,
  kMigrateFail = 7,
  /// Waiting-room shed burst (a0 = 0, the engine's one shard row;
  /// a1 = cumulative sheds).
  /// Rate-limited at the call site so a storm doesn't flood the ring.
  kShed = 8,
  /// Slow-consumer disconnect (a0 = connection slot, a1 = queued bytes).
  kSlowConsumer = 9,
  /// Safe-set envelope (Def 3.2) violation edge (a0 = violated level j,
  /// a1 = worst ratio in ppm) and the matching recovery edge.
  kSafeSetViolated = 10,
  kSafeSetRecovered = 11,
  /// Watchdog alert edges (a0 = rule index; detail = rule name).
  kAlertRaised = 12,
  kAlertCleared = 13,
};

const char* to_string(JournalType type) noexcept;

/// Maximum detail text per event (short identifiers: alert rule names).
inline constexpr std::size_t kJournalDetailMax = 23;

/// One journal entry.  Fixed-size POD so the ring never allocates.
struct JournalEvent {
  std::uint64_t seq = 0;        ///< 1-based, monotonic per process
  std::uint64_t steady_ns = 0;  ///< obs::now_ns() at append
  std::uint64_t wall_ns = 0;    ///< obs::wall_now_ns() at append
  JournalType type = JournalType::kNone;
  std::uint64_t a0 = 0;  ///< type-specific (see JournalType docs)
  std::uint64_t a1 = 0;
  char detail[kJournalDetailMax + 1] = {};  ///< NUL-terminated short text

  [[nodiscard]] std::string_view detail_view() const {
    return std::string_view(detail);
  }
};

/// Outcome of one cursor read.
struct JournalReadResult {
  /// Events that wrapped out of the ring before the cursor could see them.
  std::uint64_t dropped = 0;
  /// Cursor to pass on the next read (seq of the last event returned, or
  /// the resume point when nothing was returned).
  std::uint64_t next_cursor = 0;
  /// Events still in the ring beyond this batch.
  std::uint64_t remaining = 0;
};

class Journal {
 public:
  /// Default process-global capacity; ~80 bytes/event -> ~320 KiB.
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit Journal(std::size_t capacity = kDefaultCapacity);

  /// The process-global journal every subsystem appends to.
  static Journal& instance();

#if defined(RLB_OBS_DISABLED)
  void append(JournalType, std::uint64_t = 0, std::uint64_t = 0,
              std::string_view = {}) {}
#else
  /// Record one event (timestamps sampled inside).  `detail` is truncated
  /// to kJournalDetailMax bytes.  Thread-safe.
  void append(JournalType type, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
              std::string_view detail = {});
#endif

  /// Copy events with seq > cursor into `out` (appended), oldest first, at
  /// most `max`.  Non-destructive; thread-safe.  Dropped accounting covers
  /// the gap between the cursor and the oldest retained event.
  JournalReadResult read_from(std::uint64_t cursor, std::size_t max,
                              std::vector<JournalEvent>& out) const;

  /// The last `max` events (flight-recorder tail).  Appended to `out`.
  void tail(std::size_t max, std::vector<JournalEvent>& out) const;

  /// Sequence the NEXT append will get; (next_seq() - 1) events exist.
  [[nodiscard]] std::uint64_t next_seq() const;

  /// Events currently retained in the ring.
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<JournalEvent> ring_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 1;
};

/// Process-global active-alert registry: the hosting daemon publishes its
/// HealthWatchdog's active rule names after each evaluation and the STATS
/// snapshot builders (engine / router) read them back, so `rlb_stat
/// --prom` can render rlb_alert_active{rule=...} gauges without the obs
/// layer depending on net.  Thread-safe.
void set_active_alerts(std::vector<std::string> alerts);
std::vector<std::string> active_alerts();

/// Flight recorder: atomically (tmp + rename) write one JSON post-mortem
/// document — role/identity, wall+steady clock anchors, the caller's
/// rendered stats snapshot (`snapshot_json`, an already-serialized JSON
/// object; "{}" if unavailable), active alerts, and the journal tail (at
/// most `max_events`).  Returns false on I/O failure.  Safe to call from
/// the main loop on SIGQUIT or a fatal drain path — not async-signal-safe,
/// so flag the signal and call this from ordinary context.
bool write_flight_record(const std::string& path, const std::string& role,
                         std::uint32_t backend_id,
                         const std::string& snapshot_json,
                         std::size_t max_events = 512);

}  // namespace rlb::obs
