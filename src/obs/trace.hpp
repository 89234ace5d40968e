// Event tracing: typed, low-overhead, compile-out-able.
//
// The paper's guarantees are statements about *trajectories* — the safe
// backlog distribution holding step after step (Lemma 3.4), each P_j queue
// receiving O(log log m) requests per phase (Lemma 4.5) — so the simulator
// records typed events (request lifecycle, cuckoo kick chains, phase
// boundaries) into a pluggable TraceSink instead of exposing only
// end-of-run aggregates.
//
// Cost model: every instrumentation site is guarded by enabled(), a single
// relaxed atomic load — tracing off costs one predictable branch.  Defining
// RLB_OBS_DISABLED (CMake option RLB_OBS_ENABLED=OFF) compiles every site
// out entirely.
//
// Event names must be string literals (or otherwise outlive the collector):
// TraceEvent stores the pointer, never a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace rlb::obs {

/// What happened in a simulation.  Request lifecycle (submit/route/
/// enqueue/serve/reject/flush), delayed-cuckoo internals (phase boundary,
/// per-P_j arrivals, kick chains, stash hits, assignment failures),
/// migration, fault transitions, profiling scopes, and free-form counter
/// samples.  The serving stack reports through STATS, the journal and
/// spans instead.
enum class EventKind : std::uint8_t {
  kSubmit,
  kRoute,
  kEnqueue,
  kServe,
  kReject,
  kFlush,
  kPhaseBegin,
  kPArrival,
  kKickChain,
  kStashHit,
  kAssignFail,
  kMigration,
  kFault,
  kScope,
  kCounter,
};

/// Stable lower-case identifier ("route", "phase-begin", ...).
const char* to_string(EventKind kind) noexcept;
/// Inverse of to_string; false when `s` names no kind.
bool kind_from_string(const std::string& s, EventKind& out) noexcept;

/// One recorded event.  POD, 40 bytes; `name` points at a static string.
struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< steady-clock ns since process start
  std::uint64_t dur_ns = 0;  ///< kScope only: scope duration
  std::uint64_t a0 = 0;      ///< event-specific (chunk id, step, ...)
  std::uint64_t a1 = 0;      ///< event-specific (server, length, ...)
  const char* name = "";     ///< site label, e.g. "cuckoo.kick"
  EventKind kind = EventKind::kCounter;
  std::uint32_t tid = 0;     ///< dense per-process thread index
};

/// Receives every emitted event.  Implementations must be thread-safe:
/// simulation trials run concurrently on the trial pool.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
};

/// Fixed-capacity ring collector: keeps the most recent `capacity` events,
/// overwriting the oldest; dropped() counts overwritten events.
class RingTraceCollector final : public TraceSink {
 public:
  explicit RingTraceCollector(std::size_t capacity = 1u << 18);

  void record(const TraceEvent& event) override;

  /// Events oldest-first (a copy; safe while recording continues).
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;       // ring_[next_] is the oldest once full
  std::uint64_t recorded_ = 0;
};

// -- Global switch + sink ------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_detail;
}  // namespace detail

/// True when instrumentation sites should emit.  One relaxed load.
inline bool enabled() noexcept {
#if defined(RLB_OBS_DISABLED)
  return false;
#else
  return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/// True when per-request firehose events (submit/route/enqueue/serve for
/// every single request) should also emit.  Off by default: at millions of
/// requests per run those events evict everything interesting from the
/// ring and dwarf the structural events (phases, kick chains, rejects)
/// traces exist to show.
inline bool detail_enabled() noexcept {
#if defined(RLB_OBS_DISABLED)
  return false;
#else
  return enabled() && detail::g_detail.load(std::memory_order_relaxed);
#endif
}

/// Master switch for tracing AND probe recording.
void set_enabled(bool on) noexcept;

/// Opt into per-request lifecycle events (see detail_enabled()).
void set_detail(bool on) noexcept;

/// Install the process-wide sink (not owned; nullptr to detach).  Emission
/// with no sink installed is a no-op even when enabled.
void set_sink(TraceSink* sink) noexcept;
TraceSink* sink() noexcept;

/// Nanoseconds on the steady clock since process start.
std::uint64_t now_ns() noexcept;

/// Dense index of the calling thread (0, 1, 2, ... in first-use order).
std::uint32_t thread_index() noexcept;

/// Record an instant event (no-op when disabled or no sink).
void emit(EventKind kind, const char* name, std::uint64_t a0 = 0,
          std::uint64_t a1 = 0);

/// Record a completed profiling scope: `start_ns` from now_ns().
void emit_scope(const char* name, std::uint64_t start_ns,
                std::uint64_t dur_ns, std::uint64_t a0 = 0);

// -- Exporters -----------------------------------------------------------

/// One JSON object per line:
/// {"kind":"route","name":"...","ts_ns":0,"dur_ns":0,"a0":0,"a1":0,"tid":0}
void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& os);

/// Parse write_jsonl output back (tests / offline tooling).  Unparseable
/// lines are skipped; names are interned for the process lifetime.
std::vector<TraceEvent> parse_jsonl(std::istream& is);

/// Chrome trace-event format (load in chrome://tracing or Perfetto):
/// {"traceEvents":[...], "displayTimeUnit":"ms"}.  Scopes become complete
/// ("X") events, counters counter ("C") events, the rest instants ("i").
void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& os);

/// Trace file flavour; see set_trace_file.
enum class TraceFormat { kChrome, kJsonl };

/// Convenience used by harness::init_output's --trace flag: install a
/// process-global ring collector, enable tracing, and arrange for the
/// trace to be written to `path` at flush_trace() and at process exit.
/// Format is chosen by extension (".jsonl" -> JSONL, else Chrome JSON).
void set_trace_file(const std::string& path);
void set_trace_file(const std::string& path, TraceFormat format,
                    std::size_t ring_capacity = 1u << 18);

/// Write the global trace file now; no-op without set_trace_file.  The
/// write is atomic (temp file + rename), so readers never observe a
/// truncated mid-record file.  Returns false on I/O failure.
bool flush_trace();

// -- Instrumentation macro ----------------------------------------------

#if defined(RLB_OBS_DISABLED)
#define RLB_TRACE_EVENT(kind, name, ...) ((void)0)
#else
/// Emit an instant event iff tracing is enabled; arguments after `name`
/// are a0 [, a1] and are NOT evaluated when disabled.
#define RLB_TRACE_EVENT(kind, name, ...)                       \
  do {                                                         \
    if (::rlb::obs::enabled()) {                               \
      ::rlb::obs::emit((kind), (name), ##__VA_ARGS__);         \
    }                                                          \
  } while (0)
#endif

}  // namespace rlb::obs
