// Distributed-tracing spans: wire-propagated context + per-thread flight
// recorders.
//
// The cluster data plane spans three processes (loadgen -> rlb_router ->
// rlbd -> engine shard), and a slow or rejected request is only explainable
// when each hop's contribution is measured separately.  This header adds
// the two pieces the event-trace layer (trace.hpp) does not have:
//
//   * TraceContext — the 17 bytes a REQUEST frame may carry (64-bit trace
//     id, parent span id, sampling flags).  Always compiled in, even under
//     RLB_OBS_DISABLED: wire compatibility must not depend on the build
//     flavour.  A zero trace_id means "no context" and costs zero bytes on
//     the wire (net/wire.hpp only appends the extension when present).
//
//   * SpanRecorder — a process-global flight recorder of completed spans.
//     Each recording thread owns a bounded ring guarded by its own mutex
//     (uncontended in the common case: the only other locker is a rare
//     EVENTS scrape), so recording never contends across worker shards.
//     Every kept span takes a process-wide sequence number, and readers
//     resume by cursor exactly like the control-plane journal
//     (obs/journal.hpp): reads never remove spans, so any number of
//     scrapers each see every kept span.
//
// Sampling is tail-based at the recorder: a span is kept when its context
// carries the sampled flag (head sampling, decided once by the client and
// propagated hop to hop so trees stay complete), when it ended in a
// rejection/error (`cause != 0`), or when it ran longer than the slow
// budget (an SLA-shaped p99 budget; 0 disables).  Everything else is
// counted and dropped, which is what keeps sampling-off overhead under the
// obs layer's <2% bar: with no contexts on the wire, record() is never
// reached at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.hpp"

namespace rlb::obs {

/// TraceContext.flags bit 0: the originator elected this request for
/// sampling; every hop keeps its spans regardless of local policy.
inline constexpr std::uint8_t kSpanSampled = 0x01;

/// The trace context a request carries across process hops.  POD; a zero
/// trace_id means "no context" (never emitted by an originator).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint8_t flags = 0;

  constexpr bool valid() const noexcept { return trace_id != 0; }
  constexpr bool sampled() const noexcept {
    return (flags & kSpanSampled) != 0;
  }
};

/// One completed span.  `name` must be a string literal (or otherwise
/// outlive the recorder), like TraceEvent.  Timestamps are obs::now_ns()
/// — steady-clock ns since *this* process started; cross-process merging
/// needs a clock anchor (see net/events_wire.hpp and rlb_stat --spans).
struct Span {
  /// Process-wide sequence number the recorder assigned when it kept the
  /// span (1-based; 0 = never recorded).
  std::uint64_t seq = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Waiting-room / pending depth observed at admission (site-specific).
  std::uint64_t queue_depth = 0;
  const char* name = "";
  /// Site-specific topology id: 0 for an engine, the router's backend id.
  std::uint32_t shard = 0;
  std::uint32_t tid = 0;  ///< dense per-process thread index
  std::uint8_t flags = 0;
  /// Terminal cause as a net::Status byte (0 = served OK); non-zero spans
  /// are always kept (tail sampling of failures).
  std::uint8_t cause = 0;
};

/// Process-global span flight recorder.
class SpanRecorder {
 public:
  static SpanRecorder& instance();

  /// Record a completed span, applying the keep policy (see file comment).
  /// Dropped spans are counted in filtered().
  void record(const Span& span);

  /// Copy up to `max` kept spans with seq > `cursor` into `out`
  /// (appended), in seq order.  Non-destructive and thread-safe; the
  /// result's next_cursor resumes the stream and its dropped count covers
  /// spans evicted from a full ring before this reader saw them.
  JournalReadResult read_from(std::uint64_t cursor, std::size_t max,
                              std::vector<Span>& out) const;

  /// Up to `max_spans` spans recorded since the previous drain(), oldest
  /// first: read_from() with a cursor the recorder owns.  In-process
  /// collectors (benches, tests) loop until it returns nothing.
  std::vector<Span> drain(std::size_t max_spans);

  /// Copy every buffered span without removing it.
  std::vector<Span> collect() const;

  /// Spans still buffered across all thread rings.
  std::size_t size() const;

  /// Spans dropped by the keep policy (unsampled, fast, served OK).
  std::uint64_t filtered() const noexcept {
    return filtered_.load(std::memory_order_relaxed);
  }

  /// Keep any span whose duration is >= `ns` regardless of sampling
  /// (0 disables the slow path of the keep policy).
  void set_slow_budget_ns(std::uint64_t ns) noexcept {
    slow_budget_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t slow_budget_ns() const noexcept {
    return slow_budget_ns_.load(std::memory_order_relaxed);
  }

  /// Per-thread ring capacity for rings created after the call.
  void set_ring_capacity(std::size_t capacity) noexcept;

  /// Drop all buffered spans and reset the filtered count; the next
  /// drain() starts after the spans dropped here (tests).
  void clear();

 private:
  struct Ring {
    mutable std::mutex mutex;
    std::deque<Span> spans;  ///< seq-ascending
    std::size_t capacity = 0;
  };

  SpanRecorder() = default;
  Ring& local_ring();

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
  /// The seq the next kept span takes.  Taken inside the ring lock, so a
  /// reader that loads it first finds every smaller seq already stored
  /// (or evicted) once it holds that ring's lock.
  std::atomic<std::uint64_t> next_seq_{1};
  std::mutex drain_mutex_;
  std::uint64_t drain_cursor_ = 0;  ///< guarded by drain_mutex_
  std::atomic<std::size_t> ring_capacity_{1u << 14};
  std::atomic<std::uint64_t> slow_budget_ns_{0};
  std::atomic<std::uint64_t> filtered_{0};
};

// -- Global switch --------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_spans_enabled;
}  // namespace detail

/// True when span recording sites should emit.  One relaxed load; always
/// false (and free) under RLB_OBS_DISABLED.
inline bool span_recording_enabled() noexcept {
#if defined(RLB_OBS_DISABLED)
  return false;
#else
  return detail::g_spans_enabled.load(std::memory_order_relaxed);
#endif
}

/// Enable/disable span recording (independent of the event-trace switch:
/// a daemon serves span scrapes even when --trace is off).
void set_span_recording(bool on) noexcept;

/// Process-unique-ish 64-bit id for a new span or trace: a per-process
/// random base (pid + wall clock, splitmix-scrambled) plus an atomic
/// counter.  Never returns 0.
std::uint64_t next_span_id() noexcept;

// -- JSONL persistence ----------------------------------------------------
//
// One object per line.  When `steady_ns`/`wall_ns` are non-zero an anchor
// line is written first:
//   {"anchor":1,"steady_ns":...,"wall_ns":...}
// pairing this process's steady epoch with the wall clock so offline
// mergers (rlb_stat --spans) can place the spans on a shared time axis.

void write_spans_jsonl(const std::vector<Span>& spans, std::ostream& os,
                       std::uint64_t steady_ns = 0, std::uint64_t wall_ns = 0);

/// Parse write_spans_jsonl output.  Unparseable lines are skipped; names
/// are interned for the process lifetime.  When an anchor line is present
/// its pair is stored in `anchor_steady_ns`/`anchor_wall_ns` (left
/// untouched otherwise).
std::vector<Span> parse_spans_jsonl(std::istream& is,
                                    std::uint64_t& anchor_steady_ns,
                                    std::uint64_t& anchor_wall_ns);

/// A process-lifetime copy of `name`, for spans decoded from bytes (JSONL,
/// the wire) whose name must outlive the buffer it came from.
const char* intern_span_name(std::string_view name);

/// Wall-clock ns since the Unix epoch (system_clock) — the other half of
/// a clock anchor.
std::uint64_t wall_now_ns() noexcept;

// -- Global span file ------------------------------------------------------

/// Arrange for buffered spans to be written (with an anchor line) to
/// `path` at flush_spans() and at process exit.  Enables span recording.
void set_span_file(const std::string& path);

/// Write the span file now.  The write is atomic: a temp file next to the
/// target is renamed over it, so readers never observe a truncated
/// mid-record file (and neither does a crash between write and rename
/// corrupt a previous complete flush).  Returns false without a configured
/// path or on I/O failure.
bool flush_spans();

}  // namespace rlb::obs
