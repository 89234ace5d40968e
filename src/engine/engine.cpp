#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/balancer.hpp"
#include "core/metrics.hpp"
#include "core/safe_distribution.hpp"
#include "obs/journal.hpp"
#include "obs/thread_name.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "policies/factory.hpp"
#include "stats/rng.hpp"

namespace rlb::engine {

namespace {

[[noreturn]] void bad_spec(const std::string& spec, const char* why) {
  throw std::invalid_argument("failure spec '" + spec + "': " + why);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::uint64_t parse_u64(const std::string& spec, const std::string& field) {
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(field, &pos);
  } catch (const std::exception&) {
    bad_spec(spec, "expected a non-negative integer");
  }
  if (pos != field.size()) bad_spec(spec, "trailing junk after integer");
  return static_cast<std::uint64_t>(value);
}

double parse_double(const std::string& spec, const std::string& field) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(field, &pos);
  } catch (const std::exception&) {
    bad_spec(spec, "expected a number");
  }
  if (pos != field.size()) bad_spec(spec, "trailing junk after number");
  return value;
}

}  // namespace

std::unique_ptr<core::FailureSchedule> parse_failure_spec(
    const std::string& spec, std::size_t servers, std::uint64_t seed) {
  if (spec.empty()) return nullptr;
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) bad_spec(spec, "missing ':' after kind");
  const std::string kind = spec.substr(0, colon);
  const std::string body = spec.substr(colon + 1);
  if (kind == "script") {
    std::vector<core::ScriptedFailureSchedule::Event> events;
    for (const std::string& part : split(body, ';')) {
      if (part.empty()) continue;
      const std::vector<std::string> fields = split(part, ',');
      if (fields.size() != 3) bad_spec(spec, "script events are tick,server,down|up");
      core::ScriptedFailureSchedule::Event event;
      event.step = static_cast<core::Time>(parse_u64(spec, fields[0]));
      event.server = static_cast<core::ServerId>(parse_u64(spec, fields[1]));
      if (event.server >= servers) bad_spec(spec, "server id out of range");
      if (fields[2] == "down") {
        event.up = false;
      } else if (fields[2] == "up") {
        event.up = true;
      } else {
        bad_spec(spec, "event state must be 'down' or 'up'");
      }
      events.push_back(event);
    }
    if (events.empty()) bad_spec(spec, "script has no events");
    return std::make_unique<core::ScriptedFailureSchedule>(std::move(events));
  }
  if (kind == "bernoulli") {
    const std::vector<std::string> fields = split(body, ',');
    if (fields.size() != 2) bad_spec(spec, "bernoulli takes fail_rate,mttr");
    const double rate = parse_double(spec, fields[0]);
    const double mttr = parse_double(spec, fields[1]);
    if (rate < 0.0 || rate > 1.0) bad_spec(spec, "fail_rate not in [0,1]");
    if (mttr < 0.0) bad_spec(spec, "mttr must be >= 0");
    return std::make_unique<core::BernoulliFailureSchedule>(rate, mttr, seed);
  }
  if (kind == "rack") {
    const std::vector<std::string> fields = split(body, ',');
    if (fields.size() != 3) bad_spec(spec, "rack takes racks,rack_fail_rate,mttr");
    const auto racks = static_cast<std::size_t>(parse_u64(spec, fields[0]));
    const double rate = parse_double(spec, fields[1]);
    const double mttr = parse_double(spec, fields[2]);
    if (racks == 0) bad_spec(spec, "racks must be >= 1");
    if (rate < 0.0 || rate > 1.0) bad_spec(spec, "rack_fail_rate not in [0,1]");
    if (mttr < 0.0) bad_spec(spec, "mttr must be >= 0");
    return std::make_unique<core::RackFailureSchedule>(racks, rate, mttr, seed);
  }
  bad_spec(spec, "unknown kind (want script/bernoulli/rack)");
}

namespace {

// One admitted GET waiting to be routed.
struct Waiting {
  std::uint64_t conn_token = 0;
  std::uint64_t request_id = 0;
  core::ChunkId chunk = 0;
  std::uint64_t enqueue_tick = 0;
  // obs::now_ns() at submit_batch(); anchors the wire-to-response latency
  // probe.
  std::uint64_t submit_ns = 0;
  // Waiting-room depth observed at admission (span annotation).
  std::uint64_t queue_depth = 0;
  // Wire-propagated trace context; invalid (trace_id 0) for untraced
  // requests.
  obs::TraceContext trace;
};

// One request delivered into the balancer, awaiting its sink event: a node
// in the in-flight slab, chained to the next younger request of its chunk.
struct Pending {
  std::uint64_t conn_token = 0;
  std::uint64_t request_id = 0;
  // Ticks spent in the waiting room before delivery (added to the
  // balancer-reported wait for the end-to-end wait_steps).
  std::uint32_t waited = 0;
  // Slab index of the chunk's next younger Pending, or kNil.
  std::uint32_t next = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t queue_depth = 0;
  obs::TraceContext trace;
};

constexpr std::uint32_t kNil = ~std::uint32_t{0};

// The chunks with requests inside the balancer.  Each entry heads its
// chunk's FIFO of Pending requests, oldest first, and holds the last tick
// that put the chunk in a batch (one delivery per chunk per tick).  The
// table is open-addressed with linear probing and backward-shift erase, so
// it has no tombstones; the FIFOs are index chains through one slab of
// Pending nodes with a free list.  Once warm, neither allocates.
class InflightTable {
 public:
  InflightTable() : slots_(kInitialSlots) {}

  /// Append `pending` to `chunk`'s FIFO and mark the chunk batched at
  /// `tick`.  False, appending nothing, when `tick` already batched it.
  bool deliver(core::ChunkId chunk, std::uint64_t tick,
               const Pending& pending) {
    std::size_t i = find(chunk);
    if (slots_[i].head == kNil) {
      if (2 * (used_ + 1) > slots_.size()) {
        grow();
        i = find(chunk);
      }
      slots_[i].chunk = chunk;
      ++used_;
    } else if (slots_[i].batched_tick == tick) {
      return false;
    }
    Slot& slot = slots_[i];
    slot.batched_tick = tick;
    std::uint32_t node = free_;
    if (node != kNil) {
      free_ = nodes_[node].next;
      nodes_[node] = pending;
    } else {
      node = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(pending);
    }
    nodes_[node].next = kNil;
    if (slot.head == kNil) {
      slot.head = node;
    } else {
      nodes_[slot.tail].next = node;
    }
    slot.tail = node;
    return true;
  }

  /// Take the oldest Pending of `chunk`; false when it has none.
  bool pop(core::ChunkId chunk, Pending& out) {
    const std::size_t i = find(chunk);
    Slot& slot = slots_[i];
    if (slot.head == kNil) return false;
    const std::uint32_t node = slot.head;
    out = nodes_[node];
    slot.head = out.next;
    nodes_[node].next = free_;
    free_ = node;
    if (slot.head == kNil) erase(i);
    return true;
  }

  /// Hand every Pending to `fn`, each chunk's oldest first, and empty the
  /// table.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (Slot& slot : slots_) {
      for (std::uint32_t n = slot.head; n != kNil; n = nodes_[n].next) {
        fn(nodes_[n]);
      }
      slot.head = kNil;
    }
    nodes_.clear();
    free_ = kNil;
    used_ = 0;
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  struct Slot {
    core::ChunkId chunk = 0;
    std::uint64_t batched_tick = 0;
    std::uint32_t head = kNil;  // kNil: the slot is free
    std::uint32_t tail = kNil;
  };

  // Fibonacci hashing onto the power-of-two table, so chunk ids with a
  // common stride (range-mapped keys) still spread.
  std::size_t home(core::ChunkId chunk) const {
    return static_cast<std::size_t>((chunk * 0x9e3779b97f4a7c15ull) >>
                                    (64 - std::countr_zero(slots_.size())));
  }

  // The chunk's slot, or the free slot that ends its probe run.
  std::size_t find(core::ChunkId chunk) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(chunk);
    while (slots_[i].head != kNil && slots_[i].chunk != chunk) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Free slot `hole`, shifting later members of its probe run back so
  // every entry stays reachable from its home without tombstones.
  void erase(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].head != kNil;
         j = (j + 1) & mask) {
      // An entry whose home lies cyclically in (hole, j] must stay put.
      if (((j - home(slots_[j].chunk)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].head = kNil;
    --used_;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.head != kNil) slots_[find(slot.chunk)] = slot;
    }
  }

  std::vector<Slot> slots_;  // a power of two, at most half full
  std::size_t used_ = 0;
  std::vector<Pending> nodes_;
  std::uint32_t free_ = kNil;
};

// The waiting room: a FIFO ring, so admitting and batching allocate
// nothing.  The slots for a default-sized waiting room are allocated up
// front; a larger limit grows the ring by doubling, up to the limit.
class WaitingRing {
 public:
  void set_limit(std::size_t limit) {
    limit_ = limit;
    slots_.resize(std::min(limit, kInitialSlots));
  }

  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == limit_; }
  std::size_t size() const { return count_; }

  /// Callers check full() first.
  void push_back(const Waiting& request) {
    if (count_ == slots_.size()) grow();
    slots_[index(count_)] = request;
    ++count_;
  }
  /// Only ever after pop_front(), so there is room.
  void push_front(const Waiting& request) {
    head_ = head_ == 0 ? slots_.size() - 1 : head_ - 1;
    slots_[head_] = request;
    ++count_;
  }
  Waiting pop_front() {
    const Waiting request = slots_[head_];
    head_ = index(1);
    --count_;
    return request;
  }

 private:
  static constexpr std::size_t kInitialSlots = 4096;

  std::size_t index(std::size_t i) const {
    const std::size_t at = head_ + i;
    return at < slots_.size() ? at : at - slots_.size();
  }

  void grow() {
    std::vector<Waiting> grown(std::min(2 * slots_.size(), limit_));
    for (std::size_t i = 0; i < count_; ++i) grown[i] = slots_[index(i)];
    slots_.swap(grown);
    head_ = 0;
  }

  std::vector<Waiting> slots_;
  std::size_t limit_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace

// One balancer over all m servers.  The Impl is its RequestSink: the
// balancer's chunk-level outcomes turn back into per-request responses via
// the per-chunk in-flight FIFO (sound because step() consumes distinct
// chunks and the balancer's queues are FIFO per chunk delivery order).
//
// The request path (submit_batch -> build_batch -> step -> the sink) does
// no heap allocation, no clock read and no locked read-modify-write per
// untraced request once warm: the waiting room is a ring, the in-flight
// FIFOs live in a flat table over a slab, and every counter and histogram
// below is written only by the tick mutex's holder (obs::bump and the
// single-writer recorders).  A tick reads the clock at most three times:
// at its start (queue wait) and around step(); the step-end read stamps
// the latency of every request the step answered.
struct ServingEngine::Impl final : core::RequestSink {
  EngineConfig config;
  ResponseFn on_response;
  std::unique_ptr<store::KeyMapper> mapper;
  std::size_t max_batch = 0;
  // tick_interval_us > 0: the thread runs every tick, one per interval.
  bool paced = false;
  std::atomic<bool> accepting{false};
  std::uint64_t start_ns = 0;  // obs::now_ns() at start(); 0 until then
  bool started = false;
  bool stopped = false;

  // Guards the tick state below (up to the live counters).  Whoever ticks
  // holds it: a submit_batch() caller or the thread.
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;
  // An unpaced tick made no progress with work left (a queue frozen on
  // crashed servers): the thread advances the tick clock until it settles.
  bool frozen = false;
  std::unique_ptr<core::LoadBalancer> balancer;
  std::unique_ptr<core::FailureSchedule> schedule;
  core::Metrics metrics;
  WaitingRing waiting;
  InflightTable inflight;
  std::vector<std::uint8_t> up_state;
  std::uint64_t tick_clock = 0;  // ticks run; the failure schedule's clock
  std::uint64_t balancer_backlog = 0;  // as of the end of the last tick
  // Shed journal rate limit: at most one kShed event per ~100 ms, so an
  // overload storm reports without flooding the ring.
  std::uint64_t last_shed_journal_ns = 0;
  // Safe-set monitor (Def 3.2): the tick evaluates the invariant over the
  // backlog vector it just sampled, at most once per kSafeCheckNs, and
  // journals one event per flip.  snapshot() only reports, so what
  // reaches the journal does not depend on who scrapes, or when.
  static constexpr std::uint64_t kSafeCheckNs = 100'000'000;
  std::uint64_t safe_check_due_ns = 0;
  bool safe_violated = false;
  // Per-tick scratch, cleared as it is reused: a warm tick allocates
  // none of it.
  std::vector<Waiting> deferred;  // duplicate chunks -> next tick
  std::vector<core::ChunkId> batch;
  std::vector<core::FailureTransition> transitions;
  std::vector<std::uint32_t> backlog_scratch;
  // Requests answered since the last stamp(): the submit_batch() time of
  // each, and how many were served or rejected.  Their latency samples and
  // window counts wait for the tick's next clock read.
  std::vector<std::uint64_t> unstamped;
  std::uint64_t unstamped_completed = 0;
  std::uint64_t unstamped_rejected = 0;

  // Live counters (the tick mutex's holder writes, with obs::bump;
  // snapshot() reads).  The STATS plane reads these directly, so they stay
  // live with obs compiled out.
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected_queue_full{0};
  std::atomic<std::uint64_t> rejected_all_down{0};
  std::atomic<std::uint64_t> rejected_admission{0};
  std::atomic<std::uint64_t> rejected_drop{0};
  std::atomic<std::uint64_t> ticks{0};
  std::atomic<std::uint64_t> crashes{0};
  std::atomic<std::uint64_t> recoveries{0};
  std::atomic<std::uint64_t> sink_orphans{0};
  std::atomic<std::uint64_t> backlog{0};
  std::atomic<std::size_t> down{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_chunks{0};
  std::atomic<std::uint64_t> max_batch_seen{0};
  std::atomic<std::uint64_t> step_ns{0};
  std::atomic<std::uint64_t> waiting_depth{0};
  std::atomic<std::uint64_t> inflight_count{0};

  // Wire-to-response latency (us), the histogram STATS ships.
  obs::AtomicLogHistogram latency;

  // Queue-wait decomposition (v3 stats): submit_batch() to drain-tick
  // delivery — the waiting-room share of the latency above.
  obs::AtomicLogHistogram queue_wait;

  // Drain-tick cost (v7 stats), one sample per tick: step() nanoseconds
  // and the distinct chunks of each non-empty batch.
  obs::AtomicLogHistogram step_hist;
  obs::AtomicLogHistogram batch_hist;

  // Per-server backlog, refreshed once per tick from the balancer, so
  // snapshot() reports the safe set without taking the tick lock.
  std::unique_ptr<std::atomic<std::uint32_t>[]> backlog_by_server;

  // Repair plane (StatsSnapshot v4): the placement epoch last heard on a
  // router heartbeat, and this backend's migration traffic totals.  Written
  // from other threads, outside the tick mutex: these keep their RMWs.
  std::atomic<std::uint64_t> placement_epoch{0};
  std::atomic<std::uint64_t> migrations_in{0};
  std::atomic<std::uint64_t> migrations_out{0};
  std::atomic<std::uint64_t> migration_bytes_in{0};
  std::atomic<std::uint64_t> migration_bytes_out{0};
  std::atomic<std::uint64_t> slices_corrupt{0};

  // Health plane (StatsSnapshot v5): trailing-window latency/queue-wait
  // deltas.  win_latency's counter slots double as the windowed
  // submitted/completed/rejected counters.
  static constexpr std::size_t kWinSubmitted = 0;
  static constexpr std::size_t kWinCompleted = 1;
  static constexpr std::size_t kWinRejected = 2;
  obs::WindowedAggregator win_latency;
  obs::WindowedAggregator win_queue_wait;

  // Runs run(): paced ticks, a frozen queue's clock, the idle safe-set
  // recheck and the shutdown drain.  Declared after everything it uses.
  std::thread thread;

  void record_latency(std::uint64_t submit_ns, std::uint64_t now) {
    if (submit_ns == 0) return;
    const std::uint64_t us = now > submit_ns ? (now - submit_ns) / 1000 : 0;
    latency.record(us);
    win_latency.record(us, now);
  }

  /// Record the latency and window counts of every request answered since
  /// the last stamp, as of `now`.
  void stamp(std::uint64_t now) {
    for (const std::uint64_t submit_ns : unstamped) {
      record_latency(submit_ns, now);
    }
    unstamped.clear();
    if (unstamped_completed != 0) {
      win_latency.add(kWinCompleted, unstamped_completed, now);
      unstamped_completed = 0;
    }
    if (unstamped_rejected != 0) {
      win_latency.add(kWinRejected, unstamped_rejected, now);
      unstamped_rejected = 0;
    }
  }

  /// Land one engine.request span in the flight recorder (no-op for
  /// untraced requests and under RLB_OBS_DISABLED).  `cause` is the
  /// response's status byte (0 = served).
  void record_span(const obs::TraceContext& trace, std::uint64_t submit_ns,
                   std::uint64_t queue_depth, std::uint8_t cause) {
#if !defined(RLB_OBS_DISABLED)
    if (!trace.valid() || !obs::span_recording_enabled()) return;
    obs::Span span;
    span.trace_id = trace.trace_id;
    span.span_id = obs::next_span_id();
    span.parent_span_id = trace.parent_span_id;
    span.start_ns = submit_ns;
    span.end_ns = obs::now_ns();
    span.queue_depth = queue_depth;
    span.name = "engine.request";
    span.tid = static_cast<std::uint32_t>(obs::thread_index());
    span.flags = trace.flags;
    span.cause = cause;
    obs::SpanRecorder::instance().record(span);
#else
    (void)trace;
    (void)submit_ns;
    (void)queue_depth;
    (void)cause;
#endif
  }

  void on_served(core::ChunkId x, core::ServerId server,
                 std::uint64_t wait_steps) override {
    Pending pending;
    if (!pop_pending(x, pending)) return;
    EngineResponse response;
    response.conn_token = pending.conn_token;
    response.request_id = pending.request_id;
    response.status = kEngineOk;
    response.server = server;
    response.wait_steps =
        pending.waited + static_cast<std::uint32_t>(wait_steps);
    obs::bump(completed);
    ++unstamped_completed;
    unstamped.push_back(pending.submit_ns);
    record_span(pending.trace, pending.submit_ns, pending.queue_depth,
                kEngineOk);
    on_response(response);
  }

  /// Every policy attributes its rejects; an unattributed one counts
  /// as a drop so the causes still sum to every reject.
  void on_rejected(core::ChunkId x) override {
    on_rejected(x, core::RejectCause::kQueueDrop);
  }

  void on_rejected(core::ChunkId x, core::RejectCause cause) override {
    Pending pending;
    if (!pop_pending(x, pending)) return;
    switch (cause) {
      case core::RejectCause::kQueueFull:
        obs::bump(rejected_queue_full);
        break;
      case core::RejectCause::kAllReplicasDown:
        obs::bump(rejected_all_down);
        break;
      case core::RejectCause::kQueueDrop:
        obs::bump(rejected_drop);
        break;
    }
    reject_pending(pending);
  }

  /// Answer one routed request with kEngineReject (its cause already
  /// counted).
  void reject_pending(const Pending& pending) {
    EngineResponse response;
    response.conn_token = pending.conn_token;
    response.request_id = pending.request_id;
    response.status = kEngineReject;
    ++unstamped_rejected;
    unstamped.push_back(pending.submit_ns);
    record_span(pending.trace, pending.submit_ns, pending.queue_depth,
                kEngineReject);
    on_response(response);
  }

  bool pop_pending(core::ChunkId x, Pending& out) {
    if (!inflight.pop(x, out)) {
      // A sink event with no matching delivery would mean the balancer
      // broke the one-event-per-request contract; count, don't crash.
      obs::bump(sink_orphans);
      return false;
    }
    inflight_count.store(inflight_count.load(std::memory_order_relaxed) - 1,
                         std::memory_order_relaxed);
    return true;
  }

  /// Nothing is left in the waiting room or the balancer's queues.
  bool settled() const { return waiting.empty() && balancer_backlog == 0; }

  struct TickResult {
    // The tick routed a batch or shrank the balancer backlog.
    bool progressed = false;
    bool settled = false;
  };

  /// Admission control, on the submitting thread: the waiting room bounds
  /// pre-routing memory; an overflowing arrival is the engine's own
  /// rejection, answered here, before the policy ever sees it.
  void admit(const Waiting& request);
  /// One drain tick, the paper's step.  Caller holds mutex.
  TickResult tick();
  /// Tick until the engine settles, or until a tick makes no progress (a
  /// frozen queue), which hands the tick clock to the thread.  Unpaced
  /// submit_batch() callers run it; caller holds mutex.
  void settle();
  /// The thread: waits for a tick to run, paces, and drains at shutdown.
  void run();
  void apply_failures();
  /// `now`: the tick's start, the delivery time for queue wait.
  std::size_t build_batch(std::uint64_t now);
  /// Journals the safe-set invariant's edges when a check is due at `now`.
  /// Ratio travels in parts-per-million (the journal carries integers).
  /// Caller holds mutex.
  void check_safe_set(std::uint64_t now);

  /// The per-level view over the backlog samples of all m servers.
  std::vector<core::SafeSetLevel> safe_set_levels() const {
    std::vector<std::uint32_t> backlogs(config.servers);
    for (std::size_t s = 0; s < backlogs.size(); ++s) {
      backlogs[s] = backlog_by_server[s].load(std::memory_order_relaxed);
    }
    return core::safe_set_levels(backlogs);
  }
};

void ServingEngine::Impl::admit(const Waiting& request) {
  if (!waiting.full()) {
    waiting.push_back(request);
    return;
  }
  // A shed is answered at once: its latency ends at the batch's own clock
  // read.
  const std::uint64_t now = request.submit_ns;
  obs::bump(rejected_admission);
  const std::uint64_t sheds =
      rejected_admission.load(std::memory_order_relaxed);
  win_latency.add(kWinRejected, 1, now);
  if (now - last_shed_journal_ns > 100'000'000) {
    last_shed_journal_ns = now;
    obs::Journal::instance().append(obs::JournalType::kShed, 0, sheds);
  }
  EngineResponse response;
  response.conn_token = request.conn_token;
  response.request_id = request.request_id;
  response.status = kEngineReject;
  record_latency(request.submit_ns, now);
  record_span(request.trace, request.submit_ns, waiting.size(), kEngineReject);
  on_response(response);
}

void ServingEngine::Impl::check_safe_set(std::uint64_t now) {
  if (now < safe_check_due_ns) return;
  safe_check_due_ns = now + kSafeCheckNs;
  std::uint32_t violated_level = 0;
  double worst_ratio = 0.0;
  for (const core::SafeSetLevel& level :
       core::safe_set_levels(backlog_scratch)) {
    worst_ratio = std::max(worst_ratio, level.ratio);
    if (violated_level == 0 && level.ratio > 1.0) {
      violated_level = level.level;
    }
  }
  const bool violated_now = violated_level != 0;
  if (violated_now != safe_violated) {
    safe_violated = violated_now;
    obs::Journal::instance().append(
        violated_now ? obs::JournalType::kSafeSetViolated
                     : obs::JournalType::kSafeSetRecovered,
        violated_level, static_cast<std::uint64_t>(worst_ratio * 1e6));
  }
}

void ServingEngine::Impl::apply_failures() {
  if (!schedule) return;
  transitions.clear();
  schedule->transitions(static_cast<core::Time>(tick_clock), up_state,
                        transitions);
  for (const auto& transition : transitions) {
    const bool was_up = up_state[transition.server] != 0;
    if (was_up == transition.up) continue;  // no-op transition
    up_state[transition.server] = transition.up ? 1 : 0;
    // A crash the schedule never undoes would freeze its queue forever:
    // reject those requests now so every client still gets an answer.
    const bool dump = config.dump_queue_on_crash ||
                      !schedule->recovers(transition.server,
                                          static_cast<core::Time>(tick_clock));
    balancer->set_server_up(transition.server, transition.up, dump, metrics);
    if (transition.up) {
      obs::bump(recoveries);
      down.store(down.load(std::memory_order_relaxed) - 1,
                 std::memory_order_relaxed);
    } else {
      obs::bump(crashes);
      obs::bump(down);
    }
  }
}

std::size_t ServingEngine::Impl::build_batch(std::uint64_t now) {
  batch.clear();
  deferred.clear();
  std::uint64_t delivered = 0;
  while (!waiting.empty() && batch.size() < max_batch) {
    const Waiting request = waiting.pop_front();
    Pending pending;
    pending.conn_token = request.conn_token;
    pending.request_id = request.request_id;
    pending.waited =
        static_cast<std::uint32_t>(tick_clock - request.enqueue_tick);
    pending.submit_ns = request.submit_ns;
    pending.queue_depth = request.queue_depth;
    pending.trace = request.trace;
    if (!inflight.deliver(request.chunk, tick_clock, pending)) {
      deferred.push_back(request);
      continue;
    }
    batch.push_back(request.chunk);
    ++delivered;
    // Queue wait: submit_batch() -> this tick (the waiting room).
    if (request.submit_ns != 0 && now > request.submit_ns) {
      const std::uint64_t us = (now - request.submit_ns) / 1000;
      queue_wait.record(us);
      win_queue_wait.record(us, now);
    }
  }
  obs::bump(inflight_count, delivered);
  // Deferred requests go back to the front, keeping their arrival order.
  for (std::size_t i = deferred.size(); i-- > 0;) {
    waiting.push_front(deferred[i]);
  }
  return batch.size();
}

ServingEngine::Impl::TickResult ServingEngine::Impl::tick() {
  const std::uint64_t start_ns = obs::now_ns();
  apply_failures();

  const std::size_t batch_size = build_batch(start_ns);
  waiting_depth.store(waiting.size(), std::memory_order_relaxed);
  // The tick's last clock read: the step's end, or its start when it has
  // nothing to step.  Responses are only staged during the tick, so this
  // stamp falls between the answer and its write.
  std::uint64_t end_ns = start_ns;
  if (batch_size > 0 || balancer_backlog > 0) {
    const std::uint64_t step_start = obs::now_ns();
    balancer->step(static_cast<core::Time>(tick_clock), batch, metrics);
    end_ns = obs::now_ns();
    const std::uint64_t step_time = end_ns - step_start;
    obs::bump(step_ns, step_time);
    step_hist.record(step_time);
  }
  stamp(end_ns);
  if (batch_size > 0) {
    batch_hist.record(batch_size);
    obs::bump(batches);
    obs::bump(batched_chunks, batch_size);
    if (batch_size > max_batch_seen.load(std::memory_order_relaxed)) {
      max_batch_seen.store(batch_size, std::memory_order_relaxed);
    }
  }
  ++tick_clock;
  obs::bump(ticks);

  // Refresh the per-server backlog view (feeds the safe-set monitor) and
  // derive the total from the same sample.
  const std::uint64_t backlog_before = balancer_backlog;
  balancer->backlogs(backlog_scratch);
  balancer_backlog = 0;
  for (std::size_t s = 0; s < backlog_scratch.size(); ++s) {
    backlog_by_server[s].store(backlog_scratch[s], std::memory_order_relaxed);
    balancer_backlog += backlog_scratch[s];
  }
  backlog.store(balancer_backlog, std::memory_order_relaxed);
  check_safe_set(end_ns);

  TickResult result;
  result.progressed = batch_size > 0 || balancer_backlog < backlog_before;
  result.settled = settled();
  return result;
}

void ServingEngine::Impl::settle() {
  for (;;) {
    const TickResult result = tick();
    if (result.settled) return;
    if (!result.progressed) {
      frozen = true;
      cv.notify_one();
      return;
    }
  }
}

void ServingEngine::Impl::run() {
  const auto interval = std::chrono::microseconds(config.tick_interval_us);
  auto next_tick = std::chrono::steady_clock::now();
  std::unique_lock lock(mutex);
  // A tick for this thread: every tick of a paced engine with work, only
  // a frozen queue's clock of an unpaced one.
  const auto woken = [&] {
    return stopping || (paced ? !settled() : frozen);
  };
  for (;;) {
    if (!woken()) {
      if (!safe_violated) {
        cv.wait(lock, woken);
      } else if (!cv.wait_for(lock, std::chrono::nanoseconds(kSafeCheckNs),
                              woken)) {
        // Idle while the invariant is last known violated: check again
        // when the next evaluation is due, so the recovery is journaled
        // even if no request ever arrives.
        check_safe_set(obs::now_ns());
        continue;
      }
    }
    if (stopping) break;
    if (paced) {
      if (cv.wait_until(lock, next_tick, [&] { return stopping; })) break;
      // Fixed rate; behind schedule (or back from idle), restart it from
      // now instead of ticking back to back to catch up.
      next_tick += interval;
      const auto now = std::chrono::steady_clock::now();
      if (next_tick < now) next_tick = now + interval;
      tick();
    } else {
      if (tick().settled) frozen = false;
      // Give a blocked submitter the lock between frozen-clock ticks.
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
  }

  // Shutdown drain, as fast as possible (no pacing).
  for (;;) {
    const TickResult result = tick();
    if (result.settled) break;
    if (!result.progressed) {
      // With every remaining server down (or a policy that cannot drain),
      // the backlog freezes: flush rejects the residue so every client
      // still gets an answer before the thread exits.
      balancer->flush(metrics);
      // Anything the balancer could not attribute (sink unsupported
      // paths) is answered as rejected rather than leaked: a drain flush,
      // so it counts as a drop.
      inflight.drain([&](const Pending& pending) {
        obs::bump(rejected_drop);
        reject_pending(pending);
      });
      inflight_count.store(0, std::memory_order_relaxed);
      stamp(obs::now_ns());
      break;
    }
  }
  backlog.store(0, std::memory_order_relaxed);
}

ServingEngine::ServingEngine(const EngineConfig& config, ResponseFn on_response)
    : impl_(new Impl) {
  impl_->config = config;
  impl_->on_response = std::move(on_response);
  if (!impl_->on_response) {
    delete impl_;
    throw std::invalid_argument("ServingEngine: null response callback");
  }
  try {
    if (config.servers == 0) {
      throw std::invalid_argument("ServingEngine: servers must be >= 1");
    }
    if (config.shards != 1) {
      throw std::invalid_argument(
          "ServingEngine: shards must be 1 (scale out with more rlbd "
          "backends behind rlb_router)");
    }
    if (config.chunks == 0) {
      throw std::invalid_argument("ServingEngine: chunks must be >= 1");
    }
    if (config.mapper == "hash") {
      impl_->mapper = std::make_unique<store::HashShardMapper>(
          config.chunks, stats::derive_seed(config.seed, 0x5eedull));
    } else if (config.mapper == "range") {
      const std::uint64_t key_space =
          config.key_space ? config.key_space : config.chunks;
      impl_->mapper =
          std::make_unique<store::RangeShardMapper>(config.chunks, key_space);
    } else {
      throw std::invalid_argument("ServingEngine: unknown mapper '" +
                                  config.mapper + "' (want hash|range)");
    }

    policies::PolicyConfig policy_config;
    policy_config.servers = config.servers;
    policy_config.replication = config.replication;
    policy_config.processing_rate = config.processing_rate;
    policy_config.queue_capacity = config.queue_capacity;
    policy_config.seed = stats::derive_seed(config.seed, 1);
    impl_->balancer = policies::make_policy(config.policy, policy_config);
    if (!impl_->balancer->set_request_sink(impl_)) {
      throw std::invalid_argument(
          "ServingEngine: policy '" + config.policy +
          "' cannot report per-request outcomes (no RequestSink support)");
    }
    impl_->schedule =
        parse_failure_spec(config.failure_spec, config.servers,
                           stats::derive_seed(config.seed, 0x9f0bull));
    impl_->up_state.assign(config.servers, 1);
    impl_->backlog_by_server =
        std::make_unique<std::atomic<std::uint32_t>[]>(config.servers);
    for (std::size_t s = 0; s < config.servers; ++s) {
      impl_->backlog_by_server[s].store(0, std::memory_order_relaxed);
    }

    impl_->max_batch = config.max_batch ? config.max_batch : config.servers;
    impl_->waiting.set_limit(config.waiting_limit ? config.waiting_limit
                                                  : 8 * impl_->max_batch);
    impl_->paced = config.tick_interval_us > 0;
  } catch (...) {
    delete impl_;
    throw;
  }
}

ServingEngine::~ServingEngine() {
  stop();
  delete impl_;
}

void ServingEngine::start() {
  if (impl_->started) return;
  impl_->started = true;
  impl_->start_ns = obs::now_ns();
  impl_->accepting.store(true, std::memory_order_release);
  impl_->thread = std::thread([impl = impl_] {
    obs::set_thread_name("rlb-engine");
    impl->run();
  });
}

void ServingEngine::stop() {
  if (!impl_->started || impl_->stopped) return;
  impl_->stopped = true;
  impl_->accepting.store(false, std::memory_order_release);
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
}

void ServingEngine::submit_batch(const SubmitItem* items, std::size_t count,
                                 std::vector<std::size_t>& rejected) {
  if (count == 0) return;
  Impl& impl = *impl_;
  if (impl.accepting.load(std::memory_order_acquire)) {
    // One timestamp for the whole batch: the items arrived in the same
    // server wakeup, so they share a wire arrival time.
    const std::uint64_t now = obs::now_ns();
    std::lock_guard lock(impl.mutex);
    if (!impl.stopping) {
      // A paced engine's thread parks only while the engine is settled.
      const bool wake = impl.paced && impl.settled();
      obs::bump(impl.submitted, count);
      impl.win_latency.add(Impl::kWinSubmitted, count, now);
      for (std::size_t i = 0; i < count; ++i) {
        Waiting request;
        request.conn_token = items[i].conn_token;
        request.request_id = items[i].request_id;
        request.chunk = impl.mapper->chunk_of(items[i].key);
        request.enqueue_tick = impl.tick_clock;
        request.submit_ns = now;
        request.queue_depth = impl.waiting.size();
        request.trace = items[i].trace;
        impl.admit(request);
      }
      impl.waiting_depth.store(impl.waiting.size(), std::memory_order_relaxed);
      if (wake) {
        impl.cv.notify_one();
      } else if (!impl.paced) {
        impl.settle();
      }
      return;
    }
  }
  for (std::size_t i = 0; i < count; ++i) rejected.push_back(i);
}

net::StatsSnapshot ServingEngine::snapshot() const {
  net::StatsSnapshot out;
  out.uptime_ms =
      impl_->start_ns ? (obs::now_ns() - impl_->start_ns) / 1000000 : 0;
  out.role = net::NodeRole::kBackend;
  out.backend_id = impl_->config.backend_id;
  out.policy = impl_->config.policy;
  out.servers = static_cast<std::uint32_t>(impl_->config.servers);
  out.replication = impl_->config.replication;
  out.processing_rate = impl_->config.processing_rate;
  out.queue_capacity = static_cast<std::uint32_t>(impl_->config.queue_capacity);
  // One row: the wire keeps its per-shard layout, and the queue-depth
  // field ahead of admission stays 0 (admission runs in submit_batch()).
  const Impl& impl = *impl_;
  out.shard_count = 1;
  net::ShardStats row;
  row.submitted = impl.submitted.load(std::memory_order_relaxed);
  row.completed = impl.completed.load(std::memory_order_relaxed);
  row.rejected_queue_full =
      impl.rejected_queue_full.load(std::memory_order_relaxed);
  row.rejected_all_down =
      impl.rejected_all_down.load(std::memory_order_relaxed);
  row.rejected_admission =
      impl.rejected_admission.load(std::memory_order_relaxed);
  row.rejected_drop = impl.rejected_drop.load(std::memory_order_relaxed);
  row.ticks = impl.ticks.load(std::memory_order_relaxed);
  row.batches = impl.batches.load(std::memory_order_relaxed);
  row.batched_chunks = impl.batched_chunks.load(std::memory_order_relaxed);
  row.max_batch = impl.max_batch_seen.load(std::memory_order_relaxed);
  row.waiting_depth = impl.waiting_depth.load(std::memory_order_relaxed);
  row.inflight = impl.inflight_count.load(std::memory_order_relaxed);
  row.backlog = impl.backlog.load(std::memory_order_relaxed);
  row.servers_down = impl.down.load(std::memory_order_relaxed);
  row.step_ns = impl.step_ns.load(std::memory_order_relaxed);
  row.sink_orphans = impl.sink_orphans.load(std::memory_order_relaxed);
  row.crashes = impl.crashes.load(std::memory_order_relaxed);
  row.recoveries = impl.recoveries.load(std::memory_order_relaxed);
  out.shards.push_back(row);
  impl.latency.merge_into(out.latency);
  impl.queue_wait.merge_into(out.queue_wait);
  impl.step_hist.merge_into(out.step_ns);
  impl.batch_hist.merge_into(out.batch_size);

  // Safe-set invariant monitor (Def 3.2).  Reporting only: the tick
  // journals its edges (Impl::check_safe_set).
  const std::vector<core::SafeSetLevel> levels = impl_->safe_set_levels();
  out.safe_set.reserve(levels.size());
  for (const core::SafeSetLevel& level : levels) {
    net::SafeSetLevelStats row;
    row.level = level.level;
    row.observed = level.observed;
    row.bound = level.bound;
    row.ratio = level.ratio;
    out.safe_set.push_back(row);
    if (level.ratio > out.safe_worst_ratio) {
      out.safe_worst_ratio = level.ratio;
    }
    if (out.safe_violated_level == 0 && level.ratio > 1.0) {
      out.safe_violated_level = level.level;
    }
  }

  out.placement_epoch = impl_->placement_epoch.load(std::memory_order_relaxed);
  out.repair.migrations_in =
      impl_->migrations_in.load(std::memory_order_relaxed);
  out.repair.migrations_out =
      impl_->migrations_out.load(std::memory_order_relaxed);
  out.repair.migration_bytes_in =
      impl_->migration_bytes_in.load(std::memory_order_relaxed);
  out.repair.migration_bytes_out =
      impl_->migration_bytes_out.load(std::memory_order_relaxed);
  out.repair.slices_corrupt =
      impl_->slices_corrupt.load(std::memory_order_relaxed);

  // Health plane (v5): trailing-window deltas, one clock read for both
  // aggregators so their spans agree.
  const std::uint64_t win_now = obs::now_ns();
  const obs::WindowedAggregator::Snapshot win =
      impl_->win_latency.read(win_now);
  out.window_span_ms = win.span_ms;
  out.win_submitted = win.counters[Impl::kWinSubmitted];
  out.win_completed = win.counters[Impl::kWinCompleted];
  out.win_rejected = win.counters[Impl::kWinRejected];
  out.win_latency = win.hist;
  out.win_queue_wait = impl_->win_queue_wait.read(win_now).hist;

  out.active_alerts = obs::active_alerts();
  return out;
}

void ServingEngine::set_placement_epoch(std::uint64_t epoch) {
  // Monotonic max: heartbeats from a router can interleave across
  // connections, and a stale frame must not roll the epoch back.
  std::uint64_t current =
      impl_->placement_epoch.load(std::memory_order_relaxed);
  while (epoch > current && !impl_->placement_epoch.compare_exchange_weak(
                                current, epoch, std::memory_order_relaxed)) {
  }
  if (epoch > current) {
    // This call raised the epoch (the CAS loop exits with current < epoch
    // only after a successful exchange): one journal event per adoption.
    obs::Journal::instance().append(obs::JournalType::kEpochCommit, epoch, 0);
  }
}

void ServingEngine::note_migration_in(std::uint64_t bytes) {
  impl_->migrations_in.fetch_add(1, std::memory_order_relaxed);
  impl_->migration_bytes_in.fetch_add(bytes, std::memory_order_relaxed);
}

void ServingEngine::note_migration_out(std::uint64_t bytes) {
  impl_->migrations_out.fetch_add(1, std::memory_order_relaxed);
  impl_->migration_bytes_out.fetch_add(bytes, std::memory_order_relaxed);
}

void ServingEngine::note_corrupt_slice() {
  impl_->slices_corrupt.fetch_add(1, std::memory_order_relaxed);
}

const EngineConfig& ServingEngine::config() const { return impl_->config; }

core::ChunkId ServingEngine::chunk_of(store::KeyId key) const {
  return impl_->mapper->chunk_of(key);
}

void submit_requests(ServingEngine& engine, net::NetServer& server,
                     const net::ServerRequest* batch, std::size_t count) {
  // Scratch lives across calls (the server's loop thread is the steady-
  // state caller): zero allocations once warm.
  thread_local std::vector<ServingEngine::SubmitItem> items;
  thread_local std::vector<std::size_t> rejected;
  items.clear();
  rejected.clear();
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    items.push_back({batch[i].conn_token, batch[i].msg.request_id,
                     batch[i].msg.key, batch[i].msg.trace});
  }
  engine.submit_batch(items.data(), count, rejected);
  for (const std::size_t i : rejected) {
    net::ResponseMsg msg;
    msg.request_id = batch[i].msg.request_id;
    msg.status = net::Status::kError;
    server.send_response(batch[i].conn_token, msg);
  }
}

}  // namespace rlb::engine
