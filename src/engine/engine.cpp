#include "engine/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/balancer.hpp"
#include "core/metrics.hpp"
#include "core/safe_distribution.hpp"
#include "hashing/hash.hpp"
#include "obs/journal.hpp"
#include "obs/thread_name.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "policies/factory.hpp"
#include "stats/rng.hpp"

namespace rlb::engine {

namespace {

// Internal parsed form of a failure spec; shards derive their local
// schedules from it, parse_failure_spec() builds the global one.
struct FailureSpec {
  enum class Kind { kNone, kScript, kBernoulli, kRack };
  Kind kind = Kind::kNone;
  std::vector<core::ScriptedFailureSchedule::Event> events;  // kScript
  double rate = 0.0;                                         // fail rate
  double mttr = 0.0;
  std::size_t racks = 0;  // kRack
};

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

FailureSpec parse_spec(const std::string& spec, std::size_t servers) {
  FailureSpec out;
  if (spec.empty()) return out;
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) bad_spec(spec, "missing ':' after kind");
  const std::string kind = spec.substr(0, colon);
  const std::string body = spec.substr(colon + 1);
  if (kind == "script") {
    out.kind = FailureSpec::Kind::kScript;
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
      out.events.push_back(event);
    }
    if (out.events.empty()) bad_spec(spec, "script has no events");
  } else if (kind == "bernoulli") {
    out.kind = FailureSpec::Kind::kBernoulli;
    const std::vector<std::string> fields = split(body, ',');
    if (fields.size() != 2) bad_spec(spec, "bernoulli takes fail_rate,mttr");
    out.rate = parse_double(spec, fields[0]);
    out.mttr = parse_double(spec, fields[1]);
    if (out.rate < 0.0 || out.rate > 1.0) bad_spec(spec, "fail_rate not in [0,1]");
    if (out.mttr < 0.0) bad_spec(spec, "mttr must be >= 0");
  } else if (kind == "rack") {
    out.kind = FailureSpec::Kind::kRack;
    const std::vector<std::string> fields = split(body, ',');
    if (fields.size() != 3) bad_spec(spec, "rack takes racks,rack_fail_rate,mttr");
    out.racks = static_cast<std::size_t>(parse_u64(spec, fields[0]));
    out.rate = parse_double(spec, fields[1]);
    out.mttr = parse_double(spec, fields[2]);
    if (out.racks == 0) bad_spec(spec, "racks must be >= 1");
    if (out.rate < 0.0 || out.rate > 1.0) bad_spec(spec, "rack_fail_rate not in [0,1]");
    if (out.mttr < 0.0) bad_spec(spec, "mttr must be >= 0");
  } else {
    bad_spec(spec, "unknown kind (want script/bernoulli/rack)");
  }
  return out;
}

// The per-shard schedule over [base, base+count) local servers.  Scripted
// events are filtered and remapped to local ids; stochastic schedules get
// an independent derived seed per shard (each shard has its own tick
// clock, so one global schedule cannot be shared across workers).  A rack
// spec splits its racks across shards proportionally, at least one each.
std::unique_ptr<core::FailureSchedule> make_shard_schedule(
    const FailureSpec& spec, std::size_t shard, std::size_t base,
    std::size_t count, std::size_t total_servers, std::size_t total_shards,
    std::uint64_t seed) {
  const std::uint64_t shard_seed =
      stats::derive_seed(seed, 0x9f0bull + static_cast<std::uint64_t>(shard));
  switch (spec.kind) {
    case FailureSpec::Kind::kNone:
      return nullptr;
    case FailureSpec::Kind::kScript: {
      std::vector<core::ScriptedFailureSchedule::Event> local;
      for (const auto& event : spec.events) {
        if (event.server < base || event.server >= base + count) continue;
        core::ScriptedFailureSchedule::Event remapped = event;
        remapped.server = event.server - static_cast<core::ServerId>(base);
        local.push_back(remapped);
      }
      if (local.empty()) return nullptr;
      return std::make_unique<core::ScriptedFailureSchedule>(std::move(local));
    }
    case FailureSpec::Kind::kBernoulli:
      return std::make_unique<core::BernoulliFailureSchedule>(
          spec.rate, spec.mttr, shard_seed);
    case FailureSpec::Kind::kRack: {
      // Proportional share of the racks, minimum one per shard.
      std::size_t racks = spec.racks * count / std::max<std::size_t>(total_servers, 1);
      if (racks == 0) racks = 1;
      if (racks > count) racks = count;
      (void)total_shards;
      return std::make_unique<core::RackFailureSchedule>(racks, spec.rate,
                                                         spec.mttr, shard_seed);
    }
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<core::FailureSchedule> parse_failure_spec(
    const std::string& spec, std::size_t servers, std::uint64_t seed) {
  const FailureSpec parsed = parse_spec(spec, servers);
  switch (parsed.kind) {
    case FailureSpec::Kind::kNone:
      return nullptr;
    case FailureSpec::Kind::kScript:
      return std::make_unique<core::ScriptedFailureSchedule>(parsed.events);
    case FailureSpec::Kind::kBernoulli:
      return std::make_unique<core::BernoulliFailureSchedule>(
          parsed.rate, parsed.mttr, seed);
    case FailureSpec::Kind::kRack:
      return std::make_unique<core::RackFailureSchedule>(parsed.racks,
                                                         parsed.rate,
                                                         parsed.mttr, seed);
  }
  return nullptr;
}

namespace {

// One inbound GET waiting to be routed.
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

// One request delivered into the balancer, awaiting its sink event.
struct Pending {
  std::uint64_t conn_token = 0;
  std::uint64_t request_id = 0;
  // Ticks spent in the waiting room before delivery (added to the
  // balancer-reported wait for the end-to-end wait_steps).
  std::uint32_t waited = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t queue_depth = 0;
  obs::TraceContext trace;
};

// A chunk's delivered requests, oldest first, and the last tick that put
// the chunk in a batch (one delivery per chunk per tick).
struct Inflight {
  std::deque<Pending> queue;
  std::uint64_t batched_tick = ~std::uint64_t{0};
};

}  // namespace

struct ServingEngine::Impl {
  // One contiguous server partition with a private balancer over it, and
  // the worker thread that drives its tick.  Implements RequestSink to turn
  // the balancer's chunk-level outcomes back into per-request responses via
  // the per-chunk in-flight FIFO (sound because step() consumes distinct
  // chunks and the balancer's queues are FIFO per chunk delivery order).
  struct Shard final : core::RequestSink {
    Impl* owner = nullptr;
    std::size_t index = 0;
    core::ServerId base = 0;
    std::size_t server_span = 0;
    std::thread thread;

    // Producer side (submit) — guarded by mutex.
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Waiting> inbound;
    bool stopping = false;
    // Set by a submitter whose inline ticks stopped on a tick without
    // progress (a frozen queue): the worker takes the tick clock back.
    bool handback = false;

    // Tick state — guarded by tick_mu (lock order: tick_mu, then mutex).
    // Whoever runs tick() holds it: the worker, or a submit_batch() caller
    // of a one-shard, unpaced engine.
    std::mutex tick_mu;
    std::unique_ptr<core::LoadBalancer> balancer;
    std::unique_ptr<core::FailureSchedule> schedule;
    core::Metrics metrics;
    std::deque<Waiting> waiting;
    std::unordered_map<core::ChunkId, Inflight> inflight;
    std::vector<std::uint8_t> up_state;
    std::uint64_t tick_clock = 0;  // ticks run; the failure schedule's clock
    std::uint64_t balancer_backlog = 0;  // as of the end of the last tick
    // Shed journal rate limit: at most one kShed event per shard per
    // ~100 ms, so an overload storm reports without flooding the ring.
    std::uint64_t last_shed_journal_ns = 0;
    // Per-tick scratch, cleared as it is reused: a warm tick allocates
    // none of it.
    std::vector<Waiting> incoming;
    std::vector<Waiting> deferred;  // duplicate chunks -> next tick
    std::vector<core::ChunkId> batch;
    std::vector<core::FailureTransition> transitions;
    std::vector<std::uint32_t> backlog_scratch;

    // Live counters (the tick writes, snapshot() reads).  The STATS plane
    // reads these directly, so they stay live with obs compiled out.
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
    std::atomic<std::uint64_t> inbound_depth{0};
    std::atomic<std::uint64_t> waiting_depth{0};
    std::atomic<std::uint64_t> inflight_count{0};

    // Wire-to-response latency (us), the histogram STATS ships.
    obs::AtomicLogHistogram latency;

    // Queue-wait decomposition (v3 stats): submit_batch() to drain-tick
    // delivery — the MPSC queue + waiting-room share of the latency above.
    obs::AtomicLogHistogram queue_wait;

    // Drain-tick cost (v7 stats), one sample per tick: step() nanoseconds
    // and the distinct chunks of each non-empty batch.
    obs::AtomicLogHistogram step_hist;
    obs::AtomicLogHistogram batch_hist;

    // Per-server backlog, refreshed once per tick from the balancer.  The
    // scrape-side safe-set monitor merges these across shards to rebuild
    // the global backlog vector without touching any worker lock.
    std::unique_ptr<std::atomic<std::uint32_t>[]> backlog_by_server;

    void record_latency(std::uint64_t submit_ns);

    void record_queue_wait(std::uint64_t wait_ns);

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
      span.shard = static_cast<std::uint32_t>(index);
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
      response.server = base + server;
      response.wait_steps =
          pending.waited + static_cast<std::uint32_t>(wait_steps);
      completed.fetch_add(1, std::memory_order_relaxed);
      owner->win_latency.add(kWinCompleted);
      record_latency(pending.submit_ns);
      record_span(pending.trace, pending.submit_ns, pending.queue_depth,
                  kEngineOk);
      owner->respond(response);
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
          rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
          break;
        case core::RejectCause::kAllReplicasDown:
          rejected_all_down.fetch_add(1, std::memory_order_relaxed);
          break;
        case core::RejectCause::kQueueDrop:
          rejected_drop.fetch_add(1, std::memory_order_relaxed);
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
      owner->win_latency.add(kWinRejected);
      record_latency(pending.submit_ns);
      record_span(pending.trace, pending.submit_ns, pending.queue_depth,
                  kEngineReject);
      owner->respond(response);
    }

    bool pop_pending(core::ChunkId x, Pending& out) {
      const auto it = inflight.find(x);
      if (it == inflight.end() || it->second.queue.empty()) {
        // A sink event with no matching delivery would mean the balancer
        // broke the one-event-per-request contract; count, don't crash.
        sink_orphans.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      out = it->second.queue.front();
      it->second.queue.pop_front();
      if (it->second.queue.empty()) inflight.erase(it);
      inflight_count.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }

    struct TickResult {
      // The tick took inbound requests, routed a batch or shrank the
      // balancer backlog.
      bool progressed = false;
      // Nothing is left in the waiting room or the balancer's queues.
      bool settled = false;
    };

    /// The worker thread: waits for work, paces, and drains at shutdown;
    /// every tick it runs is tick().
    void run();
    /// One drain tick, the paper's step.  Caller holds tick_mu.
    TickResult tick();
    /// Tick on the calling thread until the shard settles, or until a tick
    /// makes no progress (a frozen queue), which hands the tick clock back
    /// to the worker.  False when another thread holds the tick.
    bool tick_inline();
    void apply_failures();
    std::size_t build_batch();
  };

  EngineConfig config;
  ResponseFn on_response;
  std::unique_ptr<store::KeyMapper> mapper;
  std::uint64_t shard_hash_seed = 0;
  std::size_t max_batch = 0;
  std::size_t waiting_limit = 0;
  // One shard, no pacing: submit_batch() callers drive the tick.
  bool inline_tick = false;
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<bool> accepting{false};
  // Repair plane (StatsSnapshot v4): the placement epoch last heard on a
  // router heartbeat, and this backend's migration traffic totals.
  std::atomic<std::uint64_t> placement_epoch{0};
  std::atomic<std::uint64_t> migrations_in{0};
  std::atomic<std::uint64_t> migrations_out{0};
  std::atomic<std::uint64_t> migration_bytes_in{0};
  std::atomic<std::uint64_t> migration_bytes_out{0};
  std::atomic<std::uint64_t> slices_corrupt{0};
  std::uint64_t start_ns = 0;  // obs::now_ns() at start(); 0 until then
  bool started = false;
  bool stopped = false;

  // Health plane (StatsSnapshot v5): trailing-window latency/queue-wait
  // deltas.  win_latency's counter slots double as the windowed
  // submitted/completed/rejected counters.
  static constexpr std::size_t kWinSubmitted = 0;
  static constexpr std::size_t kWinCompleted = 1;
  static constexpr std::size_t kWinRejected = 2;
  obs::WindowedAggregator win_latency;
  obs::WindowedAggregator win_queue_wait;
  // Safe-set monitor (Def 3.2).  The shard ticks evaluate the invariant
  // from the backlog_by_server samples they refresh, at most once per
  // kSafeCheckNs (the tick whose CAS claims the deadline does it), and
  // journal one event per flip.  snapshot() only reports, so what
  // reaches the journal does not depend on who scrapes, or when.
  static constexpr std::uint64_t kSafeCheckNs = 100'000'000;
  std::atomic<std::uint64_t> safe_check_due_ns{0};
  std::atomic<bool> safe_violated{false};

  /// The per-level view over the whole m-server backlog vector: the
  /// per-shard samples splice back together, so the m/2^j bounds keep
  /// their whole-cluster meaning even though each shard balances a
  /// partition.
  std::vector<core::SafeSetLevel> safe_set_levels() const {
    std::vector<std::uint32_t> backlogs;
    backlogs.reserve(config.servers);
    for (const auto& shard : shards) {
      for (std::size_t s = 0; s < shard->server_span; ++s) {
        backlogs.push_back(
            shard->backlog_by_server[s].load(std::memory_order_relaxed));
      }
    }
    return core::safe_set_levels(backlogs);
  }

  /// Called by every shard tick (and by an idle worker while violated);
  /// journals the invariant's edges.  Ratio travels in parts-per-million
  /// (the journal carries integers).
  void check_safe_set() {
    const std::uint64_t now = obs::now_ns();
    std::uint64_t due = safe_check_due_ns.load(std::memory_order_relaxed);
    if (now < due || !safe_check_due_ns.compare_exchange_strong(
                         due, now + kSafeCheckNs, std::memory_order_relaxed)) {
      return;
    }
    std::uint32_t violated_level = 0;
    double worst_ratio = 0.0;
    for (const core::SafeSetLevel& level : safe_set_levels()) {
      worst_ratio = std::max(worst_ratio, level.ratio);
      if (violated_level == 0 && level.ratio > 1.0) {
        violated_level = level.level;
      }
    }
    const bool violated_now = violated_level != 0;
    if (violated_now !=
        safe_violated.exchange(violated_now, std::memory_order_relaxed)) {
      obs::Journal::instance().append(
          violated_now ? obs::JournalType::kSafeSetViolated
                       : obs::JournalType::kSafeSetRecovered,
          violated_level, static_cast<std::uint64_t>(worst_ratio * 1e6));
    }
  }

  void respond(const EngineResponse& response) { on_response(response); }
};

void ServingEngine::Impl::Shard::record_latency(std::uint64_t submit_ns) {
  if (submit_ns == 0) return;
  const std::uint64_t now = obs::now_ns();
  const std::uint64_t us = now > submit_ns ? (now - submit_ns) / 1000 : 0;
  latency.record(us);
  owner->win_latency.record(us, now);
}

void ServingEngine::Impl::Shard::record_queue_wait(std::uint64_t wait_ns) {
  queue_wait.record(wait_ns / 1000);
  owner->win_queue_wait.record(wait_ns / 1000);
}

void ServingEngine::Impl::Shard::apply_failures() {
  if (!schedule) return;
  transitions.clear();
  schedule->transitions(static_cast<core::Time>(tick_clock), up_state,
                        transitions);
  for (const auto& transition : transitions) {
    if (transition.server >= server_span) continue;
    const bool was_up = up_state[transition.server] != 0;
    if (was_up == transition.up) continue;  // no-op transition
    up_state[transition.server] = transition.up ? 1 : 0;
    // A crash the schedule never undoes would freeze its queue forever:
    // reject those requests now so every client still gets an answer.
    const bool dump = owner->config.dump_queue_on_crash ||
                      !schedule->recovers(transition.server,
                                          static_cast<core::Time>(tick_clock));
    balancer->set_server_up(transition.server, transition.up, dump, metrics);
    if (transition.up) {
      recoveries.fetch_add(1, std::memory_order_relaxed);
      down.fetch_sub(1, std::memory_order_relaxed);
    } else {
      crashes.fetch_add(1, std::memory_order_relaxed);
      down.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::size_t ServingEngine::Impl::Shard::build_batch() {
  batch.clear();
  deferred.clear();
  // One clock read covers every delivery this tick; queue wait is
  // submit_batch() -> here (MPSC queue + waiting room).
  const std::uint64_t deliver_ns = waiting.empty() ? 0 : obs::now_ns();
  while (!waiting.empty() && batch.size() < owner->max_batch) {
    Waiting request = waiting.front();
    waiting.pop_front();
    Inflight& entry = inflight[request.chunk];
    if (entry.batched_tick == tick_clock) {
      deferred.push_back(request);
      continue;
    }
    entry.batched_tick = tick_clock;
    batch.push_back(request.chunk);
    Pending pending;
    pending.conn_token = request.conn_token;
    pending.request_id = request.request_id;
    pending.waited =
        static_cast<std::uint32_t>(tick_clock - request.enqueue_tick);
    pending.submit_ns = request.submit_ns;
    pending.queue_depth = request.queue_depth;
    pending.trace = request.trace;
    if (request.submit_ns != 0 && deliver_ns > request.submit_ns) {
      record_queue_wait(deliver_ns - request.submit_ns);
    }
    entry.queue.push_back(pending);
    inflight_count.fetch_add(1, std::memory_order_relaxed);
  }
  // Deferred requests keep their arrival-order priority.
  waiting.insert(waiting.begin(), deferred.begin(), deferred.end());
  return batch.size();
}

ServingEngine::Impl::Shard::TickResult ServingEngine::Impl::Shard::tick() {
  std::size_t drained = 0;
  {
    std::lock_guard lock(mutex);
    incoming.swap(inbound);
    drained = incoming.size();
  }
  if (drained > 0) {
    inbound_depth.fetch_sub(drained, std::memory_order_relaxed);
  }

  // Admission control: the waiting room bounds pre-routing memory; an
  // overflowing arrival is the engine's own rejection, before the policy
  // ever sees it.
  for (const Waiting& request : incoming) {
    if (waiting.size() >= owner->waiting_limit) {
      const std::uint64_t sheds =
          rejected_admission.fetch_add(1, std::memory_order_relaxed) + 1;
      owner->win_latency.add(Impl::kWinRejected);
      const std::uint64_t shed_now = obs::now_ns();
      if (shed_now - last_shed_journal_ns > 100'000'000) {
        last_shed_journal_ns = shed_now;
        obs::Journal::instance().append(obs::JournalType::kShed, index, sheds);
      }
      EngineResponse response;
      response.conn_token = request.conn_token;
      response.request_id = request.request_id;
      response.status = kEngineReject;
      record_latency(request.submit_ns);
      record_span(request.trace, request.submit_ns, waiting.size(),
                  kEngineReject);
      owner->respond(response);
      continue;
    }
    Waiting admitted = request;
    admitted.enqueue_tick = tick_clock;
    admitted.queue_depth = waiting.size();
    waiting.push_back(admitted);
  }
  incoming.clear();

  apply_failures();

  const std::size_t batch_size = build_batch();
  waiting_depth.store(waiting.size(), std::memory_order_relaxed);
  if (batch_size > 0 || balancer_backlog > 0) {
    const std::uint64_t step_start = obs::now_ns();
    balancer->step(static_cast<core::Time>(tick_clock), batch, metrics);
    const std::uint64_t step_time = obs::now_ns() - step_start;
    step_ns.fetch_add(step_time, std::memory_order_relaxed);
    step_hist.record(step_time);
  }
  if (batch_size > 0) {
    batch_hist.record(batch_size);
    batches.fetch_add(1, std::memory_order_relaxed);
    batched_chunks.fetch_add(batch_size, std::memory_order_relaxed);
    std::uint64_t prev = max_batch_seen.load(std::memory_order_relaxed);
    while (batch_size > prev &&
           !max_batch_seen.compare_exchange_weak(
               prev, batch_size, std::memory_order_relaxed)) {
    }
  }
  ++tick_clock;
  ticks.fetch_add(1, std::memory_order_relaxed);

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
  owner->check_safe_set();

  TickResult result;
  result.progressed =
      drained > 0 || batch_size > 0 || balancer_backlog < backlog_before;
  result.settled = waiting.empty() && balancer_backlog == 0;
  return result;
}

bool ServingEngine::Impl::Shard::tick_inline() {
  std::unique_lock tick_lock(tick_mu, std::try_to_lock);
  if (!tick_lock.owns_lock()) return false;
  for (;;) {
    const TickResult result = tick();
    std::lock_guard lock(mutex);
    if (result.settled && inbound.empty()) return true;
    if (!result.progressed) {
      handback = true;
      cv.notify_one();
      return true;
    }
  }
}

void ServingEngine::Impl::Shard::run() {
  const std::uint64_t interval_us = owner->config.tick_interval_us;
  auto next_tick = std::chrono::steady_clock::now();
  // What the last tick this thread ran left behind.  A submitter may tick
  // in between: if it settles the shard, this thread runs one empty tick;
  // if it leaves work, it sets handback.
  bool settled = true;

  for (;;) {
    bool shutting_down = false;
    {
      std::unique_lock lock(mutex);
      const auto woken = [&] {
        return !inbound.empty() || stopping || handback;
      };
      if (settled && !woken()) {
        if (!owner->safe_violated.load(std::memory_order_relaxed)) {
          cv.wait(lock, woken);
        } else if (!cv.wait_for(lock,
                                std::chrono::nanoseconds(Impl::kSafeCheckNs),
                                woken)) {
          // Idle while the invariant is last known violated: come back
          // when the next evaluation is due, so the recovery is journaled
          // even if no request ever arrives.
          lock.unlock();
          owner->check_safe_set();
          continue;
        }
      }
      handback = false;
      shutting_down = stopping;
    }

    {
      std::lock_guard tick_lock(tick_mu);
      const TickResult result = tick();
      settled = result.settled;
      if (shutting_down) {
        bool inbound_empty = false;
        {
          std::lock_guard lock(mutex);
          inbound_empty = inbound.empty();
        }
        if (result.settled && inbound_empty) break;
        if (!result.progressed && inbound_empty) {
          // With every remaining server down (or a policy that cannot
          // drain), the backlog freezes: flush rejects the residue so
          // every client still gets an answer before the thread exits.
          balancer->flush(metrics);
          for (auto& [chunk, entry] : inflight) {
            // Anything the balancer could not attribute (sink unsupported
            // paths) is answered as rejected rather than leaked: a drain
            // flush, so it counts as a drop.
            for (const Pending& pending : entry.queue) {
              rejected_drop.fetch_add(1, std::memory_order_relaxed);
              reject_pending(pending);
            }
            inflight_count.fetch_sub(entry.queue.size(),
                                     std::memory_order_relaxed);
          }
          inflight.clear();
          break;
        }
        continue;  // keep draining as fast as possible, skip pacing
      }
    }

    if (interval_us > 0) {
      next_tick += std::chrono::microseconds(interval_us);
      const auto now = std::chrono::steady_clock::now();
      if (next_tick > now) {
        std::this_thread::sleep_until(next_tick);
      } else {
        next_tick = now;  // behind schedule: don't accumulate debt
      }
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
    if (config.shards == 0 || config.shards > config.servers) {
      throw std::invalid_argument(
          "ServingEngine: shards must be in [1, servers]");
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
    impl_->shard_hash_seed = stats::derive_seed(config.seed, 0x51a2dull);

    const FailureSpec failure_spec =
        parse_spec(config.failure_spec, config.servers);

    const std::size_t shard_count = config.shards;
    const std::size_t per_shard = config.servers / shard_count;
    const std::size_t remainder = config.servers % shard_count;
    core::ServerId base = 0;
    for (std::size_t i = 0; i < shard_count; ++i) {
      const std::size_t span = per_shard + (i < remainder ? 1 : 0);
      auto shard = std::make_unique<Impl::Shard>();
      shard->owner = impl_;
      shard->index = i;
      shard->base = base;
      shard->server_span = span;
      policies::PolicyConfig policy_config;
      policy_config.servers = span;
      policy_config.replication = config.replication;
      policy_config.processing_rate = config.processing_rate;
      policy_config.queue_capacity = config.queue_capacity;
      policy_config.seed =
          stats::derive_seed(config.seed, 1 + static_cast<std::uint64_t>(i));
      shard->balancer = policies::make_policy(config.policy, policy_config);
      if (!shard->balancer->set_request_sink(shard.get())) {
        throw std::invalid_argument(
            "ServingEngine: policy '" + config.policy +
            "' cannot report per-request outcomes (no RequestSink support)");
      }
      shard->schedule = make_shard_schedule(failure_spec, i, base, span,
                                            config.servers, shard_count,
                                            config.seed);
      shard->up_state.assign(span, 1);
      shard->backlog_by_server =
          std::make_unique<std::atomic<std::uint32_t>[]>(span);
      for (std::size_t s = 0; s < span; ++s) {
        shard->backlog_by_server[s].store(0, std::memory_order_relaxed);
      }
      base += static_cast<core::ServerId>(span);
      impl_->shards.push_back(std::move(shard));
    }

    impl_->max_batch = config.max_batch;
    if (impl_->max_batch == 0) {
      impl_->max_batch = per_shard + (remainder ? 1 : 0);
    }
    impl_->waiting_limit =
        config.waiting_limit ? config.waiting_limit : 8 * impl_->max_batch;
    impl_->inline_tick = shard_count == 1 && config.tick_interval_us == 0;
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
  for (std::size_t i = 0; i < impl_->shards.size(); ++i) {
    impl_->shards[i]->thread = std::thread([s = impl_->shards[i].get(), i] {
      obs::set_thread_name("rlb-shard" + std::to_string(i));
      s->run();
    });
  }
}

void ServingEngine::stop() {
  if (!impl_->started || impl_->stopped) return;
  impl_->stopped = true;
  impl_->accepting.store(false, std::memory_order_release);
  for (auto& shard : impl_->shards) {
    {
      std::lock_guard lock(shard->mutex);
      shard->stopping = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : impl_->shards) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void ServingEngine::submit_batch(const SubmitItem* items, std::size_t count,
                                 std::vector<std::size_t>& rejected) {
  if (count == 0) return;
  if (!impl_->accepting.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < count; ++i) rejected.push_back(i);
    return;
  }
  const std::size_t nshards = impl_->shards.size();
  // One timestamp for the whole batch: the items arrived in the same
  // server wakeup, so they share a wire arrival time.
  const std::uint64_t now = obs::now_ns();
  struct BatchEntry {
    Waiting request;
    std::size_t index;
  };
  // Scratch group buffers live across calls (the server's loop thread is
  // the steady-state caller): zero allocations once warm.
  thread_local std::vector<std::vector<BatchEntry>> groups;
  if (groups.size() < nshards) groups.resize(nshards);
  for (std::size_t i = 0; i < count; ++i) {
    const SubmitItem& item = items[i];
    Waiting request;
    request.conn_token = item.conn_token;
    request.request_id = item.request_id;
    request.chunk = impl_->mapper->chunk_of(item.key);
    request.submit_ns = now;
    request.trace = item.trace;
    const std::size_t s = hashing::hash_to_bucket(
        request.chunk, impl_->shard_hash_seed, nshards);
    groups[s].push_back(BatchEntry{request, i});
  }
  for (std::size_t s = 0; s < nshards; ++s) {
    if (groups[s].empty()) continue;
    Impl::Shard& shard = *impl_->shards[s];
    const std::size_t n = groups[s].size();
    bool was_empty = false;
    bool admitted = true;
    {
      std::lock_guard lock(shard.mutex);
      if (shard.stopping) {
        admitted = false;
      } else {
        was_empty = shard.inbound.empty();
        for (const BatchEntry& entry : groups[s]) {
          shard.inbound.push_back(entry.request);
        }
      }
    }
    if (admitted) {
      shard.submitted.fetch_add(n, std::memory_order_relaxed);
      shard.inbound_depth.fetch_add(n, std::memory_order_relaxed);
      impl_->win_latency.add(Impl::kWinSubmitted, n, now);
      // A caller that loses the tick to another thread leaves its items to
      // that thread's next tick, or wakes the worker for the first items
      // of an empty queue (the holder may be past its last look at it).
      const bool ticked = impl_->inline_tick && shard.tick_inline();
      if (!ticked && was_empty) shard.cv.notify_one();
    } else {
      for (const BatchEntry& entry : groups[s]) {
        rejected.push_back(entry.index);
      }
    }
    groups[s].clear();
  }
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
  out.shard_count = static_cast<std::uint32_t>(impl_->shards.size());

  for (const auto& shard : impl_->shards) {
    net::ShardStats row;
    row.shard = static_cast<std::uint32_t>(shard->index);
    row.submitted = shard->submitted.load(std::memory_order_relaxed);
    row.completed = shard->completed.load(std::memory_order_relaxed);
    row.rejected_queue_full =
        shard->rejected_queue_full.load(std::memory_order_relaxed);
    row.rejected_all_down =
        shard->rejected_all_down.load(std::memory_order_relaxed);
    row.rejected_admission =
        shard->rejected_admission.load(std::memory_order_relaxed);
    row.rejected_drop = shard->rejected_drop.load(std::memory_order_relaxed);
    row.ticks = shard->ticks.load(std::memory_order_relaxed);
    row.batches = shard->batches.load(std::memory_order_relaxed);
    row.batched_chunks = shard->batched_chunks.load(std::memory_order_relaxed);
    row.max_batch = shard->max_batch_seen.load(std::memory_order_relaxed);
    row.inbound_depth = shard->inbound_depth.load(std::memory_order_relaxed);
    row.waiting_depth = shard->waiting_depth.load(std::memory_order_relaxed);
    row.inflight = shard->inflight_count.load(std::memory_order_relaxed);
    row.backlog = shard->backlog.load(std::memory_order_relaxed);
    row.servers_down = shard->down.load(std::memory_order_relaxed);
    row.step_ns = shard->step_ns.load(std::memory_order_relaxed);
    row.sink_orphans = shard->sink_orphans.load(std::memory_order_relaxed);
    row.crashes = shard->crashes.load(std::memory_order_relaxed);
    row.recoveries = shard->recoveries.load(std::memory_order_relaxed);
    out.shards.push_back(row);

    shard->latency.merge_into(out.latency);
    shard->queue_wait.merge_into(out.queue_wait);
    shard->step_hist.merge_into(out.step_ns);
    shard->batch_hist.merge_into(out.batch_size);
  }

  // Safe-set invariant monitor (Def 3.2).  Reporting only: the shard
  // workers journal its edges (Impl::check_safe_set).
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

std::size_t ServingEngine::shard_count() const { return impl_->shards.size(); }

const EngineConfig& ServingEngine::config() const { return impl_->config; }

core::ChunkId ServingEngine::chunk_of(store::KeyId key) const {
  return impl_->mapper->chunk_of(key);
}

std::size_t ServingEngine::shard_of_chunk(core::ChunkId chunk) const {
  return static_cast<std::size_t>(hashing::hash_to_bucket(
      chunk, impl_->shard_hash_seed, impl_->shards.size()));
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
