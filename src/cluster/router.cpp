#include "cluster/router.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/placement.hpp"
#include "core/placement_epoch.hpp"
#include "core/types.hpp"
#include "hashing/hash.hpp"
#include "net/client.hpp"
#include "net/events_wire.hpp"
#include "net/reactor.hpp"
#include "net/server.hpp"
#include "net/stats.hpp"
#include "net/upstream.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "obs/thread_name.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "repair/coordinator.hpp"

namespace rlb::cluster {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t bit(int backend) { return 1ULL << static_cast<unsigned>(backend); }

}  // namespace

std::vector<BackendEndpoint> parse_backend_list(const std::string& spec) {
  std::vector<BackendEndpoint> backends;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(begin, end - begin);
    if (item.empty()) {
      throw std::invalid_argument("backend list: empty entry in '" + spec +
                                  "'");
    }
    BackendEndpoint ep;
    const std::size_t colon = item.rfind(':');
    const std::string port_str =
        colon == std::string::npos ? item : item.substr(colon + 1);
    if (colon != std::string::npos) ep.host = item.substr(0, colon);
    char* parse_end = nullptr;
    const unsigned long port = std::strtoul(port_str.c_str(), &parse_end, 10);
    if (port_str.empty() || *parse_end != '\0' || port == 0 || port > 65535 ||
        ep.host.empty()) {
      throw std::invalid_argument("backend list: bad endpoint '" + item + "'");
    }
    ep.port = static_cast<std::uint16_t>(port);
    backends.push_back(std::move(ep));
    begin = end + 1;
    if (end == spec.size()) break;
  }
  if (backends.empty()) {
    throw std::invalid_argument("backend list: no endpoints in '" + spec + "'");
  }
  return backends;
}

struct Router::Impl {
  explicit Impl(RouterConfig cfg)
      : config(std::move(cfg)),
        replication(resolve_replication(config)),
        placement(config.backends.size(), replication, config.seed),
        membership(config.backends.size(), config.membership),
        server(net::ServerConfig{config.host, config.port,
                                 config.max_connections},
               [this](std::uint64_t token, const net::RequestMsg& request) {
                 handle_request(token, request, obs::now_ns());
               }),
        per_backend(config.backends.size()) {
    if (config.backends.size() > 64) {
      throw std::invalid_argument("Router: at most 64 backends (tried mask)");
    }
    if (config.chunks == 0) {
      throw std::invalid_argument("Router: chunks must be positive");
    }
    // Skewed-start hook: benches and the epoch-cutover tests inject a
    // pre-built remap history before any traffic or repair runs.
    for (const core::PlacementDelta& delta : config.initial_deltas) {
      if (!placement.apply(delta)) {
        throw std::invalid_argument("Router: inapplicable initial delta");
      }
    }
    if (config.repair.enabled) {
      std::vector<repair::RepairEndpoint> repair_backends;
      repair_backends.reserve(config.backends.size());
      for (const BackendEndpoint& ep : config.backends) {
        repair_backends.push_back(repair::RepairEndpoint{ep.host, ep.port});
      }
      repair::RepairCoordinator::Hooks hooks;
      hooks.is_live = [this](std::uint32_t id) {
        return membership.is_live(id);
      };
      hooks.load = [this](std::uint32_t id) {
        return membership.load_estimate(id);
      };
      coordinator = std::make_unique<repair::RepairCoordinator>(
          config.repair, std::move(repair_backends), config.chunks, placement,
          std::move(hooks));
    }
    // Subscribed before any prober starts (start() launches them), as
    // Membership::subscribe requires.  The journal records every health
    // transition whether or not repair is on; the coordinator is only
    // notified when it exists.
    membership.subscribe([this](std::uint32_t id, BackendHealth,
                                BackendHealth to) {
      switch (to) {
        case BackendHealth::kDown:
          obs::Journal::instance().append(obs::JournalType::kMemberDown, id);
          if (coordinator) coordinator->on_backend_down(id);
          break;
        case BackendHealth::kProbation:
          obs::Journal::instance().append(obs::JournalType::kMemberProbation,
                                          id);
          break;
        case BackendHealth::kUp:
          obs::Journal::instance().append(obs::JournalType::kMemberUp, id);
          if (coordinator) coordinator->on_backend_up(id);
          break;
      }
    });
    // Batched data plane: forwards only queue their frames; the reactor
    // writes each touched upstream once at the end of the loop pass (one
    // syscall per backend per pass, not per request).  One clock read
    // stamps every hop the batch sends.
    server.set_request_batch_handler(
        [this](const net::ServerRequest* batch, std::size_t count) {
          const std::uint64_t now = obs::now_ns();
          for (std::size_t i = 0; i < count; ++i) {
            handle_request(batch[i].conn_token, batch[i].msg, now);
          }
        });
    server.set_stats_handler(
        [this](std::uint64_t token, const net::StatsRequestMsg&) {
          server.send_stats(token, snapshot());
        });
    server.set_events_handler(
        [this](std::uint64_t token, const net::EventsRequestMsg& req) {
          server.send_events(token, net::make_events_snapshot(
                                        net::NodeRole::kRouter, 0,
                                        req.cursor, req.ring()));
        });
  }

  static unsigned resolve_replication(const RouterConfig& cfg) {
    if (cfg.backends.empty()) {
      throw std::invalid_argument("Router: no backends configured");
    }
    unsigned d = cfg.replication == 0 ? 1 : cfg.replication;
    if (d > cfg.backends.size()) {
      d = static_cast<unsigned>(cfg.backends.size());
    }
    if (d > core::kMaxReplication) d = core::kMaxReplication;
    return d;
  }

  // ---- data plane ----------------------------------------------------
  //
  // Everything on the request path runs on the NetServer's reactor loop:
  // reading client requests, forwarding hops, reading backend responses,
  // relaying them, and the hop-timeout sweep (a reactor timer).  So the
  // in-flight hop table and the placement View are loop-private and take
  // no lock.  The loop is also the only writer of the counters, the
  // per-backend attribution, the hop-RTT histograms and membership's
  // in-flight gauges: scrapes read them from other threads, so they stay
  // atomics, but each write is a relaxed load and store (obs::bump), no
  // locked read-modify-write.  Each client request batch, sweep, drop or
  // relay reads the clock once and passes that `now` down.  `mu` below
  // guards only the control plane: the running flag and the heartbeat
  // sleep-wait.
  //
  // A hop is published to the table only once its frame is queued, and
  // exactly one party retires it — the response handler, the drop
  // handler, the timeout sweep, or stop().  Whoever retires it owns its
  // continuation (relay, re-forward, or reject); a response for a hop no
  // longer in the table is late.

  /// Router-side per-backend attribution, so the snapshot's per-backend
  /// rows sum to the router totals exactly once.  Client-facing rejects
  /// are attributed to the most informative backend: the first candidate
  /// (never forwarded), the dropped backend, or the last backend tried.
  struct PerBackend {
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> relayed_ok{0};
    std::atomic<std::uint64_t> relayed_reject{0};
    std::atomic<std::uint64_t> relayed_error{0};
    std::atomic<std::uint64_t> rejected_down{0};
    std::atomic<std::uint64_t> rejected_timeout{0};
  };

  /// RouterStats with each field atomic (written by the loop alone);
  /// aggregated into the plain struct by Router::stats().
  struct Counters {
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> relayed_ok{0};
    std::atomic<std::uint64_t> relayed_reject{0};
    std::atomic<std::uint64_t> relayed_error{0};
    std::atomic<std::uint64_t> rejected_upstream_down{0};
    std::atomic<std::uint64_t> rejected_upstream_timeout{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> late_responses{0};
    std::atomic<std::uint64_t> backend_drops{0};
    std::atomic<std::uint64_t> send_failovers{0};
  };

  struct Pending {
    std::uint64_t conn_token = 0;
    std::uint64_t client_id = 0;
    std::uint64_t key = 0;
    core::ChunkId chunk = 0;
    unsigned attempts = 0;       // forward attempts spent so far
    std::uint64_t tried = 0;     // bitmask of backend indices tried
    int backend = -1;            // current attempt's backend
    bool live = false;           // in flight (not yet retired)
    // The clock read of the batch, sweep or drop that sent the hop (never
    // earlier than an older hop's); anchors the hop RTT histogram, the
    // router.hop span and the hop's deadline (send_ns + the one timeout).
    std::uint64_t send_ns = 0;
    // Distributed tracing: the client's inbound context plus the
    // router.request span (one per client request, survives retries) and
    // the router.hop span (one per forward attempt).  Zero ids when the
    // request is untraced or span recording is off.
    obs::TraceContext trace;
    std::uint64_t request_span_id = 0;
    std::uint64_t request_start_ns = 0;
    std::uint64_t hop_span_id = 0;
  };

  /// The in-flight hop table, keyed by hop id.  Hop ids are handed out in
  /// order and every hop shares one timeout, so deadlines rise with the
  /// id: the ring holds ids [head, tail), hops retire out of order (their
  /// slot goes dead), and the head — and the timeout sweep — only ever
  /// advance past the oldest ids.  Grows (doubling) when full.
  class HopRing {
   public:
    HopRing() : slots_(1024) {}

    /// The id the next push() will get.
    std::uint64_t next_id() const { return tail_; }

    void push(const Pending& entry) {
      if (tail_ - head_ == slots_.size()) grow();
      Pending& slot = at(tail_++);
      slot = entry;
      slot.live = true;
      ++live_;
    }

    /// The live hop `hop`, or nullptr when it is retired or unknown.
    Pending* find(std::uint64_t hop) {
      if (hop < head_ || hop >= tail_) return nullptr;
      Pending& slot = at(hop);
      return slot.live ? &slot : nullptr;
    }

    void retire(std::uint64_t hop) {
      at(hop).live = false;
      --live_;
      while (head_ < tail_ && !at(head_).live) ++head_;
    }

    /// Retire the oldest live hop into `out` if it was sent at or before
    /// `sent_by_ns`.
    bool retire_oldest_sent_by(std::uint64_t sent_by_ns, Pending& out) {
      if (head_ == tail_ || at(head_).send_ns > sent_by_ns) return false;
      out = at(head_);
      retire(head_);
      return true;
    }

    /// Retire every live hop matching `pred`, appending it to `out`.
    template <typename Pred>
    void retire_if(Pred pred, std::vector<Pending>& out) {
      for (std::uint64_t hop = head_; hop < tail_; ++hop) {
        Pending& slot = at(hop);
        if (slot.live && pred(slot)) {
          out.push_back(slot);
          slot.live = false;
          --live_;
        }
      }
      while (head_ < tail_ && !at(head_).live) ++head_;
    }

    std::size_t live() const { return live_; }

   private:
    Pending& at(std::uint64_t hop) { return slots_[hop & (slots_.size() - 1)]; }

    void grow() {
      std::vector<Pending> bigger(slots_.size() * 2);
      for (std::uint64_t hop = head_; hop < tail_; ++hop) {
        bigger[hop & (bigger.size() - 1)] = at(hop);
      }
      slots_.swap(bigger);
    }

    std::vector<Pending> slots_;  // power-of-two size
    std::uint64_t head_ = 1;      // hop ids start at 1
    std::uint64_t tail_ = 1;
    std::size_t live_ = 0;
  };

  /// Land one router span in the flight recorder (no-op when the request
  /// is untraced, `span_id` was never allocated, or obs is compiled out).
  void record_span(const obs::TraceContext& trace, const char* name,
                   std::uint64_t span_id, std::uint64_t parent_span_id,
                   std::uint64_t start_ns, std::uint8_t cause,
                   std::uint32_t backend, std::uint64_t depth) {
#if !defined(RLB_OBS_DISABLED)
    if (span_id == 0 || !trace.valid() || !obs::span_recording_enabled()) {
      return;
    }
    obs::Span span;
    span.trace_id = trace.trace_id;
    span.span_id = span_id;
    span.parent_span_id = parent_span_id;
    span.start_ns = start_ns;
    span.end_ns = obs::now_ns();
    span.queue_depth = depth;
    span.name = name;
    span.shard = backend;
    span.tid = obs::thread_index();
    span.flags = trace.flags;
    span.cause = cause;
    obs::SpanRecorder::instance().record(span);
#else
    (void)trace;
    (void)name;
    (void)span_id;
    (void)parent_span_id;
    (void)start_ns;
    (void)cause;
    (void)backend;
    (void)depth;
#endif
  }

  /// The hop span's parent: the router.request span when one exists, else
  /// the client's own parent (obs-disabled router still forwards context).
  static std::uint64_t hop_parent(const Pending& entry) {
    return entry.request_span_id != 0 ? entry.request_span_id
                                      : entry.trace.parent_span_id;
  }

  enum class Forward : std::uint8_t { kSent, kNoCandidate, kBudgetSpent };

  /// Forward (or re-forward) one request.  On kSent the hop's frame is
  /// queued on its backend's connection (it leaves with the loop pass's
  /// end-of-pass write) and the hop is in the table, stamped as sent at
  /// `now` (the caller's one clock read for its batch or sweep).
  Forward forward(std::uint64_t conn_token, std::uint64_t client_id,
                  std::uint64_t key, core::ChunkId chunk, unsigned attempts,
                  std::uint64_t tried, std::uint64_t now,
                  const obs::TraceContext& trace = {},
                  std::uint64_t request_span_id = 0,
                  std::uint64_t request_start_ns = 0) {
    if (shutting_down) return Forward::kNoCandidate;
    const unsigned budget =
        config.max_attempts == 0 ? replication : config.max_attempts;
    const core::ChoiceList candidates = placement_view.choices(chunk);
    while (attempts < budget) {
      const int backend =
          membership.pick(candidates.begin(), candidates.size(), tried);
      if (backend < 0) return Forward::kNoCandidate;
      // Retry escalation: a re-forward means something already went wrong
      // for this request, so force the sampled bit on the attempt's
      // context.  The retry hop and the engine span it reaches survive the
      // recorders' keep policy even when the originator left the request
      // unsampled — a merged trace with a failed hop always shows where
      // the retry went.
      obs::TraceContext attempt_trace = trace;
      if (attempts > 0 && attempt_trace.valid()) {
        attempt_trace.flags |= obs::kSpanSampled;
      }
      ++attempts;
      tried |= bit(backend);
      Pending entry;
      entry.conn_token = conn_token;
      entry.client_id = client_id;
      entry.key = key;
      entry.chunk = chunk;
      entry.attempts = attempts;
      entry.tried = tried;
      entry.backend = backend;
      entry.send_ns = now;
      entry.trace = attempt_trace;
      entry.request_span_id = request_span_id;
      entry.request_start_ns = request_start_ns;
      if (attempt_trace.valid() && obs::span_recording_enabled()) {
        entry.hop_span_id = obs::next_span_id();
      }
      // Hop to hop the context is re-parented to this attempt's hop span,
      // so a backend's engine.request span nests under the exact retry
      // that reached it.  An obs-disabled router forwards the context
      // unchanged (hop_span_id 0) — the tree just skips a level.
      obs::TraceContext forwarded_ctx = attempt_trace;
      if (entry.hop_span_id != 0) {
        forwarded_ctx.parent_span_id = entry.hop_span_id;
      }
      const std::uint64_t hop = hops.next_id();
      if (upstreams[static_cast<std::size_t>(backend)]->enqueue_request(
              hop, key, forwarded_ctx)) {
        hops.push(entry);
        membership.note_forwarded(static_cast<std::uint32_t>(backend));
        obs::bump(counters.forwarded);
        obs::bump(per_backend[static_cast<std::size_t>(backend)].forwarded);
        win_hop_rtt.add(kWinForwarded, 1, now);
        return Forward::kSent;
      }
      // The connection died before membership noticed: mark the backend
      // down and fail over within the same budget walk.  The never-sent
      // attempt still leaves a (near-zero-length) hop span so retries stay
      // countable in the merged tree.
      record_span(attempt_trace, "router.hop", entry.hop_span_id,
                  hop_parent(entry), entry.send_ns,
                  static_cast<std::uint8_t>(net::Status::kRejectUpstreamDown),
                  static_cast<std::uint32_t>(backend), 0);
      membership.force_down(static_cast<std::uint32_t>(backend));
      obs::bump(counters.send_failovers);
    }
    return Forward::kBudgetSpent;
  }

  void reject(std::uint64_t conn_token, std::uint64_t client_id,
              net::Status cause, int attributed_backend, std::uint64_t now,
              const obs::TraceContext& trace = {},
              std::uint64_t request_span_id = 0,
              std::uint64_t request_start_ns = 0) {
    net::ResponseMsg response;
    response.request_id = client_id;
    response.status = cause;
    server.send_response(conn_token, response);
    record_span(trace, "router.request", request_span_id,
                trace.parent_span_id, request_start_ns,
                static_cast<std::uint8_t>(cause),
                static_cast<std::uint32_t>(attributed_backend), hops.live());
    PerBackend& row =
        per_backend[static_cast<std::size_t>(attributed_backend)];
    if (cause == net::Status::kRejectUpstreamDown) {
      obs::bump(counters.rejected_upstream_down);
      obs::bump(row.rejected_down);
    } else {
      obs::bump(counters.rejected_upstream_timeout);
      obs::bump(row.rejected_timeout);
    }
    win_hop_rtt.add(kWinRejected, 1, now);
  }

  void handle_request(std::uint64_t conn_token, const net::RequestMsg& request,
                      std::uint64_t now) {
    const core::ChunkId chunk = hashing::hash_to_bucket(
        request.key, config.seed ^ 0x9a3c0ff1ceULL, config.chunks);
    obs::bump(counters.received);
    // One router.request span covers the client request end to end across
    // retries; hop spans nest under it (see forward()).  Both start at the
    // batch's clock read; their ends read the clock.
    std::uint64_t request_span_id = 0;
    std::uint64_t request_start_ns = 0;
    if (request.trace.valid() && obs::span_recording_enabled()) {
      request_span_id = obs::next_span_id();
      request_start_ns = now;
    }
    const Forward outcome =
        forward(conn_token, request.request_id, request.key, chunk, 0, 0, now,
                request.trace, request_span_id, request_start_ns);
    if (outcome != Forward::kSent) {
      // Never forwarded: every candidate backend is down (or died during
      // the walk) — the cluster-level analogue of "all d replicas down".
      reject(conn_token, request.request_id, net::Status::kRejectUpstreamDown,
             static_cast<int>(placement_view.choices(chunk)[0]), now,
             request.trace, request_span_id, request_start_ns);
    }
  }

  void handle_upstream_response(int backend, const net::ResponseMsg& msg) {
    const Pending* found = hops.find(msg.request_id);
    if (found == nullptr || found->backend != backend) {
      // The hop was already retired (timeout retry or backend drop); the
      // duplicate service is wasted work, not an error.
      obs::bump(counters.late_responses);
      return;
    }
    const Pending entry = *found;
    hops.retire(msg.request_id);
    membership.note_answered(static_cast<std::uint32_t>(backend));
    // Per-hop RTT (v3 stats): forward-to-response round trip, retries
    // sampled once per attempt.  The send stamp is the batch's clock read,
    // so the RTT can include up to that batch's own processing time.
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t rtt_us =
        now > entry.send_ns ? (now - entry.send_ns) / 1000 : 0;
    hop_rtt.record(rtt_us);
    win_hop_rtt.record(rtt_us, now);
    record_span(entry.trace, "router.hop", entry.hop_span_id,
                hop_parent(entry), entry.send_ns,
                static_cast<std::uint8_t>(msg.status),
                static_cast<std::uint32_t>(backend), 0);
    record_span(entry.trace, "router.request", entry.request_span_id,
                entry.trace.parent_span_id, entry.request_start_ns,
                static_cast<std::uint8_t>(msg.status),
                static_cast<std::uint32_t>(backend), hops.live());
    PerBackend& row = per_backend[static_cast<std::size_t>(backend)];
    if (msg.status == net::Status::kOk) {
      obs::bump(counters.relayed_ok);
      obs::bump(row.relayed_ok);
      win_hop_rtt.add(kWinOk, 1, now);
    } else if (net::is_reject(msg.status)) {
      obs::bump(counters.relayed_reject);
      obs::bump(row.relayed_reject);
      win_hop_rtt.add(kWinRejected, 1, now);
    } else {
      obs::bump(counters.relayed_error);
      obs::bump(row.relayed_error);
    }
    net::ResponseMsg relayed = msg;
    relayed.request_id = entry.client_id;
    server.send_response(entry.conn_token, relayed);
  }

  /// Re-forward retired hops, or reject them with `cause` once no
  /// candidate or budget is left; each retired hop's span carries `cause`.
  /// `now` is the caller's clock read (the sweep's, or the drop's).
  void fail_over(const std::vector<Pending>& retired, net::Status cause,
                 std::uint64_t now) {
    for (const Pending& entry : retired) {
      membership.note_answered(static_cast<std::uint32_t>(entry.backend));
      obs::bump(counters.retries);
      record_span(entry.trace, "router.hop", entry.hop_span_id,
                  hop_parent(entry), entry.send_ns,
                  static_cast<std::uint8_t>(cause),
                  static_cast<std::uint32_t>(entry.backend), 0);
      const Forward outcome = forward(
          entry.conn_token, entry.client_id, entry.key, entry.chunk,
          entry.attempts, entry.tried, now, entry.trace,
          entry.request_span_id, entry.request_start_ns);
      if (outcome != Forward::kSent) {
        reject(entry.conn_token, entry.client_id, cause, entry.backend, now,
               entry.trace, entry.request_span_id, entry.request_start_ns);
      }
    }
  }

  /// A backend's data-plane connection dropped: fail its in-flight hops
  /// over to other candidates (or reject) immediately.
  void handle_upstream_drop(int backend) {
    membership.force_down(static_cast<std::uint32_t>(backend));
    obs::bump(counters.backend_drops);
    std::vector<Pending> orphaned;
    hops.retire_if(
        [backend](const Pending& entry) { return entry.backend == backend; },
        orphaned);
    fail_over(orphaned, net::Status::kRejectUpstreamDown, obs::now_ns());
  }

  /// Expire every hop sent more than one timeout ago, oldest first.
  void sweep_timeouts() {
    const std::uint64_t timeout_ns = config.request_timeout_ms * 1'000'000;
    const std::uint64_t now = obs::now_ns();
    if (now < timeout_ns) return;
    std::vector<Pending> expired;
    Pending oldest;
    while (hops.retire_oldest_sent_by(now - timeout_ns, oldest)) {
      expired.push_back(oldest);
    }
    obs::bump(counters.timeouts, expired.size());
    fail_over(expired, net::Status::kRejectUpstreamTimeout, now);
  }

  /// The sweep runs on a reactor timer at quarter-timeout granularity,
  /// clamped to [10, 100] ms.
  void arm_sweep() {
    const std::uint64_t tick_ms = std::min<std::uint64_t>(
        100, std::max<std::uint64_t>(10, config.request_timeout_ms / 4));
    sweep_timer = server.reactor().call_after(tick_ms, [this] {
      sweep_timeouts();
      arm_sweep();
    });
  }

  // ---- control plane -------------------------------------------------

  /// One prober per backend: a dedicated admin connection sends a STATS
  /// ping every heartbeat interval and waits (bounded) for the snapshot;
  /// the queue-depth gauges piggybacked in the STATS_RESP refresh the
  /// backlog estimate.
  void heartbeat_loop(std::size_t backend) {
    obs::set_thread_name("rlb-hb" + std::to_string(backend));
    const BackendEndpoint& endpoint = config.backends[backend];
    net::Client client;
    client.set_recv_timeout_ms(config.heartbeat_timeout_ms);
    // Probe immediately so a healthy cluster is routable after
    // `probation_successes` intervals, not one extra round later.
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (!running) return;
      }
      bool ok = false;
      HeartbeatSample sample;
      try {
        if (!client.connected()) {
          client.connect(endpoint.host, endpoint.port);
          client.set_recv_timeout_ms(config.heartbeat_timeout_ms);
        }
        const std::uint64_t ping_ns = obs::now_ns();
        // The current placement epoch rides every heartbeat; backends
        // record it, so rlb_stat shows cutover progress cluster-wide.
        client.send_stats_request(0, placement.epoch());
        client.flush();
        net::StatsSnapshot snap;
        if (client.try_read_stats_response(snap) ==
            net::ReadOutcome::kFrame) {
          const net::ShardStats totals = snap.totals();
          sample.backlog =
              totals.inbound_depth + totals.waiting_depth + totals.backlog;
          sample.completed = totals.completed;
          sample.servers = snap.servers;
          sample.servers_down = static_cast<std::uint32_t>(totals.servers_down);
          sample.rtt_us = (obs::now_ns() - ping_ns) / 1000;
          ok = true;
        }
      } catch (const std::exception&) {
        // connect/flush/read failure or protocol violation: miss.
      }
      if (ok) {
        membership.record_success(static_cast<std::uint32_t>(backend), sample);
      } else {
        // Drop the connection so the next round re-dials from scratch
        // (a half-read or stale buffered snapshot must not skew rounds).
        client.close();
        membership.record_miss(static_cast<std::uint32_t>(backend));
      }
      std::unique_lock<std::mutex> lock(mu);
      stop_cv.wait_for(lock,
                       std::chrono::milliseconds(config.heartbeat_interval_ms),
                       [this] { return !running; });
      if (!running) return;
    }
  }

  // ---- lifecycle -----------------------------------------------------

  void start() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (running) return;
      running = true;
    }
    started_at = Clock::now();
    net::Reactor& reactor = server.reactor();
    upstreams.reserve(config.backends.size());
    for (std::size_t b = 0; b < config.backends.size(); ++b) {
      net::UpstreamConfig up_config;
      up_config.host = config.backends[b].host;
      up_config.port = config.backends[b].port;
      upstreams.push_back(std::make_unique<net::UpstreamConn>(
          reactor, up_config,
          [this, b](const net::ResponseMsg& msg) {
            handle_upstream_response(static_cast<int>(b), msg);
          },
          [this, b](bool connected) {
            if (!connected) handle_upstream_drop(static_cast<int>(b));
          }));
    }
    server.start();
    // Dial every backend now, on the loop, and start the timeout sweep.
    reactor.run([this] {
      for (auto& conn : upstreams) conn->start();
      arm_sweep();
    });
    for (std::size_t b = 0; b < config.backends.size(); ++b) {
      threads.emplace_back([this, b] { heartbeat_loop(b); });
    }
    if (coordinator) coordinator->start();
  }

  void stop() {
    // The coordinator dials backends with its own blocking clients; take
    // it down first so nothing races the upstream teardown below.
    if (coordinator) coordinator->stop();
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!running && threads.empty()) return;
      running = false;
      stop_cv.notify_all();
    }
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
    threads.clear();
    // On the loop: refuse new forwards and close every upstream, whose
    // drop handler rejects that backend's in-flight hops through the
    // still-running client listener; then reject anything left (nothing
    // should be).  server.stop() writes those rejects out.
    server.reactor().run([this] {
      shutting_down = true;
      server.reactor().cancel(sweep_timer);
      for (auto& conn : upstreams) conn->stop();
      std::vector<Pending> leftovers;
      hops.retire_if([](const Pending&) { return true; }, leftovers);
      const std::uint64_t now = obs::now_ns();
      for (const Pending& entry : leftovers) {
        record_span(
            entry.trace, "router.hop", entry.hop_span_id, hop_parent(entry),
            entry.send_ns,
            static_cast<std::uint8_t>(net::Status::kRejectUpstreamDown),
            static_cast<std::uint32_t>(entry.backend), 0);
        reject(entry.conn_token, entry.client_id,
               net::Status::kRejectUpstreamDown, entry.backend, now,
               entry.trace, entry.request_span_id, entry.request_start_ns);
      }
    });
    server.stop();
  }

  // ---- stats ---------------------------------------------------------

  net::StatsSnapshot snapshot() const {
    net::StatsSnapshot snap;
    snap.role = net::NodeRole::kRouter;
    snap.policy = "router";
    snap.uptime_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              started_at)
            .count());
    snap.servers = static_cast<std::uint32_t>(config.backends.size());
    snap.replication = replication;
    snap.shard_count = static_cast<std::uint32_t>(config.backends.size());
    snap.placement_epoch = placement.epoch();
    if (coordinator) snap.repair = coordinator->stats();
    hop_rtt.merge_into(snap.hop_rtt);
    // One row per backend; docs/CLUSTER.md documents the field mapping
    // (ticks/batches carry heartbeat ok/miss, max_batch the mark-down
    // count, backlog the live load estimate).  Summing rows yields the
    // router's client-facing totals exactly once: completed +
    // rejected_total + errors = responses relayed or rejected.
    for (std::size_t b = 0; b < config.backends.size(); ++b) {
      const BackendView view = membership.view(static_cast<std::uint32_t>(b));
      const PerBackend& attribution = per_backend[b];
      net::ShardStats row;
      row.shard = static_cast<std::uint32_t>(b);
      row.submitted = attribution.forwarded.load(std::memory_order_relaxed);
      row.completed = attribution.relayed_ok.load(std::memory_order_relaxed);
      row.rejected_queue_full =
          attribution.relayed_reject.load(std::memory_order_relaxed);
      row.rejected_all_down =
          attribution.rejected_down.load(std::memory_order_relaxed);
      row.rejected_drop =
          attribution.rejected_timeout.load(std::memory_order_relaxed);
      row.errors = attribution.relayed_error.load(std::memory_order_relaxed);
      row.ticks = view.heartbeats_ok;
      row.batches = view.heartbeats_missed;
      row.max_batch = view.transitions_down;
      row.inflight = view.inflight;
      row.backlog = view.load_estimate;
      row.servers_down = view.health == BackendHealth::kUp ? 0 : 1;
      snap.shards.push_back(row);
    }

    // Health plane (v5): windowed hop RTT + rate deltas.  A router has no
    // engine latency/queue-wait; those windowed histograms stay empty,
    // mirroring the cumulative v3 convention.
    const obs::WindowedAggregator::Snapshot win = win_hop_rtt.read();
    snap.window_span_ms = win.span_ms;
    snap.win_submitted = win.counters[kWinForwarded];
    snap.win_completed = win.counters[kWinOk];
    snap.win_rejected = win.counters[kWinRejected];
    snap.win_hop_rtt = win.hist;
    snap.active_alerts = obs::active_alerts();
    return snap;
  }

  RouterConfig config;
  unsigned replication;
  core::EpochedPlacement placement;
  Membership membership;
  std::unique_ptr<repair::RepairCoordinator> coordinator;
  net::NetServer server;
  std::vector<std::unique_ptr<net::UpstreamConn>> upstreams;
  std::vector<std::thread> threads;

  // Data plane: loop-private (see the section comment above).
  core::EpochedPlacement::View placement_view{placement};
  HopRing hops;
  bool shutting_down = false;
  net::Reactor::TimerId sweep_timer = 0;
  Counters counters;
  std::vector<PerBackend> per_backend;
  obs::AtomicLogHistogram hop_rtt;  ///< per-hop upstream RTT (v3 stats)

  // Health plane (v5): hop RTT over the trailing window; the counter
  // slots carry windowed forwarded/relayed-ok/rejected.
  static constexpr std::size_t kWinForwarded = 0;
  static constexpr std::size_t kWinOk = 1;
  static constexpr std::size_t kWinRejected = 2;
  obs::WindowedAggregator win_hop_rtt;

  // Control plane only: the running flag and heartbeat waits.
  mutable std::mutex mu;
  std::condition_variable stop_cv;
  bool running = false;
  Clock::time_point started_at = Clock::now();
};

Router::Router(RouterConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Router::~Router() { impl_->stop(); }

void Router::start() { impl_->start(); }
void Router::stop() { impl_->stop(); }

std::uint16_t Router::port() const noexcept { return impl_->server.port(); }

RouterStats Router::stats() const {
  const Impl::Counters& c = impl_->counters;
  RouterStats out;
  out.received = c.received.load(std::memory_order_relaxed);
  out.forwarded = c.forwarded.load(std::memory_order_relaxed);
  out.relayed_ok = c.relayed_ok.load(std::memory_order_relaxed);
  out.relayed_reject = c.relayed_reject.load(std::memory_order_relaxed);
  out.relayed_error = c.relayed_error.load(std::memory_order_relaxed);
  out.rejected_upstream_down =
      c.rejected_upstream_down.load(std::memory_order_relaxed);
  out.rejected_upstream_timeout =
      c.rejected_upstream_timeout.load(std::memory_order_relaxed);
  out.retries = c.retries.load(std::memory_order_relaxed);
  out.timeouts = c.timeouts.load(std::memory_order_relaxed);
  out.late_responses = c.late_responses.load(std::memory_order_relaxed);
  out.backend_drops = c.backend_drops.load(std::memory_order_relaxed);
  out.send_failovers = c.send_failovers.load(std::memory_order_relaxed);
  return out;
}

const Membership& Router::membership() const { return impl_->membership; }

std::uint64_t Router::placement_epoch() const {
  return impl_->placement.epoch();
}

std::vector<core::PlacementDelta> Router::placement_history() const {
  return impl_->placement.history();
}

net::RepairStats Router::repair_stats() const {
  return impl_->coordinator ? impl_->coordinator->stats() : net::RepairStats{};
}

net::StatsSnapshot Router::snapshot() const { return impl_->snapshot(); }

}  // namespace rlb::cluster
