// End-to-end loopback tests for the cluster tier: cluster::Router in front
// of real ServingEngine backends over real sockets, in one process.  The
// in-tree version of scripts/cluster_smoke.sh: every client request must
// be answered exactly once through the router; stopping a backend mid-run
// yields only bounded, cause-labelled rejections (never a hang or a
// protocol error); a restarted backend re-enters service after probation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/router.hpp"
#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/span.hpp"
#include "stats/rng.hpp"

namespace rlb {
namespace {

/// One rlbd-shaped backend: NetServer + ServingEngine on a loopback port.
class Backend {
 public:
  explicit Backend(std::uint16_t port, std::uint32_t backend_id,
                   std::uint64_t tick_interval_us = 0) {
    engine::EngineConfig config;
    config.servers = 16;
    config.processing_rate = 4;
    config.seed = 100 + backend_id;
    config.backend_id = backend_id;
    config.tick_interval_us = tick_interval_us;
    net::ServerConfig net_config;
    net_config.port = port;
    server_ = std::make_unique<net::NetServer>(
        net_config, [this](std::uint64_t token, const net::RequestMsg& msg) {
          const net::ServerRequest one{token, msg};
          engine::submit_requests(*engine_, *server_, &one, 1);
        });
    server_->set_request_batch_handler(
        [this](const net::ServerRequest* batch, std::size_t count) {
          engine::submit_requests(*engine_, *server_, batch, count);
        });
    engine_ = std::make_unique<engine::ServingEngine>(
        config, [this](const engine::EngineResponse& r) {
          if (mute_.load(std::memory_order_acquire)) {
            muted_.fetch_add(1, std::memory_order_release);
            return;
          }
          net::ResponseMsg msg;
          msg.request_id = r.request_id;
          msg.status = static_cast<net::Status>(r.status);
          msg.server = static_cast<std::uint32_t>(r.server);
          msg.wait_steps = r.wait_steps;
          server_->send_response(r.conn_token, msg);
        });
    server_->set_stats_handler(
        [this](std::uint64_t token, const net::StatsRequestMsg&) {
          server_->send_stats(token, engine_->snapshot());
        });
    engine_->start();
    server_->start();
  }

  ~Backend() { stop(); }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    engine_->stop();
    server_->stop();
  }

  /// SIGKILL-shaped loss: drop the sockets FIRST, so the router sees a
  /// connection drop (force-down + in-flight retry), then tear down the
  /// engine.  A graceful stop() would instead answer queued requests with
  /// kError through the still-open connection — a different scenario.
  void kill() {
    if (stopped_) return;
    stopped_ = true;
    server_->stop(/*flush_timeout_ms=*/0);
    engine_->stop();  // its kError completions hit the stopped server: no-ops
  }

  /// kill(), timed so it strands hops: stop answering first (a killed
  /// process answers nothing more), wait until an answer was swallowed,
  /// then drop the sockets.  Right after a tick the backend can hold
  /// nothing (the router steers new hops to faster backends while it is
  /// loaded), and a plain kill() then strands no hop.
  void kill_mid_flight() {
    mute_.store(true, std::memory_order_release);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (muted_.load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    kill();
  }

  std::uint16_t port() const { return server_->port(); }
  net::ShardStats stats() const { return engine_->snapshot().totals(); }

 private:
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<engine::ServingEngine> engine_;
  bool stopped_ = false;
  std::atomic<bool> mute_{false};
  std::atomic<std::uint64_t> muted_{0};
};

/// Restart on a fixed port, retrying the transient bind race.
std::unique_ptr<Backend> start_backend(std::uint16_t port,
                                       std::uint32_t backend_id) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    try {
      return std::make_unique<Backend>(port, backend_id);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return std::make_unique<Backend>(port, backend_id);
}

cluster::RouterConfig fast_config(
    const std::vector<const Backend*>& backends) {
  cluster::RouterConfig config;
  for (const Backend* backend : backends) {
    config.backends.push_back({"127.0.0.1", backend->port()});
  }
  config.replication = 2;
  config.chunks = 1 << 12;
  config.heartbeat_interval_ms = 10;
  config.heartbeat_timeout_ms = 50;
  config.request_timeout_ms = 500;
  return config;
}

bool wait_live(const cluster::Router& router, std::size_t want,
               std::uint64_t deadline_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (router.membership().live_count() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return router.membership().live_count() == want;
}

struct ClientTally {
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;  // every is_reject() flavour
  std::uint64_t rejected_upstream = 0;
  std::uint64_t errors = 0;
  std::uint64_t protocol_errors = 0;
  std::set<std::uint64_t> answered_ids;
};

/// Closed-loop worker against the router port, classifying hop-level
/// reject causes separately from backend queue rejects.
void run_client(std::uint16_t port, std::uint64_t quota,
                std::size_t concurrency, std::uint64_t id_base,
                std::uint64_t seed, ClientTally& tally) {
  net::Client client;
  client.connect("127.0.0.1", port);
  stats::Rng rng(seed);
  std::uint64_t next_id = id_base;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  auto send_one = [&] {
    client.send_request(next_id++, rng.next());
    ++sent;
  };
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(concurrency, quota);
       ++i) {
    send_one();
  }
  client.flush();
  net::ResponseMsg response;
  while (completed < quota && client.read_response(response)) {
    if (response.request_id < id_base || response.request_id >= next_id ||
        !tally.answered_ids.insert(response.request_id).second) {
      ++tally.protocol_errors;
      break;
    }
    ++completed;
    if (response.status == net::Status::kOk) {
      ++tally.ok;
    } else if (net::is_reject(response.status)) {
      ++tally.rejected;
      if (response.status != net::Status::kReject) ++tally.rejected_upstream;
    } else {
      ++tally.errors;
    }
    if (sent < quota) {
      send_one();
      client.flush();
    }
  }
  client.close();
}

TEST(RouterLoopback, AllAnsweredAndConserved) {
  std::vector<std::unique_ptr<Backend>> backends;
  for (std::uint32_t i = 0; i < 3; ++i) {
    backends.push_back(std::make_unique<Backend>(/*port=*/0, i));
  }
  cluster::Router router(fast_config(
      {backends[0].get(), backends[1].get(), backends[2].get()}));
  router.start();
  ASSERT_TRUE(wait_live(router, 3));

  constexpr std::uint64_t kQuota = 4000;
  ClientTally tally;
  run_client(router.port(), kQuota, /*concurrency=*/32, /*id_base=*/1,
             /*seed=*/5, tally);
  EXPECT_EQ(tally.protocol_errors, 0u);
  EXPECT_EQ(tally.errors, 0u);
  EXPECT_EQ(tally.answered_ids.size(), kQuota);
  EXPECT_EQ(tally.ok + tally.rejected, kQuota);
  EXPECT_EQ(tally.rejected_upstream, 0u) << "no backend was ever down";

  // Conservation at the router: every received request got exactly one
  // verdict, and the per-backend snapshot rows re-sum to the same totals.
  const cluster::RouterStats stats = router.stats();
  EXPECT_EQ(stats.received, kQuota);
  EXPECT_EQ(stats.relayed_ok, tally.ok);
  EXPECT_EQ(stats.relayed_ok + stats.relayed_reject + stats.relayed_error +
                stats.rejected_upstream_down + stats.rejected_upstream_timeout,
            kQuota);

  const net::StatsSnapshot snapshot = router.snapshot();
  EXPECT_EQ(snapshot.role, net::NodeRole::kRouter);
  ASSERT_EQ(snapshot.shards.size(), 3u);
  const net::ShardStats totals = snapshot.totals();
  EXPECT_EQ(totals.completed, stats.relayed_ok);

  router.stop();
  // Backends saw exactly what the router forwarded, once each.
  std::uint64_t backend_submitted = 0;
  for (auto& backend : backends) {
    backend->stop();
    backend_submitted += backend->stats().submitted;
  }
  EXPECT_EQ(backend_submitted, stats.forwarded);
}

// The router stamps a batch's hops with one clock read and counts with
// single-writer stores; neither may drop a sample.  Every relayed hop is
// one hop_rtt record, and every forward one windowed forwarded count.
TEST(RouterLoopback, HopRttCountsEveryRelayedHop) {
  std::vector<std::unique_ptr<Backend>> backends;
  for (std::uint32_t i = 0; i < 2; ++i) {
    backends.push_back(std::make_unique<Backend>(/*port=*/0, i));
  }
  cluster::Router router(
      fast_config({backends[0].get(), backends[1].get()}));
  router.start();
  ASSERT_TRUE(wait_live(router, 2));

  constexpr std::uint64_t kQuota = 3000;
  ClientTally tally;
  run_client(router.port(), kQuota, /*concurrency=*/48, /*id_base=*/1,
             /*seed=*/17, tally);
  EXPECT_EQ(tally.protocol_errors, 0u);
  EXPECT_EQ(tally.answered_ids.size(), kQuota);

  const cluster::RouterStats stats = router.stats();
  const net::StatsSnapshot snapshot = router.snapshot();
  EXPECT_EQ(stats.relayed_ok + stats.relayed_reject + stats.relayed_error,
            kQuota);
  EXPECT_EQ(snapshot.hop_rtt.count,
            stats.relayed_ok + stats.relayed_reject + stats.relayed_error);
  EXPECT_EQ(snapshot.win_hop_rtt.count, snapshot.hop_rtt.count);
  EXPECT_EQ(snapshot.win_submitted, stats.forwarded);
  EXPECT_EQ(snapshot.win_completed, stats.relayed_ok);
  router.stop();
}

TEST(RouterLoopback, BackendLossIsBoundedAndRecoveryRejoins) {
  std::vector<std::unique_ptr<Backend>> backends;
  for (std::uint32_t i = 0; i < 3; ++i) {
    backends.push_back(std::make_unique<Backend>(/*port=*/0, i));
  }
  const std::uint16_t lost_port = backends[1]->port();
  cluster::Router router(fast_config(
      {backends[0].get(), backends[1].get(), backends[2].get()}));
  router.start();
  ASSERT_TRUE(wait_live(router, 3));

  // Phase 1: healthy cluster.
  ClientTally phase1;
  run_client(router.port(), 2000, 32, /*id_base=*/1, /*seed=*/7, phase1);
  EXPECT_EQ(phase1.protocol_errors, 0u);
  EXPECT_EQ(phase1.errors, 0u);
  EXPECT_EQ(phase1.answered_ids.size(), 2000u);

  // Phase 2: SIGKILL-shaped loss of one backend while traffic runs.  With
  // d=2 over three backends every chunk keeps at least one live candidate,
  // so once the drop propagates everything is served; hops in flight at
  // the instant of the loss are retried on the surviving candidate and may
  // at worst surface as hop-level rejects — bounded, never errors.
  std::thread killer([&backends] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    backends[1]->kill();
  });
  ClientTally phase2;
  run_client(router.port(), 6000, 32, /*id_base=*/1 << 20, /*seed=*/9,
             phase2);
  killer.join();
  EXPECT_EQ(phase2.protocol_errors, 0u);
  EXPECT_EQ(phase2.errors, 0u);
  EXPECT_EQ(phase2.answered_ids.size(), 6000u) << "every request answered";
  EXPECT_TRUE(wait_live(router, 2));

  // Steady state with two live backends: no rejects at all.
  ClientTally phase3;
  run_client(router.port(), 2000, 16, /*id_base=*/1 << 21, /*seed=*/11,
             phase3);
  EXPECT_EQ(phase3.protocol_errors, 0u);
  EXPECT_EQ(phase3.errors, 0u);
  EXPECT_EQ(phase3.rejected_upstream, 0u)
      << "chunks with one live candidate must still be served";

  // Phase 4: the backend comes back on the same port and must re-enter
  // service after probation.
  backends[1] = start_backend(lost_port, 1);
  ASSERT_TRUE(wait_live(router, 3));
  ClientTally phase4;
  run_client(router.port(), 2000, 16, /*id_base=*/1 << 22, /*seed=*/13,
             phase4);
  EXPECT_EQ(phase4.protocol_errors, 0u);
  EXPECT_EQ(phase4.errors, 0u);
  EXPECT_EQ(phase4.answered_ids.size(), 2000u);

  const cluster::RouterStats stats = router.stats();
  EXPECT_GE(stats.backend_drops, 1u) << "the data plane must see the loss";
  router.stop();
}

TEST(RouterLoopback, AllCandidatesDownRejectsFastWithCause) {
  auto backend = std::make_unique<Backend>(/*port=*/0, 0);
  cluster::RouterConfig config = fast_config({backend.get()});
  config.replication = 1;
  cluster::Router router(config);
  router.start();
  ASSERT_TRUE(wait_live(router, 1));

  backend->stop();
  ASSERT_TRUE(wait_live(router, 0));

  // Every request is answered promptly with the hop-level down cause:
  // no hang, no connection error, no silent drop.
  ClientTally tally;
  run_client(router.port(), 500, 8, /*id_base=*/1, /*seed=*/3, tally);
  EXPECT_EQ(tally.protocol_errors, 0u);
  EXPECT_EQ(tally.errors, 0u);
  EXPECT_EQ(tally.ok, 0u);
  EXPECT_EQ(tally.rejected, 500u);
  EXPECT_EQ(tally.rejected_upstream, 500u);
  EXPECT_EQ(router.stats().rejected_upstream_down, 500u);
  router.stop();
}

#if !defined(RLB_OBS_DISABLED)

/// Closed-loop traced client: every request carries a sampled context.
/// Returns the per-trace root span id keyed by trace id.
std::map<std::uint64_t, std::uint64_t> run_traced_client(
    std::uint16_t port, std::uint64_t quota, std::size_t concurrency,
    std::uint64_t id_base, std::uint64_t seed,
    std::atomic<std::uint64_t>* progress = nullptr) {
  std::map<std::uint64_t, std::uint64_t> roots;
  net::Client client;
  client.connect("127.0.0.1", port);
  stats::Rng rng(seed);
  std::uint64_t next_id = id_base;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  auto send_one = [&] {
    obs::TraceContext ctx;
    ctx.trace_id = obs::next_span_id();
    ctx.parent_span_id = obs::next_span_id();  // the client-side root span
    ctx.flags = obs::kSpanSampled;
    roots[ctx.trace_id] = ctx.parent_span_id;
    client.send_request(next_id++, rng.next(), ctx);
    ++sent;
  };
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(concurrency, quota);
       ++i) {
    send_one();
  }
  client.flush();
  net::ResponseMsg response;
  while (completed < quota && client.read_response(response)) {
    ++completed;
    if (progress) progress->store(completed, std::memory_order_relaxed);
    if (sent < quota) {
      send_one();
      client.flush();
    }
  }
  client.close();
  EXPECT_EQ(completed, quota);
  return roots;
}

/// Spans of one trace, split by site.
struct TraceSpans {
  std::vector<obs::Span> request;  // router.request
  std::vector<obs::Span> hops;     // router.hop
  std::vector<obs::Span> engine;   // engine.request
};

std::map<std::uint64_t, TraceSpans> group_spans(
    const std::vector<obs::Span>& spans) {
  std::map<std::uint64_t, TraceSpans> by_trace;
  for (const obs::Span& span : spans) {
    const std::string name = span.name;
    if (name == "router.request") {
      by_trace[span.trace_id].request.push_back(span);
    } else if (name == "router.hop") {
      by_trace[span.trace_id].hops.push_back(span);
    } else if (name == "engine.request") {
      by_trace[span.trace_id].engine.push_back(span);
    }
  }
  return by_trace;
}

TEST(RouterLoopback, SampledRequestsYieldCompleteSpanTrees) {
  obs::SpanRecorder::instance().clear();
  obs::set_span_recording(true);

  std::vector<std::unique_ptr<Backend>> backends;
  for (std::uint32_t i = 0; i < 3; ++i) {
    backends.push_back(std::make_unique<Backend>(/*port=*/0, i));
  }
  cluster::Router router(fast_config(
      {backends[0].get(), backends[1].get(), backends[2].get()}));
  router.start();
  ASSERT_TRUE(wait_live(router, 3));

  constexpr std::uint64_t kQuota = 600;
  const std::map<std::uint64_t, std::uint64_t> roots =
      run_traced_client(router.port(), kQuota, /*concurrency=*/16,
                        /*id_base=*/1, /*seed=*/17);
  router.stop();
  for (auto& backend : backends) backend->stop();
  obs::set_span_recording(false);

  // All three tiers share this process, so one recorder holds the whole
  // tree.  Span conservation: every sampled request produced exactly one
  // router.request span, and every hop that reached a backend produced an
  // engine.request span parented to that hop.
  const std::map<std::uint64_t, TraceSpans> by_trace =
      group_spans(obs::SpanRecorder::instance().drain(1 << 20));
  ASSERT_EQ(by_trace.size(), kQuota) << "one span tree per sampled request";
  for (const auto& [trace_id, spans] : by_trace) {
    const auto root = roots.find(trace_id);
    ASSERT_NE(root, roots.end()) << "unknown trace id in recorder";
    ASSERT_EQ(spans.request.size(), 1u)
        << "exactly one router.request span per request";
    EXPECT_EQ(spans.request[0].parent_span_id, root->second)
        << "router.request parents to the client root span";
    ASSERT_GE(spans.hops.size(), 1u) << "at least one hop per request";
    for (const obs::Span& hop : spans.hops) {
      EXPECT_EQ(hop.parent_span_id, spans.request[0].span_id)
          << "hops parent to their request span";
    }
    // Healthy cluster: no retries, so exactly one hop and one engine span.
    EXPECT_EQ(spans.hops.size(), 1u);
    ASSERT_EQ(spans.engine.size(), 1u);
    EXPECT_EQ(spans.engine[0].parent_span_id, spans.hops[0].span_id)
        << "engine.request parents to the hop that delivered it";
    EXPECT_TRUE(spans.engine[0].flags & obs::kSpanSampled)
        << "the sampling flag propagates across both wire hops";
  }
  obs::SpanRecorder::instance().clear();
}

TEST(RouterLoopback, RetriedHopsKeepTheirSpans) {
  obs::SpanRecorder::instance().clear();
  obs::set_span_recording(true);

  // Backend 1 drains on a slow 5ms tick, so it holds queued hops between
  // ticks; kill_mid_flight() makes sure the kill strands some.
  std::vector<std::unique_ptr<Backend>> backends;
  for (std::uint32_t i = 0; i < 3; ++i) {
    backends.push_back(std::make_unique<Backend>(
        /*port=*/0, i, /*tick_interval_us=*/i == 1 ? 5000 : 0));
  }
  cluster::Router router(fast_config(
      {backends[0].get(), backends[1].get(), backends[2].get()}));
  router.start();
  ASSERT_TRUE(wait_live(router, 3));

  // SIGKILL-shaped loss mid-run: hops in flight to the lost backend are
  // retried on the survivor, and the retry must show up as a second hop
  // span under the same router.request.  The kill triggers on request
  // progress (not a timer) so it always lands with hops in flight.
  constexpr std::uint64_t kQuota = 4000;
  std::atomic<std::uint64_t> progress{0};
  std::thread killer([&backends, &progress] {
    while (progress.load(std::memory_order_relaxed) < kQuota / 4) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    backends[1]->kill_mid_flight();
  });
  run_traced_client(router.port(), kQuota, /*concurrency=*/32,
                    /*id_base=*/1 << 20, /*seed=*/19, &progress);
  killer.join();
  const cluster::RouterStats router_stats = router.stats();
  EXPECT_GE(router_stats.backend_drops, 1u);
  router.stop();
  for (auto& backend : backends) backend->stop();
  obs::set_span_recording(false);

  const std::map<std::uint64_t, TraceSpans> by_trace =
      group_spans(obs::SpanRecorder::instance().drain(1 << 20));
  ASSERT_EQ(by_trace.size(), kQuota);
  std::size_t retried = 0;
  for (const auto& [trace_id, spans] : by_trace) {
    ASSERT_EQ(spans.request.size(), 1u)
        << "retries never duplicate the request span";
    ASSERT_GE(spans.hops.size(), 1u);
    if (spans.hops.size() > 1) ++retried;
    // Every non-final failed hop implies a follow-up attempt: a request
    // that ultimately succeeded must carry one more hop than it has
    // upstream-down/timeout hop verdicts.
    std::size_t failed_hops = 0;
    for (const obs::Span& hop : spans.hops) {
      EXPECT_EQ(hop.parent_span_id, spans.request[0].span_id);
      if (hop.cause ==
              static_cast<std::uint8_t>(net::Status::kRejectUpstreamDown) ||
          hop.cause ==
              static_cast<std::uint8_t>(net::Status::kRejectUpstreamTimeout)) {
        ++failed_hops;
      }
    }
    if (spans.request[0].cause == 0) {
      EXPECT_GE(spans.hops.size(), failed_hops + 1)
          << "a served request's failed hops must each have a retry hop";
    }
  }
  EXPECT_GE(retried, 1u) << "the mid-run kill must strand at least one hop";
  obs::SpanRecorder::instance().clear();
}

#endif  // !defined(RLB_OBS_DISABLED)

/// A backend that answers heartbeats but holds every REQUEST until
/// release(): the hop-timeout path's fixture.  Held frames are answered
/// OK on release(), so a released hop the router already retired must
/// show up as a late response and nowhere else.
class StalledBackend {
 public:
  StalledBackend() {
    server_ = std::make_unique<net::NetServer>(
        net::ServerConfig{},
        [this](std::uint64_t token, const net::RequestMsg& msg) {
          std::lock_guard<std::mutex> lock(mu_);
          held_.push_back({token, msg.request_id});
        });
    server_->set_stats_handler(
        [this](std::uint64_t token, const net::StatsRequestMsg&) {
          net::StatsSnapshot snap;
          snap.servers = 1;
          server_->send_stats(token, snap);
        });
    server_->start();
  }

  ~StalledBackend() { server_->stop(); }

  std::uint16_t port() const { return server_->port(); }

  std::size_t held() const {
    std::lock_guard<std::mutex> lock(mu_);
    return held_.size();
  }

  /// Answer every held REQUEST with OK; returns how many.
  std::size_t release() {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> held;
    {
      std::lock_guard<std::mutex> lock(mu_);
      held.swap(held_);
    }
    for (const auto& [token, id] : held) {
      net::ResponseMsg msg;
      msg.request_id = id;
      msg.status = net::Status::kOk;
      server_->send_response(token, msg);
    }
    return held.size();
  }

 private:
  std::unique_ptr<net::NetServer> server_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> held_;
};

cluster::RouterConfig stalled_config(const std::vector<std::uint16_t>& ports,
                                     unsigned replication) {
  cluster::RouterConfig config;
  for (const std::uint16_t port : ports) {
    config.backends.push_back({"127.0.0.1", port});
  }
  config.replication = replication;
  config.chunks = 1 << 12;
  config.heartbeat_interval_ms = 10;
  config.heartbeat_timeout_ms = 50;
  config.request_timeout_ms = 200;
  return config;
}

/// After release(), wait for the router to count every released hop as
/// late, then check the client saw no second answer for any request.
void expect_released_hops_are_late(StalledBackend& stalled,
                                   const cluster::Router& router,
                                   net::Client& client,
                                   std::uint64_t late_before) {
  const cluster::RouterStats before = router.stats();
  const std::size_t released = stalled.release();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router.stats().late_responses < late_before + released &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const cluster::RouterStats after = router.stats();
  EXPECT_EQ(after.late_responses, late_before + released);
  EXPECT_EQ(after.relayed_ok, before.relayed_ok) << "nothing relayed twice";
  EXPECT_EQ(after.relayed_reject + after.relayed_error +
                after.rejected_upstream_down + after.rejected_upstream_timeout,
            before.relayed_reject + before.relayed_error +
                before.rejected_upstream_down +
                before.rejected_upstream_timeout);
  client.set_recv_timeout_ms(200);
  net::ResponseMsg extra;
  EXPECT_EQ(client.try_read_response(extra), net::ReadOutcome::kTimeout)
      << "the client must not see a second answer";
}

TEST(RouterLoopback, StalledHopTimesOutAndRetriesOnTheOtherCandidate) {
  // d = 2 over {stalled, live}: every chunk has both candidates.  Ties go
  // to the lowest id, so the stalled backend (id 0) takes the first hop
  // and every hop it is sent must expire and be answered by the live one.
  StalledBackend stalled;
  auto live = std::make_unique<Backend>(/*port=*/0, 1);
  cluster::Router router(stalled_config({stalled.port(), live->port()}, 2));
  router.start();
  ASSERT_TRUE(wait_live(router, 2));

  // Closed loop, a window small enough that the live backend's queues
  // never fill: every verdict is the live backend's OK.
  constexpr std::uint64_t kQuota = 400;
  constexpr std::uint64_t kWindow = 8;
  net::Client client;
  client.connect("127.0.0.1", router.port());
  client.set_recv_timeout_ms(5000);
  std::uint64_t next_id = 1;
  for (; next_id <= kWindow; ++next_id) {
    client.send_request(next_id, next_id * 7919);
  }
  client.flush();
  std::set<std::uint64_t> answered;
  net::ResponseMsg response;
  while (answered.size() < kQuota &&
         client.try_read_response(response) == net::ReadOutcome::kFrame) {
    EXPECT_EQ(response.status, net::Status::kOk);
    EXPECT_TRUE(answered.insert(response.request_id).second)
        << "request " << response.request_id << " answered twice";
    if (next_id <= kQuota) {
      client.send_request(next_id, next_id * 7919);
      ++next_id;
      client.flush();
    }
  }
  ASSERT_EQ(answered.size(), kQuota);

  const std::size_t held = stalled.held();
  ASSERT_GE(held, 1u) << "the tie-break sends the first hop to backend 0";
  const cluster::RouterStats stats = router.stats();
  EXPECT_EQ(stats.timeouts, held);
  EXPECT_EQ(stats.retries, held);
  EXPECT_EQ(stats.relayed_ok, kQuota);
  EXPECT_EQ(stats.rejected_upstream_timeout, 0u);
  EXPECT_EQ(stats.forwarded, kQuota + held);
  EXPECT_EQ(stats.late_responses, 0u);

  expect_released_hops_are_late(stalled, router, client, 0);
  client.close();
  router.stop();
}

TEST(RouterLoopback, StalledHopWithOneCandidateRejectsWithTimeout) {
  StalledBackend stalled;
  cluster::Router router(stalled_config({stalled.port()}, 1));
  router.start();
  ASSERT_TRUE(wait_live(router, 1));

  constexpr std::uint64_t kQuota = 8;
  net::Client client;
  client.connect("127.0.0.1", router.port());
  client.set_recv_timeout_ms(5000);
  for (std::uint64_t id = 1; id <= kQuota; ++id) client.send_request(id, id);
  client.flush();
  std::set<std::uint64_t> answered;
  net::ResponseMsg response;
  while (answered.size() < kQuota &&
         client.try_read_response(response) == net::ReadOutcome::kFrame) {
    EXPECT_EQ(response.status, net::Status::kRejectUpstreamTimeout);
    EXPECT_TRUE(answered.insert(response.request_id).second);
  }
  ASSERT_EQ(answered.size(), kQuota);
  EXPECT_EQ(stalled.held(), kQuota);
  const cluster::RouterStats stats = router.stats();
  EXPECT_EQ(stats.timeouts, kQuota);
  EXPECT_EQ(stats.retries, kQuota);
  EXPECT_EQ(stats.rejected_upstream_timeout, kQuota);
  EXPECT_EQ(stats.relayed_ok, 0u);

  expect_released_hops_are_late(stalled, router, client, 0);
  client.close();
  router.stop();
}

TEST(RouterLoopback, StopWithPendingHopsAnswersEverything) {
  // A router stopped with hops in flight must reject them, not leak them:
  // the client sees an answer for every request even though the backend
  // never replies (it is stopped first, taking its queue with it).
  auto backend = std::make_unique<Backend>(/*port=*/0, 0);
  cluster::RouterConfig config = fast_config({backend.get()});
  config.replication = 1;
  config.request_timeout_ms = 10000;  // the timeout sweep must not beat stop()
  cluster::Router router(config);
  router.start();
  ASSERT_TRUE(wait_live(router, 1));

  net::Client client;
  client.connect("127.0.0.1", router.port());
  client.set_recv_timeout_ms(2000);
  for (std::uint64_t id = 1; id <= 64; ++id) client.send_request(id, id * 17);
  client.flush();

  // Let the router forward, then tear everything down underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  backend->stop();
  router.stop();

  // Drain whatever the router managed to deliver before the listener
  // closed: every frame must be well-formed; no frame may hang the read.
  std::uint64_t answered = 0;
  net::ResponseMsg response;
  try {
    for (;;) {
      const net::ReadOutcome outcome = client.try_read_response(response);
      if (outcome != net::ReadOutcome::kFrame) break;
      ++answered;
    }
  } catch (const std::exception&) {
    ADD_FAILURE() << "malformed frame while draining a stopping router";
  }
  EXPECT_LE(answered, 64u);
  client.close();
}

}  // namespace
}  // namespace rlb
