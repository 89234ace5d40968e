// Serving-path benchmark driver.
//
// Runs the cluster serving path — client -> cluster::Router -> rlbd-shaped
// backends (net::NetServer + engine::ServingEngine) -> response — inside
// one process over loopback, and prints one JSON result line.
//
//   serving_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (all closed loop: 2 client connections x 64 outstanding):
//   router1   one backend behind the router, uniform random keys
//   router3   three backends, d = 2 candidates per chunk, uniform keys
//   repeated  three backends, d = 2, keys drawn from a fixed set of 64:
//             the paper's repeated-set pattern, so chunks recur and the
//             engine defers duplicate chunks to later drain ticks
//
// A run is `kRounds` rounds.  Each round builds the stack from scratch
// (timed: setup_s), warms up, measures for seconds/kRounds, drains the
// clients and checks conservation across every layer.  Reported values are
// medians over rounds.
//
// --trace 0 reports the end-to-end metrics: closed-loop throughput, the
// client-observed p50/p99 latency, the stack's CPU time per request (the
// client threads' own CPU excluded) and setup time.  --trace 1 runs the same
// load with one request in kTraceEvery carrying a sampled trace context,
// joins the router and engine spans to the client's own timestamps into a
// per-request stage budget (edge, router, hop, engine — they sum to the
// client-observed latency), reads engine counters, and times each stage of
// the request path in isolation (frame decode, response encode, buffer
// pool, placement lookup, membership pick, engine submit-to-response,
// upstream enqueue+flush).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cluster/membership.hpp"
#include "cluster/router.hpp"
#include "core/placement_epoch.hpp"
#include "engine/engine.hpp"
#include "hashing/hash.hpp"
#include "net/buffer_pool.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/upstream.hpp"
#include "net/wire.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "stats/rng.hpp"

namespace {

using namespace rlb;

struct WorkloadSpec {
  const char* name;
  std::size_t backends;
  unsigned replication;
  std::size_t key_set;  // 0 = uniform 64-bit keys; else |S| of a repeated set
};

constexpr WorkloadSpec kWorkloads[] = {
    {"router1", 1, 1, 0},
    {"router3", 3, 2, 0},
    {"repeated", 3, 2, 64},
};

constexpr std::size_t kRounds = 10;
constexpr double kWarmupSeconds = 0.3;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindow = 64;  // outstanding requests per connection
constexpr std::size_t kKeysPerConnection = 1 << 16;
constexpr std::size_t kSlots = 1 << 16;  // request-id slot table per connection
constexpr std::uint64_t kTraceEvery = 64;

// Backend shape (one rlbd at its default of one shard): m = 32 servers,
// g = 4.  Few threads per backend keep the three-backend workloads from
// oversubscribing a small host, which made their runs both slower and
// noisier (interleaved A/B against 2 shards + 4 client connections).
constexpr std::size_t kServersPerBackend = 32;
constexpr std::size_t kShardsPerBackend = 1;
constexpr unsigned kServiceRate = 4;
constexpr std::uint64_t kRouterChunks = 1 << 14;
constexpr std::uint64_t kHeartbeatMs = 20;

/// CPU time consumed so far by the calling thread or the whole process.
std::uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Exact q-quantile (nearest rank) of `values`; reorders them.
double quantile(std::vector<std::uint64_t>& values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::min(
      values.size() - 1, static_cast<std::size_t>(q * static_cast<double>(
                                                          values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

// ---- inputs -------------------------------------------------------------

/// Per-connection key sequences, generated from the seed alone.
std::vector<std::vector<std::uint64_t>> make_keys(const WorkloadSpec& spec,
                                                  std::uint64_t seed) {
  std::vector<std::uint64_t> key_set;
  if (spec.key_set > 0) {
    stats::Rng rng(stats::derive_seed(seed, 0x5e7));
    for (std::size_t i = 0; i < spec.key_set; ++i) key_set.push_back(rng.next());
  }
  std::vector<std::vector<std::uint64_t>> keys(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    stats::Rng rng(stats::derive_seed(seed, 0x100 + c));
    keys[c].resize(kKeysPerConnection);
    for (std::uint64_t& key : keys[c]) {
      key = key_set.empty() ? rng.next() : key_set[rng.next_below(key_set.size())];
    }
  }
  return keys;
}

// ---- the stack ------------------------------------------------------------

engine::EngineConfig backend_config(std::uint32_t backend_id) {
  engine::EngineConfig config;
  config.servers = kServersPerBackend;
  config.shards = kShardsPerBackend;
  config.processing_rate = kServiceRate;
  config.seed = 7 + backend_id;
  config.backend_id = backend_id;
  return config;
}

/// One rlbd-shaped backend on an ephemeral loopback port, wired the way
/// apps/rlbd.cpp wires it: batched submit, STATS for the router heartbeat.
class Backend {
 public:
  explicit Backend(std::uint32_t backend_id) {
    net::ServerConfig net_config;
    net_config.max_connections = 64;
    server_ = std::make_unique<net::NetServer>(
        net_config, [this](std::uint64_t token, const net::RequestMsg& msg) {
          net::ServerRequest request{token, msg};
          submit(&request, 1);
        });
    server_->set_request_batch_handler(
        [this](const net::ServerRequest* batch, std::size_t count) {
          submit(batch, count);
        });
    engine_ = std::make_unique<engine::ServingEngine>(
        backend_config(backend_id), [this](const engine::EngineResponse& r) {
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

  ~Backend() {
    engine_->stop();
    server_->stop();
  }

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  std::uint16_t port() const { return server_->port(); }
  net::ShardStats totals() const { return engine_->snapshot().totals(); }
  net::ServerStats net_stats() const { return server_->stats(); }

 private:
  void submit(const net::ServerRequest* batch, std::size_t count) {
    thread_local std::vector<engine::ServingEngine::SubmitItem> items;
    thread_local std::vector<std::size_t> refused;
    items.clear();
    refused.clear();
    for (std::size_t i = 0; i < count; ++i) {
      items.push_back({batch[i].conn_token, batch[i].msg.request_id,
                       batch[i].msg.key, batch[i].msg.trace});
    }
    engine_->submit_batch(items.data(), count, refused);
    for (const std::size_t i : refused) {
      net::ResponseMsg msg;
      msg.request_id = batch[i].msg.request_id;
      msg.status = net::Status::kError;
      server_->send_response(batch[i].conn_token, msg);
    }
  }

  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<engine::ServingEngine> engine_;
};

// ---- closed-loop clients ---------------------------------------------------

struct TracedRequest {
  std::uint64_t trace_id = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
};

struct ConnResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t window_ok = 0;      // OK responses while measuring
  std::uint64_t window_cpu_ns = 0;  // this client thread's CPU while measuring
  std::vector<std::uint64_t> latency_ns;
  std::vector<TracedRequest> traced;
  std::string error;
};

struct LoadControl {
  std::atomic<bool> measuring{false};
  std::atomic<bool> stopping{false};
};

/// One connection: keep kWindow requests outstanding until told to stop,
/// then drain.  Every response must answer an outstanding id exactly once,
/// with status OK and a server id inside the backend.
void run_connection(std::uint16_t port, const std::vector<std::uint64_t>& keys,
                    std::size_t conn_index, bool traced,
                    const LoadControl& control, ConnResult& r) {
  struct Slot {
    std::uint64_t id = 0;  // 0 = free
    std::uint64_t send_ns = 0;
  };
  std::vector<Slot> slots(kSlots);
  net::Client client;
  std::uint64_t next_id = 1;
  std::size_t cursor = 0;
  std::size_t outstanding = 0;
  bool in_window = false;
  std::uint64_t cpu_mark = 0;
  const std::uint64_t trace_base = static_cast<std::uint64_t>(conn_index + 1)
                                   << 48;
  auto send_one = [&] {
    const std::uint64_t id = next_id++;
    Slot& slot = slots[id & (kSlots - 1)];
    if (slot.id != 0) {
      // An answer still missing kSlots requests later: starved.
      ++r.failed;
      r.error = "request starved";
    }
    slot.id = id;
    slot.send_ns = obs::now_ns();
    const std::uint64_t key = keys[cursor++ & (keys.size() - 1)];
    if (traced && id % kTraceEvery == 0) {
      obs::TraceContext ctx;
      ctx.trace_id = trace_base | id;
      ctx.parent_span_id = trace_base | id;
      ctx.flags = obs::kSpanSampled;
      client.send_request(id, key, ctx);
    } else {
      client.send_request(id, key);
    }
    ++outstanding;
    ++r.sent;
  };
  try {
    client.connect("127.0.0.1", port);
    for (std::size_t i = 0; i < kWindow; ++i) send_one();
    client.flush();
    net::ResponseMsg response;
    while (outstanding > 0) {
      if (!client.read_response(response)) {
        throw std::runtime_error("connection closed with requests outstanding");
      }
      // Window membership is decided once per burst, and the burst's
      // thread CPU is charged to the client side of the window.
      const bool measuring = control.measuring.load(std::memory_order_relaxed);
      if (measuring != in_window) {
        const std::uint64_t now_cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
        if (measuring) {
          cpu_mark = now_cpu;
        } else {
          r.window_cpu_ns += now_cpu - cpu_mark;
        }
        in_window = measuring;
      }
      std::size_t refill = 0;
      do {
        Slot& slot = slots[response.request_id & (kSlots - 1)];
        if (response.request_id == 0 || slot.id != response.request_id) {
          throw std::runtime_error("response for an unknown request id");
        }
        const std::uint64_t now = obs::now_ns();
        const std::uint64_t latency = now - slot.send_ns;
        slot.id = 0;
        --outstanding;
        if (response.status != net::Status::kOk ||
            response.server >= kServersPerBackend) {
          ++r.failed;
          r.error = std::string("bad response: status ") +
                    net::to_string(response.status);
        } else {
          ++r.ok;
          if (measuring) {
            ++r.window_ok;
            r.latency_ns.push_back(latency);
            if (traced && response.request_id % kTraceEvery == 0) {
              r.traced.push_back(
                  {trace_base | response.request_id, slot.send_ns, now});
            }
          }
        }
        if (!control.stopping.load(std::memory_order_relaxed)) ++refill;
      } while (client.poll_buffered_response(response));
      for (std::size_t i = 0; i < refill; ++i) send_one();
      if (refill > 0) client.flush();
    }
  } catch (const std::exception& e) {
    r.failed += outstanding;
    r.error = e.what();
  }
  if (in_window) r.window_cpu_ns += cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu_mark;
  client.close();
}

// ---- one round ---------------------------------------------------------------

struct EngineCounters {
  std::uint64_t batches = 0;
  std::uint64_t batched_chunks = 0;
  std::uint64_t step_ns = 0;
};

struct RoundResult {
  double setup_s = 0.0;
  double window_s = 0.0;
  std::uint64_t server_cpu_ns = 0;  // process CPU in the window, clients excluded
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t window_ok = 0;
  std::vector<std::uint64_t> latency_ns;
  std::vector<TracedRequest> traced;
  std::vector<obs::Span> spans;
  EngineCounters engine;  // deltas over the measured window
  std::vector<std::string> errors;
};

EngineCounters engine_counters(
    const std::vector<std::unique_ptr<Backend>>& backends) {
  EngineCounters c;
  for (const auto& backend : backends) {
    const net::ShardStats t = backend->totals();
    c.batches += t.batches;
    c.batched_chunks += t.batched_chunks;
    c.step_ns += t.step_ns;
  }
  return c;
}

void drain_spans(std::vector<obs::Span>& out) {
  for (;;) {
    std::vector<obs::Span> batch = obs::SpanRecorder::instance().drain(4096);
    if (batch.empty()) return;
    out.insert(out.end(), batch.begin(), batch.end());
  }
}

RoundResult run_round(const WorkloadSpec& spec,
                      const std::vector<std::vector<std::uint64_t>>& keys,
                      double measure_s, bool traced) {
  RoundResult result;
  const std::uint64_t setup_start = obs::now_ns();
  std::vector<std::unique_ptr<Backend>> backends;
  for (std::size_t b = 0; b < spec.backends; ++b) {
    backends.push_back(std::make_unique<Backend>(static_cast<std::uint32_t>(b)));
  }
  cluster::RouterConfig config;
  for (const auto& backend : backends) {
    config.backends.push_back({"127.0.0.1", backend->port()});
  }
  config.replication = spec.replication;
  config.chunks = kRouterChunks;
  config.heartbeat_interval_ms = kHeartbeatMs;
  config.max_connections = 64;
  cluster::Router router(config);
  router.start();

  // Set-up ends when the stack answers its first request.
  const std::uint64_t deadline = obs::now_ns() + 10'000'000'000ull;
  while (router.membership().live_count() < spec.backends) {
    if (obs::now_ns() > deadline) {
      result.errors.push_back("backends never became live");
      result.failed = result.attempted = 1;
      router.stop();
      return result;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::uint64_t probes = 0;
  try {
    net::Client probe;
    probe.connect("127.0.0.1", router.port());
    probe.send_request(1, keys[0][0]);
    probe.flush();
    ++probes;
    net::ResponseMsg response;
    if (!probe.read_response(response) || response.status != net::Status::kOk) {
      throw std::runtime_error("set-up probe not served");
    }
    probe.close();
  } catch (const std::exception& e) {
    result.errors.push_back(e.what());
    result.failed = result.attempted = 1;
    router.stop();
    return result;
  }
  result.setup_s = seconds_since(setup_start);

  LoadControl control;
  std::vector<ConnResult> conns(kConnections);
  for (ConnResult& conn : conns) {
    conn.latency_ns.reserve(static_cast<std::size_t>(measure_s * 400'000));
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      run_connection(router.port(), keys[c], c, traced, control, conns[c]);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  if (traced) {
    std::vector<obs::Span> warmup_spans;
    drain_spans(warmup_spans);
  }

  const EngineCounters before = engine_counters(backends);
  const std::uint64_t cpu_start = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  const std::uint64_t window_start = obs::now_ns();
  control.measuring.store(true);
  const std::uint64_t window_end =
      window_start + static_cast<std::uint64_t>(measure_s * 1e9);
  while (obs::now_ns() < window_end) {
    const std::uint64_t left = window_end - obs::now_ns();
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<std::uint64_t>(left, traced ? 50'000'000 : left)));
    if (traced) drain_spans(result.spans);
  }
  control.measuring.store(false);
  result.window_s = seconds_since(window_start);
  const std::uint64_t process_cpu = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  const EngineCounters after = engine_counters(backends);
  result.engine.batches = after.batches - before.batches;
  result.engine.batched_chunks = after.batched_chunks - before.batched_chunks;
  result.engine.step_ns = after.step_ns - before.step_ns;

  control.stopping.store(true);
  for (std::thread& thread : threads) thread.join();
  if (traced) drain_spans(result.spans);

  // Conservation across layers: every request the clients sent was
  // received by the router, forwarded once, served by exactly one backend
  // engine, and relayed back.
  std::uint64_t sent = probes;
  for (ConnResult& conn : conns) {
    sent += conn.sent;
    result.failed += conn.failed;
    result.window_ok += conn.window_ok;
    result.latency_ns.insert(result.latency_ns.end(), conn.latency_ns.begin(),
                             conn.latency_ns.end());
    result.traced.insert(result.traced.end(), conn.traced.begin(),
                         conn.traced.end());
    if (!conn.error.empty()) result.errors.push_back(conn.error);
  }
  result.attempted = sent;
  std::uint64_t client_cpu = 0;
  for (const ConnResult& conn : conns) client_cpu += conn.window_cpu_ns;
  result.server_cpu_ns = process_cpu > client_cpu ? process_cpu - client_cpu : 0;
  const cluster::RouterStats rs = router.stats();
  std::uint64_t engine_completed = 0;
  std::uint64_t protocol_errors = 0;
  for (const auto& backend : backends) {
    engine_completed += backend->totals().completed;
    protocol_errors += backend->net_stats().protocol_errors;
  }
  std::ostringstream mismatch;
  if (rs.received != sent || rs.forwarded != sent || rs.relayed_ok != sent ||
      engine_completed != sent || rs.retries != 0 || protocol_errors != 0) {
    mismatch << "conservation: sent=" << sent << " router_received="
             << rs.received << " forwarded=" << rs.forwarded
             << " relayed_ok=" << rs.relayed_ok
             << " engine_completed=" << engine_completed
             << " retries=" << rs.retries
             << " protocol_errors=" << protocol_errors;
    result.errors.push_back(mismatch.str());
  }
  router.stop();
  return result;
}

// ---- stage budget from spans ------------------------------------------------

struct StageBudget {
  double e2e_us = 0.0;
  double edge_us = 0.0;    // client <-> router wire + router reactor
  double router_us = 0.0;  // router self: hash, placement, pick, relay
  double hop_us = 0.0;     // router <-> backend wire + backend reactor
  double engine_us = 0.0;  // submit -> response: MPSC queue, waiting room, tick
  std::uint64_t joined = 0;
  std::uint64_t sampled = 0;
};

StageBudget stage_budget(const std::vector<TracedRequest>& traced,
                         const std::vector<obs::Span>& spans) {
  struct Tree {
    const obs::Span* request = nullptr;
    const obs::Span* hop = nullptr;
    const obs::Span* engine = nullptr;
  };
  std::unordered_map<std::uint64_t, Tree> trees;
  trees.reserve(traced.size() * 2);
  for (const obs::Span& span : spans) {
    Tree& tree = trees[span.trace_id];
    const std::string_view name = span.name;
    if (name == "router.request") {
      tree.request = &span;
    } else if (name == "router.hop") {
      tree.hop = &span;
    } else if (name == "engine.request") {
      tree.engine = &span;
    }
  }
  StageBudget budget;
  budget.sampled = traced.size();
  double e2e = 0, edge = 0, router = 0, hop = 0, engine = 0;
  auto dur = [](const obs::Span* s) {
    return static_cast<double>(s->end_ns - s->start_ns);
  };
  for (const TracedRequest& t : traced) {
    const auto it = trees.find(t.trace_id);
    if (it == trees.end()) continue;
    const Tree& tree = it->second;
    if (!tree.request || !tree.hop || !tree.engine) continue;
    const double total = static_cast<double>(t.recv_ns - t.send_ns);
    e2e += total;
    edge += total - dur(tree.request);
    router += dur(tree.request) - dur(tree.hop);
    hop += dur(tree.hop) - dur(tree.engine);
    engine += dur(tree.engine);
    ++budget.joined;
  }
  if (budget.joined > 0) {
    const double n = static_cast<double>(budget.joined) * 1000.0;
    budget.e2e_us = e2e / n;
    budget.edge_us = edge / n;
    budget.router_us = router / n;
    budget.hop_us = hop / n;
    budget.engine_us = engine / n;
  }
  return budget;
}

// ---- isolated stage costs ------------------------------------------------------

/// Median ns per op of `body` over 5 repetitions; body(n) performs n ops
/// and returns a value folded into `sink` so the work is not elided.
template <typename Body>
double time_per_op(std::size_t ops_per_rep, Body body) {
  static volatile std::uint64_t sink = 0;
  std::vector<double> reps;
  body(ops_per_rep / 4);  // warm caches and lazy set-up
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t start = obs::now_ns();
    sink = sink + body(ops_per_rep);
    reps.push_back(static_cast<double>(obs::now_ns() - start) /
                   static_cast<double>(ops_per_rep));
  }
  return median(reps);
}

/// A loopback socket that accepts one connection and discards its bytes:
/// the far end of the upstream micro-benchmark.
class DiscardSink {
 public:
  DiscardSink() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      if (listen_fd_ >= 0) ::close(listen_fd_);
      throw std::runtime_error("discard sink: cannot listen");
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::vector<char> buf(1 << 16);
      while (::read(fd, buf.data(), buf.size()) > 0) {
      }
      ::close(fd);
    });
  }

  ~DiscardSink() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

  DiscardSink(const DiscardSink&) = delete;
  DiscardSink& operator=(const DiscardSink&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// Each stage's cost in isolation, ns per operation.  Outputs are checked
/// as they are produced; a wrong one is appended to `errors`.
std::map<std::string, double> micro_stages(const WorkloadSpec& spec,
                                           const std::vector<std::uint64_t>& keys,
                                           std::vector<std::string>& errors) {
  std::map<std::string, double> out;
  const std::size_t mask = keys.size() - 1;

  // Frame decode: reassemble REQUEST frames fed in socket-read-sized
  // pieces and decode each payload.
  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < 4096; ++i) {
    net::encode_request({i + 1, keys[i & mask], {}}, wire);
  }
  out["micro_decode_ns"] = time_per_op(4096 * 64, [&](std::size_t n) {
    net::FrameDecoder decoder;
    net::RequestMsg request;
    net::ResponseMsg response;
    std::uint64_t sum = 0;
    for (std::size_t done = 0; done < n;) {
      for (std::size_t off = 0; off < wire.size(); off += 4096) {
        decoder.feed(wire.data() + off, std::min<std::size_t>(4096, wire.size() - off));
        net::FrameView view;
        while (decoder.next_view(view)) {
          if (net::decode_payload(view.data, view.size, request, response) !=
                  net::Decoded::kRequest ||
              request.key != keys[(request.request_id - 1) & mask]) {
            errors.push_back("frame decode: wrong request");
            return sum;
          }
          sum += request.key;
          ++done;
        }
      }
    }
    return sum;
  });

  // Response encode into a reused staging buffer.
  out["micro_encode_ns"] = time_per_op(1 << 20, [&](std::size_t n) {
    std::vector<std::uint8_t> staging;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if ((i & 1023) == 0) {
        sum += staging.size();
        staging.clear();
      }
      net::encode_response({i, net::Status::kOk, static_cast<std::uint32_t>(i & 31),
                            static_cast<std::uint32_t>(i & 7)},
                           staging);
    }
    return sum + staging.size();
  });

  // Buffer pool acquire + release of a frame-sized buffer.
  net::BufferPool pool;
  out["micro_pool_ns"] = time_per_op(1 << 20, [&](std::size_t n) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::uint8_t> buf = pool.acquire();
      buf.resize(21);
      sum += buf.capacity();
      pool.release(std::move(buf));
    }
    return sum;
  });

  // Router placement lookup: key -> chunk -> the chunk's d candidates.
  core::EpochedPlacement placement(spec.backends, spec.replication, 1);
  out["micro_placement_ns"] = time_per_op(1 << 20, [&](std::size_t n) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const core::ChunkId chunk = hashing::hash_to_bucket(
          keys[i & mask], 1 ^ 0x9a3c0ff1ceULL, kRouterChunks);
      sum += placement.choices(chunk)[0];
    }
    return sum;
  });

  // Membership pick among a chunk's candidates, all backends live.
  cluster::Membership membership(spec.backends, cluster::MembershipConfig{});
  for (std::uint32_t b = 0; b < spec.backends; ++b) {
    for (int i = 0; i < 4; ++i) membership.record_success(b, {});
  }
  std::vector<core::ChoiceList> candidates;
  for (std::size_t i = 0; i < 4096; ++i) {
    candidates.push_back(placement.choices(hashing::hash_to_bucket(
        keys[i & mask], 1 ^ 0x9a3c0ff1ceULL, kRouterChunks)));
  }
  out["micro_pick_ns"] = time_per_op(1 << 20, [&](std::size_t n) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const core::ChoiceList& c = candidates[i & 4095];
      sum += static_cast<std::uint64_t>(membership.pick(c.begin(), c.size()) + 1);
    }
    return sum;
  });

  // Engine: submit_batch bursts of 32 with at most 128 outstanding (the
  // closed-loop clients' total, which no waiting room overflows), through
  // waiting room, drain tick and response callback; wall ns per request.
  {
    std::atomic<std::uint64_t> answered{0};
    std::atomic<std::uint64_t> not_ok{0};
    engine::ServingEngine engine(
        backend_config(0), [&](const engine::EngineResponse& response) {
          if (response.status != engine::kEngineOk) {
            not_ok.fetch_add(1, std::memory_order_relaxed);
          }
          answered.fetch_add(1, std::memory_order_release);
        });
    engine.start();
    std::vector<engine::ServingEngine::SubmitItem> items(32);
    std::vector<std::size_t> refused;
    std::uint64_t submitted = 0;
    out["micro_engine_ns"] = time_per_op(1 << 18, [&](std::size_t n) {
      const std::uint64_t target = submitted + n;
      while (submitted < target) {
        if (submitted - answered.load(std::memory_order_acquire) > 96) {
          std::this_thread::yield();
          continue;
        }
        for (std::size_t i = 0; i < items.size(); ++i) {
          items[i].request_id = submitted + i + 1;
          items[i].key = keys[(submitted + i) & mask];
        }
        engine.submit_batch(items.data(), items.size(), refused);
        if (!refused.empty()) {
          errors.push_back("engine: submit refused");
          return submitted;
        }
        submitted += items.size();
      }
      while (answered.load(std::memory_order_acquire) < submitted) {
        std::this_thread::yield();
      }
      return submitted + refused.size();
    });
    engine.stop();
    if (not_ok.load() != 0) errors.push_back("engine: request not served");
  }

  // Upstream: enqueue bursts of 64 REQUEST frames and flush each burst in
  // one writev chain to a discarding peer.
  {
    DiscardSink sink;
    net::UpstreamConfig up_config;
    up_config.port = sink.port();
    net::UpstreamConn upstream(up_config, [](const net::ResponseMsg&) {},
                               [](bool) {});
    upstream.start();
    const std::uint64_t deadline = obs::now_ns() + 5'000'000'000ull;
    while (!upstream.connected() && obs::now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::uint64_t id = 0;
    out["micro_upstream_ns"] = time_per_op(1 << 19, [&](std::size_t n) {
      std::uint64_t queued = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ++id;
        queued += upstream.enqueue_request(id, keys[id & mask]) ? 1 : 0;
        if ((i & 63) == 63) upstream.flush();
      }
      upstream.flush();
      if (queued != n) errors.push_back("upstream: frame not queued");
      return queued;
    });
    upstream.stop();
  }
  return out;
}

// ---- driver -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string render(bool correct, std::uint64_t attempted, std::uint64_t failed,
                   const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

int usage() {
  std::cerr << "usage: serving_bench --workload <router1|router3|repeated> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        traced = value == "1";
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || !(seconds > 0)) return usage();
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) return usage();

  obs::set_span_recording(traced);
  if (traced) obs::SpanRecorder::instance().set_ring_capacity(1 << 16);
  const auto keys = make_keys(*spec, seed);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<double> setup_s, throughput, p50_us, p99_us, cpu_us;
  std::vector<TracedRequest> all_traced;
  std::vector<obs::Span> all_spans;
  EngineCounters engine;
  for (std::size_t round = 0; round < kRounds; ++round) {
    RoundResult r = run_round(*spec, keys, seconds / kRounds, traced);
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& error : r.errors) {
      std::cerr << "serving_bench: round " << round << ": " << error << "\n";
      correct = false;
    }
    if (r.window_ok == 0) correct = false;
    setup_s.push_back(r.setup_s);
    throughput.push_back(static_cast<double>(r.window_ok) / r.window_s);
    p50_us.push_back(quantile(r.latency_ns, 0.50) / 1000.0);
    p99_us.push_back(quantile(r.latency_ns, 0.99) / 1000.0);
    cpu_us.push_back(static_cast<double>(r.server_cpu_ns) / 1000.0 /
                     static_cast<double>(std::max<std::uint64_t>(r.window_ok, 1)));
    std::cout << "round " << round << ": setup " << r.setup_s << " s, "
              << throughput.back() << " rps, p50 " << p50_us.back()
              << " us, p99 " << p99_us.back() << " us, server cpu "
              << cpu_us.back() << " us/req over " << r.window_ok
              << " requests\n";
    all_traced.insert(all_traced.end(), r.traced.begin(), r.traced.end());
    all_spans.insert(all_spans.end(), r.spans.begin(), r.spans.end());
    engine.batches += r.engine.batches;
    engine.batched_chunks += r.engine.batched_chunks;
    engine.step_ns += r.engine.step_ns;
  }
  if (failed > 0) correct = false;

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {{"throughput_rps", median(throughput), "1/s"},
               {"p50_us", median(p50_us), "us"},
               {"p99_us", median(p99_us), "us"},
               {"cpu_us_per_req", median(cpu_us), "us"},
               {"setup_s", median(setup_s), "s"}};
  } else {
    const StageBudget budget = stage_budget(all_traced, all_spans);
    std::cout << "stage budget over " << budget.joined << " of "
              << budget.sampled << " sampled requests\n";
    // A budget built from a minority of the sampled requests is not one.
    if (budget.joined * 2 < budget.sampled || budget.joined == 0) {
      std::cerr << "serving_bench: spans joined for only " << budget.joined
                << " of " << budget.sampled << " sampled requests\n";
      correct = false;
    }
    const double batches = static_cast<double>(std::max<std::uint64_t>(engine.batches, 1));
    metrics = {
        {"traced_rps", median(throughput), "1/s"},
        {"stage_e2e_us", budget.e2e_us, "us"},
        {"stage_edge_us", budget.edge_us, "us"},
        {"stage_router_us", budget.router_us, "us"},
        {"stage_hop_us", budget.hop_us, "us"},
        {"stage_engine_us", budget.engine_us, "us"},
        {"engine_batch_mean", static_cast<double>(engine.batched_chunks) / batches,
         "count"},
        {"engine_step_ns", static_cast<double>(engine.step_ns) / batches, "ns"},
    };
    std::vector<std::string> errors;
    for (const auto& [name, value] : micro_stages(*spec, keys[0], errors)) {
      metrics.push_back({name, value, "ns"});
    }
    for (const std::string& error : errors) {
      std::cerr << "serving_bench: " << error << "\n";
      correct = false;
    }
  }
  std::cout << render(correct, attempted, failed, metrics) << std::endl;
  return 0;
}
