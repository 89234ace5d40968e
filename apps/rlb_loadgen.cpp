// rlb_loadgen — load generator for rlbd (and rlb_router).
//
// Closed loop (default): opens C connections (one thread each); every
// connection keeps a window of K requests outstanding (send K, then one new
// request per response) until its share of --requests completes.
//
// Open loop (--rate R): each connection sends its share of R requests/sec
// on a fixed schedule regardless of responses, the way the paper's model
// offers lambda*m*g load per step whether or not queues are keeping up.
// Latency is measured from the *intended* send time, so a stalled server
// shows up as tail latency instead of being silently absorbed by the
// pacing gap (coordinated-omission-safe).  After the schedule completes
// the worker keeps listening for --drain-ms; anything still unanswered is
// reported separately.
//
// Keys come from any core::Workload (the simulator's generators, flattened
// into a key stream) or from a recorded workloads::Trace — run rlbd with
// `--mapper range --chunks <universe>` for the identity key->chunk map and
// the engine sees exactly the model's chunk sequence.
//
// Reports throughput, rejection/error rates, and end-to-end latency
// quantiles (p50/p95/p99, microseconds, via stats::CountingHistogram), plus
// the server-assigned wait_steps distribution.  --json <path> additionally
// writes the summary as a machine-readable JSON object.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/output.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "stats/histogram.hpp"
#include "stats/rng.hpp"
#include "workloads/fresh_uniform.hpp"
#include "workloads/repeated_set.hpp"
#include "workloads/trace.hpp"
#include "workloads/zipf_workload.hpp"

namespace {

using namespace rlb;

// SIGINT/SIGTERM: stop sending, let workers drain out of their loops, and
// reach the normal exit path so trace/span sinks get their atomic flush.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 4117;
  std::size_t connections = 4;
  std::size_t concurrency = 32;  // outstanding requests per connection
  std::uint64_t requests = 100000;
  // uniform | fresh | repeated-set | zipf | trace
  std::string workload = "uniform";
  std::uint64_t keys = 1 << 20;  // key universe / repeated-set size source
  std::size_t set_size = 0;      // repeated-set |S|; 0 = keys per batch cap
  double zipf_s = 0.99;
  std::string trace_path;
  std::uint64_t seed = 1;
  std::string json_path;
  std::size_t latency_cap_us = 200000;  // histogram exact range
  double rate = 0.0;                    // total offered req/s; 0 = closed loop
  std::uint64_t drain_ms = 2000;        // open-loop post-schedule listen window
  // Distributed tracing: > 0 puts a TraceContext on every REQUEST frame and
  // marks this fraction of them head-sampled (the rest survive only via
  // tail sampling at each hop's recorder: slow or rejected).
  double trace_sample = 0.0;
  std::string span_file;  // client.request root spans land here as JSONL
};

struct WorkerResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;  // every is_reject() status, causes below
  std::uint64_t rejected_upstream_down = 0;
  std::uint64_t rejected_upstream_timeout = 0;
  std::uint64_t errors = 0;
  std::uint64_t unanswered = 0;  // open loop: still in flight at drain end
  std::uint64_t protocol_errors = 0;
  stats::CountingHistogram latency_us{0};
  stats::CountingHistogram wait_steps{1024};
};

// Statuses 0..2 come from a backend's balancer; 3..4 are hop-level verdicts
// a router adds when no live replica could take the chunk.  All rejects are
// answered outcomes (the paper's bounded queue saying no), so they keep
// their latency sample; only transport failures count as errors.
void classify(const net::ResponseMsg& response, std::uint64_t us,
              WorkerResult& result) {
  if (response.status == net::Status::kOk) {
    ++result.ok;
    result.latency_us.add(us);
    result.wait_steps.add(response.wait_steps);
  } else if (net::is_reject(response.status)) {
    ++result.rejected;
    if (response.status == net::Status::kRejectUpstreamDown) {
      ++result.rejected_upstream_down;
    } else if (response.status == net::Status::kRejectUpstreamTimeout) {
      ++result.rejected_upstream_timeout;
    }
    result.latency_us.add(us);
  } else {
    ++result.errors;
  }
}

// Per-request trace bookkeeping: the originated context (whose parent span
// id is the client.request root span) plus the steady-clock start so the
// root span can be recorded when the response lands.
struct FlightTrace {
  std::uint64_t trace_id = 0;  // 0 = untraced request
  std::uint64_t root_span_id = 0;
  std::uint64_t start_ns = 0;
  std::uint8_t flags = 0;
};

// Originate a trace context for one request.  Every request carries a
// context when --trace-sample > 0; only the sampled fraction sets the
// head-sampling flag — the rest are still eligible for tail sampling
// (slow/rejected) at every hop's recorder.
obs::TraceContext originate_trace(const Options& options, stats::Rng& rng,
                                  FlightTrace& flight) {
  if (options.trace_sample <= 0.0) return {};
  obs::TraceContext ctx;
  ctx.trace_id = obs::next_span_id();
  flight.root_span_id = obs::next_span_id();
  ctx.parent_span_id = flight.root_span_id;
  if (rng.next_bernoulli(options.trace_sample)) ctx.flags = obs::kSpanSampled;
  flight.trace_id = ctx.trace_id;
  flight.flags = ctx.flags;
  flight.start_ns = obs::now_ns();
  return ctx;
}

void record_client_span(const FlightTrace& flight, std::size_t worker,
                        net::Status status, std::uint64_t outstanding) {
  if (flight.trace_id == 0 || !obs::span_recording_enabled()) return;
  obs::Span span;
  span.trace_id = flight.trace_id;
  span.span_id = flight.root_span_id;
  span.parent_span_id = 0;
  span.start_ns = flight.start_ns;
  span.end_ns = obs::now_ns();
  span.queue_depth = outstanding;
  span.name = "client.request";
  span.shard = static_cast<std::uint32_t>(worker);
  span.tid = static_cast<std::uint32_t>(obs::thread_index());
  span.flags = flight.flags;
  span.cause = static_cast<std::uint8_t>(status);
  obs::SpanRecorder::instance().record(span);
}

// Flattens a Workload's per-step batches into an endless key stream.
class KeyStream {
 public:
  explicit KeyStream(std::unique_ptr<core::Workload> source)
      : source_(std::move(source)) {}

  std::uint64_t next() {
    while (cursor_ >= batch_.size()) {
      source_->fill_step(t_++, batch_);
      cursor_ = 0;
      if (batch_.empty() && ++empty_streak_ > 1024) {
        // A pathological workload that emits nothing would spin forever;
        // fall back to the step counter as a key.
        return t_;
      }
      if (!batch_.empty()) empty_streak_ = 0;
    }
    return batch_[cursor_++];
  }

 private:
  std::unique_ptr<core::Workload> source_;
  std::vector<core::ChunkId> batch_;
  std::size_t cursor_ = 0;
  core::Time t_ = 0;
  std::size_t empty_streak_ = 0;
};

std::unique_ptr<KeyStream> make_stream(const Options& options,
                                       std::size_t worker,
                                       const workloads::Trace* trace) {
  const std::uint64_t seed =
      stats::derive_seed(options.seed, 0x10ull + worker);
  std::unique_ptr<core::Workload> source;
  if (options.workload == "uniform") {
    // Uniform keys: fresh ids hashed over the key universe via zipf s=0
    // would work, but a plain seeded Rng stream is cheaper.
    class UniformWorkload final : public core::Workload {
     public:
      UniformWorkload(std::uint64_t keys, std::uint64_t seed)
          : keys_(keys), rng_(seed) {}
      void fill_step(core::Time, std::vector<core::ChunkId>& out) override {
        out.clear();
        for (int i = 0; i < 64; ++i) {
          out.push_back(static_cast<core::ChunkId>(rng_.next_below(keys_)));
        }
      }
      std::size_t max_requests_per_step() const override { return 64; }

     private:
      std::uint64_t keys_;
      stats::Rng rng_;
    };
    source = std::make_unique<UniformWorkload>(options.keys, seed);
  } else if (options.workload == "fresh") {
    // Disjoint id ranges per worker so keys stay globally fresh.
    source = std::make_unique<workloads::FreshUniformWorkload>(
        64, static_cast<std::uint64_t>(worker) << 48);
  } else if (options.workload == "repeated-set") {
    const std::size_t count =
        options.set_size ? options.set_size
                         : static_cast<std::size_t>(
                               std::min<std::uint64_t>(options.keys, 4096));
    // Same seed on every worker: all connections request the same set S —
    // the paper's hardest reappearance pattern.
    source = std::make_unique<workloads::RepeatedSetWorkload>(
        count, options.keys, stats::derive_seed(options.seed, 0x5e7ull));
  } else if (options.workload == "zipf") {
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(options.keys / 2, 256));
    source = std::make_unique<workloads::ZipfWorkload>(
        std::max<std::size_t>(count, 1), options.keys, options.zipf_s, seed);
  } else if (options.workload == "trace") {
    if (trace == nullptr) return nullptr;
    source = std::make_unique<workloads::TraceWorkload>(*trace);
  } else {
    return nullptr;
  }
  return std::make_unique<KeyStream>(std::move(source));
}

void run_worker(const Options& options, std::size_t worker,
                std::uint64_t quota, const workloads::Trace* trace,
                WorkerResult& result) {
  result.latency_us = stats::CountingHistogram(options.latency_cap_us);
  std::unique_ptr<KeyStream> stream = make_stream(options, worker, trace);
  net::Client client;
  try {
    client.connect(options.host, options.port);
  } catch (const std::exception& e) {
    std::cerr << "rlb_loadgen: worker " << worker << ": " << e.what() << "\n";
    result.errors += quota;
    return;
  }

  using Clock = std::chrono::steady_clock;
  struct InFlight {
    Clock::time_point sent_at;
    FlightTrace trace;
  };
  std::unordered_map<std::uint64_t, InFlight> in_flight;
  in_flight.reserve(options.concurrency * 2);
  std::uint64_t next_id = (static_cast<std::uint64_t>(worker) << 40) + 1;
  std::uint64_t completed = 0;
  stats::Rng trace_rng(stats::derive_seed(options.seed, 0x7ace0ull + worker));

  auto send_one = [&] {
    const std::uint64_t id = next_id++;
    InFlight flight{Clock::now(), {}};
    const obs::TraceContext ctx =
        originate_trace(options, trace_rng, flight.trace);
    in_flight.emplace(id, flight);
    client.send_request(id, stream->next(), ctx);
    ++result.sent;
  };

  try {
    const std::uint64_t window =
        std::min<std::uint64_t>(options.concurrency, quota);
    for (std::uint64_t i = 0; i < window; ++i) send_one();
    client.flush();

    net::ResponseMsg response;
    while (completed < quota && !g_stop_requested) {
      if (!client.read_response(response)) {
        // Server went away mid-run; everything still in flight is lost.
        result.errors += quota - completed;
        break;
      }
      const auto it = in_flight.find(response.request_id);
      if (it == in_flight.end()) {
        ++result.protocol_errors;
        break;
      }
      const auto now = Clock::now();
      const std::uint64_t us =
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - it->second.sent_at)
                  .count());
      const FlightTrace flight = it->second.trace;
      in_flight.erase(it);
      record_client_span(flight, worker, response.status, in_flight.size());
      ++completed;
      classify(response, us, result);
      if (result.sent < quota) {
        send_one();
        client.flush();
      }
    }
  } catch (const net::ProtocolError& e) {
    std::cerr << "rlb_loadgen: worker " << worker << ": " << e.what() << "\n";
    ++result.protocol_errors;
  } catch (const std::exception& e) {
    std::cerr << "rlb_loadgen: worker " << worker << ": " << e.what() << "\n";
    result.errors += quota - completed;
  }
  client.close();
}

// Open-loop worker: request i's intended send time is start + i/rate_share.
// Sends catch up in a burst when the loop falls behind (the schedule, not
// the loop, defines offered load); receives interleave under a 1ms receive
// timeout so pacing never blocks on a slow server.
void run_worker_open_loop(const Options& options, std::size_t worker,
                          std::uint64_t quota, double rate_share,
                          const workloads::Trace* trace, WorkerResult& result) {
  result.latency_us = stats::CountingHistogram(options.latency_cap_us);
  std::unique_ptr<KeyStream> stream = make_stream(options, worker, trace);
  net::Client client;
  try {
    client.connect(options.host, options.port);
  } catch (const std::exception& e) {
    std::cerr << "rlb_loadgen: worker " << worker << ": " << e.what() << "\n";
    result.errors += quota;
    return;
  }
  client.set_recv_timeout_ms(1);

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const std::chrono::nanoseconds interval(
      static_cast<std::uint64_t>(1e9 / std::max(rate_share, 1e-6)));
  const std::chrono::milliseconds drain(options.drain_ms);
  struct InFlight {
    Clock::time_point sent_at;
    FlightTrace trace;
  };
  std::unordered_map<std::uint64_t, InFlight> in_flight;
  in_flight.reserve(1024);
  std::uint64_t next_id = (static_cast<std::uint64_t>(worker) << 40) + 1;
  stats::Rng trace_rng(stats::derive_seed(options.seed, 0x7ace0ull + worker));
  Clock::time_point drain_deadline{};

  try {
    net::ResponseMsg response;
    while ((result.sent < quota || !in_flight.empty()) && !g_stop_requested) {
      const auto now = Clock::now();
      if (result.sent < quota) {
        const auto intended = start + interval * result.sent;
        if (now >= intended) {
          const std::uint64_t id = next_id++;
          // Latency clock starts at the *intended* time: queueing caused by
          // our own pacing loop falling behind is server-visible delay too.
          InFlight flight{intended, {}};
          const obs::TraceContext ctx =
              originate_trace(options, trace_rng, flight.trace);
          in_flight.emplace(id, flight);
          client.send_request(id, stream->next(), ctx);
          client.flush();
          ++result.sent;
          if (result.sent == quota) drain_deadline = Clock::now() + drain;
          continue;  // burst until back on schedule
        }
      } else if (now >= drain_deadline) {
        break;
      }
      const net::ReadOutcome outcome = client.try_read_response(response);
      if (outcome == net::ReadOutcome::kTimeout) continue;
      if (outcome == net::ReadOutcome::kEof) {
        // Server went away; the schedule's remainder has nowhere to go.
        result.errors += in_flight.size() + (quota - result.sent);
        in_flight.clear();
        break;
      }
      const auto it = in_flight.find(response.request_id);
      if (it == in_flight.end()) {
        ++result.protocol_errors;
        break;
      }
      const std::uint64_t us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - it->second.sent_at)
              .count());
      const FlightTrace flight = it->second.trace;
      in_flight.erase(it);
      record_client_span(flight, worker, response.status, in_flight.size());
      classify(response, us, result);
    }
  } catch (const net::ProtocolError& e) {
    std::cerr << "rlb_loadgen: worker " << worker << ": " << e.what() << "\n";
    ++result.protocol_errors;
  } catch (const std::exception& e) {
    std::cerr << "rlb_loadgen: worker " << worker << ": " << e.what() << "\n";
    result.errors += quota - result.sent;
  }
  result.unanswered += in_flight.size();
  client.close();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  harness::Flags flags("Load generator for rlbd and rlb_router.");
  flags.text("--host", "addr", "server address", options.host)
      .num("--port", "p", "server port", options.port)
      .num("--connections", "c", "client connections/threads",
           options.connections, 1)
      .num("--concurrency", "k",
           "outstanding requests per connection (closed loop only)",
           options.concurrency, 1)
      .num("--requests", "n", "total requests across connections",
           options.requests)
      .custom("--rate", "rps",
              "open loop: offered load in req/s, split across\n"
              "connections; latency is measured from each request's\n"
              "scheduled send time",
              "",
              [&options](const std::string& value) {
                std::string why = harness::parse_number(
                    value, 0.0, std::numeric_limits<double>::max(),
                    options.rate);
                if (why.empty() && options.rate <= 0.0) {
                  why = "needs a positive req/s value";
                }
                return why;
              })
      .num("--drain-ms", "ms",
           "open loop: wait this long for stragglers after\n"
           "the schedule ends",
           options.drain_ms)
      .text("--workload", "name", "uniform|fresh|repeated-set|zipf|trace",
            options.workload)
      .num("--keys", "n", "key universe", options.keys, 1)
      .num("--set-size", "n", "repeated-set size |S|; 0 = keys per batch cap",
           options.set_size)
      .num("--zipf-s", "s", "zipf exponent", options.zipf_s,
           std::numeric_limits<double>::lowest())
      .text("--trace-file", "path",
            "trace for --workload trace (text or binary\n"
            "format, auto-detected)",
            options.trace_path)
      .num("--seed", "s", "master seed", options.seed)
      .text("--json", "path", "also write the summary as JSON",
            options.json_path)
      .num("--trace-sample", "p",
           "put a trace context on every request and\n"
           "head-sample this fraction of them",
           options.trace_sample, 0.0, 1.0)
      .text("--span-file", "path",
            "write client.request root spans (JSONL with a\n"
            "clock anchor) for rlb_stat --spans",
            options.span_file);
  // The loadgen writes its own summary JSON, so the harness's --json (an
  // at-exit table document) stays out of its table.
  harness::add_output_flags(flags, /*json=*/false);
  flags.parse(argc, argv);

  if (!options.span_file.empty()) {
    // Enables span recording and registers an at-exit flush; we also flush
    // explicitly below so the file exists before the summary is printed.
    obs::set_span_file(options.span_file);
  }

  std::unique_ptr<workloads::Trace> trace;
  if (options.workload == "trace") {
    if (options.trace_path.empty()) {
      std::cerr << "rlb_loadgen: --workload trace needs --trace-file\n";
      return 2;
    }
    try {
      trace = std::make_unique<workloads::Trace>(
          workloads::Trace::load_auto_file(options.trace_path));
    } catch (const std::exception& e) {
      std::cerr << "rlb_loadgen: " << e.what() << "\n";
      return 2;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  const std::size_t workers = options.connections;
  std::vector<WorkerResult> results(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);

  const bool open_loop = options.rate > 0.0;
  const double rate_share = options.rate / static_cast<double>(workers);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < workers; ++w) {
    const std::uint64_t quota =
        options.requests / workers + (w < options.requests % workers ? 1 : 0);
    threads.emplace_back(
        [&options, w, quota, &results, &trace, open_loop, rate_share] {
          if (open_loop) {
            run_worker_open_loop(options, w, quota, rate_share, trace.get(),
                                 results[w]);
          } else {
            run_worker(options, w, quota, trace.get(), results[w]);
          }
        });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  WorkerResult total;
  total.latency_us = stats::CountingHistogram(options.latency_cap_us);
  for (const WorkerResult& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.rejected += r.rejected;
    total.rejected_upstream_down += r.rejected_upstream_down;
    total.rejected_upstream_timeout += r.rejected_upstream_timeout;
    total.errors += r.errors;
    total.unanswered += r.unanswered;
    total.protocol_errors += r.protocol_errors;
    total.latency_us.merge(r.latency_us);
    total.wait_steps.merge(r.wait_steps);
  }
  const std::uint64_t answered = total.ok + total.rejected;
  const double reject_rate =
      answered ? static_cast<double>(total.rejected) /
                     static_cast<double>(answered)
               : 0.0;
  const double throughput = elapsed > 0.0
                                ? static_cast<double>(answered) / elapsed
                                : 0.0;

  std::cout << "rlb_loadgen: " << answered << " answered in " << elapsed
            << "s (" << static_cast<std::uint64_t>(throughput) << " req/s";
  if (open_loop) {
    std::cout << ", offered " << static_cast<std::uint64_t>(options.rate)
              << " req/s open loop";
  }
  std::cout << ")\n"
            << "  ok=" << total.ok << " rejected=" << total.rejected
            << " (rate=" << reject_rate << ", upstream_down="
            << total.rejected_upstream_down << ", upstream_timeout="
            << total.rejected_upstream_timeout << ")"
            << " errors=" << total.errors
            << " unanswered=" << total.unanswered
            << " protocol_errors=" << total.protocol_errors << "\n"
            << "  latency_us p50=" << total.latency_us.quantile(0.50)
            << " p95=" << total.latency_us.quantile(0.95)
            << " p99=" << total.latency_us.quantile(0.99)
            << " max=" << total.latency_us.max_observed() << "\n"
            << "  wait_steps p50=" << total.wait_steps.quantile(0.50)
            << " p99=" << total.wait_steps.quantile(0.99)
            << " max=" << total.wait_steps.max_observed() << std::endl;

  if (!options.json_path.empty()) {
    std::ofstream os(options.json_path);
    if (!os) {
      std::cerr << "rlb_loadgen: cannot write " << options.json_path << "\n";
      return 1;
    }
    os << "{\n"
       << "  \"mode\": \"" << (open_loop ? "open" : "closed") << "\",\n"
       << "  \"offered_rps\": " << options.rate << ",\n"
       << "  \"answered\": " << answered << ",\n"
       << "  \"ok\": " << total.ok << ",\n"
       << "  \"rejected\": " << total.rejected << ",\n"
       << "  \"rejected_upstream_down\": " << total.rejected_upstream_down
       << ",\n"
       << "  \"rejected_upstream_timeout\": " << total.rejected_upstream_timeout
       << ",\n"
       << "  \"errors\": " << total.errors << ",\n"
       << "  \"unanswered\": " << total.unanswered << ",\n"
       << "  \"protocol_errors\": " << total.protocol_errors << ",\n"
       << "  \"elapsed_seconds\": " << elapsed << ",\n"
       << "  \"throughput_rps\": " << throughput << ",\n"
       << "  \"rejection_rate\": " << reject_rate << ",\n"
       << "  \"latency_us\": {\"p50\": " << total.latency_us.quantile(0.50)
       << ", \"p95\": " << total.latency_us.quantile(0.95) << ", \"p99\": "
       << total.latency_us.quantile(0.99) << ", \"max\": "
       << total.latency_us.max_observed() << "},\n"
       << "  \"wait_steps\": {\"p50\": " << total.wait_steps.quantile(0.50)
       << ", \"p99\": " << total.wait_steps.quantile(0.99) << ", \"max\": "
       << total.wait_steps.max_observed() << "}\n"
       << "}\n";
  }

  // Flush trace sinks before exit (atomic tmp+rename — a consumer racing
  // with shutdown never reads a truncated JSONL file).
  obs::flush_trace();
  obs::flush_spans();

  return total.protocol_errors == 0 ? 0 : 1;
}
