// Tests for the serving engine (engine/engine.hpp): per-request response
// accounting, admission control, failure specs, and the KeyMapper -> chunk
// -> replica routing path the engine rides on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "engine/engine.hpp"
#include "policies/greedy.hpp"
#include "store/key_mapper.hpp"

namespace rlb::engine {
namespace {

/// Thread-safe response collector for engine tests.
class Collector {
 public:
  void operator()(const EngineResponse& response) {
    std::lock_guard lock(mutex_);
    responses_.push_back(response);
  }

  ResponseFn fn() {
    return [this](const EngineResponse& r) { (*this)(r); };
  }

  std::vector<EngineResponse> take() {
    std::lock_guard lock(mutex_);
    return responses_;
  }

 private:
  std::mutex mutex_;
  std::vector<EngineResponse> responses_;
};

/// One request through submit_batch(); true when it was admitted.
bool submit_one(ServingEngine& engine, std::uint64_t conn_token,
                std::uint64_t request_id, store::KeyId key) {
  const ServingEngine::SubmitItem item{conn_token, request_id, key, {}};
  std::vector<std::size_t> rejected;
  engine.submit_batch(&item, 1, rejected);
  return rejected.empty();
}

TEST(ServingEngine, AnswersEveryRequestExactlyOnce) {
  Collector collector;
  EngineConfig config;
  config.servers = 32;
  config.processing_rate = 4;
  config.chunks = 1 << 16;
  ServingEngine engine(config, collector.fn());
  engine.start();
  const std::uint64_t n = 5000;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(submit_one(engine, /*conn_token=*/i % 7, /*request_id=*/i,
                           /*key=*/i * 977));
  }
  engine.stop();

  const std::vector<EngineResponse> responses = collector.take();
  ASSERT_EQ(responses.size(), n);
  std::set<std::uint64_t> ids;
  for (const EngineResponse& r : responses) {
    EXPECT_TRUE(ids.insert(r.request_id).second)
        << "request " << r.request_id << " answered twice";
    EXPECT_EQ(r.conn_token, r.request_id % 7);
    if (r.status == kEngineOk) {
      EXPECT_LT(r.server, config.servers);
    }
  }
  EXPECT_EQ(ids.size(), n);

  const net::ShardStats stats = engine.snapshot().totals();
  EXPECT_EQ(stats.submitted, n);
  EXPECT_EQ(stats.completed + stats.rejected_total(), n);
  EXPECT_EQ(stats.backlog, 0u);
}

TEST(ServingEngine, LightLoadIsAllServed) {
  // Well under capacity: nothing should be rejected.
  Collector collector;
  EngineConfig config;
  config.servers = 64;
  config.processing_rate = 8;
  config.waiting_limit = 1 << 20;
  ServingEngine engine(config, collector.fn());
  engine.start();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(submit_one(engine, 0, i, i));
  }
  engine.stop();
  const net::ShardStats stats = engine.snapshot().totals();
  EXPECT_EQ(stats.completed, 1000u);
  EXPECT_EQ(stats.rejected_total() - stats.rejected_admission, 0u);
  EXPECT_EQ(stats.rejected_admission, 0u);
}

TEST(ServingEngine, SubmitAfterStopIsRefused) {
  Collector collector;
  EngineConfig config;
  config.servers = 8;
  ServingEngine engine(config, collector.fn());
  engine.start();
  EXPECT_TRUE(submit_one(engine, 0, 1, 1));
  engine.stop();
  const ServingEngine::SubmitItem items[] = {{0, 2, 2, {}}, {0, 3, 3, {}}};
  std::vector<std::size_t> rejected = {7};  // appended to, not cleared
  engine.submit_batch(items, 2, rejected);
  EXPECT_EQ(rejected, (std::vector<std::size_t>{7, 0, 1}));
}

TEST(ServingEngine, RangeMapperMapsEachKeyToItsOwnChunk) {
  Collector collector;
  EngineConfig config;
  config.servers = 30;
  config.mapper = "range";
  config.chunks = 1000;
  ServingEngine engine(config, collector.fn());
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(engine.chunk_of(key), key);  // key_space == chunks
  }
}

TEST(ServingEngine, RejectsInvalidConfigs) {
  Collector collector;
  EngineConfig config;
  config.policy = "no-such-policy";
  EXPECT_THROW(ServingEngine(config, collector.fn()), std::invalid_argument);

  // One balancer over all m servers: any other shard count is refused.
  for (const std::size_t shards :
       {std::size_t{0}, std::size_t{2}, std::size_t{100}}) {
    config = EngineConfig{};
    config.shards = shards;
    EXPECT_THROW(ServingEngine(config, collector.fn()), std::invalid_argument)
        << shards << " shards";
  }

  config = EngineConfig{};
  config.mapper = "geo";
  EXPECT_THROW(ServingEngine(config, collector.fn()), std::invalid_argument);

  config = EngineConfig{};
  config.failure_spec = "script:nonsense";
  EXPECT_THROW(ServingEngine(config, collector.fn()), std::invalid_argument);

  // migrating-d1 has no RequestSink support — must be refused for serving.
  config = EngineConfig{};
  config.policy = "migrating-d1";
  EXPECT_THROW(ServingEngine(config, collector.fn()), std::invalid_argument);

  EXPECT_THROW(ServingEngine(EngineConfig{}, nullptr), std::invalid_argument);
}

TEST(ServingEngine, ScriptedCrashDegradesWithoutDeadlock) {
  Collector collector;
  EngineConfig config;
  config.servers = 16;
  config.processing_rate = 2;
  config.queue_capacity = 4;
  // Crash servers 0..5 almost immediately, never recover.
  config.failure_spec =
      "script:1,0,down;1,1,down;1,2,down;1,3,down;1,4,down;1,5,down";
  config.dump_queue_on_crash = true;
  ServingEngine engine(config, collector.fn());
  engine.start();
  const std::uint64_t n = 20000;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(submit_one(engine, 0, i, i * 31));
  }
  engine.stop();  // must not deadlock even with queues frozen on down servers

  const std::vector<EngineResponse> responses = collector.take();
  EXPECT_EQ(responses.size(), n);
  const net::ShardStats stats = engine.snapshot().totals();
  EXPECT_EQ(stats.crashes, 6u);
  EXPECT_EQ(stats.servers_down, 6u);
  for (const EngineResponse& r : responses) {
    if (r.status == kEngineOk) {
      // Nothing may be served by a crashed server after its crash tick;
      // since crashes land at tick 1, effectively all serves must come
      // from up servers (a tick-0 serve on 0..5 is possible but the
      // steady state must route around them).
      EXPECT_LT(r.server, config.servers);
    }
  }
}

TEST(ServingEngine, RecoveryRestoresServers) {
  Collector collector;
  EngineConfig config;
  config.servers = 8;
  config.shards = 1;
  config.failure_spec = "script:1,3,down;5,3,up";
  ServingEngine engine(config, collector.fn());
  engine.start();
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(submit_one(engine, 0, i, i));
  }
  engine.stop();
  const net::ShardStats stats = engine.snapshot().totals();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.servers_down, 0u);
}

TEST(ServingEngine, FrozenQueueIsAnsweredBeforeStop) {
  // Both servers of a one-shard engine freeze at tick 1 (no dump) and come
  // back at tick 50.  Nobody submits after the one burst, so the shard
  // itself must keep advancing its tick clock to the recovery: every
  // request is answered while the engine is still running, not by the
  // shutdown drain.
  std::mutex mutex;
  std::condition_variable answered_cv;
  std::size_t answered = 0;
  std::size_t served = 0;
  EngineConfig config;
  config.servers = 2;
  config.replication = 2;
  config.processing_rate = 1;
  config.queue_capacity = 64;
  config.max_batch = 64;
  config.waiting_limit = 1024;
  config.mapper = "range";
  config.failure_spec = "script:1,0,down;1,1,down;50,0,up;50,1,up";
  config.dump_queue_on_crash = false;
  ServingEngine engine(config, [&](const EngineResponse& response) {
    std::lock_guard lock(mutex);
    ++answered;
    if (response.status == kEngineOk) ++served;
    answered_cv.notify_all();
  });
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // worker parks

  constexpr std::size_t kRequests = 64;
  std::vector<ServingEngine::SubmitItem> items;
  for (std::uint64_t key = 0; key < kRequests; ++key) {
    items.push_back({0, key, key, {}});
  }
  std::vector<std::size_t> rejected;
  engine.submit_batch(items.data(), items.size(), rejected);
  ASSERT_TRUE(rejected.empty());
  {
    std::unique_lock lock(mutex);
    answered_cv.wait_for(lock, std::chrono::seconds(2),
                         [&] { return answered == kRequests; });
    EXPECT_EQ(answered, kRequests) << "answered before stop()";
    EXPECT_EQ(served, kRequests);
  }
  engine.stop();
  const net::ShardStats stats = engine.snapshot().totals();
  EXPECT_EQ(stats.crashes, 2u);
  EXPECT_EQ(stats.recoveries, 2u);
}

TEST(ServingEngine, PacedEngineShedsDuringSubmitBatch) {
  // Admission runs in submit_batch(), even when the engine's thread runs
  // the ticks: a burst larger than the waiting room is shed on the
  // submitting thread before the call returns.
  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> rejected_on_submitter{0};
  EngineConfig config;
  config.servers = 8;
  config.tick_interval_us = 5000;
  config.waiting_limit = 8;
  ServingEngine engine(config, [&](const EngineResponse& response) {
    if (response.status == kEngineReject &&
        std::this_thread::get_id() == submitter) {
      rejected_on_submitter.fetch_add(1, std::memory_order_relaxed);
    }
    answered.fetch_add(1, std::memory_order_relaxed);
  });
  engine.start();

  constexpr std::uint64_t kBurst = 32;
  std::vector<ServingEngine::SubmitItem> items;
  for (std::uint64_t i = 0; i < kBurst; ++i) items.push_back({0, i, i, {}});
  std::vector<std::size_t> refused;
  engine.submit_batch(items.data(), items.size(), refused);
  EXPECT_TRUE(refused.empty());
  EXPECT_EQ(rejected_on_submitter.load(), kBurst - config.waiting_limit);

  engine.stop();
  EXPECT_EQ(answered.load(), kBurst);
  const net::ShardStats stats = engine.snapshot().totals();
  EXPECT_EQ(stats.rejected_admission, kBurst - config.waiting_limit);
  EXPECT_EQ(stats.completed + stats.rejected_total(), kBurst);
}

// -- parse_failure_spec ---------------------------------------------------

TEST(FailureSpec, ParsesAllKinds) {
  EXPECT_EQ(parse_failure_spec("", 8, 1), nullptr);
  EXPECT_NE(parse_failure_spec("script:10,3,down;20,3,up", 8, 1), nullptr);
  EXPECT_NE(parse_failure_spec("bernoulli:0.01,50", 8, 1), nullptr);
  EXPECT_NE(parse_failure_spec("rack:4,0.05,100", 8, 1), nullptr);
}

TEST(FailureSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "script",              // no colon
      "script:",             // no events
      "script:1,2",          // missing state
      "script:1,2,sideways", // bad state
      "script:1,99,down",    // server out of range (8 servers)
      "script:x,2,down",     // bad tick
      "bernoulli:0.5",       // missing mttr
      "bernoulli:1.5,10",    // rate > 1
      "bernoulli:-0.1,10",   // rate < 0
      "rack:0,0.1,10",       // zero racks
      "meteor:1,2,3",        // unknown kind
  };
  for (const char* spec : bad) {
    EXPECT_THROW(parse_failure_spec(spec, 8, 1), std::invalid_argument)
        << "spec '" << spec << "' should be rejected";
  }
}

TEST(FailureSpec, ScriptedScheduleFiresAtTheRightTick) {
  auto schedule = parse_failure_spec("script:3,2,down", 8, 1);
  ASSERT_NE(schedule, nullptr);
  std::vector<std::uint8_t> up(8, 1);
  std::vector<core::FailureTransition> out;
  schedule->transitions(0, up, out);
  EXPECT_TRUE(out.empty());
  schedule->transitions(3, up, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].server, 2u);
  EXPECT_FALSE(out[0].up);
}

// -- KeyMapper -> chunk -> replica path (as the engine uses it) ----------

TEST(EnginePath, HashMapperIsTotalAndStableForHighReplication) {
  const store::HashShardMapper mapper(4096, 42);
  policies::SingleQueueConfig config;
  config.servers = 64;
  config.replication = 5;  // d > 2
  config.seed = 42;
  const policies::GreedyBalancer balancer(config);
  for (std::uint64_t key = 0; key < 20000; key += 7) {
    const core::ChunkId chunk = mapper.chunk_of(key);
    ASSERT_LT(chunk, 4096u);
    ASSERT_EQ(chunk, mapper.chunk_of(key));  // stable
    const core::ChoiceList choices = balancer.placement().choices(chunk);
    ASSERT_EQ(choices.size(), 5u);
    std::set<core::ServerId> distinct(choices.begin(), choices.end());
    EXPECT_EQ(distinct.size(), 5u) << "replicas must be distinct";
    for (const core::ServerId s : choices) EXPECT_LT(s, 64u);
  }
}

TEST(EnginePath, CollidingKeysShareChunkAndReplicaSet) {
  // Collision-heavy key set: with only 8 chunks, every 8th key collides
  // under the range mapper, and hash-mapper collisions are guaranteed by
  // pigeonhole.  Colliding keys MUST see the identical replica set — this
  // is the reappearance dependency the paper is about.
  const store::RangeShardMapper mapper(8, 8000);
  policies::SingleQueueConfig config;
  config.servers = 32;
  config.replication = 3;
  config.seed = 9;
  const policies::GreedyBalancer balancer(config);
  std::map<core::ChunkId, std::vector<core::ServerId>> seen;
  for (std::uint64_t key = 0; key < 8000; key += 13) {
    const core::ChunkId chunk = mapper.chunk_of(key);
    const core::ChoiceList choices = balancer.placement().choices(chunk);
    const std::vector<core::ServerId> replicas(choices.begin(), choices.end());
    const auto it = seen.find(chunk);
    if (it == seen.end()) {
      seen.emplace(chunk, replicas);
    } else {
      EXPECT_EQ(it->second, replicas)
          << "same chunk must always map to the same replicas";
    }
  }
  EXPECT_EQ(seen.size(), 8u);  // every chunk hit
}

TEST(EnginePath, DownReplicaIsFilteredAfterCrash) {
  // A crash must push routing onto surviving replicas; all-replicas-down
  // must reject.  This is the engine's live-failover path in miniature.
  policies::SingleQueueConfig config;
  config.servers = 16;
  config.replication = 3;
  config.processing_rate = 4;
  config.queue_capacity = 8;
  config.seed = 5;
  policies::GreedyBalancer balancer(config);

  struct Sink final : core::RequestSink {
    std::vector<std::pair<core::ChunkId, core::ServerId>> served;
    std::vector<core::ChunkId> rejected;
    void on_served(core::ChunkId x, core::ServerId server,
                   std::uint64_t) override {
      served.emplace_back(x, server);
    }
    void on_rejected(core::ChunkId x) override { rejected.push_back(x); }
  } sink;
  ASSERT_TRUE(balancer.set_request_sink(&sink));

  const core::ChunkId chunk = 12345;
  const core::ChoiceList replicas = balancer.placement().choices(chunk);
  ASSERT_EQ(replicas.size(), 3u);

  core::Metrics metrics;
  // Crash the first replica: requests must land on the other two.
  balancer.set_server_up(replicas[0], false, false, metrics);
  for (core::Time t = 0; t < 4; ++t) {
    const core::ChunkId batch[] = {chunk};
    balancer.step(t, batch, metrics);
  }
  ASSERT_GE(sink.served.size(), 1u);
  for (const auto& [x, server] : sink.served) {
    EXPECT_EQ(x, chunk);
    EXPECT_NE(server, replicas[0]) << "routed to a crashed replica";
    EXPECT_TRUE(server == replicas[1] || server == replicas[2]);
  }

  // Crash the rest: now every request for this chunk must be rejected.
  balancer.set_server_up(replicas[1], false, false, metrics);
  balancer.set_server_up(replicas[2], false, false, metrics);
  const std::size_t rejected_before = sink.rejected.size();
  const core::ChunkId batch[] = {chunk};
  balancer.step(10, batch, metrics);
  ASSERT_EQ(sink.rejected.size(), rejected_before + 1);
  EXPECT_EQ(sink.rejected.back(), chunk);

  // Recovery restores the replica as a routing target.
  balancer.set_server_up(replicas[0], true, false, metrics);
  const std::size_t served_before = sink.served.size();
  balancer.step(11, batch, metrics);
  // Drain remaining sub-steps so the request completes.
  for (core::Time t = 12; t < 16; ++t) {
    balancer.step(t, {}, metrics);
  }
  ASSERT_GT(sink.served.size(), served_before);
  EXPECT_EQ(sink.served.back().second, replicas[0]);
}

}  // namespace
}  // namespace rlb::engine
