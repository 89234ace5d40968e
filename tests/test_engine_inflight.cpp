// Tests for the engine's request path (engine/engine.cpp): a warm engine
// allocates nothing per request, and the in-flight table attributes every
// answer to the oldest request of its chunk.
//
// This file replaces the global allocation functions with malloc/free
// wrappers that count, on the calling thread only, while a test opts in.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "engine/engine.hpp"
#include "stats/rng.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) noexcept {
  if (t_counting) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rlb::engine {
namespace {

/// Allocations per request over `requests` requests submitted in bursts of
/// 32, after a warm-up of the same shape.  Keys are uniform, or drawn from
/// `key_set` distinct keys when that is non-zero.
double allocations_per_request(std::uint64_t key_set, std::uint64_t requests) {
  std::uint64_t answered = 0;  // the callback must not allocate
  EngineConfig config;
  config.servers = 64;
  config.processing_rate = 2;
  ServingEngine engine(config,
                       [&answered](const EngineResponse&) { ++answered; });
  engine.start();
  stats::Rng rng(7);
  constexpr std::size_t kBurst = 32;
  std::vector<ServingEngine::SubmitItem> items(kBurst);
  std::vector<std::size_t> rejected;
  rejected.reserve(kBurst);
  std::uint64_t next_id = 0;
  const auto run = [&](std::uint64_t n) {
    for (std::uint64_t sent = 0; sent < n; sent += kBurst) {
      for (ServingEngine::SubmitItem& item : items) {
        item.conn_token = next_id % 5;
        item.request_id = next_id++;
        item.key = key_set == 0 ? rng.next() : rng.next_below(key_set);
      }
      engine.submit_batch(items.data(), items.size(), rejected);
    }
  };
  run(20'000);
  t_allocations = 0;
  t_counting = true;
  run(requests);
  t_counting = false;
  const std::uint64_t allocations = t_allocations;
  engine.stop();
  EXPECT_TRUE(rejected.empty());
  EXPECT_EQ(answered, next_id);
  return static_cast<double>(allocations) / static_cast<double>(requests);
}

TEST(EngineRequestPath, WarmEngineDoesNotAllocatePerRequest) {
  constexpr std::uint64_t kRequests = 100'000;
  // Uniform keys: nearly every request is a chunk new to the table.
  EXPECT_LE(allocations_per_request(/*key_set=*/0, kRequests), 1e-3);
  // A repeated set of 64 keys: duplicates wait in the ring for a later
  // tick.
  EXPECT_LE(allocations_per_request(/*key_set=*/64, kRequests), 1e-3);
}

TEST(EngineRequestPath, AnswersFollowEachChunksSubmitOrder) {
  // Range-mapped keys are chunk ids.  Each round puts 20 requests on each
  // of 100 hot chunks and one on each of 900 cold ones, all at random ids.
  // The first tick delivers all 1000 chunks, so the table grows from 64
  // slots to 2048 and runs half full.  Eight servers then serve one request
  // each per tick: every cold answer erases its chunk from crowded probe
  // runs, some wrapping past the table's end, while the hot chunks' FIFOs
  // stay long.
  constexpr std::uint64_t kHot = 100;
  constexpr std::uint64_t kCold = 900;
  constexpr std::uint64_t kPerHot = 20;
  constexpr std::uint64_t kPerRound = kHot * kPerHot + kCold;
  constexpr int kRounds = 4;
  EngineConfig config;
  config.servers = 8;
  config.processing_rate = 1;
  config.queue_capacity = 1 << 16;
  config.mapper = "range";
  config.chunks = 1 << 30;
  config.max_batch = kHot + kCold;
  config.waiting_limit = kPerRound;
  std::vector<EngineResponse> responses;
  ServingEngine engine(config, [&responses](const EngineResponse& response) {
    responses.push_back(response);
  });
  engine.start();
  stats::Rng rng(11);
  std::vector<store::KeyId> key_of;
  std::vector<ServingEngine::SubmitItem> items;
  std::vector<std::size_t> rejected;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<store::KeyId> chunks(kHot + kCold);
    for (store::KeyId& chunk : chunks) chunk = rng.next_below(config.chunks);
    items.clear();
    // Hot chunks' requests interleave across the burst, after one pass over
    // every chunk.
    for (std::uint64_t i = 0; i < kPerRound; ++i) {
      const store::KeyId key =
          i < chunks.size() ? chunks[i] : chunks[i % kHot];
      items.push_back({key_of.size() % 3, key_of.size(), key, {}});
      key_of.push_back(key);
    }
    engine.submit_batch(items.data(), items.size(), rejected);
  }
  engine.stop();
  ASSERT_TRUE(rejected.empty());

  ASSERT_EQ(responses.size(), key_of.size());
  std::vector<int> answers(key_of.size(), 0);
  std::map<store::KeyId, std::uint64_t> last_answered;
  for (const EngineResponse& response : responses) {
    ASSERT_LT(response.request_id, key_of.size());
    ++answers[response.request_id];
    EXPECT_EQ(response.conn_token, response.request_id % 3);
    const store::KeyId key = key_of[response.request_id];
    EXPECT_EQ(engine.chunk_of(key), key);
    const auto [it, first] = last_answered.emplace(key, response.request_id);
    if (!first) {
      EXPECT_GT(response.request_id, it->second)
          << "chunk " << key << " answered out of submit order";
      it->second = response.request_id;
    }
  }
  for (std::size_t id = 0; id < answers.size(); ++id) {
    EXPECT_EQ(answers[id], 1) << "request " << id;
  }
  const net::ShardStats stats = engine.snapshot().totals();
  EXPECT_EQ(stats.completed + stats.rejected_total(), key_of.size());
  EXPECT_EQ(stats.sink_orphans, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.max_batch, kHot + kCold);
}

}  // namespace
}  // namespace rlb::engine
