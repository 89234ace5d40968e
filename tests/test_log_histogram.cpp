// Properties of obs::LogHistogram, the one histogram type: the log-linear
// layout, quantiles within 1/16 relative of the exact sorted quantile and
// never above max, and merges across shards, windows and processes that
// equal recording every sample into one histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "net/stats.hpp"
#include "obs/histogram.hpp"
#include "obs/window.hpp"

namespace rlb::obs {
namespace {

/// Nearest-rank q-quantile of `sorted`: the ceil(q * n)-th smallest.
std::uint64_t exact_quantile(const std::vector<std::uint64_t>& sorted,
                             double q) {
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[rank - 1];
}

LogHistogram histogram_of(const std::vector<std::uint64_t>& samples) {
  LogHistogram h;
  for (const std::uint64_t v : samples) h.record(v);
  return h;
}

TEST(LogHistogram, LayoutEdgesAreContiguousAndWithinOneSixteenth) {
  EXPECT_EQ(hist::kBuckets, 465u);
  for (std::uint64_t v = 0; v < 32; ++v) EXPECT_EQ(hist::index_of(v), v);
  std::uint64_t lower = 0;
  for (std::size_t i = 0; i + 1 < hist::kBuckets; ++i) {
    const std::uint64_t upper = hist::upper_edge(i);
    ASSERT_GT(upper, lower) << i;
    EXPECT_EQ(hist::index_of(lower), i);
    EXPECT_EQ(hist::index_of(upper - 1), i);
    EXPECT_EQ(hist::index_of(upper), i + 1);
    // A bucket is never wider than 1/16 of its lower edge (bar the exact
    // one-value buckets), which bounds every quantile's relative error.
    if (lower >= 32) {
      EXPECT_LE(16 * (upper - lower), lower) << i;
    } else {
      EXPECT_EQ(upper - lower, 1u) << i;
    }
    lower = upper;
  }
  EXPECT_EQ(lower, std::uint64_t{1} << 32);
  EXPECT_EQ(hist::index_of(std::uint64_t{1} << 32), hist::kBuckets - 1);
  EXPECT_EQ(hist::index_of(UINT64_MAX), hist::kBuckets - 1);
  // Every power of two up to 2^32 is a bucket edge (exact Prometheus le).
  for (unsigned k = 1; k <= 32; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << k;
    EXPECT_EQ(hist::upper_edge(hist::index_of(edge) - 1), edge) << k;
  }
}

TEST(LogHistogram, QuantilesTrackTheLogLinearBuckets) {
  LogHistogram h;
  // 90 samples of 12 us (exact below 32), 10 in the bucket [1472, 1536).
  h.buckets[hist::index_of(12)] = 90;
  h.buckets[hist::index_of(1500)] = 10;
  h.count = 100;
  h.max = 1600;
  EXPECT_EQ(h.quantile(0.5), 12u);
  EXPECT_EQ(h.quantile(0.99), 1535u);  // the bucket's largest value
  h.max = 1500;
  EXPECT_EQ(h.quantile(0.99), 1500u);  // ...capped at max
  EXPECT_EQ(LogHistogram{}.quantile(0.5), 0u);
}

TEST(LogHistogram, QuantilesWithinOneSixteenthOfExact) {
  std::mt19937_64 rng(20261017);
  std::uniform_int_distribution<std::uint64_t> uniform(0, 200'000);
  std::lognormal_distribution<double> lognormal(6.0, 1.0);
  std::normal_distribution<double> fast(300.0, 20.0);
  std::normal_distribution<double> slow(5000.0, 300.0);
  std::bernoulli_distribution is_slow(0.1);
  const auto clamp_us = [](double v) {
    return static_cast<std::uint64_t>(std::max(0.0, v));
  };
  struct Case {
    const char* name;
    std::vector<std::uint64_t> samples;
  };
  std::vector<Case> cases = {{"uniform", {}}, {"lognormal", {}},
                             {"bimodal", {}}};
  for (int i = 0; i < 20000; ++i) {
    cases[0].samples.push_back(uniform(rng));
    cases[1].samples.push_back(clamp_us(lognormal(rng)));
    cases[2].samples.push_back(
        clamp_us(is_slow(rng) ? slow(rng) : fast(rng)));
  }
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    const LogHistogram h = histogram_of(c.samples);
    std::sort(c.samples.begin(), c.samples.end());
    EXPECT_EQ(h.max, c.samples.back());
    for (const double q :
         {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      const std::uint64_t exact = exact_quantile(c.samples, q);
      const std::uint64_t estimate = h.quantile(q);
      EXPECT_GE(estimate, exact) << "q=" << q;
      EXPECT_LE(16 * (estimate - exact), exact) << "q=" << q;
      EXPECT_LE(estimate, h.max) << "q=" << q;
    }
  }
}

TEST(LogHistogram, MergingShardsWindowsAndProcessesEqualsOneRecording) {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 0; i < 40000; ++i) {
    samples.push_back((i * 2654435761u) % 1'000'000 / (1 + i % 7));
  }
  const LogHistogram one = histogram_of(samples);

  // Per shard: four threads record into one recorder, serialized by a
  // lock (a recorder takes one writer at a time), and into a recorder each
  // that the scrape folds together.
  AtomicLogHistogram shared;
  std::mutex shared_mutex;
  std::vector<AtomicLogHistogram> shards(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < shards.size(); ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < samples.size(); i += shards.size()) {
        {
          std::lock_guard lock(shared_mutex);
          shared.record(samples[i]);
        }
        shards[t].record(samples[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  LogHistogram by_thread;
  shared.merge_into(by_thread);
  EXPECT_EQ(by_thread, one);
  LogHistogram by_shard;
  for (const AtomicLogHistogram& shard : shards) shard.merge_into(by_shard);
  EXPECT_EQ(by_shard, one);

  // Per window: samples spread over all ten slots of the ring.
  WindowedAggregator win(/*windows=*/10, /*window_ns=*/1000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    win.record(samples[i], (i % 10) * 1000);
  }
  EXPECT_EQ(win.read(9999).hist, one);

  // Per process: three nodes' STATS snapshots, each through the v6 codec,
  // merged by the scraper.
  std::vector<net::StatsSnapshot> nodes(3);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    nodes[i % nodes.size()].latency.record(samples[i]);
  }
  LogHistogram by_process;
  for (const net::StatsSnapshot& node : nodes) {
    std::vector<std::uint8_t> payload;
    net::encode_stats_payload(node, payload);
    net::StatsSnapshot decoded;
    ASSERT_TRUE(
        net::decode_stats_payload(payload.data(), payload.size(), decoded));
    by_process.merge(decoded.latency);
  }
  EXPECT_EQ(by_process, one);
}

TEST(LogHistogram, ResolvesATenPercentP99Change) {
  // 1000 samples whose 990th-smallest (the nearest-rank p99) is `p99`,
  // with one slower sample so max does not cap the reading.
  const auto p99_of = [](std::uint64_t p99) {
    LogHistogram h;
    for (int i = 0; i < 984; ++i) h.record(300);
    for (int i = 0; i < 15; ++i) h.record(p99);
    h.record(2000);
    return h.quantile(0.99);
  };
  const std::uint64_t before = p99_of(460);
  const std::uint64_t after = p99_of(506);
  EXPECT_LT(before, after);
  EXPECT_LE(16 * (before - 460), 460u);
  EXPECT_LE(16 * (after - 506), 506u);
}

TEST(LogHistogram, SmallSamplesReadExactlyAndNeverAboveMax) {
  LogHistogram single;
  single.record(1);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(single.quantile(q), 1u);
  }
  LogHistogram flat;
  for (int i = 0; i < 1000; ++i) flat.record(300);
  EXPECT_EQ(flat.max, 300u);
  EXPECT_EQ(flat.quantile(0.5), 300u);
  EXPECT_EQ(flat.quantile(0.99), 300u);

  // Bucket counts that disagree with count (a torn relaxed read) still
  // read at most max.
  LogHistogram torn = flat;
  torn.count = 5000;
  EXPECT_LE(torn.quantile(0.99), torn.max);
  torn.count = 10;
  torn.max = 7;
  EXPECT_EQ(torn.quantile(0.5), 7u);
}

TEST(LogHistogram, ValuesPast200msKeepTheirMagnitude) {
  // 2% of the samples take half a second: the p99 must say so, not pin
  // at a fixed-range array's overflow value.
  LogHistogram h;
  for (int i = 0; i < 980; ++i) h.record(400);
  for (int i = 0; i < 20; ++i) h.record(500'000 + i);
  const std::uint64_t p99 = h.quantile(0.99);
  EXPECT_GE(p99, 500'000u);
  EXPECT_LE(16 * (p99 - 500'000), 500'000u);
  EXPECT_EQ(h.quantile(1.0), 500'019u);

  // Past the 2^32 catch-all the reading falls back to max.
  h.record(std::uint64_t{1} << 40);
  EXPECT_EQ(h.quantile(1.0), std::uint64_t{1} << 40);
}

}  // namespace
}  // namespace rlb::obs
