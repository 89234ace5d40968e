// The one histogram type: every latency and probe distribution in the
// serving stack, the STATS snapshot, the windowed health plane and the
// load generators records into it.
//
// The bucket layout is log-linear (HDR-style).  Values 0..31 get one
// bucket each.  Above that every power of two [2^e, 2^(e+1)) splits into
// 16 linear sub-buckets of width 2^(e-4), up to 2^32; values >= 2^32
// share one catch-all bucket.  A bucket is never wider than 1/16 of its
// lower edge, so a quantile read back from the buckets lies within 1/16
// relative of the exact sample it stands for.  Every power of two is a
// bucket edge, so a cumulative count at 2^k is exact.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace rlb::obs::hist {

/// 2^kSubBits = 16 linear sub-buckets per power of two.
inline constexpr unsigned kSubBits = 4;
/// Values below kExact get a bucket each.
inline constexpr std::uint64_t kExact = 32;
/// Values at or above 2^kTopBits land in the catch-all bucket.
inline constexpr unsigned kTopBits = 32;
/// 32 exact buckets + 16 per power of two in [2^5, 2^32) + the catch-all.
inline constexpr std::size_t kBuckets = 32 + 27 * 16 + 1;

/// Bucket holding value `v`.
constexpr std::size_t index_of(std::uint64_t v) noexcept {
  if (v >> kTopBits) return kBuckets - 1;
  // Below 32, shift = 0 (a bucket per value); above, v >> shift keeps the
  // leading bit and kSubBits sub-bucket bits, so it lies in [16, 32).
  const unsigned shift =
      v < kExact ? 0 : static_cast<unsigned>(std::bit_width(v)) - kSubBits - 1;
  return (std::size_t{shift} << kSubBits) + (v >> shift);
}

/// Exclusive upper edge of bucket `i`: the bucket holds the values in
/// [upper_edge(i - 1), upper_edge(i)).  The catch-all's edge is the
/// largest uint64.
constexpr std::uint64_t upper_edge(std::size_t i) noexcept {
  if (i >= kBuckets - 1) return std::numeric_limits<std::uint64_t>::max();
  if (i < kExact) return i + 1;
  // Inverse of index_of: i = (shift << kSubBits) + m, m in [16, 32).
  const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
  const std::uint64_t m = (i & 15) + 16;
  return (m + 1) << shift;
}

}  // namespace rlb::obs::hist

namespace rlb::obs {

/// A log-linear histogram of non-negative integer samples (microseconds
/// for latencies; probes record their floored value): the plain value,
/// for a single writer or as a merge target.
struct LogHistogram {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, hist::kBuckets> buckets{};

  void record(std::uint64_t v) noexcept {
    ++count;
    sum += v;
    if (v > max) max = v;
    ++buckets[hist::index_of(v)];
  }

  /// Add `other`'s samples (max merges as a max).
  void merge(const LogHistogram& other) noexcept {
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
    for (std::size_t i = 0; i < hist::kBuckets; ++i) {
      buckets[i] += other.buckets[i];
    }
  }

  /// Nearest-rank q-quantile (q clamped to [0, 1]; NaN reads as rank 1):
  /// the largest value of the bucket holding the ceil(q * count)-th
  /// sample, capped at `max`.  0 when empty.  Never exceeds `max`, even
  /// when the bucket counts and `count` disagree (a torn relaxed read, or
  /// a hostile payload).
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    if (count == 0) return 0;
    // The rank stays a double: count may be any u64 (a decoded payload)
    // and q * count need not fit back into an integer.
    const double rank = std::max(
        1.0, std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < hist::kBuckets; ++i) {
      seen += buckets[i];
      if (static_cast<double>(seen) >= rank) {
        return std::min(hist::upper_edge(i) - 1, max);
      }
    }
    return max;
  }

  bool operator==(const LogHistogram&) const = default;
};

/// Add `delta` to a counter that has one writer at a time (callers
/// serialize writers; readers may be on any thread): a relaxed load and
/// store, no locked read-modify-write.
template <typename T>
void bump(std::atomic<T>& counter,
          std::type_identity_t<T> delta = 1) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

/// Recorder for a LogHistogram that a scrape can read from another thread.
/// Callers serialize writers (one thread, or under the owner's lock);
/// readers may be on any thread.  A record is a relaxed load and store per
/// field, no lock and no locked read-modify-write, and the scrape path
/// folds the fields into a plain LogHistogram with merge_into().  Relaxed
/// ordering means a read may tear across fields (count updated, bucket not
/// yet); fine for telemetry, never used for control decisions.
struct AtomicLogHistogram {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, hist::kBuckets> buckets{};

  void record(std::uint64_t v) noexcept {
    bump(count);
    bump(sum, v);
    if (v > max.load(std::memory_order_relaxed)) {
      max.store(v, std::memory_order_relaxed);
    }
    bump(buckets[hist::index_of(v)]);
  }

  /// Accumulate into `out` (relaxed loads; several recorders can fold
  /// into one plain histogram).
  void merge_into(LogHistogram& out) const noexcept {
    out.count += count.load(std::memory_order_relaxed);
    out.sum += sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, max.load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < hist::kBuckets; ++i) {
      out.buckets[i] += buckets[i].load(std::memory_order_relaxed);
    }
  }

  /// Zero every field (relaxed stores; a racing record may be lost).
  void reset() noexcept {
    count.store(0, std::memory_order_relaxed);
    sum.store(0, std::memory_order_relaxed);
    max.store(0, std::memory_order_relaxed);
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }
};

}  // namespace rlb::obs
