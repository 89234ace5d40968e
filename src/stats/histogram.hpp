// Exact histograms for the simulator (serving-stack latencies and probes
// record into obs::LogHistogram).
//
// Backlogs and latencies in the model are small non-negative integers
// (bounded by the queue length q = O(log m)), so a dense counting histogram
// with an explicit overflow bucket is both exact and cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rlb::stats {

/// Exact counting histogram over {0, 1, ..., max_value} with an overflow
/// bucket for larger observations.
class CountingHistogram {
 public:
  /// Tracks values up to `max_value` exactly; larger values land in the
  /// overflow bucket (still counted in totals, attributed value max_value+1).
  explicit CountingHistogram(std::size_t max_value = 1024);

  void add(std::uint64_t value, std::uint64_t count = 1) noexcept;
  void merge(const CountingHistogram& other);

  std::uint64_t count_at(std::uint64_t value) const noexcept;
  std::uint64_t overflow_count() const noexcept { return overflow_; }
  std::uint64_t total() const noexcept { return total_; }

  /// Number of observations strictly greater than `value` (overflow bucket
  /// counts as greater than max_value).
  std::uint64_t count_greater_than(std::uint64_t value) const noexcept;

  /// Largest observed value (overflow reported as max_value + 1); 0 if empty.
  std::uint64_t max_observed() const noexcept;

  double mean() const noexcept;

  /// Smallest v such that at least fraction q of observations are <= v.
  std::uint64_t quantile(double q) const noexcept;

  std::size_t bucket_limit() const noexcept { return counts_.size() - 1; }

 private:
  std::vector<std::uint64_t> counts_;  // index = value
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t weighted_sum_ = 0;
  std::uint64_t max_seen_ = 0;
  bool any_ = false;
};

}  // namespace rlb::stats
