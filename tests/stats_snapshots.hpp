// Fixed STATS snapshots shared by the codec, renderer and catalog tests.
// The v6 renderings of make_full_snapshot() (tests/data/stats_v6_*) were
// captured before the v7 fields existed; every line they hold must still
// appear in today's renderings.
#pragma once

#include <cstdint>

#include "net/stats.hpp"

namespace rlb::net::testing {

/// A snapshot with every field populated, so a round trip covers the full
/// layout (including the vectors and every histogram).  Distinct values
/// per field make any transposed decode fail.
inline StatsSnapshot make_full_snapshot(NodeRole role = NodeRole::kRouter) {
  StatsSnapshot snapshot;
  snapshot.uptime_ms = 123456;
  snapshot.role = role;
  snapshot.backend_id = 7;
  snapshot.policy = "greedy";
  snapshot.servers = 64;
  snapshot.replication = 4;
  snapshot.processing_rate = 4;
  snapshot.queue_capacity = 7;
  snapshot.shard_count = 2;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ShardStats shard;
    shard.shard = i;
    shard.submitted = 1000 + i;
    shard.completed = 900 + i;
    shard.rejected_queue_full = 40;
    shard.rejected_all_down = 5;
    shard.rejected_admission = 30;
    shard.rejected_drop = 25 + i;
    shard.errors = i;
    shard.ticks = 5000;
    shard.batches = 4000;
    shard.batched_chunks = 12000;
    shard.max_batch = 32;
    shard.inbound_depth = 3;
    shard.waiting_depth = 2;
    shard.inflight = 1;
    shard.backlog = 17;
    shard.servers_down = i;
    shard.step_ns = 987654321;
    shard.sink_orphans = 6;
    shard.crashes = 9;
    shard.recoveries = 8;
    snapshot.shards.push_back(shard);
  }
  snapshot.latency.count = 1000;
  snapshot.latency.sum = 500000;
  snapshot.latency.max = 9000;
  for (std::size_t i = 0; i < obs::hist::kBuckets; ++i) {
    snapshot.latency.buckets[i] = i * 10;
  }
  snapshot.hop_rtt.count = 77;
  snapshot.hop_rtt.sum = 35000;
  snapshot.hop_rtt.max = 4200;
  snapshot.hop_rtt.buckets[5] = 77;
  snapshot.queue_wait.count = 333;
  snapshot.queue_wait.sum = 9999;
  snapshot.queue_wait.max = 512;
  snapshot.queue_wait.buckets[3] = 333;
  for (std::uint64_t k = 0; k < 50; ++k) {
    snapshot.step_ns.record(20000 + 700 * k);
    snapshot.batch_size.record(1 + k % 29);
  }
  snapshot.safe_set.push_back({1, 30, 32.0, 0.9375});
  snapshot.safe_set.push_back({2, 20, 16.0, 1.25});
  snapshot.safe_worst_ratio = 1.25;
  snapshot.safe_violated_level = 2;
  snapshot.placement_epoch = 11;
  snapshot.repair.migrations_done = 21;
  snapshot.repair.migrations_failed = 2;
  snapshot.repair.migrations_inflight = 1;
  snapshot.repair.chunks_pending = 5;
  snapshot.repair.bytes_sent = 86016;
  snapshot.repair.migrations_in = 13;
  snapshot.repair.migrations_out = 8;
  snapshot.repair.migration_bytes_in = 53248;
  snapshot.repair.migration_bytes_out = 32768;
  snapshot.repair.unplaceable = 4;
  snapshot.repair.slices_corrupt = 3;
  snapshot.window_span_ms = 9500;
  snapshot.win_submitted = 4200;
  snapshot.win_completed = 4100;
  snapshot.win_rejected = 100;
  snapshot.win_latency.count = 41;
  snapshot.win_latency.sum = 8200;
  snapshot.win_latency.max = 900;
  snapshot.win_latency.buckets[4] = 41;
  snapshot.win_hop_rtt.count = 7;
  snapshot.win_hop_rtt.sum = 1400;
  snapshot.win_hop_rtt.max = 300;
  snapshot.win_hop_rtt.buckets[6] = 7;
  snapshot.win_queue_wait.count = 19;
  snapshot.win_queue_wait.sum = 380;
  snapshot.win_queue_wait.max = 40;
  snapshot.win_queue_wait.buckets[2] = 19;
  snapshot.active_alerts = {"safe_set", "p99_jump"};
  return snapshot;
}

/// A backend's snapshot as the engine fills it: histograms recorded from
/// samples (sparse spans), hop_rtt empty, one shard row.
inline StatsSnapshot make_backend_snapshot() {
  StatsSnapshot snapshot;
  snapshot.uptime_ms = 4200;
  snapshot.role = NodeRole::kBackend;
  snapshot.backend_id = 2;
  snapshot.policy = "delayed-cuckoo";
  snapshot.servers = 32;
  snapshot.replication = 2;
  snapshot.shard_count = 1;
  ShardStats shard;
  shard.submitted = 5000;
  shard.completed = 4990;
  snapshot.shards.push_back(shard);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    snapshot.latency.record(60 + (i * 37) % 900);
    snapshot.queue_wait.record((i * 13) % 40);
    if (i % 5 == 0) snapshot.win_latency.record(70 + (i * 11) % 600);
    if (i % 7 == 0) snapshot.win_queue_wait.record(i % 25);
  }
  snapshot.safe_set.push_back({1, 3, 16.0, 0.1875});
  snapshot.window_span_ms = 9000;
  snapshot.win_submitted = 1000;
  snapshot.win_completed = 998;
  return snapshot;
}

}  // namespace rlb::net::testing
