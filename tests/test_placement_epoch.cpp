// Unit tests for versioned placement epochs (core/placement_epoch.hpp):
// the PlacementDelta wire codec, transactional apply semantics, overlay
// composition across epochs, and lock-free reads racing a writer.
#include "core/placement_epoch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace rlb::core {
namespace {

/// Build the one-remap delta advancing `placement` by one epoch: move
/// `chunk`'s replica off its first current choice onto the lowest server
/// id outside its choice set.
PlacementDelta next_delta(const EpochedPlacement& placement, ChunkId chunk) {
  const ChoiceList cl = placement.choices(chunk);
  ChunkRemap remap;
  remap.chunk = chunk;
  remap.from = cl[0];
  for (ServerId s = 0;; ++s) {
    if (!cl.contains(s)) {
      remap.to = s;
      break;
    }
  }
  PlacementDelta delta;
  delta.epoch = placement.epoch() + 1;
  delta.remaps.push_back(remap);
  return delta;
}

TEST(PlacementDeltaCodec, RoundTripsExactly) {
  PlacementDelta delta;
  delta.epoch = 7;
  delta.remaps.push_back({42, 3, 9});
  delta.remaps.push_back({0xFFFFFFFFFFFFull, 0, 0xFFFFFFFFu});

  std::vector<std::uint8_t> wire;
  encode_placement_delta(delta, wire);
  EXPECT_EQ(wire.size(), 12u + 2 * 16u);

  PlacementDelta decoded;
  ASSERT_TRUE(decode_placement_delta(wire.data(), wire.size(), decoded));
  EXPECT_EQ(decoded.epoch, delta.epoch);
  ASSERT_EQ(decoded.remaps.size(), delta.remaps.size());
  EXPECT_EQ(decoded.remaps[0], delta.remaps[0]);
  EXPECT_EQ(decoded.remaps[1], delta.remaps[1]);
}

TEST(PlacementDeltaCodec, EmptyDeltaRoundTrips) {
  PlacementDelta delta;
  delta.epoch = 1;
  std::vector<std::uint8_t> wire;
  encode_placement_delta(delta, wire);
  PlacementDelta decoded;
  ASSERT_TRUE(decode_placement_delta(wire.data(), wire.size(), decoded));
  EXPECT_EQ(decoded.epoch, 1u);
  EXPECT_TRUE(decoded.remaps.empty());
}

TEST(PlacementDeltaCodec, RejectsTruncationAndTrailingBytes) {
  PlacementDelta delta;
  delta.epoch = 3;
  delta.remaps.push_back({1, 2, 3});
  std::vector<std::uint8_t> wire;
  encode_placement_delta(delta, wire);

  PlacementDelta decoded;
  EXPECT_FALSE(decode_placement_delta(wire.data(), wire.size() - 1, decoded));
  EXPECT_FALSE(decode_placement_delta(wire.data(), 11, decoded));
  wire.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_placement_delta(wire.data(), wire.size(), decoded));
}

TEST(EpochedPlacement, StartsAtBasePlacementAndEpochZero) {
  const EpochedPlacement placement(16, 3, 99);
  const Placement base(16, 3, 99);
  EXPECT_EQ(placement.epoch(), 0u);
  EXPECT_EQ(placement.remapped_chunks(), 0u);
  for (ChunkId x = 0; x < 100; ++x) {
    const ChoiceList got = placement.choices(x);
    const ChoiceList want = base.choices(x);
    ASSERT_EQ(got.size(), want.size());
    for (unsigned i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
  }
}

TEST(EpochedPlacement, ApplyMovesOneReplicaAndBumpsEpoch) {
  EpochedPlacement placement(8, 2, 5);
  const ChoiceList before = placement.choices(17);
  const PlacementDelta delta = next_delta(placement, 17);
  ASSERT_TRUE(placement.apply(delta));

  EXPECT_EQ(placement.epoch(), 1u);
  EXPECT_EQ(placement.remapped_chunks(), 1u);
  const ChoiceList after = placement.choices(17);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_FALSE(after.contains(delta.remaps[0].from));
  EXPECT_TRUE(after.contains(delta.remaps[0].to));
  // Replacement preserves position: the untouched replica keeps its slot.
  EXPECT_EQ(after[1], before[1]);
  // Untouched chunks keep their base choices.
  const Placement base(8, 2, 5);
  const ChoiceList other = placement.choices(18);
  for (unsigned i = 0; i < other.size(); ++i) {
    EXPECT_EQ(other[i], base.choices(18)[i]);
  }
}

TEST(EpochedPlacement, ApplyIsTransactionalOnBadRemap) {
  EpochedPlacement placement(8, 2, 5);
  const ChoiceList cl = placement.choices(4);

  // Valid first remap + invalid second (from not a current choice):
  // nothing may change.
  PlacementDelta delta = next_delta(placement, 4);
  ChunkRemap bad;
  bad.chunk = 5;
  for (ServerId s = 0;; ++s) {
    if (!placement.choices(5).contains(s)) {
      bad.from = s;  // not currently a replica of chunk 5
      break;
    }
  }
  bad.to = bad.from + 1;
  delta.remaps.push_back(bad);
  EXPECT_FALSE(placement.apply(delta));
  EXPECT_EQ(placement.epoch(), 0u);
  const ChoiceList unchanged = placement.choices(4);
  for (unsigned i = 0; i < cl.size(); ++i) EXPECT_EQ(unchanged[i], cl[i]);
}

TEST(EpochedPlacement, ApplyRejectsWrongEpochDuplicateToAndSelfMove) {
  EpochedPlacement placement(8, 2, 5);

  PlacementDelta skip = next_delta(placement, 1);
  skip.epoch = 2;  // must be current + 1 == 1
  EXPECT_FALSE(placement.apply(skip));

  PlacementDelta self = next_delta(placement, 1);
  self.remaps[0].to = self.remaps[0].from;
  EXPECT_FALSE(placement.apply(self));

  PlacementDelta dup = next_delta(placement, 1);
  dup.remaps[0].to = placement.choices(1)[1];  // already a replica
  EXPECT_FALSE(placement.apply(dup));

  EXPECT_EQ(placement.epoch(), 0u);
}

TEST(EpochedPlacement, OverlaysComposeAcrossEpochs) {
  EpochedPlacement placement(16, 3, 11);
  const ChunkId chunk = 9;
  const ChoiceList base = placement.choices(chunk);

  // Move the same chunk three times; each delta must see the PREVIOUS
  // overlay (its `from` is the server the last epoch moved to).
  std::vector<PlacementDelta> applied;
  for (int round = 0; round < 3; ++round) {
    const PlacementDelta delta = next_delta(placement, chunk);
    ASSERT_TRUE(placement.apply(delta)) << "round " << round;
    applied.push_back(delta);
  }
  EXPECT_EQ(placement.epoch(), 3u);
  EXPECT_EQ(placement.remapped_chunks(), 1u) << "same chunk, one overlay key";

  // Replaying the deltas over the base choice set reproduces choices().
  std::set<ServerId> expect(base.begin(), base.end());
  for (const PlacementDelta& delta : applied) {
    for (const ChunkRemap& remap : delta.remaps) {
      ASSERT_EQ(expect.erase(remap.from), 1u);
      ASSERT_TRUE(expect.insert(remap.to).second);
    }
  }
  const ChoiceList now = placement.choices(chunk);
  std::set<ServerId> got(now.begin(), now.end());
  EXPECT_EQ(got, expect);

  // history()/deltas_since() expose the replay contract.
  const std::vector<PlacementDelta> history = placement.history();
  ASSERT_EQ(history.size(), 3u);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].epoch, i + 1);
    EXPECT_EQ(history[i].remaps[0], applied[i].remaps[0]);
  }
  EXPECT_EQ(placement.deltas_since(0).size(), 3u);
  const std::vector<PlacementDelta> tail = placement.deltas_since(2);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].epoch, 3u);
  EXPECT_TRUE(placement.deltas_since(3).empty());
}

TEST(EpochedPlacement, ChoiceSetsStayDistinctAndSized) {
  EpochedPlacement placement(16, 3, 2);
  for (ChunkId chunk = 0; chunk < 64; ++chunk) {
    ASSERT_TRUE(placement.apply(next_delta(placement, chunk)));
  }
  EXPECT_EQ(placement.epoch(), 64u);
  for (ChunkId chunk = 0; chunk < 64; ++chunk) {
    const ChoiceList cl = placement.choices(chunk);
    ASSERT_EQ(cl.size(), 3u);
    const std::set<ServerId> unique(cl.begin(), cl.end());
    EXPECT_EQ(unique.size(), 3u) << "chunk " << chunk;
    for (const ServerId s : cl) EXPECT_LT(s, 16u);
  }
}

// Readers racing a writer must always observe a complete epoch: either
// the pre-delta or post-delta choice set, never a partially applied one.
TEST(EpochedPlacement, ConcurrentReadersSeeAtomicCutover) {
  EpochedPlacement placement(8, 2, 31);
  const ChunkId chunk = 3;
  const ChoiceList before = placement.choices(chunk);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t epoch = placement.epoch();
        const ChoiceList cl = placement.choices(chunk);
        // Consistency probe: the choice set must equal SOME epoch's set —
        // size and distinctness always hold, and a set from a later epoch
        // implies the epoch counter (read before) has moved past it.
        if (cl.size() != before.size()) torn.fetch_add(1);
        std::set<ServerId> unique(cl.begin(), cl.end());
        if (unique.size() != cl.size()) torn.fetch_add(1);
        (void)epoch;
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(placement.apply(next_delta(placement, chunk)));
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(placement.epoch(), 200u);
}

// A View caches its overlay between commits.  Racing a writer, every
// lookup must still see at least the epoch published before it started,
// return a full set of distinct servers, and never step back an epoch;
// once the writer is done the View must agree with choices() everywhere.
TEST(EpochedPlacement, ViewFollowsEveryCommittedEpoch) {
  EpochedPlacement placement(16, 3, 5);
  constexpr ChunkId kChunks = 24;
  EpochedPlacement::View view(placement);

  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::uint64_t lookups = 0;
  std::uint64_t bad_sets = 0;
  std::uint64_t stale = 0;
  std::uint64_t backwards = 0;
  std::thread reader([&] {
    std::uint64_t last_epoch = 0;
    for (ChunkId chunk = 0; !done.load(std::memory_order_acquire);
         chunk = (chunk + 1) % kChunks) {
      const std::uint64_t published = placement.epoch();
      const ChoiceList cl = view.choices(chunk);
      ++lookups;
      const std::set<ServerId> unique(cl.begin(), cl.end());
      if (cl.size() != 3 || unique.size() != 3) ++bad_sets;
      if (view.epoch() < published) ++stale;
      if (view.epoch() < last_epoch) ++backwards;
      last_epoch = view.epoch();
      started.store(true, std::memory_order_release);
    }
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  for (std::uint64_t round = 0; round < 200; ++round) {
    ASSERT_TRUE(placement.apply(
        next_delta(placement, static_cast<ChunkId>(round % kChunks))));
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(lookups, 0u);
  EXPECT_EQ(bad_sets, 0u);
  EXPECT_EQ(stale, 0u);
  EXPECT_EQ(backwards, 0u);
  ASSERT_EQ(placement.epoch(), 200u);
  for (ChunkId chunk = 0; chunk < kChunks; ++chunk) {
    const ChoiceList seen = view.choices(chunk);
    const ChoiceList want = placement.choices(chunk);
    EXPECT_EQ(std::vector<ServerId>(seen.begin(), seen.end()),
              std::vector<ServerId>(want.begin(), want.end()))
        << "chunk " << chunk;
  }
  EXPECT_EQ(view.epoch(), 200u);
}

}  // namespace
}  // namespace rlb::core
