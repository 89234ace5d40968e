// Unit tests for the placement-graph analyzer (core/placement_graph.hpp).
#include "core/placement_graph.hpp"

#include <gtest/gtest.h>

namespace rlb::core {
namespace {

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

TEST(PlacementGraph, RejectsBadInput) {
  EXPECT_THROW((void)analyze_edge_list({}, 0), std::invalid_argument);
  EXPECT_THROW((void)analyze_edge_list({{0, 5}}, 4), std::out_of_range);
  const Placement d3(8, 3, 1);
  EXPECT_THROW((void)analyze_placement_graph(d3, 4), std::invalid_argument);
}

TEST(PlacementGraph, EmptyGraphIsAllIsolatedTrees) {
  const PlacementGraphStats stats = analyze_edge_list({}, 5);
  EXPECT_EQ(stats.components, 5u);
  EXPECT_EQ(stats.tree_components, 5u);
  EXPECT_EQ(stats.unicyclic_components, 0u);
  EXPECT_EQ(stats.complex_components, 0u);
  EXPECT_TRUE(stats.cuckoo_feasible());
  EXPECT_EQ(stats.largest_component, 1u);
  EXPECT_LE(stats.max_overload_excess, 0);
}

TEST(PlacementGraph, PathIsATree) {
  // 0-1-2-3: 3 edges on 4 vertices.
  const PlacementGraphStats stats =
      analyze_edge_list({{0, 1}, {1, 2}, {2, 3}}, 6);
  EXPECT_EQ(stats.components, 3u);  // the path + two isolated vertices
  EXPECT_EQ(stats.tree_components, 3u);
  EXPECT_EQ(stats.largest_component, 4u);
  EXPECT_TRUE(stats.cuckoo_feasible());
}

TEST(PlacementGraph, CycleIsUnicyclic) {
  const PlacementGraphStats stats =
      analyze_edge_list({{0, 1}, {1, 2}, {2, 0}}, 3);
  EXPECT_EQ(stats.unicyclic_components, 1u);
  EXPECT_TRUE(stats.cuckoo_feasible());  // unicyclic is still placeable
  EXPECT_EQ(stats.max_overload_excess, 0);
}

TEST(PlacementGraph, DoubleEdgePlusCycleIsComplex) {
  // Two parallel edges {0,1} + edge {1,2} + edge {2,0}: 4 edges, 3 vertices.
  const PlacementGraphStats stats =
      analyze_edge_list({{0, 1}, {0, 1}, {1, 2}, {2, 0}}, 3);
  EXPECT_EQ(stats.complex_components, 1u);
  EXPECT_FALSE(stats.cuckoo_feasible());
  EXPECT_EQ(stats.max_overload_excess, 1);  // 4 - 1*3
}

TEST(PlacementGraph, SelfLoopCountsAsEdge) {
  // A chunk whose both replicas landed on the same server (only possible
  // via the edge-list API; Placement enforces distinctness).
  const PlacementGraphStats stats = analyze_edge_list({{2, 2}}, 4);
  EXPECT_EQ(stats.unicyclic_components, 1u);  // 1 edge on 1 vertex
}

TEST(PlacementGraph, OverloadExcessUsesG) {
  // Triple edge on a pair: 3 edges, 2 vertices.
  const Edges edges = {{0, 1}, {0, 1}, {0, 1}};
  EXPECT_EQ(analyze_edge_list(edges, 2, /*g=*/1).max_overload_excess, 1);
  EXPECT_EQ(analyze_edge_list(edges, 2, /*g=*/2).max_overload_excess, -1);
}

TEST(PlacementGraph, MatchesCuckooFeasibilityOnRandomInstances) {
  // Cross-validate against the exact TwoChoiceAllocator-style condition:
  // the analyzer's cuckoo_feasible must be monotone-correct — at chunk
  // counts far below m/2 random graphs are feasible; far above, not.
  const Placement placement(256, 2, 77);
  const PlacementGraphStats sparse =
      analyze_placement_graph(placement, 64);  // 25% load
  EXPECT_TRUE(sparse.cuckoo_feasible());
  const PlacementGraphStats dense =
      analyze_placement_graph(placement, 240);  // 94% load
  EXPECT_FALSE(dense.cuckoo_feasible());
}

TEST(PlacementGraph, ChunkAndServerCountsRecorded) {
  const Placement placement(64, 2, 5);
  const PlacementGraphStats stats = analyze_placement_graph(placement, 30);
  EXPECT_EQ(stats.servers, 64u);
  EXPECT_EQ(stats.chunks, 30u);
  EXPECT_GE(stats.components, 1u);
}

}  // namespace
}  // namespace rlb::core
