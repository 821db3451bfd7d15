// Traversal framework over the GraphStore — the Neo4j Traversal-API analog.
//
// Visits nodes in breadth-first or depth-first order from a seed node,
// streaming (node, depth) pairs to a visitor; the expander selects which
// relationships to follow.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graphdb/store.h"

namespace gly::graphdb {

/// Traversal order.
enum class TraversalOrder { kBreadthFirst, kDepthFirst };

/// Which relationships to expand from a node.
enum class Expand { kOutgoing, kBoth };

/// Traversal statistics (drives the TEPS metric for this platform).
struct TraversalStats {
  uint64_t nodes_visited = 0;
  uint64_t relationships_expanded = 0;
  uint32_t max_depth = 0;
};

/// Runs a traversal from `seed`. `visit(node, depth)` is called once per
/// discovered node (including the seed at depth 0); returning false prunes
/// expansion below that node. Fails on store I/O errors.
Status Traverse(GraphStore* store, VertexId seed, TraversalOrder order,
                Expand expand,
                const std::function<bool(VertexId, uint32_t)>& visit,
                TraversalStats* stats_out = nullptr);

/// As above, but discovers nodes into the caller's `seen` (one entry per
/// node, nonzero = discovered) and never rediscovers a node it finds
/// marked, so traversals over disjoint regions — CONN's one per
/// component — share one array instead of zeroing a fresh one each.
Status Traverse(GraphStore* store, VertexId seed, TraversalOrder order,
                Expand expand,
                const std::function<bool(VertexId, uint32_t)>& visit,
                std::vector<uint8_t>* seen,
                TraversalStats* stats_out = nullptr);

}  // namespace gly::graphdb
