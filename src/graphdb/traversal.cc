#include "graphdb/traversal.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/macros.h"

namespace gly::graphdb {

Status Traverse(GraphStore* store, VertexId seed, TraversalOrder order,
                Expand expand,
                const std::function<bool(VertexId, uint32_t)>& visit,
                TraversalStats* stats_out) {
  std::vector<uint8_t> seen(store->node_count(), 0);
  return Traverse(store, seed, order, expand, visit, &seen, stats_out);
}

Status Traverse(GraphStore* store, VertexId seed, TraversalOrder order,
                Expand expand,
                const std::function<bool(VertexId, uint32_t)>& visit,
                std::vector<uint8_t>* seen, TraversalStats* stats_out) {
  if (seed >= store->node_count()) {
    return Status::InvalidArgument("seed node out of range");
  }
  if (seen->size() < store->node_count()) {
    return Status::InvalidArgument("visited array smaller than the store");
  }
  TraversalStats stats;
  // Frontier of (node, depth); front-pop for BFS, back-pop for DFS.
  std::deque<std::pair<VertexId, uint32_t>> frontier;
  frontier.emplace_back(seed, 0);
  (*seen)[seed] = 1;
  std::vector<VertexId> neighbors;
  while (!frontier.empty()) {
    auto [node, depth] = order == TraversalOrder::kBreadthFirst
                             ? frontier.front()
                             : frontier.back();
    if (order == TraversalOrder::kBreadthFirst) {
      frontier.pop_front();
    } else {
      frontier.pop_back();
    }
    ++stats.nodes_visited;
    stats.max_depth = std::max(stats.max_depth, depth);
    if (!visit(node, depth)) continue;  // pruned
    GLY_RETURN_NOT_OK(store->CollectNeighbors(
        node, expand == Expand::kOutgoing, &neighbors));
    stats.relationships_expanded += neighbors.size();
    for (VertexId w : neighbors) {
      if (!(*seen)[w]) {
        (*seen)[w] = 1;
        frontier.emplace_back(w, depth + 1);
      }
    }
  }
  if (stats_out != nullptr) *stats_out = stats;
  return Status::OK();
}

}  // namespace gly::graphdb
