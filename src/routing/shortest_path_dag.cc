#include "src/routing/shortest_path_dag.h"

#include <algorithm>

namespace dumbnet {

void ShortestPathDag::Build(const SwitchGraph& graph, uint32_t root, SsspScratch& scratch) {
  root_ = root;
  cost_.assign(graph.size(), kInfCost);
  // Ties need no care here: the DAG keeps every equal-cost predecessor, so the
  // Dijkstra's pop order cannot change the result.
  DijkstraCostsInto(graph, root, scratch);
  for (uint32_t v : scratch.touched()) {
    cost_[v] = scratch.CostOr(v, kInfCost);
  }
}

Result<SwitchPath> ShortestPathDag::Sample(const SwitchGraph& graph, uint32_t target,
                                           Rng* rng) const {
  if (root_ >= graph.size() || target >= graph.size() || cost_.size() != graph.size()) {
    return Error(ErrorCode::kOutOfRange, "vertex out of range");
  }
  if (cost_[target] == kInfCost) {
    return Error(ErrorCode::kUnavailable, "destination unreachable");
  }
  // An edge is on a shortest path iff it closes the cost gap exactly. The true
  // Dijkstra parent always does (cost[v] was computed as that very sum), so
  // every reachable non-root vertex has at least one predecessor.
  auto is_pred = [this](const AdjEdge& e, double cv) {
    return cost_[e.to] < cv && cost_[e.to] + e.weight == cv;
  };
  SwitchPath path;
  path.push_back(target);
  for (uint32_t v = target; v != root_;) {
    if (path.size() > graph.size()) {
      return Error(ErrorCode::kInternal, "shortest-path walk did not reach the root");
    }
    const double cv = cost_[v];
    uint64_t candidates = 0;
    for (const AdjEdge& e : graph.Neighbors(v)) {
      if (is_pred(e, cv)) {
        ++candidates;
      }
    }
    if (candidates == 0) {
      return Error(ErrorCode::kInternal, "shortest-path DAG has no predecessor");
    }
    uint64_t pick = candidates > 1 && rng != nullptr ? rng->UniformInt(candidates) : 0;
    for (const AdjEdge& e : graph.Neighbors(v)) {
      if (is_pred(e, cv) && pick-- == 0) {
        v = e.to;
        break;
      }
    }
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

const ShortestPathDag& ShortestPathDagCache::Get(const SwitchGraph& graph, uint32_t root) {
  auto it = dags_.find(root);
  if (it != dags_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  if ((dags_.size() + 1) * graph.size() > kMaxCachedCosts) {
    dags_.clear();
  }
  ShortestPathDag& dag = dags_[root];
  dag.Build(graph, root, scratch_);
  return dag;
}

}  // namespace dumbnet
