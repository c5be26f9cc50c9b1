// Shortest-path DAGs: the one engine behind every randomized shortest path the
// controller serves (paper Section 4.3: the primary "randomizes the choice for
// equal cost links").
//
// A ShortestPathDag is a plain, non-randomized Dijkstra cost array from one root
// switch over one graph snapshot. It encodes every shortest path from the root at
// once: an edge (u, v) lies on one iff cost[u] + w(u, v) == cost[v]. Sampling
// walks from a target back to the root and picks uniformly among the equal-cost
// predecessors at each step with the caller's rng. So one DAG per root and graph
// snapshot serves any number of queries, and each query still draws its own
// tie-breaks: the randomness lives in the walk, never in the shared DAG.
#ifndef DUMBNET_SRC_ROUTING_SHORTEST_PATH_DAG_H_
#define DUMBNET_SRC_ROUTING_SHORTEST_PATH_DAG_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/routing/graph.h"
#include "src/routing/shortest_path.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace dumbnet {

class ShortestPathDag {
 public:
  // Recomputes the cost array from `root` over `graph` with DijkstraCostsInto
  // (full, no randomness), run in `scratch`. Storage is reused across builds.
  void Build(const SwitchGraph& graph, uint32_t root, SsspScratch& scratch);

  uint32_t root() const { return root_; }
  // Shortest-path cost from the root; kInfCost when `v` is unreachable or out
  // of range.
  double CostTo(uint32_t v) const { return v < cost_.size() ? cost_[v] : kInfCost; }

  // A shortest path from the root to `target` (root first, target last). Each
  // step back from the target picks uniformly among the equal-cost predecessors
  // with `rng`; a null rng takes the first in adjacency order. Draws only where
  // there is a choice, so the result is a pure function of (graph, root, target,
  // rng state). `graph` must be the snapshot the DAG was built over; SwitchGraph
  // links are undirected, so a predecessor's edge weight is read from the
  // target-side adjacency. Error when the target is unreachable.
  Result<SwitchPath> Sample(const SwitchGraph& graph, uint32_t target, Rng* rng) const;

 private:
  uint32_t root_ = kNoVertex;
  std::vector<double> cost_;
};

// One ShortestPathDag per root over one graph snapshot: built the first time a
// root is asked for, then served to every later query. The owner calls Clear()
// whenever the snapshot changes (the controller does on every routing-graph
// rebuild, i.e. per db version).
class ShortestPathDagCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  // The DAG rooted at `root` over `graph`, built iff `root` has none yet.
  // `graph` must be the snapshot every cached DAG was built over. The reference
  // is valid until the next Get() or Clear().
  const ShortestPathDag& Get(const SwitchGraph& graph, uint32_t root);

  // Drops every DAG; call when the graph snapshot changes.
  void Clear() { dags_.clear(); }

  const Stats& stats() const { return stats_; }

 private:
  // Bound on cached cost entries (8 bytes each). Past it the cache starts over,
  // like the controller's wire-graph memo: bounded memory on huge fabrics, and
  // still deterministic.
  static constexpr size_t kMaxCachedCosts = size_t{1} << 22;

  std::unordered_map<uint32_t, ShortestPathDag> dags_;
  SsspScratch scratch_;  // Build()'s Dijkstra buffers, shared by every root
  Stats stats_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_SHORTEST_PATH_DAG_H_
