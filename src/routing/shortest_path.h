// Shortest-path primitives: BFS hop distances, point-to-point Dijkstra with
// randomized equal-cost tie-breaking (what the path graph's backup uses, under a
// per-link weight scale), and Yen's k-shortest paths (what TopoCache computes
// over its cached subgraph). Primaries and controller routes are not drawn here:
// they are sampled from a per-root shortest-path DAG (shortest_path_dag.h).
//
// Hot-path variants take an SsspScratch: epoch-stamped reusable buffers so repeated
// queries do zero O(V) allocation or clearing.
#ifndef DUMBNET_SRC_ROUTING_SHORTEST_PATH_H_
#define DUMBNET_SRC_ROUTING_SHORTEST_PATH_H_

#include <cstdint>
#include <vector>

#include "src/routing/graph.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace dumbnet {

// A path as a sequence of switch indices (src switch first, dst switch last).
using SwitchPath = std::vector<uint32_t>;

// Reusable scratch space for BFS/Dijkstra. Prepare() bumps an epoch instead of
// clearing, so per-query setup is O(1); arrays grow to the largest graph seen and
// are then reused. Not thread-safe: use one scratch per thread.
class SsspScratch {
 public:
  // Must be called (by the algorithm) before each query.
  void Prepare(size_t vertices) {
    if (stamp_.size() < vertices) {
      stamp_.resize(vertices, 0);
      done_stamp_.resize(vertices, 0);
      cost_.resize(vertices);
      parent_.resize(vertices);
      hops_.resize(vertices);
    }
    if (++epoch_ == 0) {  // wrapped: all stamps are stale garbage, really clear
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      std::fill(done_stamp_.begin(), done_stamp_.end(), 0u);
      epoch_ = 1;
    }
    touched_.clear();
    heap_.clear();
  }

  bool Seen(uint32_t v) const { return stamp_[v] == epoch_; }
  void Touch(uint32_t v) {
    stamp_[v] = epoch_;
    touched_.push_back(v);
  }

  double CostOr(uint32_t v, double fallback) const { return Seen(v) ? cost_[v] : fallback; }
  uint32_t HopsOr(uint32_t v, uint32_t fallback) const { return Seen(v) ? hops_[v] : fallback; }
  uint32_t ParentOr(uint32_t v, uint32_t fallback) const {
    return Seen(v) ? parent_[v] : fallback;
  }

  // Vertices reached by the last query, in visit order.
  const std::vector<uint32_t>& touched() const { return touched_; }

 private:
  friend class SsspAccess;  // algorithm-side accessor (shortest_path.cc)

  struct HeapItem {
    double cost;
    uint64_t tiebreak;
    uint32_t vertex;
  };

  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> done_stamp_;  // Dijkstra finalization marks (see DijkstraInto)
  std::vector<double> cost_;
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> hops_;
  std::vector<uint32_t> touched_;
  std::vector<HeapItem> heap_;
  uint32_t epoch_ = 0;
};

// Unweighted hop distances from `src` to every switch (kNoVertex-reachable entries
// are UINT32_MAX).
std::vector<uint32_t> BfsDistances(const SwitchGraph& graph, uint32_t src);

// Scratch-based BFS, optionally truncated at `max_hops` (vertices further than
// that are simply left unreached — exact distances are still produced inside the
// horizon). Read results via scratch.HopsOr()/touched().
void BfsDistancesInto(const SwitchGraph& graph, uint32_t src, SsspScratch& scratch,
                      uint32_t max_hops = UINT32_MAX);

// Dijkstra. When `rng` is non-null, ties between equal-cost relaxations are broken
// uniformly at random, so repeated calls spread over ECMP paths (Section 4.3:
// "randomizes the choice for equal cost links"). Returns an error if dst is
// unreachable.
Result<SwitchPath> ShortestPath(const SwitchGraph& graph, uint32_t src, uint32_t dst,
                                Rng* rng = nullptr);

// Full single-source Dijkstra from `src`: no early exit, no randomness. Read the
// costs via scratch.CostOr()/touched(). ShortestPathDag::Build runs it.
void DijkstraCostsInto(const SwitchGraph& graph, uint32_t src, SsspScratch& scratch);

// Scratch-based point-to-point Dijkstra with an optional per-link weight
// multiplier (`link_scale`, indexed by LinkIndex; entries default to 1.0 — pass
// nullptr for none). The multiplier is how backup paths are repelled from primary
// links without copying the graph.
Result<SwitchPath> ShortestPathScaled(const SwitchGraph& graph, uint32_t src, uint32_t dst,
                                      Rng* rng, SsspScratch& scratch,
                                      const std::vector<double>* link_scale);

// Yen's algorithm: up to k loop-free shortest paths in nondecreasing cost order.
// Returns at least one path or an error if src/dst are disconnected.
Result<std::vector<SwitchPath>> KShortestPaths(const SwitchGraph& graph, uint32_t src,
                                               uint32_t dst, uint32_t k);

// Total weight of a path under `graph`; error if an edge is missing.
Result<double> PathCost(const SwitchGraph& graph, const SwitchPath& path);

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_SHORTEST_PATH_H_
