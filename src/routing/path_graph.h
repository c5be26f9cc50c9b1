// Path graph (paper Section 4.3, Algorithm 1): the subgraph the controller hands a
// host when it asks for a route. Contains (i) a primary shortest path, (ii) "s-step,
// ε-good" local detours around every window of the primary, and (iii) a backup path
// that avoids primary links where possible.
//
// One construction path. The primary is a walk sampled from a shortest-path DAG
// rooted at the source switch (shortest_path_dag.h), so equal-cost choices are
// randomized per query; BuildPathGraphAround then adds the backup and the
// detours. The controller serves from a DAG cached per (source, db version) and
// calls BuildPathGraphAround directly; BuildPathGraph builds a fresh DAG in its
// scratch and yields the same graph for the same rng state.
#ifndef DUMBNET_SRC_ROUTING_PATH_GRAPH_H_
#define DUMBNET_SRC_ROUTING_PATH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/routing/graph.h"
#include "src/routing/shortest_path.h"
#include "src/routing/shortest_path_dag.h"
#include "src/topo/topology.h"
#include "src/util/rng.h"

namespace dumbnet {

struct PathGraphParams {
  // Algorithm 1's constants: windows of `s` consecutive hops may be replaced by
  // detours of length at most s + epsilon.
  uint32_t s = 2;
  uint32_t epsilon = 2;
  // Weight multiplier applied to primary-path links before computing the backup,
  // making reuse unlikely "unless it is unavoidable".
  double backup_penalty = 16.0;
};

struct PathGraph {
  uint32_t src_switch = 0;
  uint32_t dst_switch = 0;
  SwitchPath primary;
  SwitchPath backup;
  // All switches of the subgraph (primary ∪ detour sets ∪ backup), deduplicated.
  std::vector<uint32_t> vertices;
  // Induced up links among `vertices` (inter-switch only).
  std::vector<LinkIndex> links;
};

// Reusable buffers for path-graph construction: the primary's DAG, Dijkstra/BFS
// scratch, the per-link weight-scale vector used to repel the backup from the
// primary, and an epoch-stamped vertex-membership set. One instance per thread.
class PathGraphScratch {
 public:
  PathGraphScratch() = default;

 private:
  friend class PathGraphBuilder;

  ShortestPathDag dag_;
  SsspScratch dijkstra_;
  SsspScratch bfs_a_;
  SsspScratch bfs_b_;
  std::vector<double> link_scale_;     // 1.0 except along the primary
  std::vector<LinkIndex> scaled_;      // undo list for link_scale_
  std::vector<uint32_t> member_stamp_; // vertex-set membership, epoch-stamped
  uint32_t member_epoch_ = 0;
  std::vector<uint32_t> vertices_;
  std::vector<LinkIndex> links_;
};

// Builds the path graph between two switches. `graph` must be a current snapshot of
// `topo`. Randomized equal-cost choices draw from `rng` when provided: first the
// primary's walk (ShortestPathDag::Sample), then the backup's Dijkstra.
Result<PathGraph> BuildPathGraph(const Topology& topo, const SwitchGraph& graph,
                                 uint32_t src_switch, uint32_t dst_switch,
                                 const PathGraphParams& params, Rng* rng = nullptr);

// Allocation-free variant: identical output (given the same rng draws), all
// temporaries live in `scratch`.
Result<PathGraph> BuildPathGraph(const Topology& topo, const SwitchGraph& graph,
                                 uint32_t src_switch, uint32_t dst_switch,
                                 const PathGraphParams& params, Rng* rng,
                                 PathGraphScratch& scratch);

// Completes a path graph around an externally supplied primary path (e.g. one
// sampled from a cached ShortestPathDag): computes the backup, detour sets, and
// the induced subgraph. `primary` must be a valid path in `graph`.
Result<PathGraph> BuildPathGraphAround(const Topology& topo, const SwitchGraph& graph,
                                       SwitchPath primary, const PathGraphParams& params,
                                       Rng* rng, PathGraphScratch& scratch);

// Counts distinct simple src→dst paths inside the path-graph subgraph, up to `cap`
// (the subgraph can encode combinatorially many; Figure 12 reports this count).
uint64_t CountPathsInSubgraph(const Topology& topo, const PathGraph& pg, uint64_t cap);

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_PATH_GRAPH_H_
