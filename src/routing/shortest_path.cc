#include "src/routing/shortest_path.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>

namespace dumbnet {

// Friend accessor: lets the algorithms in this file use the scratch internals
// without exposing them in the header.
class SsspAccess {
 public:
  using HeapItem = SsspScratch::HeapItem;

  static std::vector<HeapItem>& Heap(SsspScratch& s) { return s.heap_; }
  static std::vector<uint32_t>& Touched(SsspScratch& s) { return s.touched_; }
  static bool Done(const SsspScratch& s, uint32_t v) { return s.done_stamp_[v] == s.epoch_; }
  static void MarkDone(SsspScratch& s, uint32_t v) { s.done_stamp_[v] = s.epoch_; }
  static void Set(SsspScratch& s, uint32_t v, double cost, uint32_t parent, uint32_t hops) {
    if (!s.Seen(v)) {
      s.Touch(v);
    }
    s.cost_[v] = cost;
    s.parent_[v] = parent;
    s.hops_[v] = hops;
  }
};

namespace {

using HeapItem = SsspAccess::HeapItem;

// Min-heap on (cost, tiebreak).
struct HeapGreater {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    if (a.cost != b.cost) {
      return a.cost > b.cost;
    }
    return a.tiebreak > b.tiebreak;
  }
};

inline double EdgeWeight(const AdjEdge& e, const std::vector<double>* link_scale) {
  if (link_scale != nullptr && e.link < link_scale->size()) {
    return e.weight * (*link_scale)[e.link];
  }
  return e.weight;
}

// Shared scratch-based Dijkstra core; early-exits at `dst`. Results live in
// `scratch` until its next Prepare().
//
// Vertices are finalized on first pop and never relaxed again. Without this,
// randomized tie-breaking cascades on high-ECMP fabrics: every accepted tie
// re-pushes an equal-cost heap entry, equal-cost pops re-expand, and those
// expansions trigger more downstream ties — on a unit-weight cube a single query
// cost ~100x the finalized version. Ties stay randomized among the candidate
// parents that reach a vertex before it is popped.
void DijkstraInto(const SwitchGraph& graph, uint32_t src, uint32_t dst, Rng* rng,
                  SsspScratch& scratch, const std::vector<double>* link_scale) {
  scratch.Prepare(graph.size());
  auto& heap = SsspAccess::Heap(scratch);
  HeapGreater greater;
  SsspAccess::Set(scratch, src, 0.0, kNoVertex, 0);
  heap.push_back(HeapItem{0.0, 0, src});
  while (!heap.empty()) {
    const HeapItem top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), greater);
    heap.pop_back();
    if (SsspAccess::Done(scratch, top.vertex)) {
      continue;  // duplicate entry; this vertex is already finalized
    }
    SsspAccess::MarkDone(scratch, top.vertex);
    if (top.vertex == dst) {
      break;
    }
    const uint32_t hops = scratch.HopsOr(top.vertex, 0) + 1;
    for (const AdjEdge& e : graph.Neighbors(top.vertex)) {
      if (SsspAccess::Done(scratch, e.to)) {
        continue;  // finalized: cost can't improve, and its parent is settled
      }
      const double nc = top.cost + EdgeWeight(e, link_scale);
      const double old = scratch.CostOr(e.to, kInfCost);
      const bool better = nc < old;
      // Randomized tie-break: replace an equal-cost parent with probability 1/2.
      const bool tie = !better && nc == old && rng != nullptr && rng->Bernoulli(0.5);
      if (better || tie) {
        SsspAccess::Set(scratch, e.to, nc, top.vertex, hops);
        heap.push_back(HeapItem{nc, rng != nullptr ? rng->Next64() : 0, e.to});
        std::push_heap(heap.begin(), heap.end(), greater);
      }
    }
  }
}

Result<SwitchPath> ExtractPath(const SsspScratch& scratch, uint32_t src, uint32_t dst) {
  if (!scratch.Seen(dst)) {
    return Error(ErrorCode::kUnavailable, "destination unreachable");
  }
  SwitchPath path;
  for (uint32_t v = dst; v != kNoVertex; v = scratch.ParentOr(v, kNoVertex)) {
    path.push_back(v);
    if (v == src) {
      break;
    }
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != src) {
    return Error(ErrorCode::kInternal, "path reconstruction failed");
  }
  return path;
}

struct DijkstraItem {
  double cost;
  uint64_t tiebreak;
  uint32_t vertex;

  bool operator>(const DijkstraItem& other) const {
    if (cost != other.cost) {
      return cost > other.cost;
    }
    return tiebreak > other.tiebreak;
  }
};

// Reusable state for Yen's spur searches. One KShortestPaths call runs
// O(k * path-length) spur Dijkstras over the same graph; allocating the cost /
// parent / ban arrays, the heap and the spur path once and undoing only the
// touched entries between searches keeps each spur at O(edges relaxed) with no
// allocation. The banned-edge set is at most k-1 entries per spur, so a
// linear-scanned vector beats a node-based set on every fabric we simulate.
struct SpurScratch {
  std::vector<double> cost;
  std::vector<uint32_t> parent;
  std::vector<char> banned_vertex;
  std::vector<std::pair<uint32_t, uint32_t>> banned_edges;
  std::vector<uint32_t> touched;
  std::vector<DijkstraItem> heap;
  SwitchPath path;  // the last successful spur search's result

  void Init(size_t n) {
    cost.assign(n, kInfCost);
    parent.assign(n, kNoVertex);
    banned_vertex.assign(n, 0);
    banned_edges.clear();
    touched.clear();
  }

  void ResetTouched() {
    for (uint32_t v : touched) {
      cost[v] = kInfCost;
      parent[v] = kNoVertex;
    }
    touched.clear();
  }
};

// Spur-path Dijkstra for Yen's algorithm: lazy deletion, deterministic (no
// randomized tie-break on spur paths), with bans, arrays and the heap living in
// SpurScratch. The heap is driven by the same push_heap/pop_heap calls and
// comparator std::priority_queue<..., std::greater<>> makes, so pop order is
// unchanged. On success the path is left in s.path. Callers must
// ResetTouched() between searches.
bool DijkstraSpur(const SwitchGraph& graph, uint32_t src, uint32_t dst, SpurScratch& s) {
  if (src >= graph.size() || dst >= graph.size()) {
    return false;
  }
  const std::greater<DijkstraItem> greater;
  auto& heap = s.heap;
  heap.clear();
  s.cost[src] = 0.0;
  s.touched.push_back(src);
  heap.push_back({0.0, 0, src});
  std::push_heap(heap.begin(), heap.end(), greater);
  while (!heap.empty()) {
    const double c = heap.front().cost;
    const uint32_t u = heap.front().vertex;
    std::pop_heap(heap.begin(), heap.end(), greater);
    heap.pop_back();
    if (c > s.cost[u]) {
      continue;
    }
    if (u == dst) {
      break;
    }
    for (const AdjEdge& e : graph.Neighbors(u)) {
      if (s.banned_vertex[e.to] != 0) {
        continue;
      }
      const std::pair<uint32_t, uint32_t> key{std::min(u, e.to), std::max(u, e.to)};
      if (std::find(s.banned_edges.begin(), s.banned_edges.end(), key) !=
          s.banned_edges.end()) {
        continue;
      }
      double nc = c + e.weight;
      if (nc < s.cost[e.to]) {
        if (s.cost[e.to] == kInfCost) {
          s.touched.push_back(e.to);
        }
        s.cost[e.to] = nc;
        s.parent[e.to] = u;
        heap.push_back({nc, 0, e.to});
        std::push_heap(heap.begin(), heap.end(), greater);
      }
    }
  }
  if (s.cost[dst] == kInfCost) {
    return false;
  }
  s.path.clear();
  for (uint32_t v = dst; v != kNoVertex; v = s.parent[v]) {
    s.path.push_back(v);
    if (v == src) {
      break;
    }
  }
  std::reverse(s.path.begin(), s.path.end());
  return s.path.front() == src;
}

}  // namespace

std::vector<uint32_t> BfsDistances(const SwitchGraph& graph, uint32_t src) {
  std::vector<uint32_t> dist(graph.size(), UINT32_MAX);
  if (src >= graph.size()) {
    return dist;
  }
  SsspScratch scratch;
  BfsDistancesInto(graph, src, scratch);
  for (uint32_t v : scratch.touched()) {
    dist[v] = scratch.HopsOr(v, UINT32_MAX);
  }
  return dist;
}

void BfsDistancesInto(const SwitchGraph& graph, uint32_t src, SsspScratch& scratch,
                      uint32_t max_hops) {
  scratch.Prepare(graph.size());
  if (src >= graph.size()) {
    return;
  }
  // touched() doubles as the BFS queue: visit order == touch order.
  SsspAccess::Set(scratch, src, 0.0, kNoVertex, 0);
  auto& queue = SsspAccess::Touched(scratch);
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    const uint32_t u = queue[qi];
    const uint32_t du = scratch.HopsOr(u, 0);
    if (du >= max_hops) {
      continue;  // beyond the horizon: exact inside, unreached outside
    }
    for (const AdjEdge& e : graph.Neighbors(u)) {
      if (!scratch.Seen(e.to)) {
        SsspAccess::Set(scratch, e.to, static_cast<double>(du + 1), u, du + 1);
      }
    }
  }
}

Result<SwitchPath> ShortestPath(const SwitchGraph& graph, uint32_t src, uint32_t dst,
                                Rng* rng) {
  if (src >= graph.size() || dst >= graph.size()) {
    return Error(ErrorCode::kOutOfRange, "vertex out of range");
  }
  // Shares DijkstraInto with ShortestPathScaled so both draw from `rng`
  // identically: same seed, same graph => same path, scaled or not. The scratch
  // is thread-local so back-to-back queries (one per route install during
  // bring-up) reuse the arrays; Prepare() epoch-invalidates stale contents, so
  // results never depend on what a previous query left behind.
  static thread_local SsspScratch scratch;
  DijkstraInto(graph, src, dst, rng, scratch, nullptr);
  return ExtractPath(scratch, src, dst);
}

void DijkstraCostsInto(const SwitchGraph& graph, uint32_t src, SsspScratch& scratch) {
  if (src >= graph.size()) {
    scratch.Prepare(graph.size());
    return;
  }
  DijkstraInto(graph, src, kNoVertex, /*rng=*/nullptr, scratch, /*link_scale=*/nullptr);
}

Result<SwitchPath> ShortestPathScaled(const SwitchGraph& graph, uint32_t src, uint32_t dst,
                                      Rng* rng, SsspScratch& scratch,
                                      const std::vector<double>* link_scale) {
  if (src >= graph.size() || dst >= graph.size()) {
    return Error(ErrorCode::kOutOfRange, "vertex out of range");
  }
  DijkstraInto(graph, src, dst, rng, scratch, link_scale);
  return ExtractPath(scratch, src, dst);
}

Result<double> PathCost(const SwitchGraph& graph, const SwitchPath& path) {
  if (path.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty path");
  }
  double total = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    bool found = false;
    double best = kInfCost;
    for (const AdjEdge& e : graph.Neighbors(path[i])) {
      if (e.to == path[i + 1]) {
        best = std::min(best, e.weight);
        found = true;
      }
    }
    if (!found) {
      return Error(ErrorCode::kNotFound, "missing edge on path");
    }
    total += best;
  }
  return total;
}

Result<std::vector<SwitchPath>> KShortestPaths(const SwitchGraph& graph, uint32_t src,
                                               uint32_t dst, uint32_t k) {
  auto first = ShortestPath(graph, src, dst);
  if (!first.ok()) {
    return first.error();
  }
  std::vector<SwitchPath> result;
  result.push_back(std::move(first.value()));
  if (k <= 1) {
    return result;
  }

  // Candidate pool ordered by cost; set dedups identical paths.
  struct Candidate {
    double cost;
    SwitchPath path;
    bool operator>(const Candidate& other) const { return cost > other.cost; }
  };
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<Candidate>> candidates;
  std::set<SwitchPath> seen(result.begin(), result.end());
  SpurScratch scratch;
  scratch.Init(graph.size());
  SwitchPath root;

  while (result.size() < k) {
    const SwitchPath& prev = result.back();
    root.clear();
    // Spur from every vertex of the previous path except the last. The root
    // prefix prev[0..i] and the banned root vertices prev[0..i-1] both grow by
    // one element per step, so they are maintained incrementally.
    for (size_t i = 0; i + 1 < prev.size(); ++i) {
      uint32_t spur = prev[i];
      root.push_back(spur);
      if (i > 0) {
        scratch.banned_vertex[prev[i - 1]] = 1;
      }

      // Ban edges that would recreate an already-found path with this root
      // (root vertices are banned above to keep paths simple).
      scratch.banned_edges.clear();
      for (const SwitchPath& p : result) {
        if (p.size() > i + 1 && std::equal(root.begin(), root.end(), p.begin())) {
          scratch.banned_edges.push_back(
              {std::min(p[i], p[i + 1]), std::max(p[i], p[i + 1])});
        }
      }

      const bool found = DijkstraSpur(graph, spur, dst, scratch);
      scratch.ResetTouched();
      if (!found) {
        continue;
      }
      SwitchPath total = root;
      total.insert(total.end(), scratch.path.begin() + 1, scratch.path.end());
      if (seen.count(total) > 0) {
        continue;
      }
      seen.insert(total);
      auto cost = PathCost(graph, total);
      if (cost.ok()) {
        candidates.push({cost.value(), std::move(total)});
      }
    }
    for (size_t j = 0; j + 2 < prev.size(); ++j) {
      scratch.banned_vertex[prev[j]] = 0;
    }
    if (candidates.empty()) {
      break;
    }
    result.push_back(candidates.top().path);
    candidates.pop();
  }
  return result;
}

}  // namespace dumbnet
