#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/analysis/invariants.h"
#include "src/routing/graph.h"
#include "src/routing/path_graph.h"
#include "src/routing/shortest_path.h"
#include "src/routing/shortest_path_dag.h"
#include "src/routing/tags.h"
#include "src/topo/generators.h"
#include "tests/random_topo.h"

namespace dumbnet {
namespace {

// A small diamond: 0 - {1,2} - 3, plus a long way around 0-4-5-3.
Topology Diamond() {
  Topology t;
  for (int i = 0; i < 6; ++i) {
    t.AddSwitch(8);
  }
  EXPECT_TRUE(t.ConnectSwitches(0, 1, 1, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(0, 2, 2, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(1, 2, 3, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(2, 2, 3, 2).ok());
  EXPECT_TRUE(t.ConnectSwitches(0, 3, 4, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(4, 2, 5, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(5, 2, 3, 3).ok());
  return t;
}

TEST(BfsTest, Distances) {
  Topology t = Diamond();
  SwitchGraph g(t);
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], 2u);
  EXPECT_EQ(dist[4], 1u);
  EXPECT_EQ(dist[5], 2u);
}

TEST(BfsTest, UnreachableIsMax) {
  Topology t;
  t.AddSwitch(4);
  t.AddSwitch(4);
  SwitchGraph g(t);
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[1], UINT32_MAX);
}

TEST(ShortestPathTest, FindsMinHops) {
  Topology t = Diamond();
  SwitchGraph g(t);
  auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().size(), 3u);
  EXPECT_EQ(path.value().front(), 0u);
  EXPECT_EQ(path.value().back(), 3u);
}

TEST(ShortestPathTest, DownLinksExcluded) {
  Topology t = Diamond();
  // Kill both short middle links; only the long way remains.
  t.SetLinkUp(t.LinkAtPort(1, 2), false);
  t.SetLinkUp(t.LinkAtPort(2, 2), false);
  SwitchGraph g(t);
  auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), (SwitchPath{0, 4, 5, 3}));
}

TEST(ShortestPathTest, UnreachableErrors) {
  Topology t;
  t.AddSwitch(4);
  t.AddSwitch(4);
  SwitchGraph g(t);
  EXPECT_EQ(ShortestPath(g, 0, 1).error().code(), ErrorCode::kUnavailable);
}

TEST(ShortestPathTest, RandomTieBreakSpreadsOverEcmp) {
  Topology t = Diamond();
  SwitchGraph g(t);
  Rng rng(3);
  std::set<SwitchPath> seen;
  for (int i = 0; i < 64; ++i) {
    auto path = ShortestPath(g, 0, 3, &rng);
    ASSERT_TRUE(path.ok());
    seen.insert(path.value());
  }
  // Both 0-1-3 and 0-2-3 must appear.
  EXPECT_EQ(seen.size(), 2u);
}

TEST(KspTest, OrderedUniqueSimplePaths) {
  Topology t = Diamond();
  SwitchGraph g(t);
  auto paths = KShortestPaths(g, 0, 3, 5);
  ASSERT_TRUE(paths.ok());
  ASSERT_GE(paths.value().size(), 3u);
  std::set<SwitchPath> unique(paths.value().begin(), paths.value().end());
  EXPECT_EQ(unique.size(), paths.value().size());
  double prev = 0;
  for (const SwitchPath& p : paths.value()) {
    EXPECT_EQ(p.front(), 0u);
    EXPECT_EQ(p.back(), 3u);
    // Simple: no vertex repeats.
    std::set<uint32_t> verts(p.begin(), p.end());
    EXPECT_EQ(verts.size(), p.size());
    double cost = PathCost(g, p).value();
    EXPECT_GE(cost, prev);
    prev = cost;
  }
  // The two 2-hop paths come first, the 3-hop detour third.
  EXPECT_EQ(paths.value()[0].size(), 3u);
  EXPECT_EQ(paths.value()[1].size(), 3u);
  EXPECT_EQ(paths.value()[2].size(), 4u);
}

TEST(KspTest, FatTreeEcmpCount) {
  FatTreeConfig config;
  config.k = 4;
  config.attach_hosts = false;
  auto ft = MakeFatTree(config);
  ASSERT_TRUE(ft.ok());
  SwitchGraph g(ft.value().topo);
  // Between two edge switches in different pods there are exactly (k/2)^2 = 4
  // shortest 5-switch paths.
  auto paths = KShortestPaths(g, ft.value().edge[0], ft.value().edge[7], 8);
  ASSERT_TRUE(paths.ok());
  size_t minimal = 0;
  for (const SwitchPath& p : paths.value()) {
    if (p.size() == 5) {
      ++minimal;
    }
  }
  EXPECT_EQ(minimal, 4u);
}

// Yen's output on a k=8 fat-tree, pinned by digest: the spur search keeps its
// heap in reusable scratch, and that must not change its pop order, so the
// routes hosts compile from these paths stay bit-identical.
TEST(KspTest, FatTreeOutputIsPinned) {
  FatTreeConfig config;
  config.k = 8;
  config.attach_hosts = false;
  auto ft = MakeFatTree(config);
  ASSERT_TRUE(ft.ok());
  SwitchGraph g(ft.value().topo);
  const std::vector<uint32_t>& edge = ft.value().edge;
  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over path lengths and vertices
  auto mix = [&digest](uint64_t x) { digest = (digest ^ x) * 0x100000001b3ULL; };
  size_t paths = 0;
  for (size_t s = 0; s < edge.size(); s += 5) {
    for (size_t d = 1; d < edge.size(); d += 3) {
      auto ksp = KShortestPaths(g, edge[s], edge[d], 4);
      ASSERT_TRUE(ksp.ok());
      for (const SwitchPath& p : ksp.value()) {
        ++paths;
        mix(p.size());
        for (uint32_t v : p) {
          mix(v);
        }
      }
    }
  }
  EXPECT_EQ(paths, 302u);
  EXPECT_EQ(digest, 0x4b6a6a279f949a2dULL);
}

TEST(TagsTest, CompileAndFormat) {
  Topology t = Diamond();
  uint32_t h0 = t.AddHost();
  uint32_t h1 = t.AddHost();
  ASSERT_TRUE(t.AttachHost(h0, 0, 5).ok());
  ASSERT_TRUE(t.AttachHost(h1, 3, 5).ok());
  auto tags = CompilePathTags(t, h0, {0, 1, 3}, h1);
  ASSERT_TRUE(tags.ok());
  // 0 exits to 1 via port 1; 1 exits to 3 via port 2; 3 reaches h1 via port 5.
  EXPECT_EQ(tags.value(), (TagList{1, 2, 5}));
  EXPECT_EQ(TagsToString(tags.value()), "1-2-5-\xC3\xB8");
}

TEST(TagsTest, RejectsMismatchedEndpoints) {
  Topology t = Diamond();
  uint32_t h0 = t.AddHost();
  uint32_t h1 = t.AddHost();
  ASSERT_TRUE(t.AttachHost(h0, 0, 5).ok());
  ASSERT_TRUE(t.AttachHost(h1, 3, 5).ok());
  EXPECT_FALSE(CompilePathTags(t, h0, {1, 3}, h1).ok());    // wrong start
  EXPECT_FALSE(CompilePathTags(t, h0, {0, 1}, h1).ok());    // wrong end
  EXPECT_FALSE(CompilePathTags(t, h0, {0, 3}, h1).ok());    // no direct link
}

TEST(TagsTest, SkipsDownLinks) {
  Topology t = Diamond();
  t.SetLinkUp(t.LinkAtPort(0, 1), false);
  auto tags = CompileSwitchTags(t, {0, 1});
  EXPECT_FALSE(tags.ok());
}

// --- Path graph (Algorithm 1) ------------------------------------------------------

class PathGraphEpsilonTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PathGraphEpsilonTest, InvariantsOnCube) {
  CubeConfig config;
  config.dims = {5, 5, 5};
  config.switch_ports = 16;
  auto cube = MakeCube(config);
  ASSERT_TRUE(cube.ok());
  const Topology& t = cube.value().topo;
  SwitchGraph g(t);

  PathGraphParams params;
  params.s = 2;
  params.epsilon = GetParam();
  uint32_t src = cube.value().At(0, 0, 0);
  uint32_t dst = cube.value().At(4, 4, 4);
  auto pg = BuildPathGraph(t, g, src, dst, params);
  ASSERT_TRUE(pg.ok());

  // Every constructed path graph must satisfy the structural invariant catalog.
  auto audit = AuditPathGraph(t, pg.value());
  EXPECT_TRUE(audit.ok()) << audit.error().message();

  // Primary is a shortest path (Manhattan distance = 12 hops -> 13 vertices).
  EXPECT_EQ(pg.value().primary.size(), 13u);
  // The subgraph contains primary and backup.
  std::set<uint32_t> verts(pg.value().vertices.begin(), pg.value().vertices.end());
  for (uint32_t v : pg.value().primary) {
    EXPECT_TRUE(verts.count(v)) << "primary vertex missing";
  }
  for (uint32_t v : pg.value().backup) {
    EXPECT_TRUE(verts.count(v)) << "backup vertex missing";
  }
  // The induced subgraph is connected and src->dst routable within it.
  SwitchGraph sub(t, pg.value().links);
  auto inner = ShortestPath(sub, src, dst);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner.value().size(), 13u);
  // Subgraph is much smaller than the full topology for small epsilon.
  if (GetParam() == 0) {
    EXPECT_LT(pg.value().vertices.size(), t.switch_count() / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, PathGraphEpsilonTest, ::testing::Values(0u, 1u, 2u, 4u));

TEST(PathGraphTest, SizeGrowsWithEpsilon) {
  CubeConfig config;
  config.dims = {6, 6, 6};
  config.switch_ports = 16;
  auto cube = MakeCube(config);
  ASSERT_TRUE(cube.ok());
  const Topology& t = cube.value().topo;
  SwitchGraph g(t);
  uint32_t src = cube.value().At(0, 0, 0);
  uint32_t dst = cube.value().At(5, 5, 5);
  size_t prev = 0;
  for (uint32_t eps : {0u, 1u, 2u, 3u}) {
    PathGraphParams params;
    params.s = 2;
    params.epsilon = eps;
    auto pg = BuildPathGraph(t, g, src, dst, params);
    ASSERT_TRUE(pg.ok());
    EXPECT_TRUE(AuditPathGraph(t, pg.value()).ok());
    EXPECT_GE(pg.value().vertices.size(), prev);
    prev = pg.value().vertices.size();
  }
}

TEST(PathGraphTest, BackupAvoidsPrimaryWherePossible) {
  Topology t = Diamond();
  SwitchGraph g(t);
  PathGraphParams params;
  auto pg = BuildPathGraph(t, g, 0, 3, params);
  ASSERT_TRUE(pg.ok());
  ASSERT_FALSE(pg.value().backup.empty());
  // Diamond has two disjoint 2-hop routes; backup must not reuse the primary's
  // middle vertex.
  ASSERT_EQ(pg.value().primary.size(), 3u);
  ASSERT_GE(pg.value().backup.size(), 3u);
  EXPECT_NE(pg.value().primary[1], pg.value().backup[1]);
}

TEST(PathGraphTest, CountPathsRespectsCap) {
  Topology t = Diamond();
  SwitchGraph g(t);
  PathGraphParams params;
  params.epsilon = 4;
  auto pg = BuildPathGraph(t, g, 0, 3, params);
  ASSERT_TRUE(pg.ok());
  uint64_t all = CountPathsInSubgraph(t, pg.value(), 1000);
  EXPECT_GE(all, 3u);
  EXPECT_EQ(CountPathsInSubgraph(t, pg.value(), 2), 2u);
}

TEST(PathGraphTest, SingleVertexPath) {
  Topology t = Diamond();
  SwitchGraph g(t);
  auto pg = BuildPathGraph(t, g, 2, 2, PathGraphParams{});
  ASSERT_TRUE(pg.ok());
  EXPECT_EQ(pg.value().primary, (SwitchPath{2}));
}

// ---------------------------------------------------------------------------
// CSR graph / scratch-SSSP / batch equivalence (the perf rework must not change
// any routing result).
// ---------------------------------------------------------------------------

Topology MediumCube() {
  CubeConfig config;
  config.dims = {4, 4, 4};
  config.hosts_per_switch = 0;
  config.switch_ports = 8;
  auto cube = MakeCube(config);
  EXPECT_TRUE(cube.ok());
  return std::move(cube.value().topo);
}

TEST(GraphTest, CsrNeighborsMatchTopologyLinks) {
  Topology t = MediumCube();
  // Knock one link down: it must disappear from the adjacency.
  t.SetLinkUp(0, false);
  SwitchGraph g(t);
  // Collect expected (switch, peer, link) triples straight from the link table.
  std::set<std::tuple<uint32_t, uint32_t, LinkIndex>> expected;
  for (LinkIndex li = 0; li < t.link_count(); ++li) {
    const Link& l = t.link_at(li);
    if (!l.up || !l.a.node.is_switch() || !l.b.node.is_switch()) {
      continue;
    }
    expected.insert({l.a.node.index, l.b.node.index, li});
    expected.insert({l.b.node.index, l.a.node.index, li});
  }
  std::set<std::tuple<uint32_t, uint32_t, LinkIndex>> actual;
  size_t edges = 0;
  for (uint32_t v = 0; v < g.size(); ++v) {
    for (const AdjEdge& e : g.Neighbors(v)) {
      actual.insert({v, e.to, e.link});
      ++edges;
    }
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(edges, g.edge_count());
}

TEST(BfsTest, ScratchVariantMatchesAllocatingVariant) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  std::vector<uint32_t> dist = BfsDistances(g, 0);
  SsspScratch scratch;
  BfsDistancesInto(g, 0, scratch);
  for (uint32_t v = 0; v < g.size(); ++v) {
    EXPECT_EQ(scratch.HopsOr(v, UINT32_MAX), dist[v]) << "vertex " << v;
  }
}

TEST(BfsTest, TruncationIsExactInsideHorizon) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  std::vector<uint32_t> dist = BfsDistances(g, 0);
  const uint32_t kHorizon = 3;
  SsspScratch scratch;
  BfsDistancesInto(g, 0, scratch, kHorizon);
  for (uint32_t v = 0; v < g.size(); ++v) {
    if (dist[v] <= kHorizon) {
      EXPECT_EQ(scratch.HopsOr(v, UINT32_MAX), dist[v]) << "vertex " << v;
    } else {
      EXPECT_FALSE(scratch.Seen(v)) << "vertex " << v;
    }
  }
}

TEST(ShortestPathTest, ScaledVariantMatchesPlainWithSameSeed) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  for (uint32_t dst : {7u, 21u, 63u}) {
    Rng rng_a(99);
    Rng rng_b(99);
    auto plain = ShortestPath(g, 0, dst, &rng_a);
    SsspScratch scratch;
    auto scaled = ShortestPathScaled(g, 0, dst, &rng_b, scratch, nullptr);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(scaled.ok());
    EXPECT_EQ(plain.value(), scaled.value()) << "dst " << dst;
  }
}

// ---------------------------------------------------------------------------
// Shortest-path DAG: the engine behind every randomized route the controller
// serves.
// ---------------------------------------------------------------------------

struct NamedGraph {
  std::string name;
  Topology topo;
};

// Leaf-spine, fat-tree, jellyfish and random graphs: every shape the sampler
// must handle, from pure ECMP fabrics to irregular ones.
std::vector<NamedGraph> SamplerFabrics() {
  std::vector<NamedGraph> out;
  LeafSpineConfig ls;
  ls.num_spine = 4;
  ls.num_leaf = 6;
  ls.hosts_per_leaf = 0;
  out.push_back({"leafspine", std::move(MakeLeafSpine(ls).value().topo)});
  FatTreeConfig ft;
  ft.k = 6;
  ft.attach_hosts = false;
  out.push_back({"fattree6", std::move(MakeFatTree(ft).value().topo)});
  for (uint64_t seed : {1u, 2u}) {
    JellyfishConfig jf;
    jf.num_switches = 40;
    jf.network_degree = 5;
    jf.hosts_per_switch = 0;
    jf.seed = seed;
    out.push_back({"jellyfish" + std::to_string(seed), std::move(MakeJellyfish(jf).value().topo)});
  }
  for (uint64_t seed : {3u, 4u}) {
    out.push_back({"random" + std::to_string(seed),
                   testing_topo::RandomTopology(seed, 30, 25)});
  }
  return out;
}

void ExpectSamplesAreShortest(const std::string& name, const SwitchGraph& g) {
  ShortestPathDag dag;
  SsspScratch scratch;
  for (uint32_t root = 0; root < g.size(); root += 3) {
    dag.Build(g, root, scratch);
    for (uint32_t target = 0; target < g.size(); ++target) {
      auto reference = ShortestPath(g, root, target);
      ASSERT_TRUE(reference.ok()) << name;
      const double best = PathCost(g, reference.value()).value();
      EXPECT_EQ(dag.CostTo(target), best) << name << " " << root << "->" << target;
      for (uint64_t seed : {11u, 12u, 13u}) {
        Rng rng(seed);
        auto path = dag.Sample(g, target, &rng);
        ASSERT_TRUE(path.ok()) << name << " " << root << "->" << target;
        EXPECT_EQ(path.value().front(), root);
        EXPECT_EQ(path.value().back(), target);
        auto cost = PathCost(g, path.value());
        ASSERT_TRUE(cost.ok()) << name << ": sampled a non-edge";
        EXPECT_EQ(cost.value(), best) << name << " " << root << "->" << target;
      }
    }
  }
}

TEST(ShortestPathDagTest, SampledPathsAreShortestOnEveryFabricShape) {
  for (const NamedGraph& fabric : SamplerFabrics()) {
    SwitchGraph g(fabric.topo);
    ExpectSamplesAreShortest(fabric.name, g);
    // Non-uniform weights: equal cost no longer means equal hop count.
    SwitchGraph weighted(fabric.topo);
    for (LinkIndex li = 0; li < fabric.topo.link_count(); ++li) {
      weighted.ScaleLinkWeight(li, 1.0 + static_cast<double>(li % 3));
    }
    ExpectSamplesAreShortest(fabric.name + "-weighted", weighted);
  }
}

TEST(ShortestPathDagTest, SampleIsAPureFunctionOfRootTargetAndSeed) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  SsspScratch scratch;
  ShortestPathDag first;
  first.Build(g, 0, scratch);
  // A DAG object (and scratch) reused for another root first: nothing of that
  // build leaks.
  ShortestPathDag second;
  second.Build(g, 21, scratch);
  second.Build(g, 0, scratch);
  for (uint32_t target : {21u, 42u, 63u}) {
    Rng rng_a(77);
    Rng rng_b(77);
    Rng other(78);
    auto a = first.Sample(g, target, &rng_a);
    (void)second.Sample(g, 42, &other);  // interleaved queries share nothing
    auto b = second.Sample(g, target, &rng_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value()) << "target " << target;
    EXPECT_EQ(rng_a.Next64(), rng_b.Next64()) << "walks drew differently";
  }
}

TEST(ShortestPathDagTest, SamplerUsesEveryEqualCostNextHop) {
  FatTreeConfig config;
  config.k = 4;
  config.attach_hosts = false;
  auto ft = MakeFatTree(config);
  ASSERT_TRUE(ft.ok());
  SwitchGraph g(ft.value().topo);
  const uint32_t src = ft.value().edge[0];  // pod 0
  const uint32_t dst = ft.value().edge[7];  // pod 3
  ShortestPathDag dag;
  SsspScratch scratch;
  dag.Build(g, src, scratch);
  std::set<uint32_t> first_hops;
  std::set<uint32_t> cores;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed);
    auto path = dag.Sample(g, dst, &rng);
    ASSERT_TRUE(path.ok());
    ASSERT_EQ(path.value().size(), 5u);
    first_hops.insert(path.value()[1]);
    cores.insert(path.value()[2]);
  }
  std::set<uint32_t> pod0_aggs;
  for (const AdjEdge& e : g.Neighbors(src)) {
    pod0_aggs.insert(e.to);
  }
  EXPECT_EQ(first_hops, pod0_aggs) << "an equal-cost uplink was never used";
  EXPECT_EQ(cores.size(), ft.value().core.size()) << "a core was never used";
}

TEST(ShortestPathDagTest, UnreachableTargetIsAnError) {
  Topology t = Diamond();
  t.AddSwitch(8);  // isolated switch 6
  SwitchGraph g(t);
  ShortestPathDag dag;
  SsspScratch scratch;
  dag.Build(g, 0, scratch);
  Rng rng(1);
  EXPECT_EQ(dag.CostTo(6), kInfCost);
  EXPECT_FALSE(dag.Sample(g, 6, &rng).ok());
  EXPECT_FALSE(dag.Sample(g, 99, &rng).ok());
  auto self = dag.Sample(g, 0, &rng);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value(), (SwitchPath{0}));
  ShortestPathDag from_isolated;
  from_isolated.Build(g, 6, scratch);
  EXPECT_FALSE(from_isolated.Sample(g, 3, &rng).ok());
}

TEST(ShortestPathDagCacheTest, OneBuildPerRootUntilCleared) {
  Topology t = Diamond();
  SwitchGraph g(t);
  ShortestPathDagCache cache;
  EXPECT_EQ(cache.Get(g, 0).root(), 0u);
  EXPECT_EQ(cache.Get(g, 0).root(), 0u);
  EXPECT_EQ(cache.Get(g, 3).root(), 3u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Clear() drops every DAG: the next Get() builds over the new snapshot.
  t.SetLinkUp(t.LinkAtPort(0, 1), false);
  SwitchGraph g2(t);
  cache.Clear();
  EXPECT_EQ(cache.Get(g2, 0).CostTo(1), 3.0);  // 0-2-3-1 now
  EXPECT_EQ(cache.Get(g2, 0).CostTo(1), 3.0);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(PathGraphTest, ScratchOverloadMatchesAllocatingOverload) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  PathGraphParams params;
  PathGraphScratch scratch;
  for (uint32_t dst : {21u, 42u, 63u}) {
    Rng rng_a(17);
    Rng rng_b(17);
    auto plain = BuildPathGraph(t, g, 0, dst, params, &rng_a);
    auto reused = BuildPathGraph(t, g, 0, dst, params, &rng_b, scratch);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(plain.value().primary, reused.value().primary);
    EXPECT_EQ(plain.value().backup, reused.value().backup);
    EXPECT_EQ(plain.value().vertices, reused.value().vertices);
    EXPECT_EQ(plain.value().links, reused.value().links);
  }
}

// The controller samples its primary from a cached DAG and builds around it;
// that must be the very graph BuildPathGraph yields for the same rng state.
TEST(PathGraphTest, AroundSampledPrimaryMatchesBuildPathGraph) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  PathGraphParams params;
  PathGraphScratch scratch;
  ShortestPathDag dag;
  SsspScratch dag_scratch;
  dag.Build(g, 0, dag_scratch);
  for (uint32_t dst : {21u, 42u, 63u}) {
    Rng rng_a(31);
    Rng rng_b(31);
    auto direct = BuildPathGraph(t, g, 0, dst, params, &rng_a, scratch);
    auto primary = dag.Sample(g, dst, &rng_b);
    ASSERT_TRUE(primary.ok());
    auto around =
        BuildPathGraphAround(t, g, std::move(primary.value()), params, &rng_b, scratch);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(around.ok());
    EXPECT_EQ(direct.value().primary, around.value().primary);
    EXPECT_EQ(direct.value().backup, around.value().backup);
    EXPECT_EQ(direct.value().vertices, around.value().vertices);
    EXPECT_EQ(direct.value().links, around.value().links);
  }
}

}  // namespace
}  // namespace dumbnet
