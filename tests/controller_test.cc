// End-to-end control-plane tests: controller bring-up (discovery + bootstrap),
// path queries answered with path graphs, host-to-host data delivery, and the
// two-stage failure handling pipeline of Section 4.2.
#include "src/ctrl/controller.h"

#include <gtest/gtest.h>

#include "src/analysis/invariants.h"
#include "src/telemetry/telemetry.h"
#include "src/topo/generators.h"
#include "tests/test_fabric.h"

namespace dumbnet {
namespace {

DiscoveryConfig FastDiscovery(uint8_t max_ports) {
  DiscoveryConfig config;
  config.max_ports = max_ports;
  config.pm_send_cost = Us(1);
  config.pm_recv_cost = Us(1);
  config.probe_timeout = Ms(20);
  return config;
}

class ControllerTest : public ::testing::Test {
 protected:
  void BringUp() {
    auto testbed = MakePaperTestbed();
    ASSERT_TRUE(testbed.ok());
    spines_ = testbed.value().spines;
    leaves_ = testbed.value().leaves;
    fabric_ = std::make_unique<TestFabric>(std::move(testbed.value().topo));
    controller_ =
        &fabric_->AddController(kControllerHost, ControllerConfig(), FastDiscovery(16));
    bool ready = false;
    controller_->Start([&] { ready = true; });
    fabric_->Run();
    ASSERT_TRUE(ready);
  }

  static constexpr uint32_t kControllerHost = 25;

  std::unique_ptr<TestFabric> fabric_;
  ControllerService* controller_ = nullptr;
  std::vector<uint32_t> spines_;
  std::vector<uint32_t> leaves_;
};

TEST_F(ControllerTest, BootstrapsEveryHost) {
  BringUp();
  for (uint32_t h = 0; h < fabric_->host_count(); ++h) {
    EXPECT_TRUE(fabric_->agent(h).bootstrapped()) << "host " << h;
  }
  // 26 remote bootstraps (the controller itself is local).
  EXPECT_EQ(controller_->stats().bootstraps_sent, 26u);
}

TEST_F(ControllerTest, ColdSendTriggersQueryThenDelivers) {
  BringUp();
  HostAgent& src = fabric_->agent(0);   // leaf 0
  HostAgent& dst = fabric_->agent(12);  // leaf 2

  int received = 0;
  dst.SetDataHandler([&](const Packet& pkt, const DataPayload& data) {
    EXPECT_EQ(pkt.eth.src_mac, src.mac());
    EXPECT_EQ(data.flow_id, 77u);
    ++received;
  });
  ASSERT_TRUE(src.Send(dst.mac(), 77, DataPayload{77, 1, 0, false, 1000}).ok());
  fabric_->Run();

  EXPECT_EQ(received, 1);
  EXPECT_GE(src.stats().path_requests, 1u);
  EXPECT_TRUE(src.path_table().Contains(dst.mac()));
}

TEST_F(ControllerTest, WarmSendsSkipController) {
  BringUp();
  HostAgent& src = fabric_->agent(0);
  HostAgent& dst = fabric_->agent(12);
  int received = 0;
  dst.SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });

  ASSERT_TRUE(src.Send(dst.mac(), 1, DataPayload{}).ok());
  fabric_->Run();
  uint64_t queries_after_first = controller_->stats().queries_served;

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(src.Send(dst.mac(), 1, DataPayload{}).ok());
  }
  fabric_->Run();
  EXPECT_EQ(received, 11);
  EXPECT_EQ(controller_->stats().queries_served, queries_after_first);
}

TEST_F(ControllerTest, PathGraphGivesMultiplePathsAcrossSpines) {
  BringUp();
  HostAgent& src = fabric_->agent(0);
  HostAgent& dst = fabric_->agent(12);
  ASSERT_TRUE(src.Send(dst.mac(), 1, DataPayload{}).ok());
  fabric_->Run();

  const PathTableEntry* entry = src.path_table().Find(dst.mac());
  ASSERT_NE(entry, nullptr);
  // Two spines => at least two minimal (leaf-spine-leaf) paths among the cached k.
  EXPECT_GE(entry->paths.size(), 2u);
  size_t minimal = 0;
  for (const CachedRoute& route : entry->paths) {
    EXPECT_GE(route.uid_path.size(), 3u);
    minimal += route.uid_path.size() == 3u ? 1u : 0u;
  }
  EXPECT_EQ(minimal, 2u);
}

TEST_F(ControllerTest, StageOneNotificationReachesHostsBeforePatch) {
  BringUp();
  TimeNs fail_notify = 0;
  TimeNs patch_notify = 0;
  HostAgent& observer = fabric_->agent(20);  // leaf 4
  observer.SetLinkEventHook([&](const LinkEventPayload& ev, bool) {
    if (!ev.up && fail_notify == 0) {
      fail_notify = observer.sim().Now();
    }
  });
  observer.SetPatchHook([&](const TopologyPatchPayload&) {
    if (patch_notify == 0) {
      patch_notify = observer.sim().Now();
    }
  });

  // Cut spine0 <-> leaf0.
  LinkIndex li = fabric_->topo().LinkAtPort(spines_[0], 1);
  ASSERT_NE(li, kInvalidLink);
  TimeNs cut_at = fabric_->Now();
  fabric_->topo().SetLinkUp(li, false);
  fabric_->Run();

  ASSERT_GT(fail_notify, 0) << "stage-1 notification never arrived";
  ASSERT_GT(patch_notify, 0) << "stage-2 patch never arrived";
  EXPECT_LT(fail_notify, patch_notify);
  // Both within tens of milliseconds of the cut.
  EXPECT_LT(patch_notify - cut_at, Ms(100));
}

TEST_F(ControllerTest, FailoverReroutesTrafficAroundDeadSpine) {
  BringUp();
  HostAgent& src = fabric_->agent(0);   // leaf 0
  HostAgent& dst = fabric_->agent(12);  // leaf 2
  int received = 0;
  dst.SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });

  ASSERT_TRUE(src.Send(dst.mac(), 5, DataPayload{}).ok());
  fabric_->Run();
  ASSERT_EQ(received, 1);

  // Cut BOTH links that leaf0 has to spine 0; all surviving paths go via spine 1.
  LinkIndex l0 = fabric_->topo().LinkAtPort(leaves_[0], 1);  // leaf0 -> spine0
  ASSERT_NE(l0, kInvalidLink);
  fabric_->topo().SetLinkUp(l0, false);
  fabric_->Run();

  // Every flow must still get through, whatever path the flow had been bound to.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(src.Send(dst.mac(), 100u + static_cast<uint64_t>(i), DataPayload{}).ok());
  }
  fabric_->Run();
  EXPECT_EQ(received, 9);

  // And no cached route may cross the dead edge.
  const PathTableEntry* entry = src.path_table().Find(dst.mac());
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->paths.empty());
  uint64_t leaf0_uid = fabric_->topo().switch_at(leaves_[0]).uid;
  uint64_t spine0_uid = fabric_->topo().switch_at(spines_[0]).uid;
  for (const CachedRoute& route : entry->paths) {
    EXPECT_FALSE(route.UsesEdge(leaf0_uid, spine0_uid));
  }
}

TEST_F(ControllerTest, LinkRestorationFlowsBackViaPatch) {
  BringUp();
  LinkIndex li = fabric_->topo().LinkAtPort(spines_[0], 1);
  fabric_->topo().SetLinkUp(li, false);
  fabric_->Run();

  int restored_patches = 0;
  fabric_->agent(10).SetPatchHook([&](const TopologyPatchPayload& patch) {
    if (patch.added != nullptr && !patch.added->empty()) {
      ++restored_patches;
    }
  });
  fabric_->topo().SetLinkUp(li, true);
  fabric_->Run();
  EXPECT_GE(restored_patches, 1);
  EXPECT_GE(controller_->stats().reprobes, 1u);
}

TEST_F(ControllerTest, ReplicatedLogMirrorsTopologyEvents) {
  BringUp();
  ReplicatedLog log(&fabric_->sim(), ReplicatedLogConfig{3, Us(200)});
  controller_->AttachLog(&log);

  LinkIndex li = fabric_->topo().LinkAtPort(spines_[0], 1);
  fabric_->topo().SetLinkUp(li, false);
  fabric_->Run();

  EXPECT_GE(log.committed_index(), 1u);
  // A standby applying replica 1's log sees the link down.
  TopoDb standby = controller_->db();
  ReplicatedLog::ApplyTo(log.ReplicaLog(1), standby);
  uint64_t spine_uid = fabric_->topo().switch_at(spines_[0]).uid;
  auto link = standby.LinkAt(spine_uid, 1);
  ASSERT_TRUE(link.ok());
}

TEST_F(ControllerTest, PrecomputePathGraphsServesEveryKnownDestination) {
  BringUp();
  HostAgent& src = fabric_->agent(0);
  std::vector<uint64_t> dst_macs;
  for (uint32_t h = 5; h < 15; ++h) {
    dst_macs.push_back(fabric_->agent(h).mac());
  }
  dst_macs.push_back(0xdeadbeefULL);  // unknown MAC: silently skipped
  auto graphs = controller_->PrecomputePathGraphs(src.mac(), dst_macs);
  ASSERT_TRUE(graphs.ok());
  EXPECT_EQ(graphs.value().size(), 10u);
  for (const WirePathGraph& wg : graphs.value()) {
    EXPECT_TRUE(AuditWirePathGraph(wg).ok());
    ASSERT_FALSE(wg.primary.empty());
    EXPECT_EQ(wg.primary.front(), wg.src_uid);
    EXPECT_EQ(wg.primary.back(), wg.dst_uid);
  }
  // Unknown source: hard error.
  EXPECT_FALSE(controller_->PrecomputePathGraphs(0xdeadbeefULL, dst_macs).ok());
}

// Precompute and query serving share one builder, and a served graph is a pure
// function of (switch pair, attempt, db content): rebuilt from empty caches, the
// precomputed graph is the one a live query was answered with.
TEST_F(ControllerTest, PrecomputeReturnsTheGraphAQueryIsServed) {
  BringUp();
  HostAgent& src = fabric_->agent(12);  // leaf 2
  HostAgent& dst = fabric_->agent(21);  // leaf 4
  std::vector<WirePathGraph> served;
  src.SetControlHandler([&](const Packet& pkt) {
    if (const auto* resp = pkt.As<PathResponsePayload>();
        resp != nullptr && resp->dst_mac == dst.mac() && resp->graph != nullptr) {
      served.push_back(*resp->graph);
    }
    return false;  // the agent still installs the response
  });
  ASSERT_TRUE(src.Send(dst.mac(), 5, DataPayload{5, 1, 0, false, 100}).ok());
  fabric_->Run();
  ASSERT_EQ(served.size(), 1u) << "expected one first-attempt answer";

  // Same db content, every routing cache dropped.
  const uint64_t dag_builds = controller_->sssp_cache_stats().misses;
  controller_->AdoptDatabase(controller_->db());
  auto pre = controller_->PrecomputePathGraphs(src.mac(), {dst.mac()});
  ASSERT_TRUE(pre.ok());
  ASSERT_EQ(pre.value().size(), 1u);
  EXPECT_GT(controller_->sssp_cache_stats().misses, dag_builds);
  const WirePathGraph& a = pre.value()[0];
  const WirePathGraph& b = served[0];
  EXPECT_EQ(a.src_uid, b.src_uid);
  EXPECT_EQ(a.dst_uid, b.dst_uid);
  EXPECT_EQ(a.primary, b.primary);
  EXPECT_EQ(a.backup, b.backup);
  ASSERT_EQ(a.links.size(), b.links.size());
  for (size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_TRUE(a.links[i].uid_a == b.links[i].uid_a && a.links[i].port_a == b.links[i].port_a &&
                a.links[i].uid_b == b.links[i].uid_b && a.links[i].port_b == b.links[i].port_b)
        << "link " << i;
  }
}

// One DAG per source switch and db version serves every route drawn from it:
// two destinations behind different switches cost one build, and a live query
// from the same switch later builds nothing.
TEST_F(ControllerTest, OneDagPerSourceServesEveryDestination) {
  BringUp();
  HostAgent& src = fabric_->agent(12);  // leaf 2
  HostAgent& dst = fabric_->agent(5);   // leaf 1
  int received = 0;
  dst.SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });
  telemetry::Counter* dag_builds =
      telemetry::MetricsRegistry::Global().GetCounter("ctrl.dag_builds");

  // The same db content adopted again drops every routing cache; re-bootstrapping
  // builds only the controller switch's DAG (leaf 0), so leaf 2 has none yet.
  controller_->AdoptDatabase(controller_->db());
  const ShortestPathDagCache::Stats before = controller_->sssp_cache_stats();
  const uint64_t builds_before = dag_builds->value();
  auto graphs = controller_->PrecomputePathGraphs(
      src.mac(), {fabric_->agent(16).mac(), fabric_->agent(21).mac()});  // leaves 3, 4
  ASSERT_TRUE(graphs.ok());
  ASSERT_EQ(graphs.value().size(), 2u);
  EXPECT_EQ(controller_->sssp_cache_stats().misses, before.misses + 1);
  EXPECT_EQ(controller_->sssp_cache_stats().hits, before.hits + 1);
  if (telemetry::Enabled()) {
    EXPECT_EQ(dag_builds->value(), builds_before + 1);
  }

  // Deliver the bootstraps (hosts then warm their controller routes), and serve
  // a query for a pair nothing has asked for: both its walks are cache hits.
  fabric_->Run();
  const ShortestPathDagCache::Stats settled = controller_->sssp_cache_stats();
  const uint64_t served = controller_->stats().queries_served;
  ASSERT_TRUE(src.Send(dst.mac(), 9, DataPayload{}).ok());
  fabric_->Run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(controller_->stats().queries_served, served + 1);
  EXPECT_EQ(controller_->sssp_cache_stats().misses, settled.misses);
  EXPECT_EQ(controller_->sssp_cache_stats().hits, settled.hits + 2);  // tags + primary
}

// Leaf 2 reaches leaf 0 through either spine. Kill spine 0's link to leaf 0:
// the next primary must cross spine 1. Then adopt a database where instead
// spine 1's link is down (a replaced db restarts version numbering, so its
// version may equal the cached one): the primary must move back to spine 0.
// A stale DAG from either phase would route over a dead link.
TEST_F(ControllerTest, LinkDownAndAdoptDatabaseNeverServeAStaleDag) {
  BringUp();
  HostAgent& src = fabric_->agent(12);  // leaf 2
  const std::vector<uint64_t> to_leaf0 = {fabric_->agent(1).mac()};
  const uint64_t spine0 = fabric_->topo().switch_at(spines_[0]).uid;
  const uint64_t spine1 = fabric_->topo().switch_at(spines_[1]).uid;
  auto via_spine = [&]() -> uint64_t {
    auto graphs = controller_->PrecomputePathGraphs(src.mac(), to_leaf0);
    EXPECT_TRUE(graphs.ok());
    if (!graphs.ok() || graphs.value().size() != 1 || graphs.value()[0].primary.size() != 3) {
      ADD_FAILURE() << "expected one leaf-spine-leaf primary";
      return 0;
    }
    return graphs.value()[0].primary[1];
  };
  ASSERT_NE(via_spine(), 0u);
  TopoDb snapshot = controller_->db();

  uint64_t builds = controller_->sssp_cache_stats().misses;
  fabric_->topo().SetLinkUp(fabric_->topo().LinkAtPort(spines_[0], 1), false);
  fabric_->Run();
  EXPECT_EQ(via_spine(), spine1);
  EXPECT_GT(controller_->sssp_cache_stats().misses, builds);

  snapshot.SetLinkState(spine1, 1, false);
  builds = controller_->sssp_cache_stats().misses;
  controller_->AdoptDatabase(std::move(snapshot));
  EXPECT_EQ(via_spine(), spine0);
  EXPECT_GT(controller_->sssp_cache_stats().misses, builds);
}

}  // namespace
}  // namespace dumbnet
