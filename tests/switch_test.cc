// Unit tests of the dumb switch: tag forwarding, ID queries, alarm suppression,
// hop-limited notification broadcast and its relay filter.
#include "src/switch/dumb_switch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>

#include "src/topo/generators.h"
#include "tests/test_fabric.h"

namespace dumbnet {
namespace {

// Captures everything delivered to a host.
class SinkHost : public NetNode {
 public:
  SinkHost(Network* net, uint32_t host_index) : net_(net), host_index_(host_index) {
    net->RegisterHostNode(host_index, this);
  }
  void HandlePacket(const Packet& pkt, PortNum) override { received.push_back(pkt); }
  void Send(Packet pkt) { net_->SendFromHost(host_index_, pkt); }

  std::vector<Packet> received;

 private:
  Network* net_;
  uint32_t host_index_;
};

// Two hosts on a 3-switch line: H0 - S0 - S1 - S2 - H1.
struct LineFixture {
  LineFixture() {
    for (int i = 0; i < 3; ++i) {
      topo.AddSwitch(8);
    }
    topo.ConnectSwitches(0, 1, 1, 1).value();
    topo.ConnectSwitches(1, 2, 2, 1).value();
    uint32_t h0 = topo.AddHost();
    uint32_t h1 = topo.AddHost();
    topo.AttachHost(h0, 0, 5).value();
    topo.AttachHost(h1, 2, 5).value();
    net = std::make_unique<Network>(&sim, &topo);
    for (uint32_t s = 0; s < 3; ++s) {
      switches.push_back(std::make_unique<DumbSwitch>(net.get(), s));
    }
    hosts.push_back(std::make_unique<SinkHost>(net.get(), 0));
    hosts.push_back(std::make_unique<SinkHost>(net.get(), 1));
  }

  Topology topo;
  Simulator sim;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<DumbSwitch>> switches;
  std::vector<std::unique_ptr<SinkHost>> hosts;
};

TEST(DumbSwitchTest, ForwardsByTagsAndConsumesThem) {
  LineFixture f;
  Packet pkt = MakeDumbNetPacket(1, 2, {1, 2, 5}, DataPayload{});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  ASSERT_EQ(f.hosts[1]->received.size(), 1u);
  // All transit tags consumed; only ø remains.
  EXPECT_EQ(f.hosts[1]->received[0].tags, (TagList{kPathEndTag}));
  EXPECT_EQ(f.switches[0]->stats().forwarded, 1u);
  EXPECT_EQ(f.switches[1]->stats().forwarded, 1u);
  EXPECT_EQ(f.switches[2]->stats().forwarded, 1u);
}

TEST(DumbSwitchTest, DropsOnBadPort) {
  LineFixture f;
  Packet pkt = MakeDumbNetPacket(1, 2, {7}, DataPayload{});  // port 7 unwired
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  EXPECT_TRUE(f.hosts[1]->received.empty());
  EXPECT_EQ(f.switches[0]->stats().dropped_port_down, 1u);  // unwired = no signal

  Packet bad = MakeDumbNetPacket(1, 2, {99}, DataPayload{});  // beyond num_ports
  f.hosts[0]->Send(bad);
  f.sim.Run();
  EXPECT_EQ(f.switches[0]->stats().dropped_bad_tag, 1u);
}

TEST(DumbSwitchTest, DropsWhenPathEndsAtSwitch) {
  LineFixture f;
  Packet pkt = MakeDumbNetPacket(1, 2, {1}, DataPayload{});  // ø will hit S1
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  EXPECT_EQ(f.switches[1]->stats().dropped_bad_tag, 1u);
}

TEST(DumbSwitchTest, DropsOnDownLink) {
  LineFixture f;
  f.topo.SetLinkUp(f.topo.LinkAtPort(1, 2), false);
  Packet pkt = MakeDumbNetPacket(1, 2, {1, 2, 5}, DataPayload{});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  // Only the port-down broadcast may arrive, never the data packet.
  for (const Packet& p : f.hosts[1]->received) {
    EXPECT_EQ(p.As<DataPayload>(), nullptr);
  }
  EXPECT_EQ(f.switches[1]->stats().dropped_port_down, 1u);
}

TEST(DumbSwitchTest, IdQueryRepliesWithUid) {
  LineFixture f;
  // 0-5-ø: S0 answers the ID query and routes the reply out port 5 back to H0.
  Packet pkt = MakeDumbNetPacket(1, kBroadcastMac, {kIdQueryTag, 5},
                                 ProbePayload{42, 1, {kIdQueryTag, 5, kPathEndTag}});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  ASSERT_EQ(f.hosts[0]->received.size(), 1u);
  const auto* reply = f.hosts[0]->received[0].As<IdReplyPayload>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->switch_uid, f.topo.switch_at(0).uid);
  EXPECT_EQ(reply->probe_id, 42u);
}

TEST(DumbSwitchTest, MultiHopIdQuery) {
  LineFixture f;
  // 1-0-1-5-ø: S0 forwards to S1; S1 replies its ID along 1-5-ø.
  Packet pkt =
      MakeDumbNetPacket(1, kBroadcastMac, {1, kIdQueryTag, 1, 5},
                        ProbePayload{43, 1, {1, kIdQueryTag, 1, 5, kPathEndTag}});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  ASSERT_EQ(f.hosts[0]->received.size(), 1u);
  const auto* reply = f.hosts[0]->received[0].As<IdReplyPayload>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->switch_uid, f.topo.switch_at(1).uid);
}

TEST(DumbSwitchTest, NonDumbNetEtherTypeDropped) {
  LineFixture f;
  Packet pkt = MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  EXPECT_EQ(f.switches[0]->stats().dropped_foreign, 1u);
}

TEST(DumbSwitchTest, PortDownBroadcastReachesHosts) {
  LineFixture f;
  f.topo.SetLinkUp(f.topo.LinkAtPort(1, 2), false);
  f.sim.Run();
  // Both S1 and S2 detect and broadcast; hosts on both sides hear something.
  auto count_events = [](const std::vector<Packet>& pkts) {
    int n = 0;
    for (const Packet& p : pkts) {
      if (p.As<PortEventPayload>() != nullptr) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_GE(count_events(f.hosts[0]->received), 1);
  EXPECT_GE(count_events(f.hosts[1]->received), 1);
}

TEST(DumbSwitchTest, BroadcastHopLimitBounds) {
  // A long line of switches: notification must die after notify_hops hops.
  Topology topo;
  const uint32_t n = 10;
  for (uint32_t i = 0; i < n; ++i) {
    topo.AddSwitch(8);
  }
  for (uint32_t i = 0; i + 1 < n; ++i) {
    topo.ConnectSwitches(i, 2, i + 1, 1).value();
  }
  std::vector<uint32_t> host_ids;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t h = topo.AddHost();
    topo.AttachHost(h, i, 5).value();
    host_ids.push_back(h);
  }
  Simulator sim;
  Network net(&sim, &topo);
  DumbSwitchConfig sw_config;
  sw_config.notify_hops = 3;
  std::vector<std::unique_ptr<DumbSwitch>> switches;
  for (uint32_t i = 0; i < n; ++i) {
    switches.push_back(std::make_unique<DumbSwitch>(&net, i, sw_config));
  }
  std::vector<std::unique_ptr<SinkHost>> hosts;
  for (uint32_t i = 0; i < n; ++i) {
    hosts.push_back(std::make_unique<SinkHost>(&net, i));
  }
  // Fail the link at the far end (S0-S1).
  topo.SetLinkUp(topo.LinkAtPort(0, 2), false);
  sim.Run();
  auto heard = [&](size_t i) {
    for (const Packet& p : hosts[i]->received) {
      if (p.As<PortEventPayload>() != nullptr) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(heard(1));
  EXPECT_TRUE(heard(3));
  // S1's alarm has 3 hops: reaches hosts on S1..S4 but not S7+.
  EXPECT_FALSE(heard(7));
  EXPECT_FALSE(heard(9));
}

TEST(DumbSwitchTest, AlarmSuppressionLimitsRate) {
  LineFixture f;
  LinkIndex li = f.topo.LinkAtPort(1, 2);
  // Flap the link 10 times within one second.
  for (int i = 0; i < 10; ++i) {
    f.sim.ScheduleAt(Ms(10 * i), [&f, li, i] { f.topo.SetLinkUp(li, i % 2 == 0); });
  }
  f.sim.RunUntil(Sec(3));
  // At most 1 initial + trailing alarms per suppression window per endpoint; far
  // fewer than the 10 state changes.
  EXPECT_LE(f.switches[1]->stats().notifications_sent, 3u);
  EXPECT_GT(f.switches[1]->stats().alarms_suppressed, 0u);
  // The trailing alarm carried the latest state.
  EXPECT_GE(f.switches[1]->stats().notifications_sent, 2u);
}

// An alarm's identity: (origin switch uid, port, event_seq).
using AlarmKey = std::tuple<uint64_t, PortNum, uint64_t>;

// Sits between the network and a DumbSwitch and records, per alarm, the hops of
// every copy the switch receives and how many of them it relays.
class RelayTap : public NetNode {
 public:
  RelayTap(Network* net, DumbSwitch* sw) : sw_(sw) {
    net->RegisterSwitchNode(sw->index(), this);
  }
  void HandlePacket(const Packet& pkt, PortNum in_port) override {
    HandlePacket(Packet(pkt), in_port);
  }
  void HandlePacket(Packet&& pkt, PortNum in_port) override {
    const auto* ev = pkt.As<PortEventPayload>();
    if (ev == nullptr) {
      sw_->HandlePacket(std::move(pkt), in_port);
      return;
    }
    const AlarmKey key{ev->switch_uid, ev->port, ev->event_seq};
    hops_seen[key].push_back(ev->hops_left);
    const uint64_t before = sw_->stats().notifications_relayed;
    sw_->HandlePacket(std::move(pkt), in_port);
    relays[key] += static_cast<int>(sw_->stats().notifications_relayed - before);
  }
  void HandlePortChange(PortNum port, bool up) override { sw_->HandlePortChange(port, up); }

  std::map<AlarmKey, std::vector<uint8_t>> hops_seen;
  std::map<AlarmKey, int> relays;

 private:
  DumbSwitch* sw_;
};

std::set<AlarmKey> HeardAlarms(const SinkHost& host) {
  std::set<AlarmKey> heard;
  for (const Packet& p : host.received) {
    if (const auto* ev = p.As<PortEventPayload>()) {
      heard.insert({ev->switch_uid, ev->port, ev->event_seq});
    }
  }
  return heard;
}

// Switch-hop distance from `from` to every switch over up inter-switch links.
std::vector<int> SwitchDistances(const Topology& topo, uint32_t from) {
  std::vector<int> dist(topo.switch_count(), -1);
  std::deque<uint32_t> queue{from};
  dist[from] = 0;
  while (!queue.empty()) {
    const uint32_t s = queue.front();
    queue.pop_front();
    for (LinkIndex li : topo.switch_at(s).port_link) {
      if (li == kInvalidLink || !topo.link_at(li).up) {
        continue;
      }
      const Endpoint& peer = topo.link_at(li).Peer(NodeId::Switch(s));
      if (peer.node.is_switch() && dist[peer.node.index] < 0) {
        dist[peer.node.index] = dist[s] + 1;
        queue.push_back(peer.node.index);
      }
    }
  }
  return dist;
}

// A fat-tree of tapped dumb switches and sink hosts.
struct FatTreeFixture {
  explicit FatTreeFixture(uint32_t k, DumbSwitchConfig config = DumbSwitchConfig()) {
    FatTreeConfig ft;
    ft.k = k;
    tree = MakeFatTree(ft).value();
    net = std::make_unique<Network>(&sim, &tree.topo);
    for (uint32_t s = 0; s < tree.topo.switch_count(); ++s) {
      switches.push_back(std::make_unique<DumbSwitch>(net.get(), s, config));
      taps.push_back(std::make_unique<RelayTap>(net.get(), switches.back().get()));
    }
    for (uint32_t h = 0; h < tree.topo.host_count(); ++h) {
      hosts.push_back(std::make_unique<SinkHost>(net.get(), h));
    }
  }
  Topology& topo() { return tree.topo; }
  // Runs to quiescence within an event budget; false if the budget ran out.
  bool Drain(uint64_t max_events) { return sim.RunSteps(max_events) < max_events; }
  uint64_t AlarmsSent() const {
    uint64_t n = 0;
    for (const auto& sw : switches) {
      n += sw->stats().notifications_sent;
    }
    return n;
  }

  FatTreeTopo tree;
  Simulator sim;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<DumbSwitch>> switches;
  std::vector<std::unique_ptr<RelayTap>> taps;
  std::vector<std::unique_ptr<SinkHost>> hosts;
};

TEST(AlarmRelayFilterTest, RelaysALaterCopyThatCarriesMoreHops) {
  // O reaches X directly over a long cable, and over O-B1-B2-X on short ones.
  // X then leads on to Y and Z; a host hangs off Z and another off O.
  enum : uint32_t { kO, kB1, kB2, kX, kY, kZ };
  Topology topo;
  for (int i = 0; i < 6; ++i) {
    topo.AddSwitch(8);
  }
  const LinkIndex long_cable = topo.ConnectSwitches(kO, 1, kX, 1).value();
  topo.SetLinkPropagation(long_cable, Us(100));
  topo.ConnectSwitches(kO, 2, kB1, 1).value();
  topo.ConnectSwitches(kB1, 2, kB2, 1).value();
  topo.ConnectSwitches(kB2, 2, kX, 2).value();
  topo.ConnectSwitches(kX, 3, kY, 1).value();
  topo.ConnectSwitches(kY, 2, kZ, 1).value();
  const uint32_t origin_host = topo.AddHost();
  const uint32_t far_host = topo.AddHost();
  topo.AttachHost(origin_host, kO, 5).value();
  topo.AttachHost(far_host, kZ, 5).value();
  Simulator sim;
  Network net(&sim, &topo);
  DumbSwitchConfig config;
  config.notify_hops = 3;
  std::vector<std::unique_ptr<DumbSwitch>> switches;
  for (uint32_t s = 0; s < 6; ++s) {
    switches.push_back(std::make_unique<DumbSwitch>(&net, s, config));
  }
  RelayTap x_tap(&net, switches[kX].get());
  SinkHost origin_sink(&net, origin_host);
  SinkHost far_sink(&net, far_host);

  // Only O alarms: the host end of the failed link runs no switch logic.
  topo.SetLinkUp(topo.LinkAtPort(kO, 5), false);
  sim.Run();
  ASSERT_EQ(switches[kO]->stats().notifications_sent, 1u);
  ASSERT_EQ(x_tap.hops_seen.size(), 1u);
  const auto& [key, hops] = *x_tap.hops_seen.begin();
  // The short-cable path wins the race but has spent two more hops.
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], 1u);
  EXPECT_EQ(hops[1], 3u);
  // X relays both: the second copy is the only one that can reach Z's host.
  EXPECT_EQ(x_tap.relays.at(key), 2);
  EXPECT_EQ(HeardAlarms(far_sink), (std::set<AlarmKey>{key}));
}

TEST(AlarmRelayFilterTest, BoundsRelaysPerSwitchOnAFatTree) {
  DumbSwitchConfig config;
  FatTreeFixture f(8, config);
  // One aggregation-core link fails; both endpoints alarm.
  const uint32_t agg = f.tree.aggregation[0];
  LinkIndex failed = kInvalidLink;
  for (LinkIndex li : f.topo().switch_at(agg).port_link) {
    if (li != kInvalidLink) {
      const Endpoint& peer = f.topo().link_at(li).Peer(NodeId::Switch(agg));
      if (peer.node.is_switch() && peer.node.index == f.tree.core[0]) {
        failed = li;
      }
    }
  }
  ASSERT_NE(failed, kInvalidLink);
  f.topo().SetLinkUp(failed, false);
  ASSERT_TRUE(f.Drain(1'000'000));
  ASSERT_EQ(f.AlarmsSent(), 2u);

  std::set<AlarmKey> alarms;
  uint64_t duplicates = 0;
  for (size_t s = 0; s < f.switches.size(); ++s) {
    for (const auto& [key, n] : f.taps[s]->relays) {
      EXPECT_LE(n, config.notify_hops) << "switch " << s;
      alarms.insert(key);
    }
    duplicates += f.switches[s]->stats().alarm_duplicates_dropped;
  }
  EXPECT_EQ(alarms.size(), 2u);
  EXPECT_GT(duplicates, 0u);
  for (const auto& host : f.hosts) {
    EXPECT_EQ(HeardAlarms(*host), alarms);
  }
  // Every delivery is an alarm copy: at most twice the link count per alarm
  // (the unfiltered flood took ~5e4 copies per alarm at k=8).
  EXPECT_LE(f.net->stats().delivered, 2 * 2 * f.topo().link_count());
}

TEST(AlarmRelayFilterTest, OneSwitchLinkFailureAtK16Completes) {
  // Without the filter this flood passed 15 GB of events and never finished.
  FatTreeFixture f(16);
  const uint32_t edge = f.tree.edge[0];
  LinkIndex uplink = kInvalidLink;
  for (LinkIndex li : f.topo().switch_at(edge).port_link) {
    if (li != kInvalidLink &&
        f.topo().link_at(li).Peer(NodeId::Switch(edge)).node.is_switch()) {
      uplink = li;
      break;
    }
  }
  ASSERT_NE(uplink, kInvalidLink);
  f.topo().SetLinkUp(uplink, false);
  ASSERT_TRUE(f.Drain(2'000'000));
  ASSERT_EQ(f.AlarmsSent(), 2u);
  EXPECT_LE(f.net->stats().delivered, 2 * 2 * f.topo().link_count());
  std::set<AlarmKey> first_heard = HeardAlarms(*f.hosts[0]);
  EXPECT_EQ(first_heard.size(), 2u);
  for (const auto& host : f.hosts) {
    EXPECT_EQ(HeardAlarms(*host), first_heard);
  }
}

TEST(AlarmRelayFilterTest, EvictedAlarmsStillReachEveryHostInRange) {
  // Three times as many simultaneous alarms as filter slots. With 5 hops every
  // host is in range of every alarm; with 3 the hop limit cuts the fabric at the
  // pod boundary. Either way a host hears an alarm iff its ToR is in range.
  for (uint8_t hop_limit : {uint8_t{5}, uint8_t{3}}) {
    SCOPED_TRACE(testing::Message() << "notify_hops " << int{hop_limit});
    DumbSwitchConfig config;
    config.notify_hops = hop_limit;
    FatTreeFixture f(8, config);
    const size_t alarms = 3 * DumbSwitch::kAlarmFilterSlots;
    ASSERT_LE(alarms, f.tree.edge.size());
    std::vector<uint32_t> detached_hosts;
    for (size_t i = 0; i < alarms; ++i) {
      // One host link per edge switch: only the edge switch alarms.
      const uint32_t edge = f.tree.edge[i];
      for (uint32_t h = 0; h < f.topo().host_count(); ++h) {
        if (f.topo().HostUplink(h).value().node.index == edge) {
          detached_hosts.push_back(h);
          f.topo().SetLinkUp(f.topo().host_at(h).link, false);
          break;
        }
      }
    }
    ASSERT_TRUE(f.Drain(1'000'000));
    ASSERT_EQ(f.AlarmsSent(), alarms);

    for (size_t i = 0; i < alarms; ++i) {
      const uint32_t origin = f.tree.edge[i];
      const uint64_t uid = f.topo().switch_at(origin).uid;
      const std::vector<int> dist = SwitchDistances(f.topo(), origin);
      for (uint32_t h = 0; h < f.topo().host_count(); ++h) {
        if (std::find(detached_hosts.begin(), detached_hosts.end(), h) !=
            detached_hosts.end()) {
          continue;  // its only link is down: hears nothing
        }
        const uint32_t tor = f.topo().HostUplink(h).value().node.index;
        bool heard = false;
        for (const AlarmKey& key : HeardAlarms(*f.hosts[h])) {
          heard = heard || std::get<0>(key) == uid;
        }
        EXPECT_EQ(heard, dist[tor] >= 0 && dist[tor] <= hop_limit)
            << "alarm from edge " << origin << " at host " << h << " (ToR distance "
            << dist[tor] << ")";
      }
    }
  }
}

TEST(AlarmRelayFilterTest, SuccessiveAlarmsOfOnePortEachReachEveryHost) {
  // down, up, down: the first and third alarms differ only in event_seq.
  FatTreeFixture f(4);
  const uint32_t flapping_host = 0;
  const LinkIndex li = f.topo().host_at(flapping_host).link;
  f.topo().SetLinkUp(li, false);
  f.sim.ScheduleAt(Sec(2), [&f, li] { f.topo().SetLinkUp(li, true); });
  f.sim.ScheduleAt(Sec(4), [&f, li] { f.topo().SetLinkUp(li, false); });
  ASSERT_TRUE(f.Drain(1'000'000));
  ASSERT_EQ(f.AlarmsSent(), 3u);
  for (uint32_t h = 0; h < f.topo().host_count(); ++h) {
    if (h != flapping_host) {
      EXPECT_EQ(HeardAlarms(*f.hosts[h]).size(), 3u) << "host " << h;
    }
  }
}

}  // namespace
}  // namespace dumbnet
