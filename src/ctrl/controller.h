// ControllerService (paper Sections 4.2, 4.3): the centralized control plane. Runs
// on one host. Maintains the global topology database, answers path queries with
// path graphs, bootstraps hosts after discovery, and implements stage 2 of failure
// handling (the asynchronous topology patch flood). Optionally mirrors every
// topology event into a ReplicatedLog so standby controllers stay consistent
// (the paper uses ZooKeeper for this).
//
// Every route the controller hands out is a walk sampled from a shortest-path
// DAG (src/routing/shortest_path_dag.h) cached per (root switch, db version):
// response tags and bootstrap tags from the DAG rooted at the controller's
// switch, path-graph primaries from the DAG rooted at the requester's switch.
// The DAG is shared; each walk draws from the query's own rng, so routes stay
// decorrelated across hosts, queries and retries.
#ifndef DUMBNET_SRC_CTRL_CONTROLLER_H_
#define DUMBNET_SRC_CTRL_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/ctrl/discovery.h"
#include "src/ctrl/replicated_log.h"
#include "src/host/host_agent.h"
#include "src/routing/path_graph.h"
#include "src/routing/shortest_path_dag.h"
#include "src/routing/topo_db.h"

namespace dumbnet {

struct ControllerConfig {
  PathGraphParams path_graph;
  // Ablation knobs: strip the detour subgraph / the backup path from responses
  // (leaving a plain single-route cache at the hosts).
  bool send_detours = true;
  bool send_backup = true;
  // CPU cost to serve one path query (single-server model; produces the paper's
  // Figure 10 cold-path tail under concurrent queries).
  TimeNs query_cost = Us(30);
  // Aggregation window before flooding a topology patch (stage 2).
  TimeNs patch_aggregation = Ms(2);
  uint64_t rng_seed = 7;
};

struct ControllerStats {
  uint64_t queries_served = 0;
  uint64_t queries_failed = 0;
  uint64_t bootstraps_sent = 0;
  uint64_t link_events = 0;
  uint64_t patches_sent = 0;
  uint64_t reprobes = 0;
  // Served-wire-graph memoization (see ServePathRequest).
  uint64_t wire_cache_hits = 0;
  uint64_t wire_cache_misses = 0;
};

class ControllerService {
 public:
  ControllerService(HostAgent* agent, ControllerConfig config = ControllerConfig(),
                    DiscoveryConfig discovery_config = DiscoveryConfig());

  // Full bring-up: run discovery, then bootstrap every host. `on_ready` fires when
  // all bootstraps are on the wire.
  void Start(std::function<void()> on_ready);

  // Bench/test path: adopt a ground-truth topology directly (skipping the probing
  // phase) and bootstrap hosts. The controller host is `agent`'s host.
  void AdoptTopology(const Topology& truth);

  // Failover path: a standby promotes itself with a database rebuilt from the
  // replicated log (ReplicatedLog::ApplyTo), re-bootstraps every host (they learn
  // the new controller's identity and path) and starts serving.
  void AdoptDatabase(TopoDb db);

  // Stops serving queries (simulates a controller crash; hosts' requests go
  // unanswered until a standby takes over).
  void Stop() { ready_ = false; }
  bool serving() const { return ready_; }

  TopoDb& db() { return db_; }
  DiscoveryService& discovery() { return discovery_; }
  const ControllerStats& stats() const { return stats_; }

  // Attach a replicated log: every link event and patch is appended (what the
  // paper stores in ZooKeeper for the standby controllers).
  void AttachLog(ReplicatedLog* log) { log_ = log; }

  // Path-graph precompute: the wire path graph from `src_mac`'s edge switch to
  // every destination's edge switch, exactly as a first-attempt query would be
  // served (same builder, same memo). Destinations that cannot be
  // served (unknown MAC, disconnected switch) are silently skipped; the returned
  // vector holds one entry per successful destination, in input order. Errors
  // only when `src_mac` itself is unknown.
  Result<std::vector<WirePathGraph>> PrecomputePathGraphs(
      uint64_t src_mac, const std::vector<uint64_t>& dst_macs);

  // Shortest-path DAG cache observability (tests + benchmarks): one lookup per
  // route sampled, one miss per DAG built.
  const ShortestPathDagCache::Stats& sssp_cache_stats() const { return dag_cache_.stats(); }

 private:
  // The adjacency snapshot for db_.mirror(), rebuilt only when the db version
  // moved or InvalidateRoutingCaches() dropped it; a rebuild drops every cached
  // DAG. Valid until the next db_ mutation.
  const SwitchGraph& RoutingGraph();
  // The shortest-path DAG rooted at switch `root` over RoutingGraph().
  const ShortestPathDag& RoutingDag(uint32_t root);
  // Drops the graph snapshot (and with it, at the next RoutingGraph(), every
  // cached DAG) and all served graphs. Must be called whenever db_ is *replaced*
  // (version numbering restarts); plain mutations are caught by the version
  // check in RoutingGraph().
  void InvalidateRoutingCaches();
  // The wire path graph served from switch `si` to switch `di` for `attempt`
  // under the current db version: memoized in wire_cache_, built on a miss.
  // Null when the pair is disconnected.
  std::shared_ptr<WirePathGraph> ServedGraph(uint32_t si, uint32_t di, uint64_t attempt);
  // Converts a built PathGraph to its wire form under the current config.
  std::shared_ptr<WirePathGraph> MakeWireGraph(const PathGraph& pg, uint64_t src_uid,
                                               uint64_t dst_uid);
  bool HandleControl(const Packet& pkt);
  void ServePathRequest(const PathRequestPayload& req);
  void OnLinkEvent(const LinkEventPayload& ev);
  void FlushPatch();
  void BootstrapHosts();
  // Tag path from the controller to a host (compiled on the global db), sampled
  // from the controller-rooted DAG. `rng` breaks equal-cost ties: bootstraps
  // pass the shared stream, query serving passes a per-query stream derived from
  // (requester, dst, attempt) so a response's content never depends on service
  // order.
  Result<TagList> TagsToHost(const HostLocation& dst, Rng* rng);

  HostAgent* agent_;
  Simulator* sim_;
  ControllerConfig config_;
  TopoDb db_;
  DiscoveryService discovery_;
  Rng rng_;
  ReplicatedLog* log_ = nullptr;

  // Routing caches, all keyed on db_.version() (see RoutingGraph()).
  std::unique_ptr<SwitchGraph> graph_cache_;
  uint64_t graph_version_ = kNoGraphVersion;
  ShortestPathDagCache dag_cache_;
  PathGraphScratch pg_scratch_;
  // Served wire graphs memoized per (src switch, dst switch, attempt), valid for
  // one db version. Hosts behind the same edge switch asking for the same
  // destination switch share one immutable graph object. Bounded by an epoch
  // reset (full clear) at kWireCacheMaxEntries — deterministic, no LRU clocks.
  std::unordered_map<uint64_t, std::shared_ptr<WirePathGraph>> wire_cache_;
  uint64_t wire_cache_version_ = kNoGraphVersion;
  static constexpr size_t kWireCacheMaxEntries = 65536;

  static constexpr uint64_t kNoGraphVersion = UINT64_MAX;

  uint64_t controller_switch_uid_ = 0;
  PortNum controller_port_ = 0;
  bool ready_ = false;
  TimeNs cpu_free_ = 0;

  // Pending patch accumulation.
  std::vector<WireLink> pending_removed_;
  std::vector<WireLink> pending_added_;
  TimeNs pending_origin_ = 0;
  bool patch_scheduled_ = false;
  uint64_t patch_seq_ = 0;

  ControllerStats stats_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_CTRL_CONTROLLER_H_
