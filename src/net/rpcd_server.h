// asdf_rpcd: the live collection daemon (server side of DESIGN.md §9).
//
// One process answers every collection channel for every monitored
// node over the framed TCP protocol. Two data sources:
//
//   sim  — the daemon hosts the monitored-cluster simulation itself
//          (the SimCluster harness::runExperiment builds, from the same
//          seed) and advances it lazily to the virtual `now` carried in
//          each request. A live client driving the same module schedule
//          therefore reads byte-for-byte the same data a sim-transport
//          run reads, which is what makes the sim/live alarm-equality
//          contract testable.
//   proc — serves this host's real /proc counters (synthetic random
//          walk when /proc is unavailable) plus replayed hadoop-log
//          rows; the honest "online on a real machine" mode.
//
// Default (--shards=1): single-threaded on an EventLoop — requests
// are served in arrival order, never concurrently, so the hosted
// simulation needs no locks. With --shards=N the network plane is a
// ShardGroup (per-shard loops + SO_REUSEPORT listeners, DESIGN.md
// §15) and a state mutex serializes access to the shared source.
// Responses stay byte-identical either way: every request carries its
// own virtual `now`, the simulation is advanced lazily to it under
// the mutex, and what a fetch returns depends only on (channel, node,
// now, watermark) — not on which connection's request ran first.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "faults/faults.h"
#include "net/cluster_stats.h"
#include "net/proc_source.h"
#include "net/shard_group.h"
#include "net/sim_cluster.h"
#include "sim/engine.h"

namespace asdf::net {

struct RpcdOptions {
  std::uint16_t port = 0;        // 0 = ephemeral, see RpcdServer::port()
  int slaves = 16;
  std::uint64_t seed = 42;
  std::string source = "sim";    // "sim" | "proc"
  faults::FaultSpec fault;       // sim source only
  double mixChangeTime = -1.0;   // sim source only
  /// Flight-recorder tap (--archive-dir): every served data response
  /// is reported here. Not owned; must outlive the server.
  rpc::CollectionObserver* observer = nullptr;
  /// Reap connections with no read/write progress for this long
  /// (--idle-timeout; 0 = never — see TcpServer::setIdleTimeout).
  double idleTimeoutSeconds = 0.0;
  /// Network-plane shards (--shards; see ShardGroup). 1 = the classic
  /// single-loop daemon.
  int shards = 1;
};

class RpcdServer {
 public:
  explicit RpcdServer(const RpcdOptions& opts);
  ~RpcdServer();

  std::uint16_t port() const { return group_.port(); }
  int shardCount() const { return group_.shardCount(); }

  /// Serves until stop() or a kShutdown frame. Call from the thread
  /// that owns the daemon (shards 2..N run on spawned threads).
  void run();

  /// Thread-safe; makes run() return.
  void stop();

  long framesServed() const { return group_.framesServed(); }
  long connectionsRejected() const { return group_.connectionsRejected(); }
  long connectionsReaped() const { return group_.connectionsReaped(); }

  /// Cluster-side accounting as of virtual time `now` (the payload the
  /// kStats request returns; the daemon main also stamps it into the
  /// archive's truth record on shutdown).
  ClusterStatsWire snapshotStats(double now);

 private:
  void handleFrame(TcpServer::Connection& conn, const Frame& frame);
  /// Serves kFetchSadc/Tt/Dn/Strace through source_.
  void handleCollect(TcpServer::Connection& conn, const Frame& frame);
  void advanceTo(double now);
  void observeSample(const rpc::CollectRequest& req);

  RpcdOptions opts_;
  HelloAck hello_;
  ShardGroup group_;
  /// Serializes shard threads through the shared source (sim engine /
  /// proc walker), the archive observer and the response buffers
  /// below. Uncontended no-op cost at shards=1.
  std::mutex stateMutex_;
  metrics::SadcSnapshot snap_;
  std::vector<hadooplog::StateSample> rows_;
  syscalls::TraceSecond trace_;
  rpc::Encoder payload_;

  // sim source (null in proc mode).
  sim::SimEngine engine_;
  std::unique_ptr<SimCluster> sim_;

  // proc source (null in sim mode).
  std::unique_ptr<ProcSource> proc_;

  /// What collect requests are served from: sim_->hub or proc_.
  rpc::LiveCollector* source_ = nullptr;
};

}  // namespace asdf::net
