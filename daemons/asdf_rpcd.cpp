// asdf_rpcd — the standalone live collection daemon (DESIGN.md §9).
//
// Serves every collection channel (sadc, hadoop-log TT/DN, strace) for
// a monitored cluster over the framed TCP protocol on localhost.
//
//   --port=N            listening port (default 4588; 0 = ephemeral)
//   --slaves=N          monitored slave count        (default 16)
//   --seed=N            experiment seed              (default 42)
//   --source=sim|proc   data source                  (default sim)
//   --fault=NAME        injected fault, sim source   (default none)
//   --fault-node=N      faulty slave id              (default 4)
//   --fault-start=T     fault activation time        (default 300)
//   --fault-end=T       fault end time (<0 = run end)
//   --mix-change=T      GridMix mix flip time (<0 = never)
//   --archive-dir=DIR   flight recorder: archive every served response
//   --segment-bytes=N   archive segment rotation size (default 8 MB)
//   --no-compact        skip background tsdb compaction of sealed
//                       segments (with --archive-dir, each rotated
//                       segment is normally compacted into the
//                       queryable store while the daemon records)
//   --idle-timeout=T    reap connections idle for T seconds (0 = never)
//   --shards=N          network-plane event-loop shards (default 1);
//                       each shard owns its own SO_REUSEPORT listener
//                       and connections (DESIGN.md §15)
//
// With --source=sim the daemon hosts the monitored-cluster simulation
// itself, seeded exactly like harness::runExperiment, and advances it
// lazily to the virtual timestamp each request carries: a live
// fpt-core run against this daemon sees the same cluster a
// sim-transport run simulates in-process. With --source=proc it serves
// this host's real /proc counters (synthetic fallback) and replayed
// hadoop-log rows.
#include <csignal>
#include <cstdio>
#include <memory>

#include "../examples/example_util.h"
#include "archive/writer.h"
#include "faults/faults.h"
#include "net/rpcd_server.h"
#include "tsdb/compactor.h"

namespace {

asdf::net::RpcdServer* g_server = nullptr;

void handleSignal(int) {
  if (g_server != nullptr) g_server->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace asdf;
  using examples::flagDouble;
  using examples::flagInt;
  using examples::flagValue;

  if (!examples::checkFlags(
          argc, argv,
          {"port", "slaves", "seed", "source", "fault", "fault-node",
           "fault-start", "fault-end", "mix-change", "archive-dir",
           "segment-bytes", "no-compact", "idle-timeout", "shards"},
          "asdf_rpcd [--port=N] [--slaves=N] [--seed=N] "
          "[--source=sim|proc] [--fault=NAME] [--fault-node=N] "
          "[--fault-start=T] [--fault-end=T] [--mix-change=T] "
          "[--archive-dir=DIR] [--segment-bytes=N] [--no-compact] "
          "[--idle-timeout=T] [--shards=N]\n")) {
    return 2;
  }

  // A peer dying mid-response must surface as EPIPE on the write path,
  // never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  net::RpcdOptions opts;
  opts.port = examples::flagPort(argc, argv, "port", 4588);
  opts.slaves = static_cast<int>(flagInt(argc, argv, "slaves", 16));
  opts.seed = static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 42));
  opts.source = flagValue(argc, argv, "source", "sim");
  opts.mixChangeTime = flagDouble(argc, argv, "mix-change", -1.0);
  opts.idleTimeoutSeconds = flagDouble(argc, argv, "idle-timeout", 0.0);
  if (!examples::parseShards(argc, argv, opts.shards)) return 2;
  if (opts.source != "sim" && opts.source != "proc") {
    std::fprintf(stderr, "asdf_rpcd: --source must be 'sim' or 'proc'\n");
    return 2;
  }

  opts.fault.node = static_cast<NodeId>(flagInt(argc, argv, "fault-node", 4));
  opts.fault.startTime = flagDouble(argc, argv, "fault-start", 300.0);
  opts.fault.endTime = flagDouble(argc, argv, "fault-end", kNoTime);
  if (opts.fault.endTime < 0) opts.fault.endTime = kNoTime;

  const std::string archiveDir = flagValue(argc, argv, "archive-dir", "");

  try {
    opts.fault.type =
        faults::faultFromName(flagValue(argc, argv, "fault", "none"));
    // Refused before the archive or the listener exists.
    faults::validateFault(opts.fault, opts.slaves);
    // Declared before the recorder so it outlives the writer: the
    // final close() (destructor included) seals a segment, and that
    // onSeal hand-off must land in a live queue.
    std::unique_ptr<tsdb::BackgroundCompactor> compactor;
    std::unique_ptr<archive::ArchiveWriter> recorder;
    if (!archiveDir.empty()) {
      if (!examples::flagPresent(argc, argv, "no-compact")) {
        compactor = std::make_unique<tsdb::BackgroundCompactor>(archiveDir);
      }
      archive::ArchiveWriterOptions aopts;
      aopts.dir = archiveDir;
      // Rotation knob for tests and short CI runs: small segments mean
      // the background compactor gets sealed work mid-run instead of
      // only at shutdown.
      const long segmentBytes = flagInt(argc, argv, "segment-bytes", 0);
      if (segmentBytes > 0) {
        aopts.maxSegmentBytes = static_cast<std::size_t>(segmentBytes);
      }
      if (compactor != nullptr) {
        tsdb::BackgroundCompactor* c = compactor.get();
        // Runs under the writer lock right after the sealed name is
        // durable: just queue, the worker thread does the IO.
        aopts.onSeal = [c](const std::string& sealedPath,
                           std::uint64_t index) {
          c->enqueue(sealedPath, index);
        };
      }
      archive::ArchiveMeta meta;
      meta.seed = opts.seed;
      meta.slaves = opts.slaves;
      meta.source = "rpcd-" + opts.source;
      meta.faultType = static_cast<std::uint32_t>(opts.fault.type);
      meta.faultNode = opts.fault.node;
      meta.faultStart = opts.fault.startTime;
      meta.faultEnd = opts.fault.endTime;
      meta.mixChangeTime = opts.mixChangeTime;
      recorder = std::make_unique<archive::ArchiveWriter>(std::move(aopts),
                                                          std::move(meta));
      opts.observer = recorder.get();
    }
    net::RpcdServer server(opts);
    g_server = &server;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    std::printf("asdf_rpcd: serving %d slaves (source=%s, seed=%llu, "
                "shards=%d) on 127.0.0.1:%u\n",
                opts.slaves, opts.source.c_str(),
                static_cast<unsigned long long>(opts.seed),
                server.shardCount(), static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    server.run();
    std::printf("asdf_rpcd: served %ld frames (%ld connections rejected)\n",
                server.framesServed(), server.connectionsRejected());
    if (recorder != nullptr) {
      // A clean shutdown stamps ground truth + cluster counters into
      // the archive; a SIGKILLed daemon leaves the ".open" segment for
      // the reader's crash recovery instead.
      const net::ClusterStatsWire stats = server.snapshotStats(0.0);
      archive::TruthRecord truth;
      truth.slaveIndex = opts.fault.type == faults::FaultType::kNone
                             ? -1
                             : static_cast<int>(opts.fault.node) - 1;
      truth.faultStart = opts.fault.startTime;
      truth.faultEnd = stats.faultEndedAt != kNoTime ? stats.faultEndedAt
                                                     : opts.fault.endTime;
      truth.simulatedSeconds = stats.simNow;
      truth.jobsSubmitted = stats.jobsSubmitted;
      truth.jobsCompleted = stats.jobsCompleted;
      truth.tasksCompleted = stats.tasksCompleted;
      truth.tasksFailed = stats.tasksFailed;
      truth.speculativeLaunches = stats.speculativeLaunches;
      recorder->writeTruth(truth);
      recorder->close();
      std::printf("asdf_rpcd: archived %ld records to %s\n",
                  recorder->recordsWritten(), archiveDir.c_str());
      if (compactor != nullptr) {
        compactor->drain();
        std::printf("asdf_rpcd: compacted %ld segments (%ld failed)\n",
                    compactor->compacted(), compactor->failed());
        if (compactor->failed() > 0) {
          std::fprintf(stderr, "asdf_rpcd: compaction: %s\n",
                       compactor->lastError().c_str());
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "asdf_rpcd: %s\n", e.what());
    return 1;
  }
  return 0;
}
