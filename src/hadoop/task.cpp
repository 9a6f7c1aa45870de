#include "hadoop/task.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "hadoop/cluster.h"
#include "hadooplog/writer.h"

namespace asdf::hadoop {
namespace {

// Caps on single-stream per-tick demand: one TCP stream / one
// sequential file writer cannot saturate more than this on its own,
// which keeps proportional sharing fair between concurrent tasks.
constexpr double kMaxNetStreamBytesPerTick = 48.0e6;
constexpr double kMaxDiskStreamBytesPerTick = 64.0e6;
constexpr double kShuffleParallelFetches = 8;
constexpr double kEps = 1.0;  // byte slop for completion checks

}  // namespace

TaskAttempt::TaskAttempt(Cluster& cluster, Job& job, bool isMap,
                         int taskIndex, int attemptSerial, Node& host)
    : cluster_(cluster),
      job_(job),
      isMap_(isMap),
      taskIndex_(taskIndex),
      id_(hadooplog::makeTaskAttemptId(job.id(), isMap, taskIndex,
                                       attemptSerial)),
      host_(host) {}

TaskAttempt::~TaskAttempt() = default;

void TaskAttempt::start(SimTime now) {
  startTime_ = now;
  host_.ttWriter().launchTask(now, id_);
  host_.addForks(1.0);

  const auto& p = cluster_.params();
  if (isMap_) {
    // Choose the replica to read: data-local when possible.
    const long block = job_.inputBlock(taskIndex_);
    const auto& replicas = cluster_.nameNode().replicas(block);
    NodeId source = host_.id();
    if (std::find(replicas.begin(), replicas.end(), host_.id()) ==
        replicas.end()) {
      assert(!replicas.empty());
      source = replicas[static_cast<std::size_t>(cluster_.rng().uniformInt(
          0, static_cast<long>(replicas.size()) - 1))];
    }
    readSource_ = &cluster_.node(source);
    readTransfer_ = std::make_unique<BlockTransfer>(
        readSource_, &host_, p.blockBytes, /*readsSrcDisk=*/true);
    readSource_->dnWriter().servingBlock(now, block, host_.ip());
    readLogOpen_ = true;
    cpuTotal_ = cpuRemaining_ = p.blockBytes * job_.spec().mapCpuPerByte;
    spillTotal_ = spillRemaining_ =
        p.blockBytes * job_.spec().mapOutputRatio;
    enterPhase(Phase::kMapRead, now);
  } else {
    fetched_.assign(static_cast<std::size_t>(cluster_.slaveCount()) + 1, 0.0);
    fetchedTotal_ = 0.0;
    sortTotal_ = sortRemaining_ = job_.shuffleBytesPerReduce();
    writeTotal_ = writeRemaining_ = job_.outputBytesPerReduce();
    cpuTotal_ = cpuRemaining_ =
        job_.shuffleBytesPerReduce() * job_.spec().reduceCpuPerByte;
    enterPhase(Phase::kReduceCopy, now);
    // Announce the copy phase so the log parser sees the entrance.
    host_.ttWriter().reduceProgress(now, id_, 0.0, "copy", 0,
                                    job_.numMaps());
    lastProgressLog_ = now;
  }
}

void TaskAttempt::enterPhase(Phase phase, SimTime now) {
  phase_ = phase;
  phaseStart_ = now;
}

const char* TaskAttempt::reducePhaseName() const {
  switch (phase_) {
    case Phase::kReduceCopy:
      return "copy";
    case Phase::kReduceSort:
      return "sort";
    case Phase::kReduceWrite:
      return "reduce";
    default:
      return "copy";
  }
}

double TaskAttempt::progressFraction() const {
  auto frac = [](double remaining, double total) {
    return total <= 0.0 ? 1.0 : 1.0 - remaining / total;
  };
  if (isMap_) {
    const double read =
        readTransfer_ ? frac(readTransfer_->remainingBytes(),
                             readTransfer_->totalBytes())
                      : 1.0;
    return 0.2 * read + 0.6 * frac(cpuRemaining_, cpuTotal_) +
           0.2 * frac(spillRemaining_, spillTotal_);
  }
  const double copy =
      sortTotal_ <= 0.0 ? 1.0 : fetchedTotal_ / std::max(1.0, sortTotal_);
  return 0.34 * std::min(1.0, copy) + 0.33 * frac(sortRemaining_, sortTotal_) +
         0.33 * frac(writeRemaining_, writeTotal_);
}

void TaskAttempt::maybeLogProgress(SimTime now) {
  if (now - lastProgressLog_ < cluster_.params().progressLogInterval) return;
  lastProgressLog_ = now;
  if (isMap_) {
    host_.ttWriter().mapProgress(now, id_, progressFraction());
  } else {
    const int copied = static_cast<int>(
        std::round(std::min(1.0, sortTotal_ <= 0 ? 1.0
                                                 : fetchedTotal_ / sortTotal_) *
                   job_.numMaps()));
    host_.ttWriter().reduceProgress(now, id_, progressFraction(),
                                    reducePhaseName(), copied,
                                    job_.numMaps());
  }
}

void TaskAttempt::closeOpenReadLog(SimTime now) {
  if (readLogOpen_ && readSource_ != nullptr) {
    readSource_->dnWriter().servedBlock(now, job_.inputBlock(taskIndex_),
                                        host_.ip());
    readLogOpen_ = false;
  }
}

void TaskAttempt::requestCpuWork(double maxCores) {
  const double want = std::min(maxCores, cpuRemaining_);
  hCpu_ = host_.cpu().request(std::max(0.0, want));
}

void TaskAttempt::requestDiskWrite(Node& node, double remaining,
                                   int& handle) {
  handle = node.disk().request(
      std::min(remaining, kMaxDiskStreamBytesPerTick));
}

void TaskAttempt::requestResources(SimTime now) {
  (void)now;
  requestedThisTick_ = true;
  const auto& p = cluster_.params();
  host_.addMemUsed(p.taskMemBytes);
  host_.addProcesses(1);
  hCpu_ = -1;

  switch (phase_) {
    case Phase::kMapRead: {
      readTransfer_->requestResources();
      hCpu_ = host_.cpu().request(p.mapReadCpuCores);
      break;
    }
    case Phase::kMapCompute: {
      host_.addRunnable(1);
      if (hung_ || host_.faults().mapHang) {
        // HADOOP-1036: the unhandled exception leaves the task in an
        // infinite loop — it burns a full core but makes no progress.
        hCpu_ = host_.cpu().request(1.0);
        host_.addSpinningTask();
      } else {
        requestCpuWork(1.0);
      }
      break;
    }
    case Phase::kMapSpill: {
      hCpu_ = host_.cpu().request(p.mapSpillCpuCores);
      requestDiskWrite(host_, spillRemaining_, hSpillDisk_);
      break;
    }
    case Phase::kReduceCopy: {
      hCpu_ = host_.cpu().request(p.reduceCopyCpuCores);
      streams_.clear();
      // Fetch map output from up to kShuffleParallelFetches source
      // nodes that still hold un-fetched output, round-robin for
      // fairness across sources.
      const int slaves = cluster_.slaveCount();
      int examined = 0;
      for (int k = 0; k < slaves &&
                      static_cast<double>(streams_.size()) <
                          kShuffleParallelFetches;
           ++k) {
        const NodeId s =
            static_cast<NodeId>(1 + (nextSourceRotation_ + k) % slaves);
        ++examined;
        const double avail = job_.shuffleAvailable(s) -
                             fetched_[static_cast<std::size_t>(s)];
        if (avail <= kEps) continue;
        FetchStream stream;
        stream.source = s;
        Node& src = cluster_.node(s);
        stream.requested = std::min(avail, p.shuffleStreamBytesPerSec);
        stream.hSrcDisk = src.disk().request(stream.requested);
        stream.hSrcNic = src.nic().request(stream.requested);
        stream.hDstNic = host_.nic().request(stream.requested);
        stream.hSrcCpu = src.cpu().request(kServeCpuCores);
        stream.flow = requestUplink(src, host_, stream.requested);
        streams_.push_back(stream);
      }
      nextSourceRotation_ = (nextSourceRotation_ + examined) % slaves;
      host_.addTcpConnections(static_cast<int>(streams_.size()));
      break;
    }
    case Phase::kReduceSort: {
      host_.addRunnable(1);
      if (hung_) {
        // HADOOP-2080: hung on a miscomputed checksum — near-idle,
        // spinning on a futex.
        hCpu_ = host_.cpu().request(0.02);
        host_.addHungTask();
      } else {
        hCpu_ = host_.cpu().request(p.reduceSortCpuCores);
        const double want =
            std::min(sortRemaining_, kMaxDiskStreamBytesPerTick);
        hSortRead_ = host_.disk().request(want);
        hSortWrite_ = host_.disk().request(want);
      }
      break;
    }
    case Phase::kReduceWrite: {
      host_.addRunnable(1);
      requestCpuWork(1.0);
      const double want =
          std::min(writeRemaining_, kMaxDiskStreamBytesPerTick);
      hWriteDiskLocal_ = host_.disk().request(want);
      Node& r2 = cluster_.node(replica2_);
      Node& r3 = cluster_.node(replica3_);
      hWriteNicTx_ = host_.nic().request(want);
      hWriteR2Rx_ = r2.nic().request(want);
      hWriteR2Disk_ = r2.disk().request(want);
      hWriteR2Tx_ = r2.nic().request(want);
      hWriteR3Rx_ = r3.nic().request(want);
      hWriteR3Disk_ = r3.disk().request(want);
      writeFlow2_ = requestUplink(host_, r2, want);
      writeFlow3_ = requestUplink(r2, r3, want);
      break;
    }
    case Phase::kDone:
      break;
  }
}

TaskOutcome TaskAttempt::advance(SimTime now, double dt) {
  if (!requestedThisTick_) return TaskOutcome::kRunning;
  requestedThisTick_ = false;
  const auto& p = cluster_.params();

  switch (phase_) {
    case Phase::kMapRead: {
      const double cpu = host_.cpu().granted(hCpu_);
      // A CPU-squeezed reader cannot deserialize at full rate.
      readTransfer_->setConsumerThrottle(cpu / p.mapReadCpuCores);
      const double moved = readTransfer_->advance(dt);
      readSource_->addDnBytes(moved, 0.0);
      host_.addCpuUser(cpu * 0.5);
      host_.addCpuIowait(cpu * 0.5);
      if (readTransfer_->complete()) {
        closeOpenReadLog(now);
        enterPhase(Phase::kMapCompute, now);
      }
      break;
    }
    case Phase::kMapCompute: {
      const double cpu = host_.cpu().granted(hCpu_);
      host_.addCpuUser(cpu);
      if (hung_ || host_.faults().mapHang) {
        hung_ = true;  // latched: the loop never exits
        break;
      }
      cpuRemaining_ -= cpu;
      if (cpuRemaining_ <= 1e-9) {
        cpuRemaining_ = 0.0;
        enterPhase(Phase::kMapSpill, now);
      }
      break;
    }
    case Phase::kMapSpill: {
      const double cpu = host_.cpu().granted(hCpu_);
      host_.addCpuUser(cpu);
      const double wrote = host_.disk().granted(hSpillDisk_) *
                           std::min(1.0, cpu / p.mapSpillCpuCores);
      host_.addDiskWrite(wrote);
      spillRemaining_ -= wrote;
      if (spillRemaining_ <= kEps) {
        spillRemaining_ = 0.0;
        host_.ttWriter().taskDone(now, id_);
        enterPhase(Phase::kDone, now);
        return TaskOutcome::kCompleted;
      }
      break;
    }
    case Phase::kReduceCopy: {
      const double cpu = host_.cpu().granted(hCpu_);
      host_.addCpuUser(cpu);
      // The fetcher's CPU share caps its aggregate copy rate.
      const double cpuFactor = std::min(1.0, cpu / p.reduceCopyCpuCores);
      const bool failing = host_.faults().reduceCopyFail;
      for (const auto& s : streams_) {
        Node& src = cluster_.node(s.source);
        double moved = std::min(src.disk().granted(s.hSrcDisk),
                                std::min(src.nic().granted(s.hSrcNic),
                                         host_.nic().granted(s.hDstNic)));
        // Cross-rack fetches also share the two racks' uplinks.
        moved = std::min(moved, uplinkGranted(src, s.flow));
        // The serving TaskTracker checksums what it ships.
        const double serveCpu = src.cpu().granted(s.hSrcCpu);
        moved *= serveCpu / kServeCpuCores;
        src.addCpuSystem(serveCpu);
        moved *= cpuFactor;
        moved = std::min(moved, s.requested);
        src.addDiskRead(moved);
        src.addDnBytes(moved, 0.0);
        src.addNetTx(moved);
        host_.addNetRx(moved);
        fetched_[static_cast<std::size_t>(s.source)] += moved;
        fetchedTotal_ += moved;
      }
      streams_.clear();
      if (failing && fetchedTotal_ > 0.0) {
        // HADOOP-1152: the rename of a copied map output fails. The
        // attempt limps through part of its shuffle (logging fetch
        // failures) before dying with the IOException, so doomed
        // attempts linger in ReduceCopy and then get retried — the
        // churn signature the white-box analysis keys on.
        if (now - lastCopyFailLog_ > 20.0) {
          lastCopyFailLog_ = now;
          host_.ttWriter().copyFailed(
              now, id_,
              hadooplog::makeTaskAttemptId(job_.id(), true, 0, 0));
        }
        const bool enoughCopied = fetchedTotal_ >= 0.3 * sortTotal_ - kEps;
        const bool lingered = now - phaseStart_ >= 45.0;
        if (enoughCopied && lingered) {
          host_.ttWriter().taskFailed(now, id_,
                                      "failed to rename map output");
          enterPhase(Phase::kDone, now);
          return TaskOutcome::kFailed;
        }
      }
      if (!failing && job_.mapsComplete() &&
          fetchedTotal_ >= sortTotal_ - kEps) {
        enterPhase(Phase::kReduceSort, now);
        if (host_.faults().reduceSortHang) hung_ = true;
        host_.ttWriter().reduceProgress(now, id_, progressFraction(),
                                        "sort", job_.numMaps(),
                                        job_.numMaps());
        lastProgressLog_ = now;
      }
      break;
    }
    case Phase::kReduceSort: {
      const double cpu = host_.cpu().granted(hCpu_);
      host_.addCpuUser(cpu);
      if (hung_) break;  // HADOOP-2080
      const double read = host_.disk().granted(hSortRead_);
      const double wrote = host_.disk().granted(hSortWrite_);
      const double merged = std::min(read, wrote) *
                            std::min(1.0, cpu / p.reduceSortCpuCores);
      host_.addDiskRead(merged);
      host_.addDiskWrite(merged);
      sortRemaining_ -= merged;
      if (sortRemaining_ <= kEps) {
        sortRemaining_ = 0.0;
        // Pick the two off-node replica targets for the output write.
        Rng& rng = cluster_.rng();
        const int slaves = cluster_.slaveCount();
        do {
          replica2_ = static_cast<NodeId>(rng.uniformInt(1, slaves));
        } while (replica2_ == host_.id() && slaves > 1);
        do {
          replica3_ = static_cast<NodeId>(rng.uniformInt(1, slaves));
        } while ((replica3_ == host_.id() || replica3_ == replica2_) &&
                 slaves > 2);
        enterPhase(Phase::kReduceWrite, now);
        host_.ttWriter().reduceProgress(now, id_, progressFraction(),
                                        "reduce", job_.numMaps(),
                                        job_.numMaps());
        lastProgressLog_ = now;
      }
      break;
    }
    case Phase::kReduceWrite: {
      const double cpu = host_.cpu().granted(hCpu_);
      host_.addCpuUser(cpu);
      cpuRemaining_ = std::max(0.0, cpuRemaining_ - cpu);
      Node& r2 = cluster_.node(replica2_);
      Node& r3 = cluster_.node(replica3_);
      double wrote = host_.disk().granted(hWriteDiskLocal_);
      wrote = std::min(wrote, host_.nic().granted(hWriteNicTx_));
      wrote = std::min(wrote, r2.nic().granted(hWriteR2Rx_));
      wrote = std::min(wrote, r2.disk().granted(hWriteR2Disk_));
      wrote = std::min(wrote, r2.nic().granted(hWriteR2Tx_));
      wrote = std::min(wrote, r3.nic().granted(hWriteR3Rx_));
      wrote = std::min(wrote, r3.disk().granted(hWriteR3Disk_));
      // The replication pipeline's cross-rack hops share the uplinks.
      wrote = std::min(wrote, uplinkGranted(host_, writeFlow2_));
      wrote = std::min(wrote, uplinkGranted(r2, writeFlow3_));
      // The write cannot run ahead of the reduce function itself.
      if (cpuTotal_ > 0.0 && cpuRemaining_ > 0.0) {
        const double cpuFractionLeft = cpuRemaining_ / cpuTotal_;
        const double maxWritten = writeTotal_ * (1.0 - cpuFractionLeft);
        wrote = std::min(wrote, std::max(0.0, maxWritten -
                                                  (writeTotal_ -
                                                   writeRemaining_)));
      }
      host_.addDiskWrite(wrote);
      host_.addNetTx(wrote);
      r2.addNetRx(wrote);
      r2.addDiskWrite(wrote);
      r2.addNetTx(wrote);
      r2.addDnBytes(0.0, wrote);
      r3.addNetRx(wrote);
      r3.addDiskWrite(wrote);
      r3.addDnBytes(0.0, wrote);
      host_.addDnBytes(0.0, wrote);

      // Block-boundary log events on the replica pipeline.
      writtenSinceBlockStart_ += wrote;
      writeRemaining_ -= wrote;
      if (currentOutBlock_ < 0 && wrote > 0.0) {
        currentOutBlock_ = cluster_.nameNode().createBlock(host_.id(),
                                                           cluster_.rng());
        job_.addOutputBlock(currentOutBlock_);
        host_.dnWriter().receivingBlock(now, currentOutBlock_, host_.ip(),
                                        host_.ip());
        r2.dnWriter().receivingBlock(now, currentOutBlock_, host_.ip(),
                                     r2.ip());
        r3.dnWriter().receivingBlock(now, currentOutBlock_, r2.ip(),
                                     r3.ip());
      }
      const bool blockFull = writtenSinceBlockStart_ >= p.blockBytes - kEps;
      const bool allDone = writeRemaining_ <= kEps && cpuRemaining_ <= 1e-9;
      if (currentOutBlock_ >= 0 && (blockFull || allDone)) {
        const double sz = writtenSinceBlockStart_;
        host_.dnWriter().receivedBlock(now, currentOutBlock_, sz,
                                       host_.ip());
        r2.dnWriter().receivedBlock(now, currentOutBlock_, sz, host_.ip());
        r3.dnWriter().receivedBlock(now, currentOutBlock_, sz, r2.ip());
        writtenSinceBlockStart_ = 0.0;
        currentOutBlock_ = -1;
      }
      if (allDone) {
        writeRemaining_ = 0.0;
        host_.ttWriter().taskDone(now, id_);
        enterPhase(Phase::kDone, now);
        return TaskOutcome::kCompleted;
      }
      break;
    }
    case Phase::kDone:
      return TaskOutcome::kRunning;
  }

  maybeLogProgress(now);
  return TaskOutcome::kRunning;
}

void TaskAttempt::kill(SimTime now) {
  closeOpenReadLog(now);
  if (currentOutBlock_ >= 0) {
    // Abort the in-flight output block on all three pipeline nodes.
    Node& r2 = cluster_.node(replica2_);
    Node& r3 = cluster_.node(replica3_);
    host_.dnWriter().receivedBlock(now, currentOutBlock_,
                                   writtenSinceBlockStart_, host_.ip());
    r2.dnWriter().receivedBlock(now, currentOutBlock_,
                                writtenSinceBlockStart_, host_.ip());
    r3.dnWriter().receivedBlock(now, currentOutBlock_,
                                writtenSinceBlockStart_, r2.ip());
    currentOutBlock_ = -1;
  }
  host_.ttWriter().killTask(now, id_);
  enterPhase(Phase::kDone, now);
}

}  // namespace asdf::hadoop
