#include "metrics/os_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace asdf::metrics {
namespace {

// EWMA decay factors for 1-second samples, exp(-1/60), exp(-1/300),
// exp(-1/900) — the kernel's loadavg constants.
constexpr double kDecay1 = 0.98347;
constexpr double kDecay5 = 0.99667;
constexpr double kDecay15 = 0.99889;

constexpr double kIoBytesPerOp = 256.0 * 1024.0;  // request size
constexpr double kSectorBytes = 512.0;
constexpr double kPageBytes = 4096.0;

// What an uncomputed per-process value reads.
constexpr double kNotComputed = std::numeric_limits<double>::quiet_NaN();

}  // namespace

void NodeActivity::reset() {
  std::vector<ProcessActivity> kept = std::move(processes);
  kept.clear();
  *this = NodeActivity{};
  processes = std::move(kept);
}

NodeOsModel::NodeOsModel(Params params, Rng rng)
    : params_(params), rng_(rng) {}

double NodeOsModel::noisy(double value) {
  if (value == 0.0) return 0.0;
  if (drawOnly_) {
    rng_.skipGaussian();
    return kNotComputed;
  }
  return std::max(0.0, value * (1.0 + params_.noiseFraction * rng_.gaussian()));
}

double NodeOsModel::noisyFloor(double value, double floorSigma) {
  // For metrics that are often exactly zero we add a small absolute
  // noise floor so fault-free standard deviations are nonzero
  // (important for the analyses' scaling, Section 4.5).
  const double base = noisy(value);
  if (drawOnly_) {
    rng_.skipGaussian();
    return kNotComputed;
  }
  return std::max(0.0, base + std::abs(rng_.gaussian(0.0, floorSigma)));
}

void NodeOsModel::tickInto(SimTime now, const NodeActivity& a,
                           SadcSnapshot& snap) {
  snap.time = now;
  snap.node.assign(kNodeMetricCount, 0.0);
  snap.nic.assign(kNicMetricCount, 0.0);
  auto& m = snap.node;

  const double cores = params_.cores;

  // ---- CPU ----------------------------------------------------------
  // Baseline OS housekeeping burns a sliver of CPU even when idle.
  const double baseUser = 0.01 * cores;
  const double baseSys = 0.008 * cores;
  double user = std::min(cores, a.cpuUserCores + baseUser);
  double nice = std::min(cores, a.cpuNiceCores);
  double sys = std::min(cores, a.cpuSystemCores + baseSys);
  double iowait = std::min(cores, a.cpuIowaitCores);
  double busy = user + nice + sys + iowait;
  if (busy > cores) {
    const double scale = cores / busy;
    user *= scale;
    nice *= scale;
    sys *= scale;
    iowait *= scale;
    busy = cores;
  }
  m[kCpuUserPct] = noisy(100.0 * user / cores);
  m[kCpuNicePct] = noisyFloor(100.0 * nice / cores, 0.02);
  m[kCpuSystemPct] = noisy(100.0 * sys / cores);
  m[kCpuIowaitPct] = noisyFloor(100.0 * iowait / cores, 0.05);
  m[kCpuStealPct] = noisyFloor(0.05, 0.02);  // EC2 neighbors
  m[kCpuIdlePct] = std::max(
      0.0, 100.0 - m[kCpuUserPct] - m[kCpuNicePct] - m[kCpuSystemPct] -
               m[kCpuIowaitPct] - m[kCpuStealPct]);

  // ---- Process creation / context switches / interrupts -------------
  const double rxPkts = a.netRxBytes / params_.avgPacketBytes;
  const double txPkts = a.netTxBytes / params_.avgPacketBytes;
  const double diskOps = (a.diskReadBytes + a.diskWriteBytes) / kIoBytesPerOp;
  m[kForksPerSec] = noisyFloor(a.forks + 1.5, 0.3);
  m[kCtxSwitchPerSec] =
      noisy(450.0 + 1800.0 * (busy / cores) + 0.6 * (rxPkts + txPkts) +
            3.0 * diskOps);
  m[kIntrPerSec] = noisy(250.0 + rxPkts + txPkts + 2.0 * diskOps);

  // ---- Swap / paging -------------------------------------------------
  const double memPressure =
      std::max(0.0, a.memUsedBytes / params_.memTotalBytes - 0.92);
  m[kSwapInPerSec] = noisyFloor(memPressure * 4000.0, 0.05);
  m[kSwapOutPerSec] = noisyFloor(memPressure * 6000.0, 0.05);
  m[kPgPgInPerSec] = noisy(a.diskReadBytes / 1024.0);
  m[kPgPgOutPerSec] = noisy(a.diskWriteBytes / 1024.0);
  m[kPgFaultPerSec] =
      noisy(120.0 + 900.0 * (user / cores) + 300.0 * a.forks);
  m[kPgMajFaultPerSec] = noisyFloor(memPressure * 50.0, 0.05);
  m[kPgFreePerSec] =
      noisy(200.0 + (a.diskReadBytes + a.diskWriteBytes) / kPageBytes * 0.5);
  m[kPgScanKPerSec] = noisyFloor(memPressure * 20000.0, 0.1);
  m[kPgScanDPerSec] = noisyFloor(memPressure * 8000.0, 0.05);
  m[kPgStealPerSec] = noisyFloor(memPressure * 15000.0, 0.05);

  // ---- Disk I/O ------------------------------------------------------
  const double rtps = a.diskReadBytes / kIoBytesPerOp;
  const double wtps = a.diskWriteBytes / kIoBytesPerOp;
  m[kIoTps] = noisyFloor(rtps + wtps, 0.2);
  m[kIoReadTps] = noisyFloor(rtps, 0.1);
  m[kIoWriteTps] = noisyFloor(wtps, 0.1);
  m[kIoReadBlocksPerSec] = noisy(a.diskReadBytes / kSectorBytes);
  m[kIoWriteBlocksPerSec] = noisy(a.diskWriteBytes / kSectorBytes);

  // ---- Memory --------------------------------------------------------
  const double memTotalKb = params_.memTotalBytes / 1024.0;
  const double usedKb =
      std::min(memTotalKb * 0.99, a.memUsedBytes / 1024.0);
  // The page cache absorbs recent disk traffic and decays slowly.
  cachedKb_ = std::min(memTotalKb * 0.5,
                       cachedKb_ * 0.995 +
                           (a.diskReadBytes + a.diskWriteBytes) / 1024.0 * 0.3);
  const double buffersKb = memTotalKb * 0.015;
  const double freeKb =
      std::max(0.0, memTotalKb - usedKb - cachedKb_ - buffersKb);
  m[kMemFreeKb] = noisy(freeKb);
  m[kMemUsedKb] = noisy(usedKb + cachedKb_ + buffersKb);
  m[kMemUsedPct] = 100.0 * m[kMemUsedKb] / memTotalKb;
  m[kMemBuffersKb] = noisy(buffersKb);
  m[kMemCachedKb] = noisy(cachedKb_);
  m[kMemCommitKb] = noisy(usedKb * 1.35);
  m[kMemCommitPct] = 100.0 * m[kMemCommitKb] / memTotalKb;

  if (prevFreeKb_ < 0) prevFreeKb_ = freeKb;
  if (prevBufKb_ < 0) prevBufKb_ = buffersKb;
  if (prevCacheKb_ < 0) prevCacheKb_ = cachedKb_;
  m[kMemFreePagesPerSec] = (freeKb - prevFreeKb_) / (kPageBytes / 1024.0);
  m[kMemBufPagesPerSec] = (buffersKb - prevBufKb_) / (kPageBytes / 1024.0);
  m[kMemCachePagesPerSec] = (cachedKb_ - prevCacheKb_) / (kPageBytes / 1024.0);
  prevFreeKb_ = freeKb;
  prevBufKb_ = buffersKb;
  prevCacheKb_ = cachedKb_;

  // ---- Swap space / hugepages ---------------------------------------
  const double swapTotalKb = 2.0e6;
  const double swapUsedKb = memPressure * swapTotalKb * 2.0;
  m[kSwapFreeKb] = noisy(std::max(0.0, swapTotalKb - swapUsedKb));
  m[kSwapUsedKb] = noisyFloor(swapUsedKb, 1.0);
  m[kSwapUsedPct] = 100.0 * m[kSwapUsedKb] / swapTotalKb;
  m[kSwapCadKb] = noisyFloor(swapUsedKb * 0.1, 0.5);
  m[kHugeFreeKb] = 0.0;
  m[kHugeUsedKb] = 0.0;

  // ---- Kernel tables -------------------------------------------------
  m[kDentUnused] = noisy(42000.0 + 40.0 * diskOps);
  m[kFileNr] = noisy(1400.0 + 64.0 * a.runnableTasks + 8.0 * a.processCount);
  m[kInodeNr] = noisy(31000.0 + 10.0 * diskOps);
  m[kPtyNr] = 2.0;

  // ---- Run queue / load ----------------------------------------------
  const double runnable = a.runnableTasks + busy / cores;
  load1_ = kDecay1 * load1_ + (1.0 - kDecay1) * runnable;
  load5_ = kDecay5 * load5_ + (1.0 - kDecay5) * runnable;
  load15_ = kDecay15 * load15_ + (1.0 - kDecay15) * runnable;
  m[kRunQueueSize] = noisyFloor(a.runnableTasks, 0.2);
  m[kProcListSize] = noisy(95.0 + a.processCount);
  m[kLoadAvg1] = noisy(load1_);
  m[kLoadAvg5] = noisy(load5_);
  m[kLoadAvg15] = noisy(load15_);

  // ---- TTY ------------------------------------------------------------
  m[kTtyRcvPerSec] = 0.0;
  m[kTtyXmtPerSec] = 0.0;

  // ---- Sockets ---------------------------------------------------------
  m[kSockTotal] = noisy(140.0 + a.tcpConnections + 2.0 * a.runnableTasks);
  m[kSockTcp] = noisy(24.0 + a.tcpConnections);
  m[kSockUdp] = noisy(6.0);
  m[kSockRaw] = 0.0;
  m[kIpFrag] = 0.0;

  // ---- Network totals --------------------------------------------------
  m[kNetRxPktTotalPerSec] = noisyFloor(rxPkts, 0.5);
  m[kNetTxPktTotalPerSec] = noisyFloor(txPkts, 0.5);
  m[kNetRxKbTotalPerSec] = noisyFloor(a.netRxBytes / 1024.0, 0.2);
  m[kNetTxKbTotalPerSec] = noisyFloor(a.netTxBytes / 1024.0, 0.2);

  // ---- NFS (unused in a Hadoop cluster: HDFS handles storage) ---------
  m[kNfsCallPerSec] = 0.0;
  m[kNfsRetransPerSec] = 0.0;
  m[kNfsSrvCallPerSec] = 0.0;
  m[kNfsSrvBadCallPerSec] = 0.0;

  // ---- Per-NIC (single eth0) -------------------------------------------
  auto& n = snap.nic;
  n[kNicRxPktPerSec] = m[kNetRxPktTotalPerSec];
  n[kNicTxPktPerSec] = m[kNetTxPktTotalPerSec];
  n[kNicRxKbPerSec] = m[kNetRxKbTotalPerSec];
  n[kNicTxKbPerSec] = m[kNetTxKbTotalPerSec];
  n[kNicRxCmpPerSec] = 0.0;
  n[kNicTxCmpPerSec] = 0.0;
  n[kNicRxMcastPerSec] = noisyFloor(0.2, 0.05);
  n[kNicRxErrPerSec] = noisyFloor(a.netRxDropPkts * 0.02, 0.01);
  n[kNicTxErrPerSec] = noisyFloor(a.netTxDropPkts * 0.02, 0.01);
  n[kNicCollPerSec] = 0.0;
  n[kNicRxDropPerSec] = noisyFloor(a.netRxDropPkts, 0.01);
  n[kNicTxDropPerSec] = noisyFloor(a.netTxDropPkts, 0.01);
  n[kNicTxCarrPerSec] = 0.0;
  n[kNicRxFramPerSec] = 0.0;
  n[kNicRxFifoPerSec] = 0.0;
  n[kNicTxFifoPerSec] = 0.0;
  const double nicBytesPerSec = params_.nicSpeedMbps * 1.0e6 / 8.0;
  n[kNicUtilPct] =
      100.0 * (a.netRxBytes + a.netTxBytes) / (2.0 * nicBytesPerSec);
  n[kNicSpeedMbps] = params_.nicSpeedMbps;

  // ---- Tracked processes -------------------------------------------------
  // Rows off: the same draws, no noise math, and NaN rows.
  drawOnly_ = !processRows_;
  snap.processes.resize(a.processes.size());
  for (std::size_t i = 0; i < a.processes.size(); ++i) {
    const ProcessActivity& p = a.processes[i];
    auto& [name, v] = snap.processes[i];
    name = p.name;
    v.assign(kProcessMetricCount, 0.0);
    v[kProcCpuUserPct] = noisy(100.0 * p.cpuUserCores);
    v[kProcCpuSystemPct] = noisy(100.0 * p.cpuSystemCores);
    v[kProcCpuTotalPct] = v[kProcCpuUserPct] + v[kProcCpuSystemPct];
    v[kProcMinFltPerSec] =
        noisyFloor(20.0 + 500.0 * (p.cpuUserCores + p.cpuSystemCores), 1.0);
    v[kProcMajFltPerSec] = noisyFloor(memPressure * 10.0, 0.02);
    v[kProcVszKb] = noisy(p.rssBytes * 2.2 / 1024.0);
    v[kProcRssKb] = noisy(p.rssBytes / 1024.0);
    v[kProcMemPct] = 100.0 * p.rssBytes / params_.memTotalBytes;
    v[kProcReadKbPerSec] = noisyFloor(p.readBytes / 1024.0, 0.1);
    v[kProcWriteKbPerSec] = noisyFloor(p.writeBytes / 1024.0, 0.1);
    v[kProcCancelledWriteKbPerSec] = 0.0;
    v[kProcIoDelayTicks] =
        noisyFloor((p.readBytes + p.writeBytes) / kIoBytesPerOp * 0.5, 0.05);
    v[kProcCtxSwitchPerSec] =
        noisy(15.0 + 400.0 * (p.cpuUserCores + p.cpuSystemCores));
    v[kProcNvCtxSwitchPerSec] =
        noisyFloor(100.0 * (p.cpuUserCores + p.cpuSystemCores), 0.5);
    v[kProcThreads] = p.threads;
    v[kProcFds] = p.fds;
    v[kProcPriority] = 20.0;

    // Cumulative jiffies (100 Hz) per process, persisted across ticks.
    auto it = std::find_if(procCpuTicks_.begin(), procCpuTicks_.end(),
                           [&](const auto& e) { return e.first == p.name; });
    if (it == procCpuTicks_.end()) {
      procCpuTicks_.push_back({p.name, {0.0, 0.0}});
      it = procCpuTicks_.end() - 1;
    }
    it->second.first += p.cpuSystemCores * 100.0;
    it->second.second += p.cpuUserCores * 100.0;
    v[kProcSysTimeTicks] = it->second.first;
    v[kProcUserTimeTicks] = it->second.second;
    if (drawOnly_) std::fill(v.begin(), v.end(), kNotComputed);
  }
  drawOnly_ = false;
}

}  // namespace asdf::metrics
