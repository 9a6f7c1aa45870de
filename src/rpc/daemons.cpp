#include "rpc/daemons.h"

#include "rpc/payloads.h"

namespace asdf::rpc {
namespace {

// The node-side cost of answering one poll: a sliver of CPU and the
// response bytes on the NIC (this is the perturbation Table 3 bounds).
void chargeNode(hadoop::Node& node, double cpuSeconds, double txBytes) {
  node.addCpuSystem(cpuSeconds);
  node.addNetTx(txBytes);
  node.addNetRx(kCollectRequestBytes);
}

}  // namespace

SadcDaemon::SadcDaemon(hadoop::Node& node) : node_(node) {}

const metrics::SadcSnapshot& SadcDaemon::fetch(std::size_t& responseBytes) {
  const metrics::SadcSnapshot& snap = node_.sadcCollect();
  responseBytes = encodedSize(snap);
  chargeNode(node_, 2.0e-5, static_cast<double>(responseBytes));
  return snap;
}

std::size_t SadcDaemon::memoryFootprintBytes() const {
  // libsadc keeps one snapshot-sized working buffer plus /proc read
  // scratch; the daemon itself holds the encoder buffer.
  return sizeof(SadcDaemon) +
         (metrics::kNodeMetricCount + metrics::kNicMetricCount +
          2 * metrics::kProcessMetricCount) *
             sizeof(double) +
         4096 /* /proc scratch */;
}

HadoopLogDaemon::HadoopLogDaemon(hadoop::Node& node, SimTime attachTime)
    : node_(node) {
  ttParser_.startAt(static_cast<long>(attachTime));
  dnParser_.startAt(static_cast<long>(attachTime));
}

void HadoopLogDaemon::fetch(CollectKind kind, SimTime watermark,
                            std::vector<hadooplog::StateSample>& out,
                            std::size_t& responseBytes) {
  // This daemon is the log's one tail reader: lines it has parsed are
  // freed, so the buffer holds only what arrived since the last poll.
  if (kind == CollectKind::kTt) {
    hadooplog::LogBuffer& log = node_.ttLog();
    ttParser_.consume(log.linesFrom(ttCursor_));
    ttCursor_ = log.lineCount();
    log.discardAll();
    ttParser_.poll(watermark, out);
  } else {
    hadooplog::LogBuffer& log = node_.dnLog();
    dnParser_.consume(log.linesFrom(dnCursor_));
    dnCursor_ = log.lineCount();
    log.discardAll();
    dnParser_.poll(watermark, out);
  }
  responseBytes = encodedSize(out);
  chargeNode(node_, 1.0e-5, static_cast<double>(responseBytes));
}

std::size_t HadoopLogDaemon::memoryFootprintBytes() const {
  // The parser "maintains state that has constant memory use": the
  // open-task / open-transfer maps plus the per-second accumulators.
  return sizeof(HadoopLogDaemon) + ttParser_.openTaskCount() * 96 +
         dnParser_.openTransferCount() * 96 + 4096 /* line scratch */;
}

StraceDaemon::StraceDaemon(hadoop::Node& node) : node_(node) {}

const syscalls::TraceSecond& StraceDaemon::fetch(
    std::size_t& responseBytes) {
  const syscalls::TraceSecond& trace = node_.lastSyscallTrace();
  // Wire format: one byte per event plus a length prefix.
  responseBytes = 4 + trace.size();
  chargeNode(node_, 1.0e-5, static_cast<double>(trace.size()) + 4.0);
  return trace;
}

void StraceDaemon::attachConsumer() { node_.attachSyscallTraceConsumer(); }

std::size_t StraceDaemon::memoryFootprintBytes() const {
  // One second of trace buffer (one byte per event, sized for a busy
  // node) plus the ring the tracer writes into before it is drained.
  // Sized from the model's bound, not the last trace: reading the trace
  // would attach a consumer and start the node drawing.
  return sizeof(StraceDaemon) +
         2 * syscalls::SyscallTraceModel::Params{}.maxEventsPerSecond +
         4096 /* tracer ring scratch */;
}

RpcHub::RpcHub(hadoop::Cluster& cluster, SimTime attachTime) {
  // slaveNodes() lists ids 1..N in order, so slot i holds node i + 1.
  for (hadoop::Node* node : cluster.slaveNodes()) {
    daemons_.push_back(std::make_unique<NodeDaemons>(*node, attachTime));
  }
  client_ = std::make_unique<RpcClient>(*this, RpcPolicy{}, /*seed=*/0,
                                        /*realBackoff=*/false);
}

RpcHub::NodeDaemons& RpcHub::daemons(NodeId node) {
  return *daemons_.at(static_cast<std::size_t>(node) - 1);
}

SadcDaemon& RpcHub::sadc(NodeId node) { return daemons(node).sadc; }

HadoopLogDaemon& RpcHub::hadoopLog(NodeId node) { return daemons(node).log; }

StraceDaemon& RpcHub::strace(NodeId node) { return daemons(node).strace; }

int RpcHub::slaves() const { return static_cast<int>(daemons_.size()); }

void RpcHub::collect(std::span<const CollectRequest> requests,
                     std::span<CollectResult> results) {
  std::size_t i = 0;
  while (i < requests.size()) {
    const Daemon daemon = daemonOf(requests[i].kind);
    BusyMeter::Scope scope(busy_[static_cast<int>(daemon)]);
    for (; i < requests.size() && daemonOf(requests[i].kind) == daemon;
         ++i) {
      serve(requests[i], results[i]);
    }
  }
}

void RpcHub::serve(const CollectRequest& req, CollectResult& result) {
  NodeDaemons& d = daemons(req.node);
  switch (req.kind) {
    case CollectKind::kSadc:
      // Copy-assignment reuses the capacity of the caller's snapshot.
      *std::get<metrics::SadcSnapshot*>(result.out) =
          d.sadc.fetch(result.responseBytes);
      break;
    case CollectKind::kTt:
    case CollectKind::kDn:
      d.log.fetch(req.kind, req.watermark,
                  *std::get<std::vector<hadooplog::StateSample>*>(result.out),
                  result.responseBytes);
      break;
    case CollectKind::kStrace:
      *std::get<syscalls::TraceSecond*>(result.out) =
          d.strace.fetch(result.responseBytes);
      break;
  }
  result.ok = true;
}

}  // namespace asdf::rpc
