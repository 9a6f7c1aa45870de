// The collection backend RpcClient fetches through.
//
// Every transport implements this interface: the in-process RpcHub
// (sim runs), net::LiveTransport over real framed TCP to an asdf_rpcd
// daemon (the rpc layer cannot depend on src/net/, which already
// depends on rpc for the wire codec), net::FanoutCollector,
// net::ProcSource (asdf_rpcd's real-host source) and
// archive::ArchiveCollector (replay).
//
// A channel is chosen by CollectKind alone: one collect() call carries
// the request every transport puts on the wire (rpc::encodeRequest,
// payloads.h) and a CollectOut pointing at the kind's value type. Each
// call is one *attempt* — it either fills the value within the
// transport's timeout or reports failure; retries, backoff, circuit
// breaking, health bookkeeping and byte accounting all stay in
// RpcClient's single loop.
#pragma once

#include <cstddef>
#include <variant>
#include <vector>

#include "common/types.h"
#include "hadooplog/parser.h"
#include "metrics/os_model.h"
#include "rpc/collection_tap.h"
#include "syscalls/trace_model.h"

namespace asdf::rpc {

/// One collect call's arguments. `watermark` is meaningful for the tt
/// and dn channels only (kNoTime otherwise).
struct CollectRequest {
  CollectKind kind = CollectKind::kSadc;
  NodeId node = kInvalidNode;
  SimTime now = kNoTime;
  SimTime watermark = kNoTime;
};

/// Where a collect call writes its value: the snapshot for kSadc, the
/// state-vector rows for kTt/kDn, the trace for kStrace. The pointee
/// keeps its capacity across calls.
using CollectOut =
    std::variant<metrics::SadcSnapshot*, std::vector<hadooplog::StateSample>*,
                 syscalls::TraceSecond*>;

class LiveCollector {
 public:
  virtual ~LiveCollector() = default;

  /// Slave count the collector serves (nodes 1..slaves()).
  virtual int slaves() const = 0;

  /// One attempt. On success fills `out` and sets `responseBytes` to
  /// the response payload size as marshalled on the wire, which
  /// RpcClient charges to the channel — so Table 4 totals agree
  /// between transports.
  virtual bool collect(const CollectRequest& req, CollectOut out,
                       std::size_t& responseBytes) = 0;
};

}  // namespace asdf::rpc
