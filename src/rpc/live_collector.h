// The collection backend RpcClient fetches through.
//
// Every transport implements this interface: the in-process RpcHub
// (sim runs), net::LiveTransport over real framed TCP to an asdf_rpcd
// daemon (the rpc layer cannot depend on src/net/, which already
// depends on rpc for the wire codec), net::FanoutCollector,
// net::ProcSource (asdf_rpcd's real-host source) and
// archive::ArchiveCollector (replay).
//
// A channel is chosen by CollectKind alone: a request carries what
// every transport puts on the wire (rpc::encodeRequest, payloads.h) and
// its result points at the kind's value type. collect() takes a batch:
// a span of requests and a span of results, one result per request. A
// single fetch is a batch of one (collectOne), so every transport has
// one entry point. Each request in a batch is one *attempt* — it
// either fills its value within the transport's timeout or reports
// failure, independently of the others; retries, backoff, circuit
// breaking, health bookkeeping and byte accounting all stay in
// RpcClient's single loop.
//
// A transport may carry a batch however it likes: the sim hub, the
// archive and the fanout loop over it, and net::LiveTransport sends it
// as one pipelined burst of frames (DESIGN.md §9). Whatever it does, a
// request's outcome must not depend on the other requests of its
// batch beyond shared transport failures (a dropped connection fails
// every request still outstanding on it).
#pragma once

#include <cstddef>
#include <span>
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

/// One request's outcome. The caller sets `out`; the collector sets
/// `ok` and, on success, fills the value and sets `responseBytes` to
/// the response payload size as marshalled on the wire, which
/// RpcClient charges to the channel — so Table 4 totals agree between
/// transports.
struct CollectResult {
  CollectOut out;
  bool ok = false;
  std::size_t responseBytes = 0;
};

class LiveCollector {
 public:
  virtual ~LiveCollector() = default;

  /// Slave count the collector serves (nodes 1..slaves()).
  virtual int slaves() const = 0;

  /// One attempt of every request; `results[i]` answers `requests[i]`
  /// (equal sizes).
  virtual void collect(std::span<const CollectRequest> requests,
                       std::span<CollectResult> results) = 0;
};

/// A batch of one: one attempt of `req` into `out`. True on success,
/// with `responseBytes` set as collect() sets it.
inline bool collectOne(LiveCollector& collector, const CollectRequest& req,
                       CollectOut out, std::size_t& responseBytes) {
  CollectResult result{out};
  collector.collect({&req, 1}, {&result, 1});
  if (result.ok) responseBytes = result.responseBytes;
  return result.ok;
}

}  // namespace asdf::rpc
