// The collection backend RpcClient fetches through.
//
// Every transport implements this interface: the in-process RpcHub
// (sim runs), net::LiveTransport over real framed TCP to an asdf_rpcd
// daemon (the rpc layer cannot depend on src/net/, which already
// depends on rpc for the wire codec), net::FanoutCollector, and
// archive::ArchiveCollector (replay). Each call is one *attempt* — it
// either returns the decoded value within the transport's timeout or
// reports failure; retries, backoff, circuit breaking, health
// bookkeeping and byte accounting all stay in RpcClient's single loop.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "hadooplog/parser.h"
#include "metrics/os_model.h"
#include "syscalls/trace_model.h"

namespace asdf::rpc {

class LiveCollector {
 public:
  virtual ~LiveCollector() = default;

  /// Slave count the collector serves (nodes 1..slaves()).
  virtual int slaves() const = 0;

  /// One attempt each. On success fills `out` and sets `responseBytes`
  /// to the response payload size as marshalled on the wire, which
  /// RpcClient charges to the channel — so Table 4 totals agree
  /// between transports.
  virtual bool fetchSadc(NodeId node, SimTime now,
                         metrics::SadcSnapshot& out,
                         std::size_t& responseBytes) = 0;
  virtual bool fetchTt(NodeId node, SimTime now, SimTime watermark,
                       std::vector<hadooplog::StateSample>& out,
                       std::size_t& responseBytes) = 0;
  virtual bool fetchDn(NodeId node, SimTime now, SimTime watermark,
                       std::vector<hadooplog::StateSample>& out,
                       std::size_t& responseBytes) = 0;
  virtual bool fetchStrace(NodeId node, SimTime now,
                           syscalls::TraceSecond& out,
                           std::size_t& responseBytes) = 0;
};

}  // namespace asdf::rpc
