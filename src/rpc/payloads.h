// Payload codecs shared by every transport.
//
// The sim-path daemons (daemons.cpp) and the live socket plane
// (src/net/) must marshal the exact same bytes for the same data:
// Table 4's bandwidth numbers and the sim/live byte-parity contract
// (DESIGN.md §9) both depend on it. These helpers are the single
// definition of how a sadc snapshot and a Hadoop state-vector row look
// on the wire, layered on the XDR-style codec in wire.h.
//
// The collect request {node:u32, now:f64[, watermark:f64 for tt/dn]}
// is defined here too, once for every client and server.
//
// encodedSize() computes, without encoding, the byte count the matching
// encoder would produce. The sim daemons report that size (they hand
// the value itself over in process, with no marshalling a real daemon
// would not do); Payloads.EncodedSizeMatchesEncoder and LiveE2E's
// sim/live Table 4 equality pin it to the codec.
#pragma once

#include <cstddef>
#include <vector>

#include "hadooplog/parser.h"
#include "metrics/os_model.h"
#include "rpc/live_collector.h"
#include "rpc/wire.h"
#include "syscalls/trace_model.h"

namespace asdf::rpc {

/// Request payload of a parameterless collect call (object id +
/// operation name, ICE-style). Every transport — simulated or live —
/// charges this many request bytes per attempt so the accounting is
/// identical across them.
inline constexpr std::size_t kCollectRequestBytes = 48;

void encodeSnapshot(Encoder& enc, const metrics::SadcSnapshot& snap);
metrics::SadcSnapshot decodeSnapshot(Decoder& dec);
std::size_t encodedSize(const metrics::SadcSnapshot& snap);

void encodeSamples(Encoder& enc,
                   const std::vector<hadooplog::StateSample>& samples);
std::vector<hadooplog::StateSample> decodeSamples(Decoder& dec);
std::size_t encodedSize(const std::vector<hadooplog::StateSample>& samples);

void encodeTrace(Encoder& enc, const syscalls::TraceSecond& trace);
syscalls::TraceSecond decodeTrace(Decoder& dec);

/// The wire request of one collect call. decodeRequest() reads one
/// for `kind` into `out`; false when the payload is too short for it.
void encodeRequest(Encoder& enc, const CollectRequest& req);
bool decodeRequest(Decoder& dec, CollectKind kind, CollectRequest& out);

/// The response payload of one collect call: `value` marshalled by
/// its kind's codec above, and the reverse. decodeInto() is false
/// when the bytes are not a valid encoding (`out` is then unspecified).
void encodePayload(Encoder& enc, CollectOut value);
bool decodeInto(Decoder& dec, CollectOut out);

}  // namespace asdf::rpc
