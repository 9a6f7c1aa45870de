#include "rpc/payloads.h"

#include "common/error.h"

namespace asdf::rpc {
namespace {

// XDR sizes: 4-byte counts and lengths, 8-byte doubles and i64s,
// strings padded to a multiple of 4.
constexpr std::size_t kCountBytes = 4;
constexpr std::size_t kWordBytes = 8;

std::size_t doubleVectorSize(const std::vector<double>& v) {
  return kCountBytes + kWordBytes * v.size();
}

std::size_t stringSize(const std::string& s) {
  return kCountBytes + (s.size() + 3) / 4 * 4;
}

bool hasWatermark(CollectKind kind) {
  return kind == CollectKind::kTt || kind == CollectKind::kDn;
}

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

}  // namespace

void encodeSnapshot(Encoder& enc, const metrics::SadcSnapshot& snap) {
  enc.putDouble(snap.time);
  enc.putDoubleVector(snap.node);
  enc.putDoubleVector(snap.nic);
  enc.putU32(static_cast<std::uint32_t>(snap.processes.size()));
  for (const auto& [name, values] : snap.processes) {
    enc.putString(name);
    enc.putDoubleVector(values);
  }
}

metrics::SadcSnapshot decodeSnapshot(Decoder& dec) {
  metrics::SadcSnapshot snap;
  snap.time = dec.getDouble();
  snap.node = dec.getDoubleVector();
  snap.nic = dec.getDoubleVector();
  const std::uint32_t n = dec.getU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = dec.getString();
    std::vector<double> values = dec.getDoubleVector();
    snap.processes.emplace_back(std::move(name), std::move(values));
  }
  return snap;
}

std::size_t encodedSize(const metrics::SadcSnapshot& snap) {
  std::size_t n = kWordBytes + doubleVectorSize(snap.node) +
                  doubleVectorSize(snap.nic) + kCountBytes;
  for (const auto& [name, values] : snap.processes) {
    n += stringSize(name) + doubleVectorSize(values);
  }
  return n;
}

void encodeSamples(Encoder& enc,
                   const std::vector<hadooplog::StateSample>& samples) {
  enc.putU32(static_cast<std::uint32_t>(samples.size()));
  for (const auto& s : samples) {
    enc.putI64(s.second);
    enc.putDoubleVector(s.counts);
  }
}

std::vector<hadooplog::StateSample> decodeSamples(Decoder& dec) {
  std::vector<hadooplog::StateSample> out;
  // No reserve: the count is untrusted, and each row must still pass
  // its own bounds checks.
  const std::uint32_t n = dec.getU32();
  for (std::uint32_t i = 0; i < n; ++i) {
    hadooplog::StateSample s;
    s.second = dec.getI64();
    s.counts = dec.getDoubleVector();
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t encodedSize(const std::vector<hadooplog::StateSample>& samples) {
  std::size_t n = kCountBytes;
  for (const auto& s : samples) n += kWordBytes + doubleVectorSize(s.counts);
  return n;
}

void encodeTrace(Encoder& enc, const syscalls::TraceSecond& trace) {
  // One byte per event plus a length prefix — the same "4 + size"
  // shape StraceDaemon has always accounted for.
  std::string raw(trace.begin(), trace.end());
  enc.putString(raw);
}

syscalls::TraceSecond decodeTrace(Decoder& dec) {
  const std::string raw = dec.getString();
  return syscalls::TraceSecond(raw.begin(), raw.end());
}

void encodeRequest(Encoder& enc, const CollectRequest& req) {
  enc.putU32(static_cast<std::uint32_t>(req.node));
  enc.putDouble(req.now);
  if (hasWatermark(req.kind)) enc.putDouble(req.watermark);
}

bool decodeRequest(Decoder& dec, CollectKind kind, CollectRequest& out) {
  try {
    out.kind = kind;
    out.node = static_cast<NodeId>(dec.getU32());
    out.now = dec.getDouble();
    out.watermark = hasWatermark(kind) ? dec.getDouble() : kNoTime;
    return true;
  } catch (const RpcError&) {
    return false;
  }
}

void encodePayload(Encoder& enc, CollectOut value) {
  std::visit(
      Overloaded{
          [&](metrics::SadcSnapshot* snap) { encodeSnapshot(enc, *snap); },
          [&](std::vector<hadooplog::StateSample>* rows) {
            encodeSamples(enc, *rows);
          },
          [&](syscalls::TraceSecond* trace) { encodeTrace(enc, *trace); }},
      value);
}

bool decodeInto(Decoder& dec, CollectOut out) {
  try {
    std::visit(
        Overloaded{
            [&](metrics::SadcSnapshot* snap) { *snap = decodeSnapshot(dec); },
            [&](std::vector<hadooplog::StateSample>* rows) {
              *rows = decodeSamples(dec);
            },
            [&](syscalls::TraceSecond* trace) { *trace = decodeTrace(dec); }},
        out);
    return true;
  } catch (const RpcError&) {
    return false;
  }
}

}  // namespace asdf::rpc
