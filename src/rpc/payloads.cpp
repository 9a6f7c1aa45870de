#include "rpc/payloads.h"

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
  const std::uint32_t n = dec.getU32();
  out.reserve(n);
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

}  // namespace asdf::rpc
