#include "rpc/wire.h"

#include <cstring>
#include <stdexcept>

#include "common/bytes.h"
#include "common/error.h"

namespace asdf::rpc {

void Encoder::putU32(std::uint32_t v) { bytes::putU32(buf_, v); }

void Encoder::putI64(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  putU32(static_cast<std::uint32_t>(u >> 32));
  putU32(static_cast<std::uint32_t>(u & 0xFFFFFFFFULL));
}

void Encoder::putDouble(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  putI64(static_cast<std::int64_t>(bits));
}

void Encoder::putString(const std::string& s) {
  putU32(static_cast<std::uint32_t>(s.size()));
  for (char c : s) buf_.push_back(static_cast<std::uint8_t>(c));
  while (buf_.size() % 4 != 0) buf_.push_back(0);  // XDR padding
}

void Encoder::putDoubleVector(const std::vector<double>& v) {
  // Size the buffer once and store the big-endian words in place: the
  // same bytes as putU32 + putDouble per element.
  const std::size_t at = buf_.size();
  buf_.resize(at + 4 + 8 * v.size());
  std::uint8_t* p = buf_.data() + at;
  bytes::storeU32(p, static_cast<std::uint32_t>(v.size()));
  p += 4;
  for (double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    bytes::storeU64(p, bits);
    p += 8;
  }
}

void Decoder::need(std::size_t n) {
  if (pos_ + n > buf_.size()) {
    throw RpcError("wire decode: truncated message");
  }
}

std::uint32_t Decoder::getU32() {
  need(4);
  const std::uint32_t v = bytes::readU32(buf_.data() + pos_);
  pos_ += 4;
  return v;
}

std::int64_t Decoder::getI64() {
  const std::uint64_t hi = getU32();
  const std::uint64_t lo = getU32();
  return static_cast<std::int64_t>((hi << 32) | lo);
}

double Decoder::getDouble() {
  const auto bits = static_cast<std::uint64_t>(getI64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Decoder::getString() {
  const std::uint32_t len = getU32();
  need(len);
  std::string s(reinterpret_cast<const char*>(buf_.data()) +
                    static_cast<long>(pos_),
                len);
  pos_ += len;
  while (pos_ % 4 != 0) {
    need(1);
    ++pos_;
  }
  return s;
}

std::vector<double> Decoder::getDoubleVector() {
  const std::uint32_t n = getU32();
  // One bounds check for the whole vector, before anything is sized
  // from the untrusted count.
  need(8 * static_cast<std::size_t>(n));
  std::vector<double> v(n);
  const std::uint8_t* p = buf_.data() + pos_;
  for (double& d : v) {
    const std::uint64_t bits = bytes::readU64(p);
    std::memcpy(&d, &bits, sizeof(d));
    p += 8;
  }
  pos_ += 8 * static_cast<std::size_t>(n);
  return v;
}

}  // namespace asdf::rpc
