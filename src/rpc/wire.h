// XDR-style wire encoding with exact byte accounting.
//
// The paper transports monitoring data with ZeroC ICE RPC and reports
// per-channel bandwidth (Table 4). We reproduce the marshalling path:
// every payload that crosses a socket or lands in an archive goes
// through this codec, and its byte counts are what the Table 4 bench
// prints (the in-process sim hub charges the same counts through
// rpc::encodedSize, payloads.h). Encoding follows XDR conventions:
// big-endian 4/8-byte scalars, strings length-prefixed and padded to 4
// bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace asdf::rpc {

class Encoder {
 public:
  void putU32(std::uint32_t v);
  void putI64(std::int64_t v);
  void putDouble(double v);
  void putString(const std::string& s);
  void putDoubleVector(const std::vector<double>& v);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  /// Empties the buffer, keeping its capacity for the next message.
  void clear() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Decoder {
 public:
  explicit Decoder(const std::vector<std::uint8_t>& bytes) : buf_(bytes) {}

  std::uint32_t getU32();
  std::int64_t getI64();
  double getDouble();
  std::string getString();
  std::vector<double> getDoubleVector();

  /// True when every byte has been consumed (framing check).
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  void need(std::size_t n);
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace asdf::rpc
