// Big-endian (network order) byte codec primitives.
//
// The one place the octet layout of the ASDF wire lives. The rpc
// Encoder/Decoder (XDR-style payload marshalling), the net frame
// header codec, and the archive trailer all build on these helpers —
// previously each layer hand-rolled its own shifts, and the
// aggregator tier would have added a fourth copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asdf::bytes {

inline void putU16(std::vector<std::uint8_t>& buf, std::uint16_t v) {
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v));
}

inline void putU32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  buf.push_back(static_cast<std::uint8_t>(v >> 24));
  buf.push_back(static_cast<std::uint8_t>(v >> 16));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v));
}

inline void putU64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  putU32(buf, static_cast<std::uint32_t>(v >> 32));
  putU32(buf, static_cast<std::uint32_t>(v & 0xFFFFFFFFULL));
}

inline void storeU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

inline void storeU32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline void storeU64(std::uint8_t* p, std::uint64_t v) {
  storeU32(p, static_cast<std::uint32_t>(v >> 32));
  storeU32(p + 4, static_cast<std::uint32_t>(v & 0xFFFFFFFFULL));
}

inline std::uint16_t readU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

inline std::uint32_t readU32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline std::uint64_t readU64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(readU32(p)) << 32) | readU32(p + 4);
}

}  // namespace asdf::bytes
