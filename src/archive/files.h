// The one file layer under the flight recorder (archive/) and the
// queryable store (tsdb/): directory listing, whole-file reads, the
// EINTR write loop, mkdir -p, the fsync-rename publish receipt, and
// the sealed-file trailer.
//
// Both formats seal a file the same way: CRC-framed records, a footer
// frame, then a fixed 16-byte raw trailer
//
//   offset  size  field
//   0       4     magic (big-endian)
//   4       4     format version (big-endian)
//   8       8     file offset of the footer frame (big-endian)
//
// and differ only in the magic and the versions a reader accepts,
// which each format names once as a TrailerFormat constant.
//
// Every failure throws ArchiveError.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace asdf::archive {

/// Raised on unreadable, corrupt, or version-skewed archives.
class ArchiveError : public std::runtime_error {
 public:
  explicit ArchiveError(const std::string& what)
      : std::runtime_error(what) {}
};

inline constexpr std::size_t kTrailerBytes = 16;

/// The per-format constants of the shared trailer codec.
struct TrailerFormat {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;         // stamped by encodeTrailer
  std::uint32_t minReadVersion = 0;  // oldest version decodeTrailer takes
};

std::vector<std::uint8_t> encodeTrailer(const TrailerFormat& format,
                                        std::uint64_t footerOffset);
/// False when the bytes are not a `format` trailer of a readable
/// version (minReadVersion..version).
bool decodeTrailer(const TrailerFormat& format, const std::uint8_t* data,
                   std::size_t size, std::uint64_t& footerOffset);

/// Checks the trailer at the end of a file of `fileBytes` (at least
/// kTrailerBytes) bytes: valid for `format`, and the footer offset it
/// names lies inside the framed bytes before it. Returns that offset.
std::uint64_t checkTrailer(const TrailerFormat& format,
                           const std::string& path,
                           const std::uint8_t* trailer,
                           std::uint64_t fileBytes);

/// One `seg-N<ext>` file of a directory; `sealed` is false for the
/// `seg-N<ext>.open` form.
struct SegmentFile {
  std::string path;
  std::uint64_t index = 0;
  bool sealed = false;
};

/// A segment file read whole. `framedBytes` is everything before the
/// trailer (the whole file when unsealed); `footerOffset` is the
/// trailer's (0 when unsealed).
struct FramedFile {
  std::vector<std::uint8_t> bytes;
  std::size_t framedBytes = 0;
  std::uint64_t footerOffset = 0;
};

/// The one open of a segment file: reads it, and when sealed checks
/// its trailer (checkTrailer).
FramedFile readSegmentFile(const TrailerFormat& format,
                           const SegmentFile& file);

/// Every `seg-N<ext>` and `seg-N<ext>.open` file in `dir`, sorted by
/// index. Other names are ignored.
std::vector<SegmentFile> listSegments(const std::string& dir,
                                      const std::string& ext);

std::string errnoString();
std::vector<std::uint8_t> readFile(const std::string& path);
/// File size in bytes, or -1 when `path` cannot be stat'ed.
std::int64_t fileBytesOf(const std::string& path);
/// mkdir -p; an existing directory is fine.
void ensureDir(const std::string& dir);
/// Writes every byte, retrying on EINTR.
void writeAll(int fd, const std::string& path, const std::uint8_t* data,
              std::size_t size);

/// The durability receipt that publishes a finished file: fsync `fd`,
/// close it, rename `from` to `to`, then fsync the directory `dir`, so
/// the published name promises durable contents. Closes `fd` on every
/// path.
void publishFile(int fd, const std::string& from, const std::string& to,
                 const std::string& dir);

}  // namespace asdf::archive
