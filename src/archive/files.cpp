#include "archive/files.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/bytes.h"

namespace asdf::archive {

std::vector<std::uint8_t> encodeTrailer(const TrailerFormat& format,
                                        std::uint64_t footerOffset) {
  std::vector<std::uint8_t> out;
  out.reserve(kTrailerBytes);
  bytes::putU32(out, format.magic);
  bytes::putU32(out, format.version);
  bytes::putU64(out, footerOffset);
  return out;
}

bool decodeTrailer(const TrailerFormat& format, const std::uint8_t* data,
                   std::size_t size, std::uint64_t& footerOffset) {
  if (size != kTrailerBytes) return false;
  if (bytes::readU32(data) != format.magic) return false;
  const std::uint32_t version = bytes::readU32(data + 4);
  if (version < format.minReadVersion || version > format.version) {
    return false;
  }
  footerOffset = bytes::readU64(data + 8);
  return true;
}

std::uint64_t checkTrailer(const TrailerFormat& format,
                           const std::string& path,
                           const std::uint8_t* trailer,
                           std::uint64_t fileBytes) {
  std::uint64_t footerOffset = 0;
  if (!decodeTrailer(format, trailer, kTrailerBytes, footerOffset)) {
    throw ArchiveError("archive: " + path + ": invalid trailer");
  }
  if (footerOffset >= fileBytes - kTrailerBytes) {
    throw ArchiveError("archive: " + path + ": trailer points past the "
                       "footer region");
  }
  return footerOffset;
}

FramedFile readSegmentFile(const TrailerFormat& format,
                           const SegmentFile& file) {
  FramedFile out;
  out.bytes = readFile(file.path);
  out.framedBytes = out.bytes.size();
  if (!file.sealed) return out;
  if (out.bytes.size() < kTrailerBytes) {
    throw ArchiveError("archive: " + file.path + ": sealed file shorter "
                       "than its trailer");
  }
  out.framedBytes -= kTrailerBytes;
  out.footerOffset = checkTrailer(format, file.path,
                                  out.bytes.data() + out.framedBytes,
                                  out.bytes.size());
  return out;
}

std::vector<SegmentFile> listSegments(const std::string& dir,
                                      const std::string& ext) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    throw ArchiveError("archive: cannot open directory " + dir + ": " +
                       errnoString());
  }
  const std::string openExt = ext + ".open";
  std::vector<SegmentFile> out;
  while (dirent* entry = ::readdir(d)) {
    unsigned long long index = 0;
    char suffix[16] = {0};
    if (std::sscanf(entry->d_name, "seg-%8llu%15s", &index, suffix) != 2 ||
        (suffix != ext && suffix != openExt)) {
      continue;
    }
    out.push_back({dir + "/" + entry->d_name, index, suffix == ext});
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.index < b.index;
            });
  return out;
}

std::string errnoString() { return std::strerror(errno); }

std::vector<std::uint8_t> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ArchiveError("archive: cannot read " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

std::int64_t fileBytesOf(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<std::int64_t>(st.st_size);
}

void ensureDir(const std::string& dir) {
  // Creates every missing component. EEXIST is fine (races with a
  // concurrent writer or a pre-created directory).
  std::string partial;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      partial.push_back(dir[i]);
      continue;
    }
    if (!partial.empty() && partial != "." && partial != "..") {
      if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
        throw ArchiveError("archive: mkdir " + partial + ": " +
                           errnoString());
      }
    }
    if (i < dir.size()) partial.push_back('/');
  }
  struct stat st{};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    throw ArchiveError("archive: " + dir + " is not a directory");
  }
}

void writeAll(int fd, const std::string& path, const std::uint8_t* data,
              std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ArchiveError("archive: write " + path + ": " + errnoString());
    }
    done += static_cast<std::size_t>(n);
  }
}

void publishFile(int fd, const std::string& from, const std::string& to,
                 const std::string& dir) {
  if (::fsync(fd) != 0) {
    const std::string err = errnoString();
    ::close(fd);
    throw ArchiveError("archive: fsync " + from + ": " + err);
  }
  ::close(fd);
  if (::rename(from.c_str(), to.c_str()) != 0) {
    throw ArchiveError("archive: rename " + from + ": " + errnoString());
  }
  // Best effort: some filesystems refuse directory fds.
  const int dirFd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirFd < 0) return;
  ::fsync(dirFd);
  ::close(dirFd);
}

}  // namespace asdf::archive
