#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace asdf::net {
namespace {

constexpr double kAcceptPauseSeconds = 0.1;

void setNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool parseIpv4(const std::string& host, in_addr& out) {
  return inet_pton(AF_INET, host.c_str(), &out) == 1;
}

}  // namespace

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void requireIpv4Host(const std::string& host) {
  in_addr addr{};
  if (!parseIpv4(host, addr)) {
    throw NetError("host '" + host + "' is not an IPv4 literal");
  }
}

Listener::Listener(EventLoop& loop, std::uint16_t port, bool reusePort,
                   ConnectionHandler onConnection)
    : loop_(loop), onConnection_(std::move(onConnection)) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw NetError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const char* failed = nullptr;
  if (reusePort &&
      setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
    failed = "setsockopt(SO_REUSEPORT)";
  } else if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
             0) {
    failed = "bind";
  } else if (listen(fd_, 64) < 0) {
    failed = "listen";
  }
  if (failed != nullptr) {
    const std::string why = std::strerror(errno);
    close(fd_);
    throw NetError(std::string(failed) + " 127.0.0.1:" +
                   std::to_string(port) + ": " + why);
  }
  socklen_t len = sizeof(addr);
  getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  try {
    watch();
  } catch (const NetError&) {
    close(fd_);
    throw;
  }
}

Listener::~Listener() {
  if (pauseTimer_ >= 0) loop_.cancelTimer(pauseTimer_);
  loop_.unwatchFd(fd_);
  close(fd_);
}

void Listener::watch() {
  loop_.watchFd(fd_, /*wantRead=*/true, /*wantWrite=*/false,
                [this](int, std::uint32_t) { acceptAll(); });
}

void Listener::acceptAll() {
  for (;;) {
    const int fd = accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      setNoDelay(fd);
      onConnection_(fd);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // The queued connection stays readable until a descriptor frees
      // up: step off the loop for a while instead of spinning on it.
      loop_.unwatchFd(fd_);
      pauseTimer_ = loop_.addTimer(kAcceptPauseSeconds, [this] {
        pauseTimer_ = -1;
        watch();
      });
    }
    return;  // EAGAIN, or one connection's failure: keep listening
  }
}

int dial(const std::string& host, std::uint16_t port, bool& inProgress) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (!parseIpv4(host, addr.sin_addr)) return -1;
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  setNoDelay(fd);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    close(fd);
    return -1;
  }
  inProgress = rc < 0;
  return fd;
}

int dialError(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
  return err;
}

}  // namespace asdf::net
