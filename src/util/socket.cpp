#include "util/socket.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ranknet::util {

namespace {

Status errno_status(const char* op) {
  return Status::unavailable(std::string(op) + ": " + std::strerror(errno));
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_status("fcntl(O_NONBLOCK)");
  }
  return {};
}

Result<sockaddr_un> make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::invalid_argument("socket path empty or longer than " +
                                    std::to_string(sizeof(addr.sun_path) - 1) +
                                    " bytes: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// poll() one fd for `events`; OK when ready, kUnavailable on timeout.
/// A negative timeout waits forever (not used by the serving path).
Status poll_one(int fd, short events, double timeout_seconds) {
  pollfd p{fd, events, 0};
  const int timeout_ms =
      timeout_seconds < 0.0
          ? -1
          : static_cast<int>(timeout_seconds * 1e3) + 1;  // round up
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return {};
    if (rc == 0) return Status::unavailable("poll: timed out");
    if (errno != EINTR) return errno_status("poll");
  }
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<UnixStream> UnixStream::connect(const std::string& path,
                                       double timeout_seconds) {
  auto addr = make_addr(path);
  if (!addr.ok()) return addr.status();
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_status("socket");
  if (auto s = set_nonblocking(fd.get()); !s.ok()) return s;
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr.value()),
                sizeof(sockaddr_un)) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      return errno_status("connect");
    }
    if (auto s = poll_one(fd.get(), POLLOUT, timeout_seconds); !s.ok()) {
      return s;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
        err != 0) {
      return Status::unavailable(std::string("connect: ") +
                                 std::strerror(err != 0 ? err : errno));
    }
  }
  return UnixStream(std::move(fd));
}

Status UnixStream::send_all(const void* data, std::size_t n,
                            double timeout_seconds) {
  if (!valid()) return Status::failed_precondition("send on closed stream");
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc =
        ::send(fd_.get(), p + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (auto s = poll_one(fd_.get(), POLLOUT, timeout_seconds); !s.ok()) {
        return s;  // slow receiver: kUnavailable, caller drops the peer
      }
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return errno_status("send");
  }
  return {};
}

bool UnixStream::writable() const {
  if (!valid()) return false;
  // poll_one rounds its timeout up to 1 ms; this check must not wait at all.
  pollfd p{fd_.get(), POLLOUT, 0};
  return ::poll(&p, 1, 0) > 0 && (p.revents & POLLOUT) != 0;
}

Status UnixStream::recv_all(void* data, std::size_t n,
                            double timeout_seconds) {
  auto* p = static_cast<unsigned char*>(data);
  std::size_t got = 0;
  while (got < n) {
    auto some = recv_some(p + got, n - got, timeout_seconds);
    if (!some.ok()) {
      return got == 0 ? some.status()
                      : Status::corrupt_data(
                            "stream stalled mid-message after " +
                            std::to_string(got) + " of " + std::to_string(n) +
                            " bytes: " + some.status().message());
    }
    if (some.value() == 0) {
      return got == 0
                 ? Status::unavailable("peer closed connection")
                 : Status::corrupt_data("peer closed mid-message after " +
                                        std::to_string(got) + " of " +
                                        std::to_string(n) + " bytes");
    }
    got += some.value();
  }
  return {};
}

Result<std::size_t> UnixStream::recv_some(void* data, std::size_t capacity,
                                          double timeout_seconds) {
  if (!valid()) return Status::failed_precondition("recv on closed stream");
  for (;;) {
    const ssize_t rc = ::recv(fd_.get(), data, capacity, 0);
    if (rc >= 0) return static_cast<std::size_t>(rc);
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (auto s = poll_one(fd_.get(), POLLIN, timeout_seconds); !s.ok()) {
        return s;
      }
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) {
      return Status::unavailable("recv: connection reset by peer");
    }
    return errno_status("recv");
  }
}

UnixListener::~UnixListener() { close(); }

UnixListener::UnixListener(UnixListener&& other) noexcept
    : fd_(std::move(other.fd_)), path_(std::move(other.path_)) {
  other.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::move(other.fd_);
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

void UnixListener::close() {
  fd_.reset();
  if (!path_.empty()) ::unlink(path_.c_str());
  path_.clear();
}

Result<UnixListener> UnixListener::bind(const std::string& path, int backlog) {
  auto addr = make_addr(path);
  if (!addr.ok()) return addr.status();
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_status("socket");
  if (auto s = set_nonblocking(fd.get()); !s.ok()) return s;
  ::unlink(path.c_str());  // stale socket file from a previous run
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr.value()),
             sizeof(sockaddr_un)) < 0) {
    return errno_status("bind");
  }
  if (::listen(fd.get(), backlog) < 0) return errno_status("listen");
  UnixListener out;
  out.fd_ = std::move(fd);
  out.path_ = path;
  return out;
}

Result<UnixStream> UnixListener::accept(double timeout_seconds) {
  if (!valid()) return Status::failed_precondition("accept on closed listener");
  for (;;) {
    const int rc = ::accept(fd_.get(), nullptr, nullptr);
    if (rc >= 0) {
      Fd fd(rc);
      if (auto s = set_nonblocking(fd.get()); !s.ok()) return s;
      return UnixStream(std::move(fd));
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (auto s = poll_one(fd_.get(), POLLIN, timeout_seconds); !s.ok()) {
        return s;
      }
      continue;
    }
    if (errno == EINTR) continue;
    return errno_status("accept");
  }
}

}  // namespace ranknet::util
