// Minimal RAII wrappers over AF_UNIX stream sockets for the forecast
// serving front end (src/serve). Local-only by design: the paper system's
// fan-in tier terminates remote transports elsewhere; this layer is the
// loader/parameter-server style local hop between that tier and the
// forecast engine.
//
// Error taxonomy (util::Status, never exceptions — the peer is untrusted):
//   kUnavailable  — timeout, connection refused/reset, peer closed early.
//   kCorruptData  — stream ended mid-message (truncated frame).
//   kInvalidArgument — unusable socket path.
// Every blocking operation takes an explicit timeout and is implemented as
// poll() + nonblocking I/O, so a stalled peer can never wedge a server
// thread (the slow-client guard the soak test leans on).
#pragma once

#include <cstddef>
#include <string>

#include "util/status.hpp"

namespace ranknet::util {

/// Move-only RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Close now (idempotent).
  void reset();

 private:
  int fd_ = -1;
};

/// One connected byte stream (client side via connect(), server side from
/// UnixListener::accept()). The fd is nonblocking; all waiting happens in
/// poll() under the caller's timeout.
class UnixStream {
 public:
  UnixStream() = default;
  explicit UnixStream(Fd fd) : fd_(std::move(fd)) {}

  /// Connect to a listening socket. kUnavailable when nobody listens or the
  /// handshake exceeds `timeout_seconds`.
  static Result<UnixStream> connect(const std::string& path,
                                    double timeout_seconds);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  void close() { fd_.reset(); }

  /// Write the whole buffer or fail. kUnavailable on timeout/reset (SIGPIPE
  /// is suppressed via MSG_NOSIGNAL).
  Status send_all(const void* data, std::size_t n, double timeout_seconds);

  /// True when the kernel would take a write right now (poll() POLLOUT,
  /// zero timeout). On Linux AF_UNIX that means at most a quarter of the
  /// send buffer is in flight, so a frame under half the buffer goes out
  /// whole with no wait — the server's admission rung relies on this to
  /// answer on the io thread without ever blocking on a slow reader.
  bool writable() const;

  /// Read exactly `n` bytes. kUnavailable on timeout before the first byte,
  /// kCorruptData when the peer closes mid-buffer (truncation).
  Status recv_all(void* data, std::size_t n, double timeout_seconds);

  /// One read of up to `capacity` bytes once data is available; 0 means the
  /// peer closed cleanly. kUnavailable on timeout.
  Result<std::size_t> recv_some(void* data, std::size_t capacity,
                                double timeout_seconds);

 private:
  Fd fd_;
};

/// Bound + listening server socket. Binding unlinks a stale socket file
/// first; the destructor unlinks it again so repeated test runs can reuse
/// one path.
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener();

  UnixListener(UnixListener&&) noexcept;
  UnixListener& operator=(UnixListener&&) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  static Result<UnixListener> bind(const std::string& path, int backlog = 64);

  /// Accept one connection; kUnavailable on timeout.
  Result<UnixStream> accept(double timeout_seconds);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  const std::string& path() const { return path_; }
  void close();

 private:
  Fd fd_;
  std::string path_;
};

}  // namespace ranknet::util
