// Thin RAII wrappers over POSIX loopback TCP sockets for the GDB stub
// (debug/gdb_server.h).
//
// Design points:
//   - Socket failures raise SimError naming the failed call and errno.
//   - All sends use MSG_NOSIGNAL: a debugger that vanished mid-write must
//     surface as a catchable SimError, never as a process-killing SIGPIPE.
//   - The listener binds 127.0.0.1 only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace indexmac::debug {

/// Move-only owner of one connected TCP file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Sends all `n` bytes; throws SimError on any failure.
  void send_all(const void* data, std::size_t n);

  /// Receives up to `n` bytes. Returns 0 on orderly EOF; throws SimError
  /// on a transport error.
  [[nodiscard]] std::size_t recv_some(void* data, std::size_t n);

  void close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to 127.0.0.1. Port 0 asks the kernel for
/// an ephemeral port; port() reports the bound one either way.
class Listener {
 public:
  explicit Listener(std::uint16_t port);

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return socket_.fd(); }

  /// Accepts one pending connection (call after poll reports readability).
  [[nodiscard]] Socket accept();

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

/// Waits up to `timeout_ms` for `fd` to become readable. Returns true when
/// readable, false on timeout; throws SimError on poll failure.
[[nodiscard]] bool wait_readable(int fd, int timeout_ms);

}  // namespace indexmac::debug
