#include "debug/net.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/error.h"

namespace indexmac::debug {
namespace {

[[noreturn]] void raise_net(const std::string& what) {
  throw SimError(what + ": " + std::strerror(errno));
}

/// RSP packets are tiny and answered one at a time; Nagle coalescing only
/// adds round-trip delay to every packet/ack exchange.
void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::send_all(const void* data, std::size_t n) {
  IMAC_CHECK(valid(), "net: send on a closed socket");
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      raise_net("net: send failed");
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
}

std::size_t Socket::recv_some(void* data, std::size_t n) {
  IMAC_CHECK(valid(), "net: recv on a closed socket");
  for (;;) {
    const ssize_t got = ::recv(fd_, data, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      raise_net("net: recv failed");
    }
    return static_cast<std::size_t>(got);
  }
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise_net("net: cannot create listening socket");
  socket_ = Socket(fd);
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    raise_net("net: cannot bind 127.0.0.1:" + std::to_string(port));
  if (::listen(fd, 64) != 0) raise_net("net: listen failed");

  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    raise_net("net: getsockname failed");
  port_ = ntohs(addr.sin_port);
}

Socket Listener::accept() {
  for (;;) {
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      raise_net("net: accept failed");
    }
    set_nodelay(fd);
    return Socket(fd);
  }
}

bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise_net("net: poll failed");
    }
    return n > 0;
  }
}

}  // namespace indexmac::debug
