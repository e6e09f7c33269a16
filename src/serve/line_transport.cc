#include "serve/line_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/fault_injection.h"

namespace cure {
namespace serve {

namespace {

/// Sent to a connection turned away by the connection cap.
constexpr char kRejectResponse[] =
    "ERR ResourceExhausted connection limit reached\n.\n";

/// True when the first whitespace-delimited token of `line` is "QUIT"
/// (case-insensitive) — the one command the transport interprets itself.
bool IsQuitLine(const std::string& line) {
  size_t start = 0;
  while (start < line.size() &&
         std::isspace(static_cast<unsigned char>(line[start]))) {
    ++start;
  }
  size_t end = start;
  while (end < line.size() &&
         !std::isspace(static_cast<unsigned char>(line[end]))) {
    ++end;
  }
  if (end - start != 4) return false;
  static const char kQuit[] = "QUIT";
  for (size_t i = 0; i < 4; ++i) {
    if (std::toupper(static_cast<unsigned char>(line[start + i])) != kQuit[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

// Partial write(2) results (a send on a full socket buffer may accept only
// a prefix) are looped over; EINTR (a signal landing mid-send must not drop
// the rest of the response) is retried.
bool WriteAllToFd(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool WriteAllToFd(int fd, const char* data, size_t len,
                  const std::string& endpoint) {
  size_t sent = 0;
  while (sent < len) {
    size_t chunk = len - sent;
    const int injected =
        FaultInjector::Net().Consult("write", endpoint, &chunk);
    if (injected != 0) {
      errno = injected;
      return false;
    }
    const ssize_t n = ::send(fd, data + sent, chunk, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

Result<std::unique_ptr<LineTransport>> LineTransport::Start(
    LineHandler handler, const LineTransportOptions& options) {
  if (handler == nullptr) {
    return Status::InvalidArgument("LineTransport requires a line handler");
  }
  auto self = std::unique_ptr<LineTransport>(
      new LineTransport(std::move(handler)));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string msg = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind(127.0.0.1:" + std::to_string(options.port) +
                            ") failed: " + msg);
  }
  if (::listen(fd, 64) != 0) {
    const std::string msg = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen() failed: " + msg);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const std::string msg = std::strerror(errno);
    ::close(fd);
    return Status::Internal("getsockname() failed: " + msg);
  }
  self->listen_fd_ = fd;
  self->port_ = static_cast<int>(ntohs(bound.sin_port));
  self->endpoint_ = "127.0.0.1:" + std::to_string(self->port_);
  self->accept_thread_ = std::thread([raw = self.get()] { raw->AcceptLoop(); });
  return self;
}

LineTransport::~LineTransport() { Stop(); }

void LineTransport::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Unblock accept(); the loop exits on the next failed accept.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::vector<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (Connection& conn : connections) {
    ::shutdown(conn.fd, SHUT_RDWR);  // Unblocks a recv() in progress.
  }
  for (Connection& conn : connections) {
    if (conn.thread.joinable()) conn.thread.join();
  }
}

void LineTransport::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    // Fault shim: an injected accept fault is connection-scoped — the
    // accepted socket is dropped (the client sees EOF/RST on its first
    // read) but the accept loop, and so the server, stays alive.
    if (FaultInjector::Net().Consult("accept", endpoint_) != 0) {
      ::close(fd);
      continue;
    }
    if (active_connections_.load(std::memory_order_relaxed) >=
        kMaxConnections) {
      WriteAllToFd(fd, kRejectResponse, sizeof(kRejectResponse) - 1);
      ::close(fd);
      continue;
    }
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread handler([this, fd, done] {
      HandleConnection(fd);
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      done->store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> lock(mu_);
    // Reap finished connections so a long-lived server does not accumulate
    // joinable threads; live ones are joined by Stop().
    for (size_t i = 0; i < connections_.size();) {
      if (connections_[i].done->load(std::memory_order_acquire)) {
        connections_[i].thread.join();
        connections_[i] = std::move(connections_.back());
        connections_.pop_back();
      } else {
        ++i;
      }
    }
    connections_.push_back(Connection{std::move(handler), fd, std::move(done)});
  }
}

void LineTransport::HandleConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_relaxed)) {
    // Fault shim: an injected read fault closes this connection (the
    // standard server reaction to a receive error), never the server.
    if (FaultInjector::Net().Consult("read", endpoint_) != 0) {
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (IsQuitLine(line)) {
        open = false;
        break;
      }
      const std::string response = handler_(line);
      if (!WriteAllToFd(fd, response.data(), response.size(), endpoint_)) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
  }
  ::close(fd);
}

}  // namespace serve
}  // namespace cure
