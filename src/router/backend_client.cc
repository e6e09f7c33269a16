#include "router/backend_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/fault_injection.h"

namespace cure {
namespace router {

namespace {

/// Pooled connections kept per backend address; enough for a concurrent
/// request per replica at typical fan-outs without hoarding fds.
constexpr size_t kMaxPooledPerBackend = 4;

/// Bytes read per recv(); a typical scattered reply fits in one.
constexpr size_t kRecvChunk = 32768;

/// Maps a protocol code name ("IOError", "DataLoss", ...) back onto its
/// StatusCode; unknown names collapse to kInternal so a newer backend's
/// error still fails closed rather than silently succeeding.
StatusCode ParseStatusCodeName(const std::string& name) {
  static const StatusCode kCodes[] = {
      StatusCode::kInvalidArgument,  StatusCode::kNotFound,
      StatusCode::kAlreadyExists,    StatusCode::kOutOfRange,
      StatusCode::kIoError,          StatusCode::kDataLoss,
      StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
      StatusCode::kFailedPrecondition, StatusCode::kInternal,
      StatusCode::kUnimplemented,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

}  // namespace

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int PollTimeoutMs(int64_t wake_us) {
  if (wake_us <= 0) return -1;
  const int64_t wait_us = wake_us - SteadyNowMicros();
  if (wait_us <= 0) return 0;
  const int64_t wait_ms = (wait_us + 999) / 1000;
  return static_cast<int>(std::min<int64_t>(wait_ms, INT32_MAX));
}

void BackendClient::Exchange::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

short BackendClient::Exchange::events() const {
  return phase_ == Phase::kReceiving ? POLLIN : POLLOUT;
}

BackendClient::~BackendClient() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  for (auto& [key, conns] : pool_) {
    for (const PooledConn& conn : conns) ::close(conn.fd);
  }
  pool_.clear();
}

int BackendClient::AcquirePooled(const std::string& key) const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  auto it = pool_.find(key);
  if (it == pool_.end()) return -1;
  std::vector<PooledConn>& conns = it->second;
  const int64_t now_us = SteadyNowMicros();
  // Most recently used first: its server-side peer is the least likely to
  // have been idle-reaped.
  while (!conns.empty()) {
    const PooledConn conn = conns.back();
    conns.pop_back();
    if (idle_timeout_seconds_ > 0 &&
        static_cast<double>(now_us - conn.last_used_us) * 1e-6 >
            idle_timeout_seconds_) {
      ::close(conn.fd);
      discards_idle_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return conn.fd;
  }
  return -1;
}

void BackendClient::ReleasePooled(const std::string& key, int fd) const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  std::vector<PooledConn>& conns = pool_[key];
  if (conns.size() >= kMaxPooledPerBackend) {
    ::close(conns.front().fd);  // oldest = most likely already reaped
    conns.erase(conns.begin());
  }
  conns.push_back(PooledConn{fd, SteadyNowMicros()});
}

BackendClient::PoolStats BackendClient::pool_stats() const {
  PoolStats stats;
  stats.connects = connects_.load(std::memory_order_relaxed);
  stats.reuses = reuses_.load(std::memory_order_relaxed);
  stats.discards_idle = discards_idle_.load(std::memory_order_relaxed);
  stats.retries_stale = retries_stale_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(pool_mu_);
  for (const auto& [key, conns] : pool_) stats.open += conns.size();
  return stats;
}

void BackendClient::Begin(const BackendAddress& addr, const std::string& line,
                          double deadline_seconds, Exchange* exchange) const {
  exchange->addr_ = addr;
  exchange->endpoint_ = addr.ToString();
  exchange->request_ = line + "\n";
  // A caller deadline tighter than the configured timeout wins for every
  // wait, and also caps the exchange as a whole.
  exchange->timeout_seconds_ = timeout_seconds_;
  if (deadline_seconds > 0) {
    if (timeout_seconds_ <= 0 || deadline_seconds < timeout_seconds_) {
      exchange->timeout_seconds_ = deadline_seconds;
    }
    exchange->deadline_us_ =
        SteadyNowMicros() + static_cast<int64_t>(deadline_seconds * 1e6);
  }
  exchange->fd_ = AcquirePooled(exchange->endpoint_);
  if (exchange->fd_ < 0) {
    StartConnect(exchange);
    return;
  }
  reuses_.fetch_add(1, std::memory_order_relaxed);
  exchange->reused_ = true;
  exchange->phase_ = Exchange::Phase::kSending;
  Arm(exchange);
  TrySend(exchange);
}

void BackendClient::Arm(Exchange* exchange) const {
  int64_t expires = 0;
  if (exchange->timeout_seconds_ > 0) {
    expires = SteadyNowMicros() +
              static_cast<int64_t>(exchange->timeout_seconds_ * 1e6);
  }
  if (exchange->deadline_us_ > 0 &&
      (expires == 0 || exchange->deadline_us_ < expires)) {
    expires = exchange->deadline_us_;
  }
  exchange->expires_us_ = expires;
}

void BackendClient::Fail(Exchange* exchange, Status status,
                         bool stale_retry) const {
  exchange->Close();
  if (stale_retry && exchange->reused_ && exchange->response_.empty()) {
    // A pooled connection that died before producing a single byte was
    // almost certainly reaped while idle: retry once on a fresh one.
    retries_stale_.fetch_add(1, std::memory_order_relaxed);
    exchange->reused_ = false;
    StartConnect(exchange);
    return;
  }
  exchange->phase_ = Exchange::Phase::kDone;
  exchange->expires_us_ = 0;
  exchange->status_ = std::move(status);
}

void BackendClient::StartConnect(Exchange* exchange) const {
  const std::string& endpoint = exchange->endpoint_;
  exchange->phase_ = Exchange::Phase::kConnecting;
  exchange->sent_ = 0;
  // Fault shim: an injected connect fault fires before the syscall, so a
  // "refused" plan behaves like nothing is listening on the port.
  const int injected = FaultInjector::Net().Consult("connect", endpoint);
  if (injected != 0) {
    Fail(exchange,
         injected == ETIMEDOUT
             ? Status::DeadlineExceeded("connect " + endpoint + " timed out")
             : Status::IoError("connect " + endpoint + ": " +
                               std::strerror(injected)),
         false);
    return;
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(exchange->addr_.port));
  if (::inet_pton(AF_INET, exchange->addr_.host.c_str(), &sa.sin_addr) != 1) {
    Fail(exchange,
         Status::InvalidArgument("backend host '" + exchange->addr_.host +
                                 "' is not an IPv4 address"),
         false);
    return;
  }
  exchange->fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (exchange->fd_ < 0) {
    Fail(exchange,
         Status::IoError(std::string("socket: ") + std::strerror(errno)),
         false);
    return;
  }
  Arm(exchange);
  if (::connect(exchange->fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) ==
      0) {
    connects_.fetch_add(1, std::memory_order_relaxed);
    exchange->phase_ = Exchange::Phase::kSending;
    TrySend(exchange);
  } else if (errno != EINPROGRESS) {
    Fail(exchange,
         Status::IoError("connect " + endpoint + ": " + std::strerror(errno)),
         false);
  }
}

void BackendClient::TrySend(Exchange* exchange) const {
  const std::string& request = exchange->request_;
  while (exchange->sent_ < request.size()) {
    size_t chunk = request.size() - exchange->sent_;
    const int injected = FaultInjector::Net().Consult(
        "write", exchange->endpoint_, &chunk);
    ssize_t n = -1;
    if (injected != 0) {
      errno = injected;
    } else {
      n = ::send(exchange->fd_, request.data() + exchange->sent_, chunk,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      Fail(exchange,
           Status::IoError("send to " + exchange->endpoint_ +
                           " failed: " + std::strerror(n < 0 ? errno : EPIPE)),
           true);
      return;
    }
    exchange->sent_ += static_cast<size_t>(n);
    Arm(exchange);
  }
  exchange->phase_ = Exchange::Phase::kReceiving;
}

void BackendClient::TryRecv(Exchange* exchange) const {
  std::string& response = exchange->response_;
  char buffer[kRecvChunk];
  ssize_t n = -1;
  const int injected =
      FaultInjector::Net().Consult("read", exchange->endpoint_);
  if (injected != 0) {
    errno = injected;
  } else {
    n = ::recv(exchange->fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
  }
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == ETIMEDOUT) {
      // A stalled peer (an injected stall stands in for the full wait):
      // the bytes-read count tells a backend that never answered from one
      // that stalled partway.
      Fail(exchange,
           Status::DeadlineExceeded(
               "recv from " + exchange->endpoint_ +
               " timed out mid-response (" + std::to_string(response.size()) +
               " bytes read)"),
           false);
      return;
    }
    Fail(exchange,
         Status::IoError("recv from " + exchange->endpoint_ + ": " +
                         std::strerror(errno)),
         true);
    return;
  }
  if (n == 0) {
    Fail(exchange,
         Status::IoError("backend " + exchange->endpoint_ +
                         " closed the connection mid-response"),
         true);
    return;
  }
  response.append(buffer, static_cast<size_t>(n));
  Arm(exchange);
  if (response == ".\n" ||
      (response.size() >= 3 &&
       response.compare(response.size() - 3, 3, "\n.\n") == 0)) {
    response.erase(response.size() - 2);  // the ".\n" terminator line
    ReleasePooled(exchange->endpoint_, exchange->fd_);
    exchange->fd_ = -1;
    exchange->phase_ = Exchange::Phase::kDone;
    exchange->expires_us_ = 0;
    exchange->status_ = Status::OK();
  }
}

void BackendClient::Advance(Exchange* exchange, short revents) const {
  if (exchange->done()) return;
  if (revents == 0) {
    if (exchange->expires_us_ == 0 ||
        SteadyNowMicros() < exchange->expires_us_) {
      return;
    }
    // Out of time: classified by what the exchange was waiting for.
    const std::string& endpoint = exchange->endpoint_;
    switch (exchange->phase_) {
      case Exchange::Phase::kConnecting:
        Fail(exchange,
             Status::DeadlineExceeded(
                 "connect " + endpoint + " timed out after " +
                 std::to_string(static_cast<int64_t>(
                     exchange->timeout_seconds_ * 1000.0)) +
                 "ms"),
             false);
        break;
      case Exchange::Phase::kSending:
        Fail(exchange, Status::DeadlineExceeded("send to " + endpoint +
                                                " timed out"),
             false);
        break;
      default:
        Fail(exchange,
             Status::DeadlineExceeded(
                 "recv from " + endpoint + " timed out mid-response (" +
                 std::to_string(exchange->response_.size()) + " bytes read)"),
             false);
        break;
    }
    return;
  }
  switch (exchange->phase_) {
    case Exchange::Phase::kConnecting: {
      int so_error = 0;
      socklen_t so_len = sizeof(so_error);
      if (::getsockopt(exchange->fd_, SOL_SOCKET, SO_ERROR, &so_error,
                       &so_len) != 0) {
        so_error = errno;
      }
      if (so_error != 0) {
        Fail(exchange,
             Status::IoError("connect " + exchange->endpoint_ + ": " +
                             std::strerror(so_error)),
             false);
        return;
      }
      connects_.fetch_add(1, std::memory_order_relaxed);
      exchange->phase_ = Exchange::Phase::kSending;
      Arm(exchange);
      TrySend(exchange);
      return;
    }
    case Exchange::Phase::kSending:
      TrySend(exchange);
      return;
    default:
      TryRecv(exchange);
      return;
  }
}

Result<std::string> BackendClient::RoundTrip(const BackendAddress& addr,
                                             const std::string& line,
                                             double deadline_seconds) const {
  Exchange exchange;
  Begin(addr, line, deadline_seconds, &exchange);
  while (!exchange.done()) {
    pollfd pfd{exchange.fd(), exchange.events(), 0};
    const int rc = ::poll(&pfd, 1, PollTimeoutMs(exchange.expires_us()));
    if (rc < 0 && errno == EINTR) continue;
    Advance(&exchange, rc > 0 ? pfd.revents : rc < 0 ? POLLERR : 0);
  }
  if (!exchange.status().ok()) return exchange.status();
  return std::move(exchange.response());
}

size_t ParseBackendHeader(std::string_view response, BackendReply* reply) {
  if (response.empty()) {
    reply->status = Status::IoError("empty backend response");
    return 0;
  }
  const size_t newline = response.find('\n');
  const size_t body =
      newline == std::string_view::npos ? response.size() : newline + 1;
  std::string header(response.substr(0, newline));
  if (!header.empty() && header.back() == '\r') header.pop_back();
  std::istringstream fields(header);
  std::string verdict;
  fields >> verdict;
  if (verdict == "ERR") {
    std::string code_name;
    fields >> code_name;
    std::string message;
    std::getline(fields, message);
    if (!message.empty() && message.front() == ' ') message.erase(0, 1);
    reply->status = Status(ParseStatusCodeName(code_name), message);
    return body;
  }
  if (verdict != "OK") {
    reply->status =
        Status::IoError("malformed backend response header '" + header + "'");
    return body;
  }
  std::string checksum_hex, cache_token, trace_token;
  if (!(fields >> reply->count >> checksum_hex >> cache_token >> trace_token)) {
    reply->status =
        Status::IoError("malformed backend OK header '" + header + "'");
    return body;
  }
  reply->checksum = std::strtoull(checksum_hex.c_str(), nullptr, 16);
  reply->cache_hit = cache_token == "HIT";
  if (trace_token.rfind("trace=", 0) == 0) {
    reply->trace_id = std::strtoull(trace_token.c_str() + 6, nullptr, 10);
  }
  reply->status = Status::OK();
  return body;
}

BackendReply ParseBackendReply(const std::string& response) {
  BackendReply reply;
  size_t pos = ParseBackendHeader(response, &reply);
  if (!reply.status.ok()) return reply;
  while (pos < response.size()) {
    size_t end = response.find('\n', pos);
    if (end == std::string::npos) end = response.size();
    std::string row = response.substr(pos, end - pos);
    pos = end + 1;
    if (!row.empty() && row.back() == '\r') row.pop_back();
    if (row.rfind("% ", 0) == 0) {
      reply.profile_lines.push_back(std::move(row));
    } else {
      reply.rows.push_back(std::move(row));
    }
  }
  return reply;
}

Result<BackendReply> BackendClient::Query(const BackendAddress& addr,
                                          const std::string& line,
                                          double deadline_seconds) const {
  auto response = RoundTrip(addr, line, deadline_seconds);
  if (!response.ok()) return response.status();
  return ParseBackendReply(response.value());
}

Result<BackendFreshness> BackendClient::ProbeStats(
    const BackendAddress& addr) const {
  auto response = RoundTrip(addr, "STATS");
  if (!response.ok()) return response.status();
  BackendFreshness fresh;
  std::istringstream in(response.value());
  std::string line;
  if (!std::getline(in, line) || line.rfind("OK", 0) != 0) {
    return Status::IoError("malformed STATS response from " + addr.ToString());
  }
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    double value = 0;
    if (!(fields >> name >> value)) continue;
    if (name == "cube_version") {
      fresh.cube_version = static_cast<uint64_t>(value);
    } else if (name == "staleness_seconds") {
      fresh.staleness_seconds = value;
    }
  }
  return fresh;
}

}  // namespace router
}  // namespace cure
