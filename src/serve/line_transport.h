#ifndef CURE_SERVE_LINE_TRANSPORT_H_
#define CURE_SERVE_LINE_TRANSPORT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace cure {
namespace serve {

struct LineTransportOptions {
  /// Listening port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  int port = 0;
};

/// Reusable blocking line-protocol TCP listener: accept loop, one thread
/// per connection, newline framing, partial-write-safe sends, connection
/// reaping and orderly shutdown. The protocol itself is supplied as a
/// handler — TcpLineServer (cube serving) and the router's front end both
/// run on this transport, so there is exactly one implementation of the
/// socket machinery.
///
/// A request line of "QUIT" (case-insensitive first token) closes the
/// connection; every other line is answered with handler(line), which must
/// return the full response including the terminating ".\n".
class LineTransport {
 public:
  using LineHandler = std::function<std::string(const std::string& line)>;

  /// Concurrent connection cap; excess connections are turned away with
  /// "ERR ResourceExhausted connection limit reached" and closed.
  static constexpr int kMaxConnections = 64;

  /// Binds 127.0.0.1:<port> and starts the accept loop.
  static Result<std::unique_ptr<LineTransport>> Start(
      LineHandler handler, const LineTransportOptions& options);

  /// Implies Stop().
  ~LineTransport();

  LineTransport(const LineTransport&) = delete;
  LineTransport& operator=(const LineTransport&) = delete;

  /// The bound port (resolves ephemeral port 0).
  int port() const { return port_; }

  /// "127.0.0.1:<port>" — the endpoint key the network fault injector
  /// matches server-side ops against.
  const std::string& endpoint() const { return endpoint_; }

  /// Closes the listener and every connection, then joins all threads.
  /// Idempotent.
  void Stop();

 private:
  explicit LineTransport(LineHandler handler) : handler_(std::move(handler)) {}

  void AcceptLoop();
  void HandleConnection(int fd);

  LineHandler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::string endpoint_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> active_connections_{0};

  struct Connection {
    std::thread thread;
    int fd = -1;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex mu_;
  std::vector<Connection> connections_;
};

/// Writes the whole buffer to `fd`: loops over partial write(2) results and
/// retries EINTR. False on any other error. Shared by the transport and the
/// tools' one-shot clients.
bool WriteAllToFd(int fd, const char* data, size_t len);

/// Fault-injectable variant: each send(2) first consults the network fault
/// injector under `endpoint` — injected short writes shorten the chunk (the
/// loop heals them, kernel-style), injected errors fail the call. This is
/// the write shim for both the server transport (endpoint = listen address)
/// and BackendClient (endpoint = backend address).
bool WriteAllToFd(int fd, const char* data, size_t len,
                  const std::string& endpoint);

}  // namespace serve
}  // namespace cure

#endif  // CURE_SERVE_LINE_TRANSPORT_H_
