// NDJSON-over-socket listener: accepts many concurrent clients and runs
// one LineSession per connection on its own thread, so a single vpdd
// process serves many clients with per-connection read/write framing
// while the underlying EvaluationService applies its reject-not-block
// backpressure. A {"cmd":"shutdown"} from any client —
// or request_shutdown() from the embedding process — drains gracefully:
// the listener closes, every connection stops reading, every already-fed
// line still gets its response, then serve() returns. A line longer than
// Connection::kMaxLineBytes is refused: the connection's accepted lines
// get their responses, then one {"status":"error"} line naming the limit,
// then the connection closes; other connections are unaffected.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include "vpd/net/session.hpp"
#include "vpd/net/socket.hpp"
#include "vpd/obs/registry.hpp"

namespace vpd {
namespace net {

/// How serve_stream() ended.
enum class StreamEnd {
  /// EOF, a peer gone mid-read, an accepted shutdown verb, or `feed`
  /// asked to stop.
  kClosed,
  /// A line longer than Connection::kMaxLineBytes ended the stream.
  kRefused,
};

/// The NDJSON stream loop of vpdd on stdin and of every socket
/// connection: reads `connection` line by line, hands each line to `feed`
/// (session.feed() when empty) until EOF or `feed` returns false, then
/// drains the session, so every accepted line gets its response. A line
/// longer than Connection::kMaxLineBytes ends the stream: after the
/// accepted lines' responses comes one {"status":"error"} line naming the
/// limit (LineSession::refuse; the line's bytes are dropped, so it carries
/// no id).
StreamEnd serve_stream(
    Connection& connection, LineSession& session,
    const std::function<bool(std::string_view line)>& feed = {});

struct ServerOptions {
  /// Concurrent client connections beyond this are answered with one
  /// {"status":"error"} line and closed — the same reject-not-block
  /// stance as the service queue.
  std::size_t max_connections{64};
  int backlog{64};
};

class NdjsonServer {
 public:
  /// Binds immediately (so the caller can print the resolved endpoint
  /// before serving). `registry` receives the net.* instruments —
  /// typically the service registry, so one snapshot covers transport
  /// and evaluation. `factory` builds a LineSession per connection.
  NdjsonServer(const Endpoint& endpoint, SessionFactory factory,
               obs::Registry& registry, ServerOptions options = {});
  ~NdjsonServer();

  NdjsonServer(const NdjsonServer&) = delete;
  NdjsonServer& operator=(const NdjsonServer&) = delete;

  /// The bound address (for "tcp:...:0", the kernel-resolved port).
  const Endpoint& endpoint() const { return listener_.endpoint(); }

  /// Blocking accept loop; returns once shutdown has been requested and
  /// every connection has drained.
  void serve();

  /// Thread-safe graceful drain: closes the listener and half-closes
  /// every connection's read side. Already-fed lines still resolve.
  void request_shutdown();

  bool draining() const { return draining_.load(); }

 private:
  void handle_connection(Connection connection);

  Listener listener_;
  SessionFactory factory_;
  ServerOptions options_;
  std::atomic<bool> draining_{false};

  std::mutex mutex_;
  std::vector<std::thread> threads_;       // guarded by mutex_
  std::list<int> live_read_fds_;           // guarded by mutex_
  std::size_t active_connections_{0};      // guarded by mutex_

  obs::Counter& connections_total_;
  obs::Counter& connections_rejected_;
  obs::Counter& lines_in_;
  obs::Counter& lines_out_;
  obs::Gauge& connections_gauge_;
};

}  // namespace net
}  // namespace vpd
