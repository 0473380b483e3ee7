#include "vpd/net/server.hpp"

#include <sys/socket.h>

#include <utility>

namespace vpd {
namespace net {

StreamEnd serve_stream(
    Connection& connection, LineSession& session,
    const std::function<bool(std::string_view line)>& feed) {
  StreamEnd end = StreamEnd::kClosed;
  try {
    std::string line;
    while (connection.read_line(&line)) {
      if (!(feed ? feed(line) : session.feed(line))) break;
    }
  } catch (const LineTooLong& e) {
    // The oversized line is no request: one error line after the
    // accepted lines' responses.
    session.refuse(e.what());
    end = StreamEnd::kRefused;
  } catch (const IoError&) {
    // Peer went away mid-read; the drain below still consumes every
    // accepted line's result (the session mutes its sink on failure).
  }
  session.drain();  // every accepted line still gets its response
  return end;
}

NdjsonServer::NdjsonServer(const Endpoint& endpoint, SessionFactory factory,
                           obs::Registry& registry, ServerOptions options)
    : listener_(endpoint, options.backlog),
      factory_(std::move(factory)),
      options_(options),
      connections_total_(registry.counter("net.connections_total")),
      connections_rejected_(registry.counter("net.connections_rejected")),
      lines_in_(registry.counter("net.lines_in")),
      lines_out_(registry.counter("net.lines_out")),
      connections_gauge_(registry.gauge("net.connections")) {
  VPD_REQUIRE(factory_ != nullptr, "NdjsonServer needs a session factory");
  VPD_REQUIRE(options_.max_connections > 0,
              "max_connections must be positive");
}

NdjsonServer::~NdjsonServer() {
  request_shutdown();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void NdjsonServer::serve() {
  for (;;) {
    Connection connection = listener_.accept();
    if (!connection.valid()) break;  // listener closed: drain started
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_.load()) continue;  // racing accept: drop, we are done
    if (active_connections_ >= options_.max_connections) {
      connections_rejected_.add(1);
      try {
        connection.write_line(io::dump(error_body(
            "too many connections (max " +
            std::to_string(options_.max_connections) + ")")));
      } catch (const IoError&) {
        // The rejected client vanished first; nothing to tell it.
      }
      continue;
    }
    ++active_connections_;
    connections_total_.add(1);
    connections_gauge_.set(static_cast<double>(active_connections_));
    threads_.emplace_back(
        [this, conn = std::move(connection)]() mutable {
          handle_connection(std::move(conn));
        });
  }
  // Join every connection thread so serve() returning means fully
  // drained. Threads spawned while we iterate are covered by the loop.
  for (;;) {
    std::thread worker;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (threads_.empty()) break;
      worker = std::move(threads_.back());
      threads_.pop_back();
    }
    if (worker.joinable()) worker.join();
  }
}

void NdjsonServer::request_shutdown() {
  if (draining_.exchange(true)) return;  // idempotent
  listener_.close();                     // wakes the accept loop
  std::lock_guard<std::mutex> lock(mutex_);
  for (const int fd : live_read_fds_) {
    // Half-close the read side: the connection's read_line sees EOF, the
    // session drains its already-fed lines, responses still flow out.
    ::shutdown(fd, SHUT_RD);
  }
}

void NdjsonServer::handle_connection(Connection connection) {
  std::list<int>::iterator fd_slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_read_fds_.push_front(connection.read_fd());
    fd_slot = live_read_fds_.begin();
    // A drain that raced our registration missed this fd in its SHUT_RD
    // sweep; apply it ourselves so the read loop cannot block forever.
    if (draining_.load()) connection.shutdown_read();
  }

  {
    // Scope: the session (and its writer thread) must be destroyed
    // before the connection closes below — the writer holds the fd.
    std::unique_ptr<LineSession> session =
        factory_([this, &connection](const std::string& line) {
          connection.write_line(line);
          lines_out_.add(1);
        });
    serve_stream(connection, *session, [&](std::string_view line) {
      lines_in_.add(1);
      if (!session->feed(line)) {
        // The client asked for shutdown: stop reading and take the whole
        // server down with us (the verb is server-scoped by design).
        request_shutdown();
        return false;
      }
      return !draining_.load();
    });
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_read_fds_.erase(fd_slot);
    --active_connections_;
    connections_gauge_.set(static_cast<double>(active_connections_));
  }
  connection.close();
}

}  // namespace net
}  // namespace vpd
