// Dependency-free POSIX stream-socket substrate for the serving layer:
// address parsing ("unix:/path" and "tcp:127.0.0.1:port"), an RAII
// Listener, and a Connection with NDJSON line framing (buffered
// read_line, full write_line). Nothing here knows about requests — the
// session layer (session.hpp) speaks the protocol; this file only moves
// framed lines. TCP is deliberately restricted to loopback addresses:
// vpdd carries no authentication, so the only safe remote transport is a
// fronting proxy, not a bare port (docs/sharding.md).
//
// Connections also wrap plain pipe file descriptors (the router's
// shard stdin/stdout), so one line-framing implementation serves both
// transports; writes probe send(MSG_NOSIGNAL) once and fall back to
// write() for non-sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "vpd/common/error.hpp"

namespace vpd {
namespace net {

/// Transport-level failure (connect/accept/read/write). Carries errno
/// context in the message; never used for protocol-level errors, which
/// are JSON response lines.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// A line longer than Connection::kMaxLineBytes. read_line throws it
/// instead of buffering more of the line and drops what it holds; the
/// stream's framing is lost, so the caller should close the connection.
class LineTooLong : public IoError {
 public:
  using IoError::IoError;
};

/// Parsed listener/connect address.
///   unix:/run/vpd/shard0.sock   Unix-domain stream socket
///   tcp:127.0.0.1:7070          TCP on a loopback address (port 0 asks
///                               the kernel for an ephemeral port; the
///                               Listener reports the resolved one)
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind{Kind::kUnix};
  std::string path;         // kUnix
  std::string host;         // kTcp (loopback only)
  std::uint16_t port{0};    // kTcp

  /// Parses the "unix:..." / "tcp:host:port" forms above; anything else
  /// (including non-loopback TCP hosts) throws InvalidArgument.
  static Endpoint parse(std::string_view address);
  std::string to_string() const;
};

/// RAII stream with line framing over a socket or pipe fd pair. Reads and
/// writes may come from different threads (the session reads while
/// responses drain), but each direction must have a single caller.
class Connection {
 public:
  Connection() = default;
  /// Takes ownership of a connected socket fd (read and write).
  explicit Connection(int fd) : read_fd_(fd), write_fd_(fd) {}
  /// Takes ownership of a distinct fd per direction (a pipe pair).
  Connection(int read_fd, int write_fd)
      : read_fd_(read_fd), write_fd_(write_fd) {}
  ~Connection() { close(); }

  Connection(Connection&& other) noexcept { *this = std::move(other); }
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool valid() const { return read_fd_ >= 0 || write_fd_ >= 0; }
  int read_fd() const { return read_fd_; }

  /// The longest line read_line delivers, terminator excluded: 64 MiB.
  static constexpr std::size_t kMaxLineBytes = std::size_t{64} << 20;

  /// Reads the next '\n'-terminated line (terminator stripped, CR
  /// trimmed). Returns false on clean EOF; a trailing unterminated line
  /// is still delivered. Throws IoError on transport errors, and
  /// LineTooLong once a line exceeds kMaxLineBytes — before it buffers
  /// more than one further read (4 KiB) past the limit.
  bool read_line(std::string* line);
  /// Writes `line` plus '\n' fully. Throws IoError if the peer is gone.
  void write_line(std::string_view line);

  /// Half-close: no more reads will be issued / no more writes follow.
  void shutdown_read();
  void shutdown_write();
  void close();

 private:
  int read_fd_{-1};
  int write_fd_{-1};
  bool use_plain_write_{false};  // pipe fds: send() is not available
  std::string buffer_;
  std::size_t buffer_pos_{0};
};

/// Connects to a listening endpoint. Throws IoError when nobody listens.
Connection connect_to(const Endpoint& endpoint);

/// RAII listening socket. close() is thread-safe and wakes a blocked
/// accept(), which is how the server initiates graceful drain.
class Listener {
 public:
  explicit Listener(const Endpoint& endpoint, int backlog = 64);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound address; for "tcp:...:0" the kernel-resolved port.
  const Endpoint& endpoint() const { return endpoint_; }

  /// Blocks for the next client. Returns an invalid Connection after
  /// close().
  Connection accept();
  /// Wakes a blocked accept() from any thread; the destructor frees the fd.
  void close();

 private:
  int fd_{-1};
  std::atomic<bool> closed_{false};
  Endpoint endpoint_;
  std::string unlink_path_;  // bound unix socket file, removed on close
};

}  // namespace net
}  // namespace vpd
