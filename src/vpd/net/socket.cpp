#include "vpd/net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace vpd {
namespace net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool is_loopback_host(const std::string& host) {
  in_addr addr{};
  if (inet_pton(AF_INET, host.c_str(), &addr) != 1) return false;
  // 127.0.0.0/8.
  return (ntohl(addr.s_addr) >> 24) == 127;
}

int make_unix_socket(const Endpoint& endpoint, sockaddr_un* addr) {
  VPD_REQUIRE(!endpoint.path.empty(), "unix endpoint needs a path");
  VPD_REQUIRE(endpoint.path.size() < sizeof(addr->sun_path),
              "unix socket path too long: ", endpoint.path);
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, endpoint.path.c_str(), endpoint.path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw IoError(errno_text("socket(AF_UNIX)"));
  return fd;
}

int make_tcp_socket(const Endpoint& endpoint, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(endpoint.port);
  VPD_REQUIRE(inet_pton(AF_INET, endpoint.host.c_str(), &addr->sin_addr) == 1,
              "invalid tcp host: ", endpoint.host);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError(errno_text("socket(AF_INET)"));
  return fd;
}

}  // namespace

// --- Endpoint ---------------------------------------------------------------

Endpoint Endpoint::parse(std::string_view address) {
  Endpoint endpoint;
  if (address.rfind("unix:", 0) == 0) {
    endpoint.kind = Kind::kUnix;
    endpoint.path = std::string(address.substr(5));
    VPD_REQUIRE(!endpoint.path.empty(),
                "unix endpoint needs a path: ", std::string(address));
    return endpoint;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const std::string_view rest = address.substr(4);
    const std::size_t colon = rest.rfind(':');
    VPD_REQUIRE(colon != std::string_view::npos && colon > 0,
                "tcp endpoint must be tcp:host:port: ", std::string(address));
    endpoint.kind = Kind::kTcp;
    endpoint.host = std::string(rest.substr(0, colon));
    const std::string port_text(rest.substr(colon + 1));
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
    VPD_REQUIRE(end != nullptr && *end == '\0' && !port_text.empty() &&
                    port <= 65535,
                "invalid tcp port: ", port_text);
    endpoint.port = static_cast<std::uint16_t>(port);
    VPD_REQUIRE(is_loopback_host(endpoint.host),
                "tcp endpoints are restricted to loopback (127.0.0.0/8); "
                "front a proxy for remote access: ",
                std::string(address));
    return endpoint;
  }
  throw InvalidArgument("endpoint must start with unix: or tcp: — got \"" +
                        std::string(address) + "\"");
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

// --- Connection -------------------------------------------------------------

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    read_fd_ = std::exchange(other.read_fd_, -1);
    write_fd_ = std::exchange(other.write_fd_, -1);
    use_plain_write_ = other.use_plain_write_;
    buffer_ = std::move(other.buffer_);
    buffer_pos_ = other.buffer_pos_;
  }
  return *this;
}

bool Connection::read_line(std::string* line) {
  line->clear();
  // The buffer before `scanned` holds no '\n': each search resumes where
  // the last one stopped, so a long line is scanned once, not once per
  // read.
  std::size_t scanned = buffer_pos_;
  for (;;) {
    // Serve from the buffered tail first.
    const std::size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      line->assign(buffer_, buffer_pos_, newline - buffer_pos_);
      buffer_pos_ = newline + 1;
      if (buffer_pos_ == buffer_.size()) {
        buffer_.clear();
        buffer_pos_ = 0;
      }
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return true;
    }
    if (read_fd_ < 0) break;
    // Drop the lines already served before the buffer grows, so a stream
    // whose reads never end exactly on a line boundary does not keep
    // every byte it has read.
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
    scanned = buffer_.size();
    char chunk[4096];
    const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      // A reset peer at a line boundary is a disconnect, not a failure.
      if (errno == ECONNRESET && buffer_pos_ >= buffer_.size()) break;
      throw IoError(errno_text("read"));
    }
    if (n == 0) break;  // EOF
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  // EOF: deliver an unterminated trailing line if one is buffered.
  if (buffer_pos_ < buffer_.size()) {
    line->assign(buffer_, buffer_pos_, buffer_.size() - buffer_pos_);
    buffer_.clear();
    buffer_pos_ = 0;
    if (!line->empty() && line->back() == '\r') line->pop_back();
    return true;
  }
  return false;
}

void Connection::write_line(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  const char* data = framed.data();
  std::size_t remaining = framed.size();
  while (remaining > 0) {
    ssize_t n;
    if (use_plain_write_) {
      n = ::write(write_fd_, data, remaining);
    } else {
      // MSG_NOSIGNAL: a vanished peer must surface as IoError in this
      // thread, not SIGPIPE for the whole process.
      n = ::send(write_fd_, data, remaining, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        use_plain_write_ = true;  // pipe fd: fall back to write()
        continue;
      }
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(errno_text("write"));
    }
    data += n;
    remaining -= static_cast<std::size_t>(n);
  }
}

void Connection::shutdown_read() {
  if (read_fd_ >= 0) ::shutdown(read_fd_, SHUT_RD);
}

void Connection::shutdown_write() {
  if (write_fd_ >= 0) {
    if (write_fd_ == read_fd_) {
      ::shutdown(write_fd_, SHUT_WR);
    } else {
      ::close(write_fd_);
      write_fd_ = -1;
    }
  }
}

void Connection::close() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
  read_fd_ = -1;
  write_fd_ = -1;
  buffer_.clear();
  buffer_pos_ = 0;
}

Connection connect_to(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    const int fd = make_unix_socket(endpoint, &addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw IoError(errno_text(("connect " + endpoint.to_string()).c_str()));
    }
    return Connection(fd);
  }
  sockaddr_in addr;
  const int fd = make_tcp_socket(endpoint, &addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw IoError(errno_text(("connect " + endpoint.to_string()).c_str()));
  }
  return Connection(fd);
}

// --- Listener ---------------------------------------------------------------

Listener::Listener(const Endpoint& endpoint, int backlog)
    : endpoint_(endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    fd_ = make_unix_socket(endpoint, &addr);
    // A stale socket file from a crashed predecessor blocks bind; remove
    // it (a live listener would still hold the name via its bound fd, and
    // double-starting a daemon on one path is an operator error anyway).
    ::unlink(endpoint.path.c_str());
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string text =
          errno_text(("bind " + endpoint.to_string()).c_str());
      ::close(fd_);
      fd_ = -1;
      throw IoError(text);
    }
    unlink_path_ = endpoint.path;
  } else {
    sockaddr_in addr;
    fd_ = make_tcp_socket(endpoint, &addr);
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string text =
          errno_text(("bind " + endpoint.to_string()).c_str());
      ::close(fd_);
      fd_ = -1;
      throw IoError(text);
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      endpoint_.port = ntohs(addr.sin_port);  // resolve port 0
    }
  }
  if (::listen(fd_, backlog) != 0) {
    const std::string text =
        errno_text(("listen " + endpoint_.to_string()).c_str());
    close();
    ::close(fd_);  // no destructor runs for a throwing constructor
    throw IoError(text);
  }
}

Listener::~Listener() {
  close();
  ::close(fd_);
}

Connection Listener::accept() {
  while (!closed_.load()) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Connection(fd);
    // Anything but EINTR: close() shut the listener down (EINVAL).
    if (errno != EINTR) break;
  }
  return Connection();
}

void Listener::close() {
  if (closed_.exchange(true)) return;
  // shutdown() wakes a blocked accept(). The descriptor itself stays open
  // until the destructor, so accept() on another thread can never reach a
  // number the kernel has already handed out again.
  ::shutdown(fd_, SHUT_RDWR);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

}  // namespace net
}  // namespace vpd
