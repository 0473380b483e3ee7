// Socket serving layer (ctest -L net): endpoint parsing, the
// ResponseQueue ordering/completion contract, line framing and its limit,
// LineSession verbs (shutdown drain, malformed-id recovery), and the
// NDJSON socket server under concurrent clients, saturation and
// oversized lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "vpd/io/json.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/net/server.hpp"
#include "vpd/net/session.hpp"
#include "vpd/net/socket.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/serve/service.hpp"

namespace vpd {
namespace {

io::EvaluationRequest make_request(double total_power_watts = 1000.0,
                                   std::size_t mesh_nodes = 31) {
  io::EvaluationRequest request;
  request.architecture = ArchitectureKind::kA1_InterposerPeriphery;
  request.topology = TopologyKind::kDsch;
  request.spec.total_power = Power{total_power_watts};
  request.options.mesh_nodes = mesh_nodes;
  return request;
}

std::string request_line(const io::EvaluationRequest& request,
                         int id) {
  io::Value doc = io::to_json(request);
  doc.set("id", double(id));
  return io::dump(doc);
}

/// A throwaway unix-socket path short enough for sockaddr_un.
std::string scratch_socket_path(const char* tag) {
  return "/tmp/vpd_net_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Thread-safe line collector used as a session/server sink.
struct Collector {
  std::mutex mutex;
  std::vector<std::string> lines;
  net::Sink sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(line);
    };
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mutex);
    return lines.size();
  }
  std::string at(std::size_t i) {
    std::lock_guard<std::mutex> lock(mutex);
    return lines.at(i);
  }
};

// --- Endpoints -------------------------------------------------------------

TEST(NetEndpoint, EndpointParseAcceptsUnixAndLoopbackTcp) {
  const net::Endpoint unix_ep = net::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");

  const net::Endpoint tcp = net::Endpoint::parse("tcp:127.0.0.1:7070");
  EXPECT_EQ(tcp.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7070);
  EXPECT_EQ(net::Endpoint::parse("tcp:127.1.2.3:0").port, 0);
}

TEST(NetEndpoint, EndpointParseRejectsGarbageAndNonLoopback) {
  EXPECT_THROW(net::Endpoint::parse(""), Error);
  EXPECT_THROW(net::Endpoint::parse("bogus:/x"), Error);
  EXPECT_THROW(net::Endpoint::parse("unix:"), Error);
  EXPECT_THROW(net::Endpoint::parse("tcp:127.0.0.1"), Error);
  EXPECT_THROW(net::Endpoint::parse("tcp:127.0.0.1:notaport"), Error);
  EXPECT_THROW(net::Endpoint::parse("tcp:127.0.0.1:70000"), Error);
  // vpdd has no authentication, so only loopback TCP is allowed.
  EXPECT_THROW(net::Endpoint::parse("tcp:8.8.8.8:80"), Error);
  EXPECT_THROW(net::Endpoint::parse("tcp:0.0.0.0:80"), Error);
}

// --- ResponseQueue ---------------------------------------------------------

TEST(ResponseQueue, EmitsInPushOrderDespiteOutOfOrderCompletion) {
  Collector out;
  std::promise<void> first_ready;
  std::shared_future<void> gate = first_ready.get_future().share();
  {
    net::ResponseQueue queue(out.sink());
    queue.push([gate] {
      gate.wait();
      return std::string("first");
    });
    queue.push([] { return std::string("second"); });
    // "second" is ready immediately, but "first" holds the FIFO turn.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(out.size(), 0u);
    first_ready.set_value();
    queue.wait_idle();
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.at(0), "first");
  EXPECT_EQ(out.at(1), "second");
}

TEST(ResponseQueue, EmitsOnCompletionWithoutFurtherInput) {
  // The regression behind the whole refactor: a response whose turn has
  // come must reach the sink without another feed() or drain() prompting
  // a flush — persistent clients wait on exactly this.
  Collector out;
  net::ResponseQueue queue(out.sink());
  queue.push([] { return std::string("ready"); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (out.size() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.at(0), "ready");
}

TEST(ResponseQueue, ResolverExceptionBecomesErrorLine) {
  Collector out;
  {
    net::ResponseQueue queue(out.sink());
    queue.push([]() -> std::string {
      throw std::runtime_error("resolver boom");
    });
    queue.wait_idle();
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out.at(0).find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(out.at(0).find("resolver boom"), std::string::npos);
}

TEST(ResponseQueue, SinkFailureMutesEmissionButStillConsumesResolvers) {
  std::atomic<int> resolved{0};
  std::atomic<int> delivered{0};
  {
    net::ResponseQueue queue([&delivered](const std::string&) {
      ++delivered;
      throw std::runtime_error("client gone");
    });
    for (int i = 0; i < 3; ++i) {
      queue.push([&resolved] {
        ++resolved;
        return std::string("line");
      });
    }
    queue.wait_idle();  // must not hang on a dead sink
  }
  EXPECT_EQ(resolved.load(), 3);
  EXPECT_EQ(delivered.load(), 1);  // muted after the first throw
}

// --- LineSession verbs -----------------------------------------------------

// --- Line framing ------------------------------------------------------------

/// Seconds read_line takes to deliver one `bytes`-long line written into a
/// pipe by another thread; best of 3.
double best_read_line_seconds(std::size_t bytes) {
  const std::string payload = std::string(bytes, 'x') + "\n";
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    int fds[2];
    if (::pipe(fds) != 0) {
      ADD_FAILURE() << "pipe() failed";
      return 0.0;
    }
    std::thread writer([&payload, fd = fds[1]] {
      std::size_t done = 0;
      while (done < payload.size()) {
        const ssize_t n =
            ::write(fd, payload.data() + done, payload.size() - done);
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
      }
      ::close(fd);
    });
    net::Connection reader(fds[0], -1);
    std::string line;
    const auto start = std::chrono::steady_clock::now();
    const bool read = reader.read_line(&line);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    writer.join();
    EXPECT_TRUE(read);
    EXPECT_EQ(line.size(), bytes);
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

TEST(NetConnection, ReadLineTimeIsLinearInTheLineLength) {
  // Each read appends at most 4 KiB. Searching the whole buffered line for
  // '\n' again after every read costs ~N^2 / 8 KiB comparisons, so 8x the
  // bytes would take ~64x the time (measured ~100x); resuming the search
  // where it stopped takes ~8x.
  const double small = best_read_line_seconds(std::size_t{2} << 20);
  const double large = best_read_line_seconds(std::size_t{16} << 20);
  ASSERT_GT(small, 0.0);
  EXPECT_LT(large / small, 24.0)
      << "2 MiB line: " << small << " s, 16 MiB line: " << large << " s";
}

TEST(NetConnection, ReadLineRefusesALineLongerThanTheLimit) {
  // One unterminated line 64 KiB past the limit, through a pipe. read_line
  // must throw LineTooLong, naming the limit, having consumed more than
  // the limit but at most one 4 KiB read past it: every byte it consumed
  // was buffered (the line has no '\n'), the rest is still in the pipe.
  constexpr std::size_t limit = net::Connection::kMaxLineBytes;
  const std::size_t total = limit + (std::size_t{64} << 10);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer([fd = fds[1], total] {
    const std::string chunk(1000, 'x');  // reads never align with writes
    std::size_t done = 0;
    while (done < total) {
      const ssize_t n =
          ::write(fd, chunk.data(), std::min(chunk.size(), total - done));
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  net::Connection reader(fds[0], -1);
  std::string line;
  try {
    reader.read_line(&line);
    ADD_FAILURE() << "read_line delivered a " << line.size() << "-byte line";
  } catch (const net::LineTooLong& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(limit)),
              std::string::npos)
        << e.what();
  }
  std::size_t left = 0;
  char rest[1 << 16];
  for (ssize_t n; (n = ::read(fds[0], rest, sizeof(rest))) > 0;)
    left += static_cast<std::size_t>(n);
  writer.join();
  const std::size_t consumed = total - left;
  EXPECT_GT(consumed, limit);
  EXPECT_LE(consumed, limit + 4096);
}

TEST(LineSession, ShutdownVerbDrainsAndEmitsFinalMetrics) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService service(config);
  Collector out;
  net::LineSession session(service, out.sink());

  EXPECT_TRUE(session.feed(request_line(make_request(), 1)));
  EXPECT_FALSE(session.feed("{\"id\":9,\"cmd\":\"shutdown\"}"));
  // Once shutdown is accepted the session refuses further lines.
  EXPECT_FALSE(session.feed(request_line(make_request(), 2)));
  session.drain();

  ASSERT_EQ(out.size(), 2u);
  const io::Value ok = io::parse(out.at(0));
  EXPECT_EQ(ok.find("id")->as_number(), 1.0);
  EXPECT_EQ(ok.find("status")->as_string(), "ok");
  const io::Value final_line = io::parse(out.at(1));
  EXPECT_EQ(final_line.find("id")->as_number(), 9.0);
  EXPECT_TRUE(final_line.find("shutdown")->as_bool());
  // The final metrics line accounts for the whole stream.
  const io::Value* metrics = final_line.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("counters")->find("serve.requests")->as_number(),
            1.0);
  EXPECT_TRUE(session.shutdown_requested());
}

TEST(LineSession, MalformedLineEchoesRecoveredId) {
  serve::ServiceConfig config;
  config.threads = 1;
  serve::EvaluationService service(config);
  Collector out;
  net::LineSession session(service, out.sink());
  EXPECT_TRUE(session.feed("{\"id\":77,\"architecture\":"));
  session.drain();
  ASSERT_EQ(out.size(), 1u);
  const io::Value reply = io::parse(out.at(0));
  EXPECT_EQ(reply.find("id")->as_number(), 77.0);
  EXPECT_EQ(reply.find("status")->as_string(), "error");
}

TEST(LineSession, UnknownCmdErrorQuotesABoundedPrefix) {
  // A 1 MiB cmd gets one short error line naming the verb and the
  // value's length, never the value whole.
  serve::ServiceConfig config;
  config.threads = 1;
  serve::EvaluationService service(config);
  Collector out;
  net::LineSession session(service, out.sink());
  const std::string cmd(std::size_t{1} << 20, 'x');
  EXPECT_TRUE(session.feed("{\"id\":5,\"cmd\":\"" + cmd + "\"}"));
  session.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LT(out.at(0).size(), 512u);
  const io::Value reply = io::parse(out.at(0));
  EXPECT_EQ(reply.find("id")->as_number(), 5.0);
  EXPECT_EQ(reply.find("status")->as_string(), "error");
  const std::string error = reply.find("error")->as_string();
  EXPECT_EQ(error.rfind("unknown cmd \"" + std::string(io::kQuotedBytes, 'x') +
                            "...\" (1048576 bytes)",
                        0),
            0u)
      << error;
}

// --- Socket server ---------------------------------------------------------

class NetServerTest : public ::testing::Test {
 protected:
  /// Starts a service and a server over a scratch unix socket in front of
  /// it, and returns the service once the server is accepting. The fixture
  /// owns the service so that it outlives the server: TearDown joins the
  /// server's connection threads, which still update the service registry
  /// as they finish, before the service is destroyed.
  serve::EvaluationService& start_server(const serve::ServiceConfig& config,
                                         net::ServerOptions options = {}) {
    service_ = std::make_unique<serve::EvaluationService>(config);
    serve::EvaluationService& service = *service_;
    path_ = scratch_socket_path(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    server_ = std::make_unique<net::NdjsonServer>(
        net::Endpoint::parse("unix:" + path_),
        [&service](net::Sink sink) {
          return std::make_unique<net::LineSession>(service,
                                                    std::move(sink));
        },
        service.registry(), options);
    serve_thread_ = std::thread([this] { server_->serve(); });
    return service;
  }

  net::Connection connect() {
    return net::connect_to(net::Endpoint::parse("unix:" + path_));
  }

  void TearDown() override {
    if (server_) server_->request_shutdown();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<serve::EvaluationService> service_;
  std::unique_ptr<net::NdjsonServer> server_;
  std::thread serve_thread_;
};

TEST_F(NetServerTest, ConcurrentClientsShareTheServiceCaches) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService& service = start_server(config);

  const io::EvaluationRequest shared = make_request();
  auto client = [&](int base_id) {
    net::Connection conn = connect();
    conn.write_line(request_line(shared, base_id));
    conn.write_line("{\"id\":" + std::to_string(base_id + 1) +
                    ",\"cmd\":\"metrics\"}");
    std::string line;
    for (int expected = base_id; expected <= base_id + 1; ++expected) {
      ASSERT_TRUE(conn.read_line(&line));
      const io::Value reply = io::parse(line);
      EXPECT_EQ(reply.find("id")->as_number(), double(expected));
      EXPECT_EQ(reply.find("status")->as_string(), "ok");
    }
    conn.close();
  };
  std::thread a(client, 10);
  std::thread b(client, 20);
  a.join();
  b.join();

  // Both clients asked for the same design point: one evaluation, the
  // twin either coalesced in flight or served from the result LRU.
  const serve::ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.evaluated, 1u);
  EXPECT_EQ(metrics.coalesced + metrics.result_cache_hits, 1u);
}

TEST_F(NetServerTest, ConnectionsBeyondMaxAreRejectedNotQueued) {
  serve::ServiceConfig config;
  config.threads = 1;
  net::ServerOptions options;
  options.max_connections = 1;
  serve::EvaluationService& service = start_server(config, options);

  net::Connection first = connect();
  // A full round trip proves the first connection is registered before
  // the second one arrives.
  first.write_line("{\"id\":1,\"cmd\":\"metrics\"}");
  std::string line;
  ASSERT_TRUE(first.read_line(&line));

  net::Connection second = connect();
  ASSERT_TRUE(second.read_line(&line));
  const io::Value reply = io::parse(line);
  EXPECT_EQ(reply.find("status")->as_string(), "error");
  EXPECT_NE(reply.find("error")->as_string().find("too many connections"),
            std::string::npos);
  EXPECT_FALSE(second.read_line(&line));  // rejected connections close

  const obs::Snapshot snapshot = service.registry().snapshot();
  ASSERT_NE(snapshot.counter("net.connections_rejected"), nullptr);
  EXPECT_EQ(*snapshot.counter("net.connections_rejected"), 1u);
  first.close();
  second.close();
}

TEST_F(NetServerTest, SaturationRejectsCleanlyAndAnswersEveryLine) {
  // The backpressure acceptance test: a tiny queue, three pipelining
  // clients, far more distinct requests than capacity. Every line must
  // get a well-formed NDJSON response (ok or rejected, never silence),
  // and when the queue actually filled, the queue-depth high water must
  // equal the configured capacity.
  serve::ServiceConfig config;
  config.threads = 2;
  config.queue_capacity = 4;
  config.result_cache_capacity = 0;  // every distinct submit evaluates
  serve::EvaluationService& service = start_server(config);

  constexpr int kClients = 3;
  constexpr int kPerClient = 40;
  std::atomic<int> ok_count{0};
  std::atomic<int> rejected_count{0};
  std::atomic<int> malformed{0};

  auto client = [&](int client_index) {
    net::Connection conn = connect();
    for (int i = 0; i < kPerClient; ++i) {
      const int id = client_index * kPerClient + i;
      // Distinct total power per request: distinct canonical keys (so
      // no coalescing hides the queue), one shared mesh geometry (so
      // each evaluation stays cheap).
      conn.write_line(request_line(make_request(1000.0 + id), id));
    }
    std::string line;
    std::set<double> ids;
    for (int i = 0; i < kPerClient; ++i) {
      if (!conn.read_line(&line)) break;
      try {
        const io::Value reply = io::parse(line);
        ids.insert(reply.find("id")->as_number());
        const std::string status = reply.find("status")->as_string();
        if (status == "ok" || status == "excluded") {
          ++ok_count;
        } else if (status == "rejected") {
          ++rejected_count;
        } else {
          ++malformed;
        }
      } catch (const Error&) {
        ++malformed;
      }
    }
    EXPECT_EQ(ids.size(), std::size_t(kPerClient));
    conn.close();
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(malformed.load(), 0);
  EXPECT_EQ(ok_count.load() + rejected_count.load(), kClients * kPerClient);
  if (rejected_count.load() > 0) {
    const obs::Snapshot snapshot = service.registry().snapshot();
    const std::pair<double, double>* depth =
        snapshot.gauge("serve.queue_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->second, double(config.queue_capacity));
  }
}

TEST_F(NetServerTest, ShutdownVerbDrainsWithZeroLoss) {
  serve::ServiceConfig config;
  config.threads = 2;
  start_server(config);

  constexpr int kRequests = 8;
  net::Connection conn = connect();
  for (int i = 0; i < kRequests; ++i) {
    conn.write_line(request_line(make_request(1000.0 + i), i));
  }
  conn.write_line("{\"id\":99,\"cmd\":\"shutdown\"}");

  std::string line;
  int replies = 0;
  std::set<double> ids;
  while (conn.read_line(&line)) {
    const io::Value reply = io::parse(line);
    ids.insert(reply.find("id")->as_number());
    ++replies;
  }
  // Every accepted line answered — the shutdown ack last — then EOF.
  EXPECT_EQ(replies, kRequests + 1);
  EXPECT_EQ(ids.count(99.0), 1u);
  conn.close();
  // The client-initiated shutdown takes the whole server down.
  serve_thread_.join();
  EXPECT_TRUE(server_->draining());
}

TEST_F(NetServerTest, OversizedLineIsAnsweredAndClosedAndOthersAreServed) {
  serve::ServiceConfig config;
  config.threads = 1;
  start_server(config);

  // An accepted request, then one unterminated line past the limit,
  // streamed until the server stops reading or the line is sent.
  net::Connection conn = connect();
  conn.write_line("{\"id\":1,\"cmd\":\"metrics\"}");
  std::thread writer([fd = conn.read_fd()] {
    const std::string chunk(4096, 'x');
    for (std::size_t sent = 0;
         sent < net::Connection::kMaxLineBytes + (std::size_t{64} << 10);) {
      const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
      if (n <= 0) return;  // the server closed the connection
      sent += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
  });
  std::vector<std::string> replies;
  std::string line;
  try {
    while (conn.read_line(&line)) replies.push_back(line);
  } catch (const net::IoError&) {
    // A reset after the last line: the server closed with input unread.
  }
  writer.join();
  conn.close();
  // The accepted request's response, the refusal naming the limit, then
  // the server closed the connection.
  ASSERT_EQ(replies.size(), 2u);
  io::Value reply = io::parse(replies[0]);
  EXPECT_EQ(reply.find("id")->as_number(), 1.0);
  EXPECT_EQ(reply.find("status")->as_string(), "ok");
  reply = io::parse(replies[1]);
  EXPECT_EQ(reply.find("status")->as_string(), "error");
  EXPECT_NE(reply.find("error")->as_string().find(
                std::to_string(net::Connection::kMaxLineBytes)),
            std::string::npos)
      << replies[1];

  net::Connection second = connect();
  second.write_line("{\"id\":2,\"cmd\":\"metrics\"}");
  ASSERT_TRUE(second.read_line(&line));
  EXPECT_EQ(io::parse(line).find("status")->as_string(), "ok");
  second.close();
}

TEST(NetServerTcp, LoopbackRoundTrip) {
  serve::ServiceConfig config;
  config.threads = 1;
  serve::EvaluationService service(config);
  std::unique_ptr<net::NdjsonServer> server;
  try {
    server = std::make_unique<net::NdjsonServer>(
        net::Endpoint::parse("tcp:127.0.0.1:0"),
        [&service](net::Sink sink) {
          return std::make_unique<net::LineSession>(service,
                                                    std::move(sink));
        },
        service.registry());
  } catch (const net::IoError& e) {
    GTEST_SKIP() << "no TCP loopback in this environment: " << e.what();
  }
  ASSERT_NE(server->endpoint().port, 0);  // kernel resolved the port
  std::thread serving([&server] { server->serve(); });
  net::Connection conn = net::connect_to(server->endpoint());
  conn.write_line("{\"id\":1,\"cmd\":\"metrics\"}");
  std::string line;
  ASSERT_TRUE(conn.read_line(&line));
  EXPECT_EQ(io::parse(line).find("status")->as_string(), "ok");
  conn.close();
  server->request_shutdown();
  serving.join();
}

}  // namespace
}  // namespace vpd
