// Scale-out serving layer (ctest -L net): wire-protocol classification
// and the key-affinity hash, the ResponseQueue ordering/completion
// contract, LineSession verbs (shutdown drain, malformed-id recovery),
// the NDJSON socket server under concurrent clients and saturation, and
// the shard router's supervision (key affinity, crash errors, restarts,
// graceful drain).
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
#include "vpd/net/protocol.hpp"
#include "vpd/net/router.hpp"
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

// --- Protocol vocabulary ---------------------------------------------------

TEST(NetProtocol, Fnv1a64MatchesReferenceVectors) {
  // Canonical FNV-1a 64 test vectors; the hash must never change, or a
  // restarted router would re-route keys to different shards.
  EXPECT_EQ(net::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(net::fnv1a64("a"), 12638187200555641996ull);
  EXPECT_EQ(net::fnv1a64("foobar"), 9625390261332436968ull);
}

TEST(NetProtocol, ShardForKeyIsStableAndCoversAllShards) {
  const std::string key = io::canonical_request_key(make_request());
  const std::size_t shard = net::shard_for_key(key, 5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(net::shard_for_key(key, 5), shard);
  }
  std::vector<std::size_t> hits(4, 0);
  for (int i = 0; i < 1000; ++i) {
    ++hits[net::shard_for_key("key-" + std::to_string(i), hits.size())];
  }
  for (std::size_t shard_hits : hits) {
    // A fair-ish spread: FNV over distinct keys should not starve any
    // shard (expected 250 each).
    EXPECT_GT(shard_hits, 100u);
  }
}

TEST(NetProtocol, EndpointParseAcceptsUnixAndLoopbackTcp) {
  const net::Endpoint unix_ep = net::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");

  const net::Endpoint tcp = net::Endpoint::parse("tcp:127.0.0.1:7070");
  EXPECT_EQ(tcp.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7070);
  EXPECT_EQ(net::Endpoint::parse("tcp:127.1.2.3:0").port, 0);
}

TEST(NetProtocol, EndpointParseRejectsGarbageAndNonLoopback) {
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

TEST(NetProtocol, ClassifyLineRoutesByCanonicalKey) {
  const io::EvaluationRequest request = make_request();
  const net::RouteInfo info = net::classify_line(request_line(request, 7));
  EXPECT_EQ(info.verb, net::Verb::kEvaluate);
  ASSERT_TRUE(info.key_hash.has_value());
  // The routing key is the canonical request key — the same string the
  // service keys coalescing and its result LRU on, which is what makes
  // key affinity line up with per-shard caches.
  EXPECT_EQ(*info.key_hash,
            net::fnv1a64(io::canonical_request_key(request)));
  EXPECT_EQ(info.id.as_number(), 7.0);

  // A semantically identical line with fields in another order (and an
  // extra ignored field) still routes to the same shard.
  io::Value doc = io::to_json(request);
  doc.set("id", double(8));
  doc.set("zz_ignored", "extra");
  const net::RouteInfo twin = net::classify_line(io::dump(doc));
  ASSERT_TRUE(twin.key_hash.has_value());
  EXPECT_EQ(*twin.key_hash, *info.key_hash);
}

TEST(NetProtocol, ClassifyLineRoutesOptimizeByCanonicalKey) {
  const std::string line =
      "{\"id\":4,\"cmd\":\"optimize\",\"space\":{"
      "\"architectures\":[\"A3@12V\"],\"topologies\":[\"DSCH\"]},"
      "\"config\":{\"population\":6,\"generations\":2}}";
  const net::RouteInfo info = net::classify_line(line);
  EXPECT_EQ(info.verb, net::Verb::kOptimize);
  ASSERT_TRUE(info.key_hash.has_value());
  EXPECT_EQ(*info.key_hash,
            net::fnv1a64(io::canonical_optimize_key(
                io::optimize_request_from_json(io::parse(line)))));
  EXPECT_EQ(info.id.as_number(), 4.0);

  // Identical request, different field order and an ignored extra field:
  // the canonical key (and thus the shard) is the same.
  const net::RouteInfo twin = net::classify_line(
      "{\"zz_ignored\":true,\"config\":{\"generations\":2,"
      "\"population\":6},\"space\":{\"topologies\":[\"DSCH\"],"
      "\"architectures\":[\"A3@12V\"]},\"cmd\":\"optimize\",\"id\":5}");
  ASSERT_TRUE(twin.key_hash.has_value());
  EXPECT_EQ(*twin.key_hash, *info.key_hash);

  // An invalid optimize body degrades to kUnroutable (the shard that
  // replays the line produces the authoritative error).
  const net::RouteInfo bad = net::classify_line(
      "{\"cmd\":\"optimize\",\"space\":{\"vr_count\":{\"lo\":0,"
      "\"hi\":4}}}");
  EXPECT_EQ(bad.verb, net::Verb::kUnroutable);
  EXPECT_FALSE(bad.key_hash.has_value());
}

TEST(NetProtocol, ClassifyLineControlVerbsCarryNoKey) {
  EXPECT_EQ(net::classify_line("{\"cmd\":\"metrics\"}").verb,
            net::Verb::kMetrics);
  EXPECT_EQ(net::classify_line("{\"cmd\":\"trace\"}").verb,
            net::Verb::kTrace);
  EXPECT_EQ(net::classify_line("{\"cmd\":\"shutdown\"}").verb,
            net::Verb::kShutdown);
  EXPECT_EQ(net::classify_line("{\"cmd\":\"fleet_metrics\"}").verb,
            net::Verb::kFleetMetrics);
  EXPECT_EQ(net::classify_line("{\"cmd\":\"frobnicate\"}").verb,
            net::Verb::kUnknown);
  EXPECT_FALSE(net::classify_line("{\"cmd\":\"metrics\"}")
                   .key_hash.has_value());
}

TEST(NetProtocol, ClassifyLineRecoversIdFromMalformedLines) {
  const net::RouteInfo truncated =
      net::classify_line("{\"id\":21,\"architecture\":");
  EXPECT_EQ(truncated.verb, net::Verb::kUnroutable);
  EXPECT_EQ(truncated.id.as_number(), 21.0);

  const net::RouteInfo garbage = net::classify_line("not json at all");
  EXPECT_EQ(garbage.verb, net::Verb::kUnroutable);
  EXPECT_TRUE(garbage.id.is_null());

  // A parseable envelope with an invalid body is unroutable too — the
  // shard that replays it produces the authoritative error.
  const net::RouteInfo bad_enum =
      net::classify_line("{\"id\":3,\"architecture\":\"Z9\"}");
  EXPECT_EQ(bad_enum.verb, net::Verb::kUnroutable);
  EXPECT_EQ(bad_enum.id.as_number(), 3.0);
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

// --- Shard router ----------------------------------------------------------

namespace {

/// A protocol-compliant fake shard: echoes every line back verbatim and
/// honors {"cmd":"shutdown"} by exiting 0, so drain() semantics are
/// testable without spawning real vpdd processes.
net::RouterConfig echo_fleet(std::size_t shards) {
  net::RouterConfig config;
  config.shards = shards;
  config.shard_command = {
      "/bin/sh", "-c",
      "while read -r l; do case \"$l\" in *shutdown*) exit 0;; "
      "*) echo \"$l\";; esac; done"};
  return config;
}

std::string forward_and_wait(net::ShardRouter& router, std::size_t shard,
                             const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  router.forward(shard, line, io::Value(), [&promise](std::string reply) {
    promise.set_value(std::move(reply));
  });
  return future.get();
}

}  // namespace

TEST(ShardRouter, KeyAffinityPinsEqualKeysAndSpreadsControlVerbs) {
  obs::Registry registry;
  net::ShardRouter router(echo_fleet(3), registry);

  const net::RouteInfo info =
      net::classify_line(request_line(make_request(), 1));
  const std::size_t pinned = router.route(info);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(router.route(info), pinned);
  }
  std::set<std::size_t> covered;
  for (int i = 0; i < 9; ++i) {
    covered.insert(router.route(net::classify_line("{\"cmd\":\"metrics\"}")));
  }
  EXPECT_EQ(covered.size(), 3u);  // round-robin reaches every shard

  // Forwarded lines come back verbatim, FIFO-correlated per shard.
  EXPECT_EQ(forward_and_wait(router, pinned, "{\"probe\":1}"),
            "{\"probe\":1}");
  router.drain();
}

TEST(ShardRouter, DrainIsIdempotentAndRejectsLateForwards) {
  obs::Registry registry;
  net::ShardRouter router(echo_fleet(2), registry);
  EXPECT_EQ(forward_and_wait(router, 0, "{\"x\":1}"), "{\"x\":1}");
  router.drain();
  EXPECT_TRUE(router.draining());
  router.drain();  // second call returns the cached snapshot

  const std::string late =
      forward_and_wait(router, 1, "{\"x\":2}");
  const io::Value reply = io::parse(late);
  EXPECT_EQ(reply.find("status")->as_string(), "error");
  EXPECT_NE(reply.find("error")->as_string().find("draining"),
            std::string::npos);
}

TEST(ShardRouter, CrashedShardFailsInFlightAndRestarts) {
  net::RouterConfig config;
  config.shards = 1;
  // Each incarnation accepts exactly one line, then dies without
  // replying: every forward orphans, and the supervisor must respawn.
  config.shard_command = {"/bin/sh", "-c", "read -r l; exit 3"};
  config.backoff_initial_seconds = 0.01;
  config.backoff_max_seconds = 0.05;
  obs::Registry registry;
  net::ShardRouter router(config, registry);

  const std::string orphaned = forward_and_wait(router, 0, "{\"x\":1}");
  const io::Value reply = io::parse(orphaned);
  EXPECT_EQ(reply.find("status")->as_string(), "error");
  EXPECT_NE(reply.find("error")->as_string().find("exited before replying"),
            std::string::npos);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.restarts() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(router.restarts(), 1u);
  router.drain();  // must terminate even with a crash-looping shard
}

}  // namespace
}  // namespace vpd
