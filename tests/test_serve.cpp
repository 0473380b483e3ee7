// Evaluation service: the acceptance bit-identity property (concurrent
// service responses match serial evaluate_with_exclusion exactly),
// coalescing, result-LRU behaviour, bounded-queue backpressure, error
// paths, service metrics (counting exactly the service's own work), and
// the ThreadPool exception-rethrow contract the service relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "vpd/core/explorer.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/net/session.hpp"
#include "vpd/serve/service.hpp"
#include "vpd/sweep/sweep.hpp"
#include "vpd/sweep/thread_pool.hpp"

namespace vpd {
namespace {

// A 31-node mesh keeps each evaluation cheap while A1/DSCH stays
// feasible (21 nodes is coarse enough to trip the exclusion rule); a
// 161-node mesh makes one request deliberately slow (hundreds of
// milliseconds) so in-flight states are observable without sleeps.
io::EvaluationRequest make_request(
    ArchitectureKind arch, std::optional<TopologyKind> topo,
    std::size_t mesh_nodes = 31) {
  io::EvaluationRequest request;
  request.architecture = arch;
  request.topology = topo;
  request.options.mesh_nodes = mesh_nodes;
  return request;
}

io::EvaluationRequest slow_request() {
  return make_request(ArchitectureKind::kA2_InterposerBelowDie,
                      TopologyKind::kDsch, 161);
}

std::string serial_dump(const io::EvaluationRequest& request) {
  const ExplorationEntry entry =
      evaluate_with_exclusion(request.spec, request.architecture,
                              request.topology, request.tech, request.options);
  return io::dump(io::to_json(entry));
}

// --- Acceptance: concurrent responses are bit-identical to serial ----------

TEST(EvaluationService, ConcurrentResponsesBitIdenticalToSerial) {
  std::vector<io::EvaluationRequest> distinct;
  distinct.push_back(
      make_request(ArchitectureKind::kA1_InterposerPeriphery,
                   TopologyKind::kDsch));
  distinct.push_back(
      make_request(ArchitectureKind::kA2_InterposerBelowDie,
                   TopologyKind::kDpmih));
  distinct.push_back(
      make_request(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch));
  distinct.push_back(
      make_request(ArchitectureKind::kA3_TwoStage6V, TopologyKind::kDpmih));
  distinct.push_back(
      make_request(ArchitectureKind::kA0_PcbConversion, std::nullopt));
  // Excluded by the paper's rule (Dickson ladder over-rates here).
  distinct.push_back(
      make_request(ArchitectureKind::kA1_InterposerPeriphery,
                   TopologyKind::kDickson));
  // A fault scenario rides the same path.
  {
    io::EvaluationRequest faulted =
        make_request(ArchitectureKind::kA2_InterposerBelowDie,
                     TopologyKind::kDsch);
    faulted.options.faults.dropped_sites = {1};
    distinct.push_back(faulted);
  }

  // Duplicate-heavy stream: every distinct point appears several times,
  // interleaved.
  std::vector<io::EvaluationRequest> stream;
  for (std::size_t i = 0; i < 4 * distinct.size(); ++i) {
    stream.push_back(distinct[(i * 3) % distinct.size()]);
  }

  std::vector<std::string> expected;
  expected.reserve(stream.size());
  for (const auto& request : stream) expected.push_back(serial_dump(request));

  serve::ServiceConfig config;
  config.threads = 4;
  serve::EvaluationService service(config);
  std::vector<std::shared_future<serve::ServiceResponse>> futures;
  for (const auto& request : stream) futures.push_back(service.submit(request));

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::ServiceResponse response = futures[i].get();
    ASSERT_NE(response.entry, nullptr) << "request " << i;
    EXPECT_TRUE(response.status == serve::ResponseStatus::kOk ||
                response.status == serve::ResponseStatus::kExcluded);
    EXPECT_EQ(io::dump(io::to_json(*response.entry)), expected[i])
        << "request " << i;
  }

  const serve::ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.requests, stream.size());
  EXPECT_EQ(metrics.completed, stream.size());
  EXPECT_EQ(metrics.evaluated, distinct.size());
  EXPECT_EQ(metrics.coalesced + metrics.result_cache_hits,
            stream.size() - distinct.size());
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(metrics.errors, 0u);
}

TEST(EvaluationService, ExcludedCombinationReportsStatusAndReason) {
  serve::EvaluationService service;
  const serve::ServiceResponse response = service.evaluate(
      make_request(ArchitectureKind::kA1_InterposerPeriphery,
                   TopologyKind::kDickson));
  EXPECT_EQ(response.status, serve::ResponseStatus::kExcluded);
  ASSERT_NE(response.entry, nullptr);
  EXPECT_TRUE(response.entry->excluded());
  EXPECT_FALSE(response.entry->exclusion_reason.empty());
}

// --- Result cache ----------------------------------------------------------

TEST(EvaluationService, RepeatedRequestIsServedFromResultCache) {
  serve::EvaluationService service;
  const io::EvaluationRequest request =
      make_request(ArchitectureKind::kA1_InterposerPeriphery,
                   TopologyKind::kDsch);
  const serve::ServiceResponse first = service.evaluate(request);
  const serve::ServiceResponse second = service.evaluate(request);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  // The cached response shares the one result object evaluation produced.
  EXPECT_EQ(first.entry.get(), second.entry.get());

  const serve::ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.evaluated, 1u);
  EXPECT_EQ(metrics.result_cache_hits, 1u);
  EXPECT_EQ(metrics.result_cache_size, 1u);
}

TEST(EvaluationService, LruEvictsLeastRecentlyUsedResult) {
  serve::ServiceConfig config;
  config.result_cache_capacity = 2;
  serve::EvaluationService service(config);

  const io::EvaluationRequest a = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch);
  const io::EvaluationRequest b = make_request(
      ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDsch);
  const io::EvaluationRequest c = make_request(
      ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch);

  service.evaluate(a);
  service.evaluate(b);
  service.evaluate(a);  // refresh a: b is now least recent
  service.evaluate(c);  // evicts b
  EXPECT_TRUE(service.evaluate(a).from_cache);
  EXPECT_TRUE(service.evaluate(c).from_cache);
  EXPECT_FALSE(service.evaluate(b).from_cache);  // evicted: re-evaluated
  EXPECT_LE(service.metrics().result_cache_size, 2u);
}

TEST(EvaluationService, ZeroCapacityDisablesResultCache) {
  serve::ServiceConfig config;
  config.result_cache_capacity = 0;
  serve::EvaluationService service(config);
  const io::EvaluationRequest request = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch);
  service.evaluate(request);
  EXPECT_FALSE(service.evaluate(request).from_cache);
  EXPECT_EQ(service.metrics().evaluated, 2u);
  EXPECT_EQ(service.metrics().result_cache_size, 0u);
}

// --- Coalescing ------------------------------------------------------------

TEST(EvaluationService, DuplicateInFlightSubmitsCoalesce) {
  serve::ServiceConfig config;
  config.threads = 1;
  serve::EvaluationService service(config);

  // The slow request occupies the single worker, so the duplicates are
  // guaranteed to find it in flight.
  const io::EvaluationRequest request = slow_request();
  auto first = service.submit(request);
  auto second = service.submit(request);
  auto third = service.submit(request);

  const serve::ServiceResponse r1 = first.get();
  const serve::ServiceResponse r2 = second.get();
  const serve::ServiceResponse r3 = third.get();
  ASSERT_NE(r1.entry, nullptr);
  EXPECT_EQ(r1.entry.get(), r2.entry.get());
  EXPECT_EQ(r1.entry.get(), r3.entry.get());

  const serve::ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.evaluated, 1u);
  EXPECT_EQ(metrics.coalesced, 2u);
  EXPECT_EQ(metrics.completed, 3u);
  EXPECT_EQ(metrics.latency_samples, 3u);
}

// --- Backpressure ----------------------------------------------------------

TEST(EvaluationService, FullQueueRejectsImmediatelyWithoutBlocking) {
  serve::ServiceConfig config;
  config.threads = 1;
  config.queue_capacity = 1;
  serve::EvaluationService service(config);

  auto slow = service.submit(slow_request());
  // The queue (capacity 1) is now full with the in-flight slow request; a
  // distinct submit must resolve immediately with kRejected.
  const io::EvaluationRequest light = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch);
  auto rejected = service.submit(light);
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const serve::ServiceResponse response = rejected.get();
  EXPECT_EQ(response.status, serve::ResponseStatus::kRejected);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(response.entry, nullptr);

  // A duplicate of the in-flight request still coalesces (no queue slot
  // needed), and the slot frees once the evaluation completes.
  auto coalesced = service.submit(slow_request());
  EXPECT_EQ(coalesced.get().status, slow.get().status);
  service.wait_idle();
  EXPECT_EQ(service.evaluate(light).status, serve::ResponseStatus::kOk);

  const serve::ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.coalesced, 1u);
  EXPECT_EQ(metrics.queue_high_water, 1u);
}

// --- Error path ------------------------------------------------------------

TEST(EvaluationService, EvaluationFailureYieldsStructuredErrorAndServiceSurvives) {
  serve::EvaluationService service;
  io::EvaluationRequest bad = make_request(
      ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDsch);
  bad.options.faults.dropped_sites = {9999};  // out of range at evaluation
  const serve::ServiceResponse response = service.evaluate(bad);
  EXPECT_EQ(response.status, serve::ResponseStatus::kError);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(response.entry, nullptr);

  // Errors are not cached; the service keeps serving.
  const serve::ServiceResponse again = service.evaluate(bad);
  EXPECT_EQ(again.status, serve::ResponseStatus::kError);
  EXPECT_EQ(service.evaluate(make_request(
                                 ArchitectureKind::kA1_InterposerPeriphery,
                                 TopologyKind::kDsch))
                .status,
            serve::ResponseStatus::kOk);

  const serve::ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.errors, 2u);
  EXPECT_EQ(metrics.result_cache_size, 1u);  // only the good result
}

// --- Metrics ---------------------------------------------------------------

TEST(EvaluationService, MetricsAreInternallyConsistent) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService service(config);
  const io::EvaluationRequest a = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch);
  const io::EvaluationRequest b = make_request(
      ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDpmih);
  service.evaluate(a);
  service.evaluate(b);
  service.evaluate(a);  // cache hit

  const serve::ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.threads, 2u);
  EXPECT_EQ(metrics.requests, 3u);
  EXPECT_EQ(metrics.completed, 3u);
  EXPECT_EQ(metrics.latency_samples, 3u);
  EXPECT_GT(metrics.latency_min_seconds, 0.0);
  EXPECT_LE(metrics.latency_min_seconds, metrics.latency_mean_seconds);
  EXPECT_LE(metrics.latency_mean_seconds, metrics.latency_max_seconds);
  EXPECT_LE(metrics.latency_p99_seconds, metrics.latency_max_seconds);
  EXPECT_GE(metrics.queue_high_water, 1u);
  EXPECT_DOUBLE_EQ(metrics.result_cache_hit_rate(), 1.0 / 3.0);

  // The JSON export is exactly the unified telemetry snapshot; the pre-v2
  // flat aliases are gone after their deprecation window.
  const io::Value v = service.metrics_json();
  EXPECT_EQ(v.at("counters").at("serve.requests").as_number(), 3.0);
  EXPECT_EQ(v.at("counters").at("serve.result_cache_hits").as_number(), 1.0);
  EXPECT_EQ(v.at("counters").at("mesh_cache.misses").as_number(),
            static_cast<double>(metrics.mesh_cache.misses));
  EXPECT_GT(v.at("histograms").at("serve.latency_seconds").at("p99")
                .as_number(),
            0.0);
  EXPECT_EQ(v.find("requests"), nullptr);
  EXPECT_EQ(v.find("latency"), nullptr);
  EXPECT_EQ(v.find("mesh_cache"), nullptr);
  EXPECT_EQ(v.find("solver"), nullptr);
}

TEST(EvaluationService, ResponseJsonCarriesStatusAndResult) {
  serve::EvaluationService service;
  const io::Value ok = serve::to_json(service.evaluate(make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch)));
  EXPECT_EQ(ok.at("status").as_string(), "ok");
  EXPECT_NE(ok.find("result"), nullptr);

  io::EvaluationRequest bad = make_request(
      ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDsch);
  bad.options.faults.dropped_sites = {9999};
  const io::Value err = serve::to_json(service.evaluate(bad));
  EXPECT_EQ(err.at("status").as_string(), "error");
  EXPECT_FALSE(err.at("error").as_string().empty());
  EXPECT_EQ(err.find("result"), nullptr);
}

// --- Wire bytes: results are encoded once, responses stay byte-identical ----

// The body to_json(ServiceResponse) built when every call re-encoded the
// result from its entry. serialize_seconds is a measurement, so it is
// taken from `body`.
io::Value reencoded_body(const serve::ServiceResponse& response,
                         const io::Value& body) {
  io::Value v = io::Value::object();
  v.set("status", serve::to_string(response.status));
  v.set("schema_version", io::kSchemaVersion);
  if (!response.error.empty()) v.set("error", response.error);
  if (response.entry != nullptr) v.set("result", io::to_json(*response.entry));
  v.set("from_cache", response.from_cache);
  io::Value timings = io::Value::object();
  timings.set("queue_seconds", response.timings.queue_seconds);
  timings.set("mesh_seconds", response.timings.mesh_seconds);
  timings.set("solve_seconds", response.timings.solve_seconds);
  timings.set("evaluate_seconds", response.timings.evaluate_seconds);
  timings.set("serialize_seconds",
              body.at("timings").at("serialize_seconds"));
  v.set("timings", std::move(timings));
  return v;
}

std::vector<std::string> member_names(const io::Value& object) {
  std::vector<std::string> names;
  for (const auto& member : object.as_object()) names.push_back(member.first);
  return names;
}

// A response object's bytes from "status" up to its timings' first member:
// `middle` is the "result" or "error" member.
std::string response_head(const char* status, const std::string& middle,
                          bool from_cache) {
  return std::string("\"status\":\"") + status + "\",\"schema_version\":" +
         std::to_string(io::kSchemaVersion) + "," + middle +
         ",\"from_cache\":" + (from_cache ? "true" : "false") +
         ",\"timings\":{\"queue_seconds\":";
}

std::string result_member(const io::EvaluationRequest& request) {
  return "\"result\":" + serial_dump(request);
}

TEST(ServiceWire, PrettyAndCompactBodiesMatchReencodingForEveryKind) {
  serve::ServiceConfig config;
  config.threads = 1;
  serve::EvaluationService service(config);
  const io::EvaluationRequest a1 = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch);
  const io::EvaluationRequest a3 =
      make_request(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch);
  const io::EvaluationRequest excluded = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDickson);
  io::EvaluationRequest bad = make_request(
      ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDsch);
  bad.options.faults.dropped_sites = {9999};

  // The slow request holds the single worker, so its twin coalesces.
  auto slow = service.submit(slow_request());
  auto twin = service.submit(slow_request());
  const serve::ServiceResponse miss = service.evaluate(a1);
  const serve::ServiceResponse hit = service.evaluate(a1);
  const serve::ServiceResponse coalesced = twin.get();
  const serve::ServiceResponse batch_member =
      service.evaluate_batch({a1, a3})[1];
  const serve::ServiceResponse excluded_response = service.evaluate(excluded);
  const serve::ServiceResponse error = service.evaluate(bad);
  EXPECT_EQ(service.metrics().coalesced, 1u);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_FALSE(batch_member.from_cache);
  ASSERT_EQ(excluded_response.status, serve::ResponseStatus::kExcluded);
  ASSERT_EQ(error.status, serve::ResponseStatus::kError);

  const std::vector<std::pair<const serve::ServiceResponse*, std::string>>
      published = {{&miss, serial_dump(a1)},
                   {&hit, serial_dump(a1)},
                   {&coalesced, serial_dump(slow_request())},
                   {&batch_member, serial_dump(a3)},
                   {&excluded_response, serial_dump(excluded)}};
  for (const auto& [response, expected] : published) {
    ASSERT_NE(response->result_json, nullptr);
    EXPECT_EQ(*response->result_json, expected);
    const io::Value body = serve::to_json(*response);
    EXPECT_TRUE(body.at("result").is_encoded());
    const io::Value reencoded = reencoded_body(*response, body);
    EXPECT_EQ(io::dump(body), io::dump(reencoded));
    EXPECT_EQ(io::dump_pretty(body), io::dump_pretty(reencoded));
  }
  // Hits and coalesced waiters share the bytes their result was published
  // with; only the publishing response paid for the encode.
  EXPECT_EQ(hit.result_json.get(), miss.result_json.get());
  EXPECT_EQ(coalesced.result_json.get(), slow.get().result_json.get());
  EXPECT_GT(miss.timings.serialize_seconds, 0.0);
  EXPECT_EQ(hit.timings.serialize_seconds, 0.0);

  EXPECT_EQ(error.result_json, nullptr);
  const io::Value error_body = serve::to_json(error);
  EXPECT_EQ(io::dump_pretty(error_body),
            io::dump_pretty(reencoded_body(error, error_body)));

  // A response built by hand, without the bytes, still encodes its entry.
  serve::ServiceResponse by_hand;
  by_hand.status = serve::ResponseStatus::kOk;
  by_hand.entry = miss.entry;
  const io::Value hand_body = serve::to_json(by_hand);
  EXPECT_FALSE(hand_body.at("result").is_encoded());
  EXPECT_EQ(io::dump(hand_body.at("result")), serial_dump(a1));
}

TEST(ServiceWire, SessionLinesKeepMemberOrderAndResultBytes) {
  serve::ServiceConfig config;
  config.threads = 1;
  serve::EvaluationService service(config);
  std::mutex mutex;
  std::vector<std::string> lines;
  net::LineSession session(service, [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  });
  const auto line_of = [](int id, const io::EvaluationRequest& request) {
    io::Value v = io::to_json(request);
    v.set("id", id);
    return io::dump(v);
  };

  const io::EvaluationRequest a1 = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch);
  const io::EvaluationRequest a3 =
      make_request(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch);
  const io::EvaluationRequest excluded = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDickson);
  io::EvaluationRequest bad = make_request(
      ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDsch);
  bad.options.faults.dropped_sites = {9999};

  session.feed(line_of(1, a1));  // miss
  session.drain();
  session.feed(line_of(2, a1));  // result-LRU hit
  session.feed(line_of(3, slow_request()));
  session.feed(line_of(4, slow_request()));  // coalesced waiter
  session.feed(line_of(5, excluded));
  session.feed(line_of(6, bad));
  io::Value batch = io::Value::object();
  batch.set("id", 7);
  batch.set("cmd", "evaluate_batch");
  io::Value members = io::Value::array();
  members.push_back(io::to_json(a1));  // hit inside the batch
  members.push_back(io::to_json(a3));  // evaluated by the batch engine
  batch.set("requests", members);
  session.feed(io::dump(batch));
  session.drain();
  EXPECT_EQ(service.metrics().coalesced, 1u);

  ASSERT_EQ(lines.size(), 7u);
  const std::vector<std::string> evaluate_order = {
      "id", "status", "schema_version", "result", "from_cache", "timings"};
  const std::vector<std::string> error_order = {
      "id", "status", "schema_version", "error", "from_cache", "timings"};
  const std::vector<std::string> timings_order = {
      "queue_seconds", "mesh_seconds", "solve_seconds", "evaluate_seconds",
      "serialize_seconds"};
  const auto expect_line = [&](std::size_t index, const char* status,
                               const std::string& middle, bool from_cache) {
    const std::string& line = lines[index];
    const std::string head = "{\"id\":" + std::to_string(index + 1) + "," +
                             response_head(status, middle, from_cache);
    EXPECT_EQ(line.compare(0, head.size(), head), 0)
        << "line " << index + 1 << ": " << line.substr(0, 200);
    const io::Value doc = io::parse(line);
    EXPECT_EQ(member_names(doc),
              std::string(status) == "error" ? error_order : evaluate_order)
        << "line " << index + 1;
    EXPECT_EQ(member_names(doc.at("timings")), timings_order)
        << "line " << index + 1;
  };
  expect_line(0, "ok", result_member(a1), false);
  expect_line(1, "ok", result_member(a1), true);
  const std::string slow_result = result_member(slow_request());
  expect_line(2, "ok", slow_result, false);
  expect_line(3, "ok", slow_result, false);
  expect_line(4, "excluded", result_member(excluded), false);
  const std::string message = io::parse(lines[5]).at("error").as_string();
  EXPECT_FALSE(message.empty());
  expect_line(5, "error", "\"error\":" + io::dump(io::Value(message)), false);

  // The batch line: envelope first, then each member in request order.
  const std::string head = "{\"id\":7,\"status\":\"ok\",\"schema_version\":" +
                           std::to_string(io::kSchemaVersion) +
                           ",\"results\":[{";
  EXPECT_EQ(lines[6].compare(0, head.size(), head), 0) << lines[6];
  const std::size_t second = lines[6].find(
      "},{" + response_head("ok", result_member(a3), false));
  EXPECT_NE(second, std::string::npos);
  EXPECT_EQ(lines[6].find(response_head("ok", result_member(a1), true)),
            head.size());
  const io::Value doc = io::parse(lines[6]);
  ASSERT_EQ(doc.at("results").size(), 2u);
  for (const io::Value& member : doc.at("results").as_array()) {
    EXPECT_EQ(member_names(member),
              std::vector<std::string>(evaluate_order.begin() + 1,
                                       evaluate_order.end()));
  }
}

// --- Accounting: the service counts exactly its own work -------------------

TEST(ServeAccounting, MetricsCountOnlyTheServicesWork) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService service(config);
  ASSERT_EQ(service
                .evaluate(make_request(ArchitectureKind::kA1_InterposerPeriphery,
                                       TopologyKind::kDsch))
                .status,
            serve::ResponseStatus::kOk);
  const SolverCounters served = service.metrics().solver;
  EXPECT_EQ(served.cg_solves, 1u);
  EXPECT_GT(served.cg_iterations, 0u);

  // An unrelated default-grid sweep in the same process counts into its
  // own report, never into the service's metrics.
  const SweepReport sweep =
      SweepRunner(paper_system()).run(SweepGridBuilder().build());
  EXPECT_GT(sweep.solver.cg_solves, 0u);
  const serve::ServiceMetrics after = service.metrics();
  EXPECT_EQ(after.solver.cg_solves, 1u);
  EXPECT_EQ(after.solver.cg_iterations, served.cg_iterations);
  const std::uint64_t* wire_solves =
      after.observability.counter("solver.cg_solves");
  ASSERT_NE(wire_solves, nullptr);
  EXPECT_EQ(*wire_solves, 1u);
}

TEST(ServeAccounting, MetricsEqualTheOneOptimizeRunServed) {
  io::OptimizeRequest request;
  request.space.architectures = {ArchitectureKind::kA3_TwoStage12V,
                                 ArchitectureKind::kA3_TwoStage6V};
  request.space.topologies = {TopologyKind::kDsch};
  request.space.vr_count = {36, 48};
  request.config.population = 4;
  request.config.generations = 1;
  request.config.survivability.max_elites = 1;  // nests fault campaigns
  request.config.base_options.mesh_nodes = 11;
  request.config.sweep.threads = 2;

  serve::EvaluationService service;
  const serve::OptimizeServiceResponse response =
      service.run_optimize(request);
  ASSERT_EQ(response.status, serve::ResponseStatus::kOk) << response.error;
  const SolverCounters& run = response.report->solver;
  const SolverCounters metered = service.metrics().solver;
  EXPECT_GT(run.cg_solves, 0u);
  EXPECT_EQ(metered.cg_solves, run.cg_solves);
  EXPECT_EQ(metered.cg_iterations, run.cg_iterations);
  EXPECT_EQ(metered.precond_factorizations, run.precond_factorizations);
  EXPECT_EQ(metered.precond_reuses, run.precond_reuses);
}

// --- ThreadPool exception contract (the service depends on it) -------------

TEST(ThreadPoolExceptions, FirstExceptionPerEpochRethrownByWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("task exploded"); });
  for (int i = 0; i < 8; ++i) {
    pool.submit([&completed] { ++completed; });
  }
  try {
    pool.wait_idle();
    FAIL() << "expected wait_idle to rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task exploded");
  }
  // The exception did not kill the workers; the other tasks all ran.
  EXPECT_EQ(completed.load(), 8);
  // The epoch was cleared by the rethrow.
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPoolExceptions, OnlyFirstExceptionOfAnEpochIsKept) {
  ThreadPool pool(1);  // single worker serializes the tasks
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected wait_idle to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_NO_THROW(pool.wait_idle());

  // A fresh epoch reports its own first exception.
  pool.submit([] { throw std::runtime_error("third"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

}  // namespace
}  // namespace vpd
