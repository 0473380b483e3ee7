// Observability layer: the instrument registry under concurrency, the
// canonical telemetry JSON shape, trace spans (off-by-default, explicit
// parent context, Chrome trace-event / NDJSON serialization), work
// accounts (stage timings, pool inheritance, nesting), and — the contract
// everything else rests on — that tracing never perturbs numerical
// results: the default evaluation grid is bit-identical with tracing on
// and off.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "vpd/core/explorer.hpp"
#include "vpd/io/json.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/serve/service.hpp"
#include "vpd/sweep/thread_pool.hpp"

namespace vpd {
namespace {

/// Restores the process-wide tracing switch (and clears the buffer) when
/// a test scope ends, so tests cannot leak tracing state into each other.
class TracingGuard {
 public:
  TracingGuard() : was_enabled_(obs::tracing_enabled()) {}
  ~TracingGuard() {
    obs::set_tracing_enabled(was_enabled_);
    obs::clear_trace();
  }

 private:
  bool was_enabled_;
};

// --- Registry and instruments ----------------------------------------------

TEST(ObsRegistry, FindOrCreateReturnsStableReferences) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("x");
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  obs::Gauge& g = registry.gauge("depth");
  g.set(4.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 4.0);

  // First registration wins the bounds.
  obs::Histogram& h = registry.histogram("h", {1.0, 2.0});
  obs::Histogram& h2 = registry.histogram("h", {5.0});
  EXPECT_EQ(&h, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(ObsRegistry, ConcurrentUpdatesLoseNothing) {
  obs::Registry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Mix of pre-registered and find-or-create-on-the-fly instruments,
      // so registration races with updates.
      obs::Counter& events = registry.counter("events");
      obs::Histogram& latency = registry.latency_histogram("latency");
      obs::Gauge& depth = registry.gauge("depth");
      for (std::size_t i = 0; i < kPerThread; ++i) {
        events.add();
        registry.counter("events_by_name").add();
        latency.record(1e-4 * double(t + 1));
        depth.set(double(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const obs::Snapshot snapshot = registry.snapshot();
  ASSERT_NE(snapshot.counter("events"), nullptr);
  EXPECT_EQ(*snapshot.counter("events"), kThreads * kPerThread);
  ASSERT_NE(snapshot.counter("events_by_name"), nullptr);
  EXPECT_EQ(*snapshot.counter("events_by_name"), kThreads * kPerThread);

  const obs::HistogramData* latency = snapshot.histogram("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(latency->min, 1e-4);
  EXPECT_DOUBLE_EQ(latency->max, 1e-4 * kThreads);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : latency->counts) bucket_total += c;
  EXPECT_EQ(bucket_total, latency->count);

  const auto* depth = snapshot.gauge("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->second, double(kThreads - 1));  // high water
}

TEST(ObsHistogram, DataStatisticsAndQuantiles) {
  obs::HistogramData h({1.0, 10.0, 100.0});
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

  for (double v : {0.5, 2.0, 3.0, 5.0, 50.0, 500.0}) h.record(v);
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 500.0);
  EXPECT_NEAR(h.mean(), 560.5 / 6.0, 1e-12);
  // Overflow bucket caught the out-of-range sample.
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[3], 1u);
  // Quantiles are bucket-interpolated but clamped to the observed range.
  EXPECT_GE(h.quantile(0.0), h.min);
  EXPECT_LE(h.quantile(1.0), h.max);
  EXPECT_GT(h.quantile(0.9), h.quantile(0.1));
}

TEST(ObsSnapshot, JsonShapeIsCanonical) {
  obs::Registry registry;
  registry.counter("requests").add(7);
  registry.gauge("queue").set(3.0);
  obs::Histogram& h = registry.histogram("lat", {0.1, 1.0});
  h.record(0.05);
  h.record(5.0);

  const io::Value v = registry.snapshot().to_json();
  EXPECT_EQ(v.at("schema_version").as_number(),
            double(obs::kTelemetrySchemaVersion));
  EXPECT_EQ(v.at("counters").at("requests").as_number(), 7.0);
  EXPECT_EQ(v.at("gauges").at("queue").at("value").as_number(), 3.0);
  EXPECT_EQ(v.at("gauges").at("queue").at("high_water").as_number(), 3.0);
  const io::Value& hist = v.at("histograms").at("lat");
  EXPECT_EQ(hist.at("count").as_number(), 2.0);
  ASSERT_EQ(hist.at("buckets").as_array().size(), 3u);
  EXPECT_EQ(hist.at("buckets").as_array()[0].at("le").as_number(), 0.1);
  // The overflow bucket's bound serializes as null.
  EXPECT_TRUE(hist.at("buckets").as_array()[2].at("le").is_null());
  EXPECT_EQ(hist.at("buckets").as_array()[2].at("count").as_number(), 1.0);

  // Round trip through the parser: shape survives dump/parse.
  const io::Value parsed = io::parse(io::dump(v));
  EXPECT_EQ(parsed.at("counters").at("requests").as_number(), 7.0);
}

TEST(ObsSnapshot, OverlayOverwritesSameNames) {
  obs::Snapshot a;
  a.set_counter("x", 1);
  a.set_counter("y", 2);
  obs::Snapshot b;
  b.set_counter("x", 10);
  b.set_gauge("g", 1.0, 2.0);
  a.overlay(b);
  EXPECT_EQ(*a.counter("x"), 10u);
  EXPECT_EQ(*a.counter("y"), 2u);
  ASSERT_NE(a.gauge("g"), nullptr);
  EXPECT_DOUBLE_EQ(a.gauge("g")->first, 1.0);
}

TEST(ObsSnapshot, MergeSumsCountersAcrossPeers) {
  obs::Snapshot a;
  a.set_counter("serve.requests", 7);
  a.set_counter("only_a", 3);
  obs::Snapshot b;
  b.set_counter("serve.requests", 5);
  b.set_counter("only_b", 11);
  a.merge(b);
  EXPECT_EQ(*a.counter("serve.requests"), 12u);
  EXPECT_EQ(*a.counter("only_a"), 3u);
  EXPECT_EQ(*a.counter("only_b"), 11u);
}

TEST(ObsSnapshot, MergeTakesGaugeMaxAndHighWaterMax) {
  obs::Snapshot a;
  a.set_gauge("serve.queue_depth", 2.0, 9.0);
  obs::Snapshot b;
  b.set_gauge("serve.queue_depth", 5.0, 6.0);
  b.set_gauge("only_b", 1.0, 1.5);
  a.merge(b);
  ASSERT_NE(a.gauge("serve.queue_depth"), nullptr);
  EXPECT_DOUBLE_EQ(a.gauge("serve.queue_depth")->first, 5.0);
  EXPECT_DOUBLE_EQ(a.gauge("serve.queue_depth")->second, 9.0);
  ASSERT_NE(a.gauge("only_b"), nullptr);
  EXPECT_DOUBLE_EQ(a.gauge("only_b")->first, 1.0);
}

TEST(ObsSnapshot, MergeAddsHistogramsBucketwise) {
  obs::HistogramData left({0.1, 1.0});
  left.record(0.05);
  left.record(0.5);
  obs::HistogramData right({0.1, 1.0});
  right.record(0.5);
  right.record(5.0);

  obs::Snapshot a;
  a.set_histogram("lat", left);
  obs::Snapshot b;
  b.set_histogram("lat", right);
  a.merge(b);

  const obs::HistogramData* merged = a.histogram("lat");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, 4u);
  EXPECT_DOUBLE_EQ(merged->sum, 6.05);
  EXPECT_DOUBLE_EQ(merged->min, 0.05);
  EXPECT_DOUBLE_EQ(merged->max, 5.0);
  // Exact bucket-wise addition: [<=0.1, <=1.0, overflow] = [1+0, 1+1, 0+1].
  ASSERT_EQ(merged->counts.size(), 3u);
  EXPECT_EQ(merged->counts[0], 1u);
  EXPECT_EQ(merged->counts[1], 2u);
  EXPECT_EQ(merged->counts[2], 1u);
}

TEST(ObsSnapshot, MergeWithEmptySideKeepsOtherSidesRange) {
  obs::HistogramData samples({1.0});
  samples.record(0.25);
  obs::Snapshot a;
  a.set_histogram("lat", obs::HistogramData({1.0}));  // no samples
  obs::Snapshot b;
  b.set_histogram("lat", samples);
  a.merge(b);
  const obs::HistogramData* merged = a.histogram("lat");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, 1u);
  EXPECT_DOUBLE_EQ(merged->min, 0.25);
  EXPECT_DOUBLE_EQ(merged->max, 0.25);
}

TEST(ObsSnapshot, MergeRejectsMismatchedHistogramBounds) {
  obs::Snapshot a;
  a.set_histogram("lat", obs::HistogramData({0.1, 1.0}));
  obs::Snapshot b;
  b.set_histogram("lat", obs::HistogramData({0.5, 2.0}));
  EXPECT_THROW(a.merge(b), InvalidArgument);
}

TEST(ObsSnapshot, FromJsonRoundTripsThroughTheWireShape) {
  obs::Snapshot s;
  s.set_counter("serve.requests", 42);
  s.set_gauge("serve.queue_depth", 3.0, 8.0);
  obs::HistogramData h({0.1, 1.0});
  h.record(0.05);
  h.record(0.7);
  h.record(9.0);
  s.set_histogram("serve.latency_seconds", h);

  const obs::Snapshot parsed =
      obs::snapshot_from_json(io::parse(io::dump(s.to_json())));
  EXPECT_EQ(*parsed.counter("serve.requests"), 42u);
  ASSERT_NE(parsed.gauge("serve.queue_depth"), nullptr);
  EXPECT_DOUBLE_EQ(parsed.gauge("serve.queue_depth")->second, 8.0);
  const obs::HistogramData* hist =
      parsed.histogram("serve.latency_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_EQ(hist->counts, h.counts);
  EXPECT_EQ(hist->bounds, h.bounds);
  EXPECT_DOUBLE_EQ(hist->sum, h.sum);
  // Round-tripped snapshots serialize identically (derived quantiles are
  // recomputed from the same buckets).
  EXPECT_EQ(io::dump(parsed.to_json()), io::dump(s.to_json()));
}

TEST(ObsSnapshot, FromJsonRejectsSchemaVersionMismatch) {
  obs::Snapshot s;
  s.set_counter("x", 1);
  io::Value wrong_version = s.to_json();
  wrong_version.set("schema_version", obs::kTelemetrySchemaVersion + 1);
  EXPECT_THROW(obs::snapshot_from_json(wrong_version), InvalidArgument);

  io::Value missing = s.to_json();
  io::Value stripped = io::Value::object();
  for (const auto& [key, value] : missing.as_object()) {
    if (key != "schema_version") stripped.set(key, value);
  }
  EXPECT_THROW(obs::snapshot_from_json(stripped), InvalidArgument);
}

// --- Trace spans ------------------------------------------------------------

TEST(ObsTrace, DisabledSpansRecordNothing) {
  TracingGuard guard;
  obs::set_tracing_enabled(false);
  obs::clear_trace();
  {
    obs::Span span("idle");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.context().span_id, 0u);
    span.set_arg("ignored", 1.0);
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(ObsTrace, SpansNestThroughExplicitContext) {
  TracingGuard guard;
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  {
    obs::Span parent("outer");
    ASSERT_TRUE(parent.active());
    EXPECT_NE(parent.context().span_id, 0u);
    obs::Span child("inner", parent.context());
    child.set_arg("n", 42.0);
  }
  EXPECT_EQ(obs::trace_event_count(), 2u);

  const io::Value doc = obs::chrome_trace_json();
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: the child ("inner") finishes first.
  const io::Value& inner = events[0];
  const io::Value& outer = events[1];
  EXPECT_EQ(inner.at("name").as_string(), "inner");
  EXPECT_EQ(outer.at("name").as_string(), "outer");
  EXPECT_EQ(inner.at("ph").as_string(), "X");
  EXPECT_EQ(inner.at("args").at("parent_span_id").as_number(),
            outer.at("args").at("span_id").as_number());
  EXPECT_EQ(outer.at("args").find("parent_span_id"), nullptr);
  EXPECT_EQ(inner.at("args").at("n").as_number(), 42.0);
  EXPECT_GE(inner.at("ts").as_number(), 0.0);
  EXPECT_GE(inner.at("dur").as_number(), 0.0);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
}

TEST(ObsTrace, RecordSpanAndNdjson) {
  TracingGuard guard;
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  const auto start = std::chrono::steady_clock::now();
  obs::record_span("external", obs::TraceContext{},
                   start, start + std::chrono::milliseconds(5));
  EXPECT_EQ(obs::trace_event_count(), 1u);

  const std::string ndjson = obs::trace_ndjson();
  // One line per event, each independently parseable.
  ASSERT_FALSE(ndjson.empty());
  const std::string line = ndjson.substr(0, ndjson.find('\n'));
  const io::Value event = io::parse(line);
  EXPECT_EQ(event.at("name").as_string(), "external");
  EXPECT_NEAR(event.at("dur").as_number(), 5000.0, 500.0);  // microseconds

  obs::clear_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

// --- Work accounts ---------------------------------------------------------

TEST(ObsStageTimings, TimersAddIntoTheInstalledTarget) {
  obs::WorkAccount account;
  EXPECT_EQ(obs::WorkAccount::current(), nullptr);
  {
    const obs::WorkAccount::Scope scope(&account);
    EXPECT_EQ(obs::WorkAccount::current(), &account);
    { obs::StageTimer timer(obs::Work::kMeshNanoseconds); }
    { obs::StageTimer timer(obs::Work::kSolveNanoseconds); }
    {
      // A nested account becomes current, then the outer one returns.
      obs::WorkAccount inner;
      const obs::WorkAccount::Scope nested(&inner);
      { obs::StageTimer timer(obs::Work::kSolveNanoseconds); }
      EXPECT_GE(inner.seconds(obs::Work::kSolveNanoseconds), 0.0);
      EXPECT_EQ(obs::WorkAccount::current(), &inner);
    }
    EXPECT_EQ(obs::WorkAccount::current(), &account);
  }
  EXPECT_EQ(obs::WorkAccount::current(), nullptr);
  EXPECT_GE(account.seconds(obs::Work::kMeshNanoseconds), 0.0);
  EXPECT_GE(account.seconds(obs::Work::kSolveNanoseconds), 0.0);
  // With no account current a StageTimer is inert.
  { obs::StageTimer timer(obs::Work::kMeshNanoseconds); }
}

TEST(ObsStageTimings, EvaluationFillsMeshAndSolveStages) {
  obs::WorkAccount account;
  {
    const obs::WorkAccount::Scope scope(&account);
    const PowerDeliverySpec spec = paper_system();
    (void)evaluate_architecture(ArchitectureKind::kA2_InterposerBelowDie,
                                spec, TopologyKind::kDsch,
                                DeviceTechnology::kGalliumNitride);
  }
  // A fresh evaluation assembles a mesh and runs CG: both stages saw time.
  EXPECT_GT(account.seconds(obs::Work::kMeshNanoseconds), 0.0);
  EXPECT_GT(account.seconds(obs::Work::kSolveNanoseconds), 0.0);
}

TEST(WorkAccount, PoolTasksInheritAndNestedAccountsAddUp) {
  const auto solves = [](const obs::WorkAccount& a) {
    return a.count(obs::Work::kCgSolves);
  };
  obs::WorkAccount x;
  obs::WorkAccount y;
  {
    ThreadPool pool(3);
    {
      // Tasks run under the account current at submit, and so do the
      // follow-up tasks they submit from a worker.
      const obs::WorkAccount::Scope scope(&x);
      for (int i = 0; i < 20; ++i) {
        pool.submit([&pool] {
          obs::count(obs::Work::kCgSolves);
          pool.submit([] { obs::count(obs::Work::kCgSolves); });
        });
      }
    }
    {
      const obs::WorkAccount::Scope scope(&y);
      pool.submit([] { obs::count(obs::Work::kCgSolves, 5); });
    }
    // Submitted with no account current: counted nowhere.
    std::atomic<bool> saw_none{false};
    pool.submit([&saw_none] {
      saw_none = obs::WorkAccount::current() == nullptr;
      obs::count(obs::Work::kCgSolves, 1000);
    });
    pool.wait_idle();
    EXPECT_TRUE(saw_none.load());
  }
  EXPECT_EQ(solves(x), 40u);
  EXPECT_EQ(solves(y), 5u);

  // Real solver work in a pool task lands in the submitter's account.
  const PowerDeliverySpec spec = paper_system();
  obs::WorkAccount evaluated;
  {
    ThreadPool pool(2);
    const obs::WorkAccount::Scope scope(&evaluated);
    pool.submit([&spec] {
      (void)evaluate_architecture(ArchitectureKind::kA2_InterposerBelowDie,
                                  spec, TopologyKind::kDsch,
                                  DeviceTechnology::kGalliumNitride);
    });
    pool.wait_idle();
  }
  EXPECT_EQ(solves(evaluated), 1u);
  EXPECT_GT(evaluated.count(obs::Work::kCgIterations), 0u);
  EXPECT_GT(evaluated.seconds(obs::Work::kSolveNanoseconds), 0.0);

  // A nested account adds to its parent and every ancestor, never the
  // reverse, and siblings stay apart.
  {
    const obs::WorkAccount::Scope scope(&x);
    obs::WorkAccount inner;  // nested in x, the current account
    obs::WorkAccount innermost(&inner);
    obs::WorkAccount sibling(&inner);
    {
      const obs::WorkAccount::Scope nested(&innermost);
      obs::count(obs::Work::kMeshMisses, 3);
    }
    {
      const obs::WorkAccount::Scope nested(&inner);
      obs::count(obs::Work::kMeshHits);
    }
    EXPECT_EQ(innermost.count(obs::Work::kMeshMisses), 3u);
    EXPECT_EQ(innermost.count(obs::Work::kMeshHits), 0u);
    EXPECT_EQ(sibling.count(obs::Work::kMeshMisses), 0u);
    EXPECT_EQ(inner.count(obs::Work::kMeshMisses), 3u);
    EXPECT_EQ(inner.count(obs::Work::kMeshHits), 1u);
    EXPECT_EQ(x.count(obs::Work::kMeshMisses), 3u);
    EXPECT_EQ(x.count(obs::Work::kMeshHits), 1u);
    EXPECT_EQ(y.count(obs::Work::kMeshMisses), 0u);
  }
  // A root account ignores the current one.
  {
    const obs::WorkAccount::Scope scope(&x);
    obs::WorkAccount root(nullptr);
    const obs::WorkAccount::Scope nested(&root);
    obs::count(obs::Work::kCgSolves);
    EXPECT_EQ(solves(root), 1u);
  }
  EXPECT_EQ(solves(x), 40u);

  // No account current: nothing is counted anywhere.
  ASSERT_EQ(obs::WorkAccount::current(), nullptr);
  obs::count(obs::Work::kCgSolves, 7);
  EXPECT_EQ(solves(x), 40u);
  EXPECT_EQ(solves(y), 5u);
  EXPECT_EQ(solves(evaluated), 1u);
}

// --- The determinism contract ----------------------------------------------

TEST(ObsTrace, TracingOnAndOffAreBitIdentical) {
  TracingGuard guard;
  const PowerDeliverySpec spec = paper_system();
  const ArchitectureKind grid[] = {
      ArchitectureKind::kA1_InterposerPeriphery,
      ArchitectureKind::kA2_InterposerBelowDie,
      ArchitectureKind::kA3_TwoStage12V,
      ArchitectureKind::kA3_TwoStage6V,
  };

  const auto run_grid = [&] {
    std::vector<std::string> dumps;
    for (ArchitectureKind arch : grid) {
      const ExplorationEntry entry = evaluate_with_exclusion(
          spec, arch, TopologyKind::kDsch,
          DeviceTechnology::kGalliumNitride, EvaluationOptions{});
      dumps.push_back(io::dump(io::to_json(entry)));
    }
    return dumps;
  };

  obs::set_tracing_enabled(false);
  const std::vector<std::string> off = run_grid();
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  const std::vector<std::string> on = run_grid();
  EXPECT_GT(obs::trace_event_count(), 0u)
      << "tracing-on run should have recorded spans";

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i], on[i]) << "architecture index " << i;
  }
}

// --- Service integration ----------------------------------------------------

io::EvaluationRequest default_request() {
  io::EvaluationRequest request;
  request.architecture = ArchitectureKind::kA2_InterposerBelowDie;
  request.topology = TopologyKind::kDsch;
  return request;
}

TEST(ObsService, ResponsesCarryStageTimings) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService service(std::move(config));
  const serve::ServiceResponse evaluated = service.evaluate(default_request());
  ASSERT_EQ(evaluated.status, serve::ResponseStatus::kOk);
  EXPECT_FALSE(evaluated.from_cache);
  EXPECT_GT(evaluated.timings.evaluate_seconds, 0.0);
  EXPECT_GT(evaluated.timings.mesh_seconds, 0.0);
  EXPECT_GT(evaluated.timings.solve_seconds, 0.0);
  EXPECT_GE(evaluated.timings.queue_seconds, 0.0);
  // evaluate ⊇ mesh + solve: stages are sub-intervals of the evaluator run.
  EXPECT_GE(evaluated.timings.evaluate_seconds,
            evaluated.timings.mesh_seconds + evaluated.timings.solve_seconds);

  // A cache hit evaluated nothing, so its timings are all zero.
  const serve::ServiceResponse cached = service.evaluate(default_request());
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.timings.evaluate_seconds, 0.0);
  EXPECT_EQ(cached.timings.mesh_seconds, 0.0);

  // The wire form carries the breakdown (and times its own serialization).
  const io::Value body = serve::to_json(evaluated);
  EXPECT_EQ(body.at("schema_version").as_number(), double(io::kSchemaVersion));
  EXPECT_GT(body.at("timings").at("evaluate_seconds").as_number(), 0.0);
  EXPECT_GE(body.at("timings").at("serialize_seconds").as_number(), 0.0);
}

TEST(ObsService, MetricsCarryTheUnifiedShapeOnly) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService service(std::move(config));
  (void)service.evaluate(default_request());
  (void)service.evaluate(default_request());  // result-cache hit

  const serve::ServiceMetrics metrics = service.metrics();
  const obs::Snapshot& snapshot = metrics.observability;
  ASSERT_NE(snapshot.counter("serve.requests"), nullptr);
  EXPECT_EQ(*snapshot.counter("serve.requests"), 2u);
  ASSERT_NE(snapshot.counter("serve.evaluated"), nullptr);
  EXPECT_EQ(*snapshot.counter("serve.evaluated"), 1u);
  ASSERT_NE(snapshot.counter("serve.result_cache_hits"), nullptr);
  EXPECT_EQ(*snapshot.counter("serve.result_cache_hits"), 1u);
  ASSERT_NE(snapshot.counter("mesh_cache.misses"), nullptr);
  ASSERT_NE(snapshot.counter("solver.cg_solves"), nullptr);

  // Queue-depth is both a gauge (with high water) and a distribution —
  // the point-in-time-only depth of the old shape is the fixed gap.
  const auto* depth = snapshot.gauge("serve.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->first, 0.0);  // idle now
  EXPECT_GE(depth->second, 1.0);        // but at least one request was queued
  const obs::HistogramData* depth_hist =
      snapshot.histogram("serve.queue_depth");
  ASSERT_NE(depth_hist, nullptr);
  EXPECT_GE(depth_hist->count, 1u);

  const obs::HistogramData* latency =
      snapshot.histogram("serve.latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 2u);
  ASSERT_NE(snapshot.histogram("serve.stage.solve_seconds"), nullptr);
  EXPECT_EQ(snapshot.histogram("serve.stage.solve_seconds")->count, 1u);

  // One JSON document, one vocabulary: the unified telemetry shape.
  // The pre-v2 flat aliases were removed with the batch-first API
  // (docs/observability.md).
  const io::Value v = serve::to_json(metrics);
  EXPECT_EQ(v.at("schema_version").as_number(), double(io::kSchemaVersion));
  EXPECT_EQ(v.at("counters").at("serve.requests").as_number(), 2.0);
  EXPECT_EQ(v.at("counters").at("serve.result_cache_hits").as_number(), 1.0);
  EXPECT_GE(v.at("counters").at("mesh_cache.misses").as_number(), 1.0);
  EXPECT_GE(v.at("histograms")
                .at("serve.latency_seconds")
                .at("p99")
                .as_number(),
            0.0);
  EXPECT_EQ(v.find("requests"), nullptr);
  EXPECT_EQ(v.find("result_cache_hits"), nullptr);
  EXPECT_EQ(v.find("mesh_cache"), nullptr);
  EXPECT_EQ(v.find("latency"), nullptr);
  EXPECT_EQ(v.find("solver"), nullptr);
}

TEST(ObsService, SlowRequestLogFiresThroughTheSink) {
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  serve::ServiceConfig config;
  config.threads = 2;
  config.slow_request_seconds = 1e-9;  // everything is slow
  config.slow_request_sink = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(lines_mutex);
    lines.push_back(line);
  };
  serve::EvaluationService service(std::move(config));
  (void)service.evaluate(default_request());
  (void)service.evaluate(default_request());  // cache hit: not logged

  EXPECT_EQ(service.metrics().slow_requests, 1u);
  ASSERT_EQ(lines.size(), 1u);
  const io::Value line = io::parse(lines.front());
  EXPECT_NE(line.find("slow_request"), nullptr);
  EXPECT_GT(line.at("seconds").as_number(), 0.0);
  EXPECT_GT(line.at("evaluate_seconds").as_number(), 0.0);
}

}  // namespace
}  // namespace vpd
