#include "vpd/serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>

#include "vpd/common/error.hpp"
#include "vpd/core/batch.hpp"

namespace vpd {
namespace serve {

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kExcluded: return "excluded";
    case ResponseStatus::kRejected: return "rejected";
    case ResponseStatus::kError: return "error";
  }
  return "unknown";
}

double ServiceMetrics::result_cache_hit_rate() const {
  const std::size_t total = result_cache_hits + result_cache_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(result_cache_hits) /
                          static_cast<double>(total);
}

double ServiceMetrics::mesh_cache_hit_rate() const {
  const std::size_t total = mesh_cache.hits + mesh_cache.misses;
  return total == 0 ? 0.0
                    : static_cast<double>(mesh_cache.hits) /
                          static_cast<double>(total);
}

io::Value to_json(const ServiceMetrics& metrics) {
  // The unified telemetry document is the whole wire shape. The pre-v2
  // flat keys (requests/completed/.../latency{}/mesh_cache{}/solver{})
  // rode along as deprecated aliases for one release after the v2
  // namespacing and are gone now; scrape the serve.* / mesh_cache.* /
  // solver.* counters instead (see docs/observability.md).
  return metrics.observability.to_json();
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Publishes an evaluated entry into `response`: its status, the shared
/// entry and its wire encoding, the encode timed into
/// timings.serialize_seconds. Every later response carrying the entry
/// reuses these bytes. An entry the wire cannot carry (a non-finite
/// number) makes the response an error instead.
void publish(ServiceResponse& response,
             std::shared_ptr<const ExplorationEntry> entry) {
  const auto start = std::chrono::steady_clock::now();
  try {
    response.result_json =
        std::make_shared<const std::string>(io::dump(io::to_json(*entry)));
  } catch (const std::exception& e) {
    response.status = ResponseStatus::kError;
    response.error = e.what();
    return;
  }
  response.timings.serialize_seconds = seconds_since(start);
  response.status =
      entry->excluded() ? ResponseStatus::kExcluded : ResponseStatus::kOk;
  response.entry = std::move(entry);
}

}  // namespace

io::Value to_json(const ServiceResponse& response) {
  const auto serialize_start = std::chrono::steady_clock::now();
  io::Value v = io::Value::object();
  // "status" stays the first member (wire shape consumers grep on it);
  // schema_version follows immediately.
  v.set("status", to_string(response.status));
  v.set("schema_version", io::kSchemaVersion);
  if (!response.error.empty()) v.set("error", response.error);
  if (response.result_json != nullptr) {
    v.set("result", io::Value::encoded(response.result_json));
  } else if (response.entry != nullptr) {
    v.set("result", io::to_json(*response.entry));
  }
  v.set("from_cache", response.from_cache);
  io::Value timings = io::Value::object();
  timings.set("queue_seconds", response.timings.queue_seconds);
  timings.set("mesh_seconds", response.timings.mesh_seconds);
  timings.set("solve_seconds", response.timings.solve_seconds);
  timings.set("evaluate_seconds", response.timings.evaluate_seconds);
  timings.set("serialize_seconds", response.timings.serialize_seconds +
                                       seconds_since(serialize_start));
  v.set("timings", std::move(timings));
  return v;
}

EvaluationService::EvaluationService(ServiceConfig config)
    : config_(std::move(config)),
      latency_hist_(registry_.latency_histogram("serve.latency_seconds")),
      queue_wait_hist_(
          registry_.latency_histogram("serve.stage.queue_seconds")),
      mesh_stage_hist_(registry_.latency_histogram("serve.stage.mesh_seconds")),
      solve_stage_hist_(
          registry_.latency_histogram("serve.stage.solve_seconds")),
      evaluate_stage_hist_(
          registry_.latency_histogram("serve.stage.evaluate_seconds")),
      queue_depth_hist_(registry_.histogram("serve.queue_depth",
                                            obs::default_depth_bounds())),
      queue_depth_gauge_(registry_.gauge("serve.queue_depth")),
      pool_(config_.threads) {
  VPD_REQUIRE(config_.queue_capacity > 0, "queue capacity must be positive");
  VPD_REQUIRE(config_.slow_request_seconds >= 0.0,
              "slow_request_seconds must be non-negative");
}

EvaluationService::~EvaluationService() { pool_.wait_idle(); }

ServiceResponse EvaluationService::evaluate(
    const io::EvaluationRequest& request) {
  return submit(request).get();
}

std::vector<ServiceResponse> EvaluationService::evaluate_batch(
    const std::vector<io::EvaluationRequest>& requests) {
  const auto start = std::chrono::steady_clock::now();
  const obs::WorkAccount::Scope account_scope(&account_);
  registry_.counter("serve.batch.requests").add(requests.size());
  std::vector<ServiceResponse> responses(requests.size());

  // Leaders evaluate; every later request with the same canonical key
  // shares the leader's published entry (equal keys describe
  // bit-identical evaluations). Invalid requests and result-cache hits
  // resolve here and never reach the batch engine.
  std::vector<std::string> keys(requests.size());
  std::vector<char> resolved(requests.size(), 0);
  std::unordered_map<std::string, std::size_t> leader_by_key;
  std::vector<std::size_t> leaders;
  std::size_t cache_hits = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      keys[i] = io::canonical_request_key(requests[i]);
    } catch (const Error& e) {
      responses[i].status = ResponseStatus::kError;
      responses[i].error = e.what();
      resolved[i] = 1;
      continue;
    }
    if (leader_by_key.count(keys[i]) != 0) continue;
    leader_by_key.emplace(keys[i], i);
    bool hit;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      hit = cache_lookup(keys[i], responses[i]);
    }
    if (hit) {
      ++cache_hits;
      resolved[i] = 1;
      continue;
    }
    leaders.push_back(i);
  }

  // The batch engine evaluates against one spec; partition the leaders by
  // canonical spec (in input order) and run one batch per distinct spec.
  std::vector<std::string> spec_keys;
  std::vector<std::vector<std::size_t>> partitions;
  for (std::size_t index : leaders) {
    const std::string spec_key =
        io::dump(io::to_json(requests[index].spec));
    std::size_t p = 0;
    for (; p < spec_keys.size(); ++p) {
      if (spec_keys[p] == spec_key) break;
    }
    if (p == spec_keys.size()) {
      spec_keys.push_back(spec_key);
      partitions.emplace_back();
    }
    partitions[p].push_back(index);
  }

  BatchStats stats;
  for (const std::vector<std::size_t>& partition : partitions) {
    std::vector<EvaluationPoint> points;
    points.reserve(partition.size());
    for (std::size_t index : partition) {
      EvaluationPoint p{requests[index].architecture,
                        requests[index].topology, requests[index].tech,
                        requests[index].options};
      p.options.mesh_cache = &mesh_cache_;
      points.push_back(std::move(p));
    }
    try {
      EvaluationBatch batch(requests[partition.front()].spec,
                            std::move(points));
      batch.run();
      stats += batch.stats();
      for (std::size_t k = 0; k < partition.size(); ++k) {
        const std::size_t index = partition[k];
        if (std::exception_ptr err = batch.error(k)) {
          try {
            std::rethrow_exception(err);
          } catch (const std::exception& e) {
            responses[index].status = ResponseStatus::kError;
            responses[index].error = e.what();
          } catch (...) {
            responses[index].status = ResponseStatus::kError;
            responses[index].error = "unknown evaluation failure";
          }
          continue;
        }
        publish(responses[index], std::make_shared<const ExplorationEntry>(
                                      std::move(batch.entry(k))));
        if (responses[index].status == ResponseStatus::kError) continue;
        std::lock_guard<std::mutex> lock(mutex_);
        cache_insert(keys[index], responses[index]);
      }
    } catch (const std::exception& e) {
      // Construction-time failure (e.g. an invalid spec) fails the whole
      // partition: no point evaluated.
      for (std::size_t index : partition) {
        responses[index].status = ResponseStatus::kError;
        responses[index].error = e.what();
      }
    }
    for (std::size_t index : partition) resolved[index] = 1;
  }

  // In-batch duplicates share their leader's outcome (entry pointers are
  // immutable once published, exactly like coalesced submits).
  std::size_t errors = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!resolved[i]) responses[i] = responses[leader_by_key.at(keys[i])];
    if (responses[i].status == ResponseStatus::kError) ++errors;
  }

  registry_.counter("serve.batch.cache_hits").add(cache_hits);
  registry_.counter("serve.batch.evaluated").add(stats.points);
  registry_.counter("serve.batch.errors").add(errors);
  registry_.counter("serve.batch.groups").add(stats.groups);
  registry_.counter("serve.batch.grouped_points").add(stats.grouped_points);
  registry_.counter("serve.batch.panel_columns").add(stats.panel_columns);
  registry_.counter("serve.batch.deduped_solves").add(stats.deduped_solves);
  registry_.latency_histogram("serve.batch.latency_seconds")
      .record(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count());
  return responses;
}

io::Value to_json(const TransientServiceResponse& response) {
  io::Value v = io::Value::object();
  v.set("status", to_string(response.status));
  v.set("schema_version", io::kSchemaVersion);
  if (!response.error.empty()) v.set("error", response.error);
  if (response.report != nullptr) {
    v.set("result", io::to_json(*response.report));
  }
  return v;
}

TransientServiceResponse EvaluationService::run_transient(
    const io::TransientRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  const obs::WorkAccount::Scope account_scope(&account_);
  registry_.counter("serve.transient.requests").add(1);
  TransientServiceResponse response;
  try {
    DroopCampaignConfig config = request.config;
    // Campaign DC sweeps share the service's mesh cache, so repeated
    // campaigns over one geometry reuse assembled operators like the
    // point-evaluation path does.
    if (config.sweep.cache == nullptr) config.sweep.cache = &mesh_cache_;
    const DroopCampaignRunner runner(request.spec, config);
    auto report = std::make_shared<DroopCampaignReport>(
        runner.run(request.architecture, request.topology, request.tech,
                   request.options));
    registry_.counter("serve.transient.scenarios")
        .add(report->scenario_count());
    registry_.counter("serve.transient.steps").add(report->transient_steps);
    response.status = ResponseStatus::kOk;
    response.report = std::move(report);
  } catch (const InfeasibleDesign& e) {
    response.status = ResponseStatus::kExcluded;
    response.error = e.what();
  } catch (const std::exception& e) {
    registry_.counter("serve.transient.errors").add(1);
    response.status = ResponseStatus::kError;
    response.error = e.what();
  }
  registry_.latency_histogram("serve.transient.latency_seconds")
      .record(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count());
  return response;
}

io::Value to_json(const OptimizeServiceResponse& response) {
  io::Value v = io::Value::object();
  v.set("status", to_string(response.status));
  v.set("schema_version", io::kSchemaVersion);
  if (!response.error.empty()) v.set("error", response.error);
  if (response.report != nullptr) {
    v.set("result", io::to_json(*response.report));
  }
  return v;
}

OptimizeServiceResponse EvaluationService::run_optimize(
    const io::OptimizeRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  const obs::WorkAccount::Scope account_scope(&account_);
  registry_.counter("serve.optimize.requests").add(1);
  OptimizeServiceResponse response;
  try {
    opt::OptimizerConfig config = request.config;
    // Optimizer evaluation batches and survivability campaigns share the
    // service's mesh cache, so repeated runs over one geometry family
    // reuse assembled operators like the point-evaluation path does.
    if (config.sweep.cache == nullptr) config.sweep.cache = &mesh_cache_;
    const opt::DesignOptimizer optimizer(request.spec, request.space,
                                         std::move(config));
    auto report = std::make_shared<opt::OptimizeReport>(optimizer.run());
    registry_.counter("serve.optimize.evaluations").add(report->evaluations);
    registry_.counter("serve.optimize.fault_campaigns")
        .add(report->fault_campaigns);
    response.status = ResponseStatus::kOk;
    response.report = std::move(report);
  } catch (const std::exception& e) {
    registry_.counter("serve.optimize.errors").add(1);
    response.status = ResponseStatus::kError;
    response.error = e.what();
  }
  registry_.latency_histogram("serve.optimize.latency_seconds")
      .record(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count());
  return response;
}

void EvaluationService::wait_idle() { pool_.wait_idle(); }

std::shared_future<ServiceResponse> EvaluationService::submit(
    const io::EvaluationRequest& request) {
  const auto now = std::chrono::steady_clock::now();
  const auto ready = [](ServiceResponse response) {
    std::promise<ServiceResponse> p;
    p.set_value(std::move(response));
    return std::shared_future<ServiceResponse>(p.get_future());
  };

  // Canonicalization exercises the same validation the schema applies to
  // wire requests (e.g. a sink_map callback is not representable).
  std::string key;
  try {
    key = io::canonical_request_key(request);
  } catch (const Error& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.requests;
    ++counters_.completed;
    ++counters_.errors;
    record_latency(now);
    ServiceResponse response;
    response.status = ResponseStatus::kError;
    response.error = e.what();
    return ready(std::move(response));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.requests;

  if (ServiceResponse hit; cache_lookup(key, hit)) {
    ++counters_.result_cache_hits;
    ++counters_.completed;
    record_latency(now);
    return ready(std::move(hit));
  }
  ++counters_.result_cache_misses;

  if (auto it = inflight_.find(key); it != inflight_.end()) {
    ++counters_.coalesced;
    it->second->submitted.push_back(now);
    return it->second->future;
  }

  if (pending_ >= config_.queue_capacity) {
    ++counters_.rejected;
    ServiceResponse response;
    response.status = ResponseStatus::kRejected;
    response.error = "queue full (capacity " +
                     std::to_string(config_.queue_capacity) + ")";
    return ready(std::move(response));
  }

  auto entry = std::make_shared<InFlight>();
  entry->future = entry->promise.get_future().share();
  entry->submitted.push_back(now);
  inflight_.emplace(key, entry);
  ++pending_;
  counters_.queue_high_water = std::max(counters_.queue_high_water, pending_);
  // Depth instruments: the gauge tracks the point-in-time level (its high
  // water preserves the peak) and the histogram the depth distribution at
  // admission, so backpressure onset stays visible after the fact.
  queue_depth_gauge_.set(static_cast<double>(pending_));
  queue_depth_hist_.record(static_cast<double>(pending_));

  const obs::WorkAccount::Scope account_scope(&account_);
  pool_.submit([this, key, request] { run_evaluation(key, request); });
  return entry->future;
}

void EvaluationService::run_evaluation(std::string key,
                                       io::EvaluationRequest request) {
  const auto start = std::chrono::steady_clock::now();
  // Queue wait of the original submitter (coalesced waiters joined later;
  // their extra wait is covered by the latency metric).
  std::chrono::steady_clock::time_point submitted = start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = inflight_.find(key); it != inflight_.end() &&
                                       !it->second->submitted.empty()) {
      submitted = it->second->submitted.front();
    }
  }

  obs::Span span("serve.request");
  obs::record_span("serve.queue_wait", span.context(), submitted, start);

  ServiceResponse response;
  response.timings.queue_seconds =
      std::chrono::duration<double>(start - submitted).count();
  // The request's own account, nested in the service's: its mesh and
  // solve stage times become the response timings.
  obs::WorkAccount request_account(&account_);
  std::shared_ptr<const ExplorationEntry> result;
  try {
    request.options.mesh_cache = &mesh_cache_;
    request.options.trace = span.context();
    const obs::WorkAccount::Scope account_scope(&request_account);
    result = std::make_shared<const ExplorationEntry>(evaluate_with_exclusion(
        request.spec, request.architecture, request.topology, request.tech,
        request.options));
  } catch (const std::exception& e) {
    response.status = ResponseStatus::kError;
    response.error = e.what();
  } catch (...) {
    response.status = ResponseStatus::kError;
    response.error = "unknown evaluation failure";
  }
  response.timings.mesh_seconds =
      request_account.seconds(obs::Work::kMeshNanoseconds);
  response.timings.solve_seconds =
      request_account.seconds(obs::Work::kSolveNanoseconds);
  response.timings.evaluate_seconds = seconds_since(start);
  // Encoded here, once, so hits and coalesced waiters serve these bytes.
  if (result != nullptr) publish(response, std::move(result));
  queue_wait_hist_.record(response.timings.queue_seconds);
  mesh_stage_hist_.record(response.timings.mesh_seconds);
  solve_stage_hist_.record(response.timings.solve_seconds);
  evaluate_stage_hist_.record(response.timings.evaluate_seconds);

  const double request_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    submitted)
          .count();
  const bool slow = config_.slow_request_seconds > 0.0 &&
                    request_seconds >= config_.slow_request_seconds;

  std::shared_ptr<InFlight> flight;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find(key);
    flight = it->second;
    inflight_.erase(it);
    --pending_;
    queue_depth_gauge_.set(static_cast<double>(pending_));
    ++counters_.evaluated;
    if (slow) ++counters_.slow_requests;
    counters_.completed += flight->submitted.size();
    if (response.status == ResponseStatus::kError) {
      counters_.errors += flight->submitted.size();
    } else {
      cache_insert(key, response);
    }
    for (const auto& waiter_submitted : flight->submitted) {
      record_latency(waiter_submitted);
    }
  }
  if (slow) log_slow_request(key, request_seconds, response.timings);
  // Publish outside the lock: promise consumers may run arbitrary code.
  flight->promise.set_value(std::move(response));
}

void EvaluationService::log_slow_request(const std::string& key,
                                         double seconds,
                                         const obs::StageTimings& timings) {
  // One parseable line with the stage breakdown, so "where did this slow
  // request spend its time" is answerable from the log alone.
  io::Value line = io::Value::object();
  line.set("slow_request", key);
  line.set("seconds", seconds);
  line.set("queue_seconds", timings.queue_seconds);
  line.set("mesh_seconds", timings.mesh_seconds);
  line.set("solve_seconds", timings.solve_seconds);
  line.set("evaluate_seconds", timings.evaluate_seconds);
  const std::string text = io::dump(line);
  if (config_.slow_request_sink) {
    config_.slow_request_sink(text);
  } else {
    std::fprintf(stderr, "%s\n", text.c_str());
  }
}

void EvaluationService::cache_insert(const std::string& key,
                                     const ServiceResponse& response) {
  if (config_.result_cache_capacity == 0) return;
  lru_.emplace_front(key, CachedResult{response.entry, response.result_json});
  lru_index_[key] = lru_.begin();
  if (lru_.size() > config_.result_cache_capacity) {
    lru_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  counters_.result_cache_size = lru_.size();
}

bool EvaluationService::cache_lookup(const std::string& key,
                                     ServiceResponse& response) {
  auto it = lru_index_.find(key);
  if (it == lru_index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  const CachedResult& cached = lru_.front().second;
  response.status = cached.entry->excluded() ? ResponseStatus::kExcluded
                                             : ResponseStatus::kOk;
  response.entry = cached.entry;
  response.result_json = cached.json;
  response.from_cache = true;
  return true;
}

void EvaluationService::record_latency(
    std::chrono::steady_clock::time_point submitted) {
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    submitted)
          .count();
  latency_stats_.add(seconds);
  latency_hist_.record(seconds);
}

ServiceMetrics EvaluationService::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceMetrics m = counters_;
  m.threads = pool_.thread_count();
  m.result_cache_size = lru_.size();
  m.latency_samples = latency_stats_.count();
  if (latency_stats_.count() > 0) {
    m.latency_min_seconds = latency_stats_.min();
    m.latency_mean_seconds = latency_stats_.mean();
    m.latency_max_seconds = latency_stats_.max();
    // Bucket-interpolated from the latency histogram (exact at the
    // recorded min/max): memory stays O(buckets) for unbounded request
    // streams, where a per-request sample vector would grow forever.
    m.latency_p99_seconds = latency_hist_.data().quantile(0.99);
  }
  m.mesh_cache = mesh_cache_.stats();
  m.solver = solver_counters(account_);

  // Unified shape: registry instruments (histograms + queue gauge) plus
  // the mutex-guarded counters, mesh-cache stats and the service's solver
  // work, all under one namespace-per-subsystem naming scheme.
  m.observability = registry_.snapshot();
  m.observability.set_counter("serve.requests", m.requests);
  m.observability.set_counter("serve.completed", m.completed);
  m.observability.set_counter("serve.rejected", m.rejected);
  m.observability.set_counter("serve.errors", m.errors);
  m.observability.set_counter("serve.evaluated", m.evaluated);
  m.observability.set_counter("serve.coalesced", m.coalesced);
  m.observability.set_counter("serve.result_cache_hits", m.result_cache_hits);
  m.observability.set_counter("serve.result_cache_misses",
                              m.result_cache_misses);
  m.observability.set_counter("serve.result_cache_size", m.result_cache_size);
  m.observability.set_counter("serve.slow_requests", m.slow_requests);
  m.observability.set_counter("serve.threads", m.threads);
  m.observability.set_counter("mesh_cache.hits", m.mesh_cache.hits);
  m.observability.set_counter("mesh_cache.misses", m.mesh_cache.misses);
  set_solver_counters(m.observability, m.solver);
  return m;
}

}  // namespace serve
}  // namespace vpd
