// Long-lived evaluation service: the process-resident answer to "query
// the same PDN model many times fast". Owns a worker pool and one shared
// MeshSolveCache so mesh operators are assembled once per geometry across
// the whole request stream, accepts requests through a bounded queue with
// explicit backpressure (a full queue rejects immediately with a status —
// it never blocks the submitter), coalesces duplicate in-flight design
// points onto a single evaluation, and keeps an LRU cache of completed
// results keyed by the canonical serialized request.
//
// Determinism contract (same spirit as the sweep and fault subsystems):
// the response for a request is bit-identical to a serial
// evaluate_with_exclusion() of the same request, regardless of
// concurrency, coalescing, or cache state — evaluations are pure
// functions of the request, cached mesh operators are numerically
// identical to per-call assembly, and cached/coalesced responses share
// the one result object that evaluation produced and the bytes it was
// encoded to when published. Only latency and from_cache metadata vary
// run to run.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "vpd/common/statistics.hpp"
#include "vpd/core/explorer.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/package/mesh_cache.hpp"
#include "vpd/sweep/thread_pool.hpp"

namespace vpd {
namespace serve {

enum class ResponseStatus {
  kOk,        // evaluation available in `entry`
  kExcluded,  // the paper's exclusion rule applied (entry holds details)
  kRejected,  // bounded queue full — resubmit later
  kError,     // invalid request or evaluation failure (see `error`)
};

const char* to_string(ResponseStatus status);

struct ServiceConfig {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  std::size_t threads{0};
  /// Maximum in-flight (queued + executing) evaluations. A submit that
  /// would exceed this resolves immediately to kRejected. Cache hits and
  /// coalesced submits do not consume queue slots.
  std::size_t queue_capacity{256};
  /// Completed-result LRU entries keyed by canonical request; 0 disables
  /// result caching (every distinct submit evaluates).
  std::size_t result_cache_capacity{1024};
  /// Evaluated requests whose submit-to-resolve latency exceeds this are
  /// counted in ServiceMetrics::slow_requests and reported through
  /// `slow_request_sink` with their stage breakdown. 0 (the default)
  /// disables the slow-request log.
  double slow_request_seconds{0.0};
  /// Destination for slow-request log lines; nullptr writes to stderr.
  /// Called outside the service lock, possibly from multiple workers.
  std::function<void(const std::string& line)> slow_request_sink;
};

struct ServiceResponse {
  ResponseStatus status{ResponseStatus::kError};
  /// Populated for kError / kRejected.
  std::string error;
  /// Populated for kOk / kExcluded; shared with the result cache and any
  /// coalesced waiters (immutable once published).
  std::shared_ptr<const ExplorationEntry> entry;
  /// io::dump(io::to_json(*entry)), encoded once when the service
  /// published the result and shared, like `entry`, by the result cache
  /// and every response that carries it. to_json(ServiceResponse) writes
  /// these bytes as "result"; when they are absent (a response built by
  /// hand) it encodes `entry` instead.
  std::shared_ptr<const std::string> result_json;
  /// True when served from the completed-result LRU without evaluating.
  bool from_cache{false};
  /// Where this request spent its wall time (queue wait, mesh get/build,
  /// CG solve, whole evaluator run, result encode). queue/mesh/solve/
  /// evaluate are zero for cache hits, rejections and request errors —
  /// nothing was queued or evaluated. serialize is the one-time result
  /// encode on the response that published the result (shared by its
  /// coalesced waiters and in-batch duplicates) and zero on cache hits;
  /// to_json(ServiceResponse) adds the time it spends building the body.
  /// Timings are measurements only: they never affect the result.
  obs::StageTimings timings;
};

/// Point-in-time service counters. Latency covers every resolved request
/// (cache hits included, rejects excluded), measured submit-to-resolve.
struct ServiceMetrics {
  std::size_t requests{0};        // submits accepted into any path
  std::size_t completed{0};       // responses resolved (incl. errors)
  std::size_t rejected{0};        // backpressure rejections
  std::size_t errors{0};          // kError responses
  std::size_t evaluated{0};       // actual evaluator runs
  std::size_t coalesced{0};       // submits attached to an in-flight twin
  std::size_t result_cache_hits{0};
  std::size_t result_cache_misses{0};
  std::size_t result_cache_size{0};
  std::size_t queue_high_water{0};  // max in-flight depth observed
  std::size_t threads{0};
  std::size_t latency_samples{0};
  double latency_min_seconds{0.0};
  double latency_mean_seconds{0.0};
  double latency_max_seconds{0.0};
  double latency_p99_seconds{0.0};
  MeshSolveCache::Stats mesh_cache;
  /// This service's solver work since construction, across every verb
  /// (the service's work account): other work in the process never
  /// counts here, and cache hits add nothing.
  SolverCounters solver;
  /// Evaluated requests over config.slow_request_seconds (0 when the slow
  /// log is disabled).
  std::size_t slow_requests{0};
  /// The same metrics in the unified telemetry shape: serve.* counters,
  /// the serve.queue_depth gauge (+ high water), and the latency, stage
  /// and queue-depth histograms kept by the service registry, merged with
  /// mesh_cache.* and solver.* counters. to_json(ServiceMetrics) is
  /// exactly this snapshot's JSON — the pre-v2 flat aliases were removed
  /// after their one-release deprecation window (docs/observability.md).
  obs::Snapshot observability;

  double result_cache_hit_rate() const;
  double mesh_cache_hit_rate() const;
};

/// One resolved droop-campaign request (the {"cmd":"transient"} verb).
/// Campaigns run synchronously on the caller's thread — their inner
/// parallelism lives on the campaign's own pool — sharing the service's
/// mesh cache, and are not queued, coalesced or result-cached (a campaign
/// is thousands of solves, not a cacheable point lookup).
struct TransientServiceResponse {
  ResponseStatus status{ResponseStatus::kError};
  /// Populated for kError (bad request / integration failure) and
  /// kExcluded (the nominal design point is excluded outright).
  std::string error;
  /// Populated for kOk.
  std::shared_ptr<const DroopCampaignReport> report;
};

/// One resolved design-space optimization request (the
/// {"cmd":"optimize"} verb). Like transient campaigns, optimizer runs
/// execute synchronously on the caller's thread — their inner
/// parallelism lives on the optimizer's own pool — share the service's
/// mesh cache, and are not queued, coalesced or result-cached (a run is
/// hundreds of evaluations, not a cacheable point lookup).
struct OptimizeServiceResponse {
  ResponseStatus status{ResponseStatus::kError};
  /// Populated for kError (bad request / search failure).
  std::string error;
  /// Populated for kOk.
  std::shared_ptr<const opt::OptimizeReport> report;
};

/// Unified telemetry shape: exactly metrics.observability.to_json(). The
/// pre-v2 flat keys — requests/completed/.../latency/mesh_cache/solver —
/// were deprecated aliases for one release and are no longer emitted.
io::Value to_json(const ServiceMetrics& metrics);
/// Wire body for a transient response: status, schema_version, error, and
/// the report (with its own observability member) when kOk.
io::Value to_json(const TransientServiceResponse& response);
/// Wire body for an optimize response, same shape as the transient one.
io::Value to_json(const OptimizeServiceResponse& response);
/// Full wire response body (status, schema_version, error, result,
/// from_cache, timings). The daemon prepends the client's request id.
/// "result" is response.result_json as an encoded value when present, so
/// serving a published result re-encodes nothing. The serialized
/// "timings.serialize_seconds" is response.timings.serialize_seconds plus
/// the time spent building the body itself.
io::Value to_json(const ServiceResponse& response);

class EvaluationService {
 public:
  explicit EvaluationService(ServiceConfig config = {});
  /// Waits for in-flight evaluations, then joins the workers.
  ~EvaluationService();

  EvaluationService(const EvaluationService&) = delete;
  EvaluationService& operator=(const EvaluationService&) = delete;

  /// Never blocks: the future resolves immediately for cache hits,
  /// rejections and request errors, and on evaluation completion
  /// otherwise. Coalesced duplicates share one future.
  std::shared_future<ServiceResponse> submit(
      const io::EvaluationRequest& request);

  /// Convenience: submit + get.
  ServiceResponse evaluate(const io::EvaluationRequest& request);

  /// Batch-first evaluation (the {"cmd":"evaluate_batch"} verb): resolves
  /// every request and returns responses in input order. Result-cache
  /// hits and in-batch duplicates (equal canonical keys) share one entry;
  /// the rest route through the batch evaluation engine (core/batch.hpp)
  /// synchronously on the caller's thread — same-operator requests solve
  /// against one stamped operator — grouped per distinct spec, against
  /// the service's shared mesh cache. Each response is bit-identical to a
  /// lone evaluate() of its request. Not queued or coalesced with
  /// submit() traffic; records serve.batch.* instruments.
  std::vector<ServiceResponse> evaluate_batch(
      const std::vector<io::EvaluationRequest>& requests);

  /// Runs a droop campaign synchronously against the service's shared
  /// mesh cache, recording serve.transient.* instruments (request /
  /// scenario / step counters and the campaign latency histogram) in the
  /// service registry. Deterministic like evaluate(): the report is
  /// bit-identical to running the campaign standalone.
  TransientServiceResponse run_transient(const io::TransientRequest& request);

  /// Runs a design-space optimization synchronously against the service's
  /// shared mesh cache, recording serve.optimize.* instruments (request /
  /// evaluation / campaign counters and the run latency histogram) in the
  /// service registry. Deterministic like evaluate(): the report is
  /// bit-identical to running the optimizer standalone with the same seed.
  OptimizeServiceResponse run_optimize(const io::OptimizeRequest& request);

  /// Blocks until every accepted request has resolved.
  void wait_idle();

  ServiceMetrics metrics() const;
  io::Value metrics_json() const { return to_json(metrics()); }

  /// The service's instrument registry (latency/stage/queue histograms and
  /// the queue-depth gauge). Exposed for tests and embedding processes
  /// that want to add their own instruments to the same snapshot.
  obs::Registry& registry() { return registry_; }

  std::size_t thread_count() const { return pool_.thread_count(); }
  const ServiceConfig& config() const { return config_; }

 private:
  struct InFlight {
    std::promise<ServiceResponse> promise;
    std::shared_future<ServiceResponse> future;
    /// Submit timestamps of the original and every coalesced waiter, for
    /// per-request latency accounting.
    std::vector<std::chrono::steady_clock::time_point> submitted;
  };

  /// A published result as the LRU keeps it: the entry and its encoding.
  struct CachedResult {
    std::shared_ptr<const ExplorationEntry> entry;
    std::shared_ptr<const std::string> json;
  };

  void run_evaluation(std::string key, io::EvaluationRequest request);
  /// Stores `response`'s published result. Caller holds mutex_.
  void cache_insert(const std::string& key, const ServiceResponse& response);
  /// On a hit, refreshes its recency and fills `response` as a from_cache
  /// answer sharing the cached entry and bytes. Caller holds mutex_.
  bool cache_lookup(const std::string& key, ServiceResponse& response);
  void record_latency(std::chrono::steady_clock::time_point submitted);

  void log_slow_request(const std::string& key, double seconds,
                        const obs::StageTimings& timings);

  ServiceConfig config_;
  /// Root account of all this service's work: every verb and pool task
  /// runs under it (never a caller's account), and it outlives pool_.
  obs::WorkAccount account_{nullptr};
  MeshSolveCache mesh_cache_;
  /// Service-scoped instruments. References resolved once in the
  /// constructor; instruments are lock-free to update afterwards.
  obs::Registry registry_;
  obs::Histogram& latency_hist_;
  obs::Histogram& queue_wait_hist_;
  obs::Histogram& mesh_stage_hist_;
  obs::Histogram& solve_stage_hist_;
  obs::Histogram& evaluate_stage_hist_;
  obs::Histogram& queue_depth_hist_;
  obs::Gauge& queue_depth_gauge_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  /// LRU: most recent at the front; index maps key -> list node.
  std::list<std::pair<std::string, CachedResult>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> lru_index_;
  std::size_t pending_{0};  // queued + executing evaluations
  ServiceMetrics counters_;  // latency fields filled lazily by metrics()
  /// Latency accounting is bounded-memory by design (a daemon serves an
  /// unbounded request stream): running min/mean/max plus the fixed
  /// bucket histogram, whose interpolated quantile provides p99.
  RunningStats latency_stats_;

  /// Last member: destroyed first, so worker tasks never outlive the
  /// state they reference.
  ThreadPool pool_;
};

}  // namespace serve
}  // namespace vpd
