// Process-wide observability: named counters, gauges and fixed-bucket
// histograms behind one thread-safe Registry, snapshotted into the single
// canonical telemetry JSON shape every subsystem emits (the serve metrics
// endpoint, sweep and fault-campaign reports, and the --json benches all
// speak obs::Snapshot::to_json()). Like the paper's per-packaging-level
// loss breakdown, the serving stack gets one per-stage decomposition of
// work and latency instead of three hand-rolled metric shapes.
//
// Instruments are lock-free after registration (relaxed atomics; metrics
// are monitoring data, not synchronization), registration serializes on
// one mutex, and references returned by the Registry stay valid for the
// Registry's lifetime. Nothing in this module ever influences numerical
// results: metrics are write-only from the evaluation paths.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "vpd/io/json.hpp"

namespace vpd {
namespace obs {

/// Version of the unified telemetry JSON shape (and of the wire schema at
/// large; see io::kSchemaVersion, which mirrors this).
inline constexpr int kTelemetrySchemaVersion = 2;

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level with a high-water mark, so transient peaks (queue
/// depth at backpressure onset) stay visible after the fact.
class Gauge {
 public:
  void set(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }
  double high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<double> high_water_{0.0};
};

/// Plain histogram contents: `bounds` are ascending bucket upper bounds,
/// `counts` has bounds.size() + 1 entries (the last is the overflow
/// bucket). Used both as the snapshot form of a live Histogram and as a
/// builder for report-side histograms (e.g. per-point sweep wall times).
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count{0};
  double sum{0.0};
  double min{0.0};
  double max{0.0};

  HistogramData() = default;
  explicit HistogramData(std::vector<double> bucket_bounds);

  void record(double value);
  double mean() const { return count == 0 ? 0.0 : sum / double(count); }
  /// Bucket-interpolated quantile (q in [0, 1]); exact at the recorded
  /// min/max, linear within a bucket.
  double quantile(double q) const;
};

/// Thread-safe fixed-bucket histogram. Bucket bounds are fixed at
/// registration; record() is a relaxed atomic bump per sample.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double value);
  HistogramData data() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Log-spaced latency bucket bounds, 1 us .. ~100 s. The default for every
/// duration-valued histogram so shapes compare across subsystems.
std::vector<double> default_latency_bounds();
/// Power-of-two depth/count bounds, 1 .. 4096 (queue depths, batch sizes).
std::vector<double> default_depth_bounds();

/// Immutable capture of a metric set, and the one canonical telemetry
/// JSON shape:
///   {"schema_version": 2,
///    "counters":   {"name": n, ...},
///    "gauges":     {"name": {"value": v, "high_water": h}, ...},
///    "histograms": {"name": {"count": n, "sum": s, "min": .., "max": ..,
///                            "mean": .., "p50": .., "p90": .., "p99": ..,
///                            "buckets": [{"le": bound, "count": n}, ...,
///                                        {"le": null, "count": n}]}, ...}}
/// Entries keep insertion order, so dumps are deterministic for a
/// deterministic construction order. Consumers merge subsystem snapshots
/// (service + mesh cache + solver) into one document.
class Snapshot {
 public:
  void set_counter(std::string name, std::uint64_t value);
  void set_gauge(std::string name, double value, double high_water);
  void set_histogram(std::string name, HistogramData data);
  /// Copies every entry of `other` into this snapshot (same-name entries
  /// are overwritten in place). Use for layering subsystem snapshots whose
  /// names describe the same instruments (e.g. a report refreshing its own
  /// counters); use merge() to aggregate across independent processes.
  void overlay(const Snapshot& other);
  /// Aggregates `other` into this snapshot as an independent peer (the
  /// fleet rule): same-name counters sum, same-name gauges take the max of
  /// value and of high_water (a fleet's level is its busiest member's),
  /// and same-name histograms merge exactly bucket-by-bucket — counts and
  /// sums add, min/max combine — which requires identical bucket bounds;
  /// mismatched bounds throw InvalidArgument rather than approximating.
  void merge(const Snapshot& other);

  /// Lookup helpers (nullptr when absent), mainly for tests.
  const std::uint64_t* counter(std::string_view name) const;
  const std::pair<double, double>* gauge(std::string_view name) const;
  const HistogramData* histogram(std::string_view name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  io::Value to_json() const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  // (name, (value, high_water))
  std::vector<std::pair<std::string, std::pair<double, double>>> gauges_;
  std::vector<std::pair<std::string, HistogramData>> histograms_;
};

/// Rebuilds a Snapshot from its to_json() document (the reverse wire
/// direction: a fleet router parsing per-shard {"cmd":"metrics"} replies).
/// The document must carry "schema_version" equal to
/// kTelemetrySchemaVersion — a missing or mismatched version throws
/// InvalidArgument (aggregating across telemetry schemas would silently
/// mix shapes). Unknown members are ignored (the v2 rule); derived
/// histogram fields (mean/p50/p90/p99) are recomputed, not trusted.
Snapshot snapshot_from_json(const io::Value& v);

/// Named-instrument registry. counter()/gauge()/histogram() find or create
/// (first registration wins the histogram bounds) and return a reference
/// that stays valid for the Registry's lifetime; snapshot() captures every
/// instrument in name order.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);
  /// Duration-valued histogram with default_latency_bounds().
  Histogram& latency_histogram(std::string_view name);

  Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace obs
}  // namespace vpd
