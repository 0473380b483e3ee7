#include "vpd/obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vpd {
namespace obs {

namespace {

/// Relaxed CAS add/max for doubles (std::atomic<double>::fetch_add is
/// C++20 but not universally lock-free; the CAS loop is portable and these
/// are monitoring counters, not hot math).
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (current > value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- Gauge -----------------------------------------------------------------

void Gauge::set(double value) {
  value_.store(value, std::memory_order_relaxed);
  atomic_max(high_water_, value);
}

// --- HistogramData ---------------------------------------------------------

HistogramData::HistogramData(std::vector<double> bucket_bounds)
    : bounds(std::move(bucket_bounds)), counts(bounds.size() + 1, 0) {}

void HistogramData::record(double value) {
  if (counts.size() != bounds.size() + 1) counts.assign(bounds.size() + 1, 0);
  const std::size_t bucket =
      std::upper_bound(bounds.begin(), bounds.end(), value) - bounds.begin();
  ++counts[bucket];
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t next = cumulative + counts[b];
    if (static_cast<double>(next) >= target) {
      // Interpolate within the bucket, clamped to the observed range.
      const double lo = std::max(b == 0 ? min : bounds[b - 1], min);
      const double hi = std::min(b < bounds.size() ? bounds[b] : max, max);
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[b]);
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
    cumulative = next;
  }
  return max;
}

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void Histogram::record(double value) {
  const std::size_t bucket =
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

HistogramData Histogram::data() const {
  HistogramData d(bounds_);
  d.count = count_.load(std::memory_order_relaxed);
  d.sum = sum_.load(std::memory_order_relaxed);
  d.min = d.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  d.max = d.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    d.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return d;
}

std::vector<double> default_latency_bounds() {
  // 1 us .. ~100 s in half-decade steps: coarse enough to stay cheap,
  // fine enough that queue-wait vs solve-time shifts are visible.
  std::vector<double> bounds;
  double decade = 1e-6;
  for (int i = 0; i < 8; ++i) {
    bounds.push_back(decade);
    bounds.push_back(3.16227766016838e0 * decade);  // sqrt(10) step
    decade *= 10.0;
  }
  return bounds;
}

std::vector<double> default_depth_bounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 4096.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

// --- Snapshot --------------------------------------------------------------

namespace {

template <typename Entries, typename V>
void set_entry(Entries& entries, std::string name, V value) {
  for (auto& [existing, slot] : entries) {
    if (existing == name) {
      slot = std::move(value);
      return;
    }
  }
  entries.emplace_back(std::move(name), std::move(value));
}

template <typename Entries>
auto find_entry(const Entries& entries, std::string_view name)
    -> decltype(&entries.front().second) {
  for (const auto& [existing, slot] : entries) {
    if (existing == name) return &slot;
  }
  return nullptr;
}

}  // namespace

void Snapshot::set_counter(std::string name, std::uint64_t value) {
  set_entry(counters_, std::move(name), value);
}

void Snapshot::set_gauge(std::string name, double value, double high_water) {
  set_entry(gauges_, std::move(name), std::make_pair(value, high_water));
}

void Snapshot::set_histogram(std::string name, HistogramData data) {
  set_entry(histograms_, std::move(name), std::move(data));
}

void Snapshot::overlay(const Snapshot& other) {
  for (const auto& [name, value] : other.counters_) set_counter(name, value);
  for (const auto& [name, value] : other.gauges_) {
    set_gauge(name, value.first, value.second);
  }
  for (const auto& [name, value] : other.histograms_) {
    set_histogram(name, value);
  }
}

void Snapshot::merge(const Snapshot& other) {
  for (const auto& [name, value] : other.counters_) {
    if (const std::uint64_t* existing = counter(name)) {
      set_counter(name, *existing + value);
    } else {
      set_counter(name, value);
    }
  }
  for (const auto& [name, value] : other.gauges_) {
    if (const std::pair<double, double>* existing = gauge(name)) {
      set_gauge(name, std::max(existing->first, value.first),
                std::max(existing->second, value.second));
    } else {
      set_gauge(name, value.first, value.second);
    }
  }
  for (const auto& [name, data] : other.histograms_) {
    const HistogramData* existing = histogram(name);
    if (existing == nullptr) {
      set_histogram(name, data);
      continue;
    }
    VPD_REQUIRE(existing->bounds == data.bounds,
                "Snapshot::merge: histogram \"", name,
                "\" bucket bounds differ between snapshots");
    HistogramData merged = *existing;
    for (std::size_t b = 0; b < merged.counts.size(); ++b) {
      merged.counts[b] += data.counts[b];
    }
    // min/max only mean anything on the side that has samples.
    if (merged.count == 0) {
      merged.min = data.min;
      merged.max = data.max;
    } else if (data.count > 0) {
      merged.min = std::min(merged.min, data.min);
      merged.max = std::max(merged.max, data.max);
    }
    merged.count += data.count;
    merged.sum += data.sum;
    set_histogram(name, std::move(merged));
  }
}

Snapshot snapshot_from_json(const io::Value& v) {
  VPD_REQUIRE(v.is_object(), "telemetry snapshot must be a JSON object");
  const io::Value* version = v.find("schema_version");
  VPD_REQUIRE(version != nullptr,
              "telemetry snapshot is missing schema_version");
  VPD_REQUIRE(version->is_number() &&
                  version->as_number() == double(kTelemetrySchemaVersion),
              "telemetry snapshot schema_version mismatch (expected ",
              kTelemetrySchemaVersion, ")");
  Snapshot s;
  if (const io::Value* counters = v.find("counters")) {
    for (const auto& [name, value] : counters->as_object()) {
      s.set_counter(name, static_cast<std::uint64_t>(value.as_number()));
    }
  }
  if (const io::Value* gauges = v.find("gauges")) {
    for (const auto& [name, value] : gauges->as_object()) {
      s.set_gauge(name, value.at("value").as_number(),
                  value.at("high_water").as_number());
    }
  }
  if (const io::Value* histograms = v.find("histograms")) {
    for (const auto& [name, value] : histograms->as_object()) {
      HistogramData data;
      for (const io::Value& bucket : value.at("buckets").as_array()) {
        const io::Value& le = bucket.at("le");
        if (!le.is_null()) data.bounds.push_back(le.as_number());
        data.counts.push_back(
            static_cast<std::uint64_t>(bucket.at("count").as_number()));
      }
      VPD_REQUIRE(data.counts.size() == data.bounds.size() + 1,
                  "histogram \"", name,
                  "\" must end with the null-bound overflow bucket");
      data.count = static_cast<std::uint64_t>(value.at("count").as_number());
      data.sum = value.at("sum").as_number();
      data.min = value.at("min").as_number();
      data.max = value.at("max").as_number();
      s.set_histogram(name, std::move(data));
    }
  }
  return s;
}

const std::uint64_t* Snapshot::counter(std::string_view name) const {
  return find_entry(counters_, name);
}

const std::pair<double, double>* Snapshot::gauge(std::string_view name) const {
  return find_entry(gauges_, name);
}

const HistogramData* Snapshot::histogram(std::string_view name) const {
  return find_entry(histograms_, name);
}

io::Value Snapshot::to_json() const {
  io::Value v = io::Value::object();
  v.set("schema_version", kTelemetrySchemaVersion);
  io::Value counters = io::Value::object();
  for (const auto& [name, value] : counters_) counters.set(name, value);
  v.set("counters", std::move(counters));
  io::Value gauges = io::Value::object();
  for (const auto& [name, value] : gauges_) {
    io::Value g = io::Value::object();
    g.set("value", value.first);
    g.set("high_water", value.second);
    gauges.set(name, std::move(g));
  }
  v.set("gauges", std::move(gauges));
  io::Value histograms = io::Value::object();
  for (const auto& [name, data] : histograms_) {
    io::Value h = io::Value::object();
    h.set("count", data.count);
    h.set("sum", data.sum);
    h.set("min", data.min);
    h.set("max", data.max);
    h.set("mean", data.mean());
    h.set("p50", data.quantile(0.50));
    h.set("p90", data.quantile(0.90));
    h.set("p99", data.quantile(0.99));
    io::Value buckets = io::Value::array();
    for (std::size_t b = 0; b < data.counts.size(); ++b) {
      io::Value bucket = io::Value::object();
      bucket.set("le", b < data.bounds.size() ? io::Value(data.bounds[b])
                                              : io::Value());
      bucket.set("count", data.counts[b]);
      buckets.push_back(std::move(bucket));
    }
    h.set("buckets", std::move(buckets));
    histograms.set(name, std::move(h));
  }
  v.set("histograms", std::move(histograms));
  return v;
}

// --- Registry --------------------------------------------------------------

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::latency_histogram(std::string_view name) {
  return histogram(name, default_latency_bounds());
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  for (const auto& [name, counter] : counters_) {
    s.set_counter(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    s.set_gauge(name, gauge->value(), gauge->high_water());
  }
  for (const auto& [name, histogram] : histograms_) {
    s.set_histogram(name, histogram->data());
  }
  return s;
}

}  // namespace obs
}  // namespace vpd
