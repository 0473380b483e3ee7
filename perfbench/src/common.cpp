#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "vpd/obs/trace.hpp"

namespace perfbench {

using vpd::io::Value;

void RunRecord::metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void RunRecord::count(const std::string& name, double value) {
  counts_.push_back({name, value});
}

void RunRecord::fail(const std::string& what) {
  ++failed_;
  // Keep the report readable when a systematic fault fails every check.
  if (problems_.size() < 20) problems_.push_back(what);
}

Value RunRecord::to_json(const std::vector<MetricSpec>& reported) const {
  Value metrics = Value::object();
  for (const MetricSpec& spec : reported) {
    const auto it = metrics_.find(spec.name);
    Value m = Value::object();
    m.set("value", it == metrics_.end() ? 0.0 : it->second);
    m.set("unit", spec.unit);
    metrics.set(spec.name, std::move(m));
  }
  Value counts = Value::object();
  for (const auto& [name, value] : counts_) counts.set(name, value);
  Value problems = Value::array();
  for (const std::string& p : problems_) problems.push_back(p);
  Value v = Value::object();
  v.set("correct", failed_ == 0);
  v.set("attempted", std::max<std::size_t>(attempted_, 1));
  v.set("failed", failed_);
  v.set("metrics", std::move(metrics));
  v.set("counts", std::move(counts));
  v.set("problems", std::move(problems));
  return v;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<SpanEvent> collect_spans() {
  if (vpd::obs::trace_events_dropped() > 0) {
    throw std::runtime_error("trace buffer overflowed");
  }
  const Value doc = vpd::obs::chrome_trace_json();
  const Value::Array& raw = doc.at("traceEvents").as_array();
  std::vector<SpanEvent> events;
  events.reserve(raw.size());
  std::unordered_map<double, std::size_t> by_id;
  std::vector<double> parents;
  for (const Value& e : raw) {
    SpanEvent event;
    event.name = e.at("name").as_string();
    event.dur_us = e.at("dur").as_number();
    double parent = 0.0;
    for (const auto& [key, value] : e.at("args").as_object()) {
      if (key == "span_id") {
        by_id[value.as_number()] = events.size();
      } else if (key == "parent_span_id") {
        parent = value.as_number();
      } else {
        event.args[key] = value.as_number();
      }
    }
    parents.push_back(parent);
    events.push_back(std::move(event));
  }
  std::vector<double> child_us(events.size(), 0.0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (parents[i] == 0.0) continue;
    const auto it = by_id.find(parents[i]);
    if (it != by_id.end()) child_us[it->second] += events[i].dur_us;
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].self_us = std::max(0.0, events[i].dur_us - child_us[i]);
  }
  return events;
}

void SpanTable::add(const std::vector<SpanEvent>& events) {
  events_.insert(events_.end(), events.begin(), events.end());
}

std::size_t SpanTable::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(),
      [&](const SpanEvent& e) { return e.name == name; }));
}

double SpanTable::mean_dur_us(const std::string& name) const {
  return mean_dur_us_where(name, "", 0.0);
}

double SpanTable::mean_self_us(const std::string& name) const {
  double total = 0.0;
  std::size_t n = 0;
  for (const SpanEvent& e : events_) {
    if (e.name != name) continue;
    total += e.self_us;
    ++n;
  }
  return ratio(total, static_cast<double>(n));
}

double SpanTable::arg_sum(const std::string& name,
                          const std::string& arg) const {
  double total = 0.0;
  for (const SpanEvent& e : events_) {
    if (e.name != name) continue;
    const auto it = e.args.find(arg);
    if (it != e.args.end()) total += it->second;
  }
  return total;
}

double SpanTable::mean_dur_us_where(const std::string& name,
                                    const std::string& arg,
                                    double min) const {
  double total = 0.0;
  std::size_t n = 0;
  for (const SpanEvent& e : events_) {
    if (e.name != name) continue;
    if (!arg.empty()) {
      const auto it = e.args.find(arg);
      if (it == e.args.end() || it->second < min) continue;
    }
    total += e.dur_us;
    ++n;
  }
  return ratio(total, static_cast<double>(n));
}

std::string compare_within(const Value& a, const Value& b, double rel_tol,
                           const std::string& path) {
  if (a.type() != b.type()) return path + " (type)";
  switch (a.type()) {
    case Value::Type::kNumber: {
      const double x = a.as_number();
      const double y = b.as_number();
      // Unit floor on the scale: quantities that are differences of
      // nearly equal values (a current spread, a small droop) carry the
      // absolute error of the values they were computed from.
      const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
      if (std::fabs(x - y) <= rel_tol * scale) return "";
      return path + " (" + vpd::io::dump_number(x) + " vs " +
             vpd::io::dump_number(y) + ")";
    }
    case Value::Type::kArray: {
      const Value::Array& xa = a.as_array();
      const Value::Array& ya = b.as_array();
      if (xa.size() != ya.size()) return path + " (length)";
      for (std::size_t i = 0; i < xa.size(); ++i) {
        std::string diff = compare_within(
            xa[i], ya[i], rel_tol, path + "[" + std::to_string(i) + "]");
        if (!diff.empty()) return diff;
      }
      return "";
    }
    case Value::Type::kObject: {
      const Value::Object& xo = a.as_object();
      const Value::Object& yo = b.as_object();
      if (xo.size() != yo.size()) return path + " (members)";
      for (std::size_t i = 0; i < xo.size(); ++i) {
        if (xo[i].first != yo[i].first) return path + "." + xo[i].first;
        if (xo[i].first.find("iterations") != std::string::npos) continue;
        std::string diff = compare_within(xo[i].second, yo[i].second, rel_tol,
                                          path + "." + xo[i].first);
        if (!diff.empty()) return diff;
      }
      return "";
    }
    default:
      return a == b ? "" : path;
  }
}

vpd::EvaluationOptions paper_mode_options(std::size_t mesh_nodes) {
  vpd::EvaluationOptions options;
  options.below_die_area_fraction = 1.6;
  options.mesh_nodes = mesh_nodes;
  return options;
}

ProbeTarget paper_probe_target(std::size_t mesh_nodes) {
  ProbeTarget target;
  target.spec = vpd::paper_system();
  target.options = paper_mode_options(mesh_nodes);
  target.architecture = vpd::ArchitectureKind::kA2_InterposerBelowDie;
  return target;
}

}  // namespace perfbench
