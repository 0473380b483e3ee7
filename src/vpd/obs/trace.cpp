#include "vpd/obs/trace.hpp"

#include <atomic>
#include <fstream>
#include <mutex>
#include <utility>
#include <vector>

#include "vpd/io/json.hpp"

namespace vpd {
namespace obs {

namespace {

struct TraceEvent {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent_id;
  std::uint32_t thread_index;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::duration duration;
  const char* arg_keys[Span::kMaxArgs];
  double arg_values[Span::kMaxArgs];
  std::size_t arg_count;
};

// Bounded so a long tracing-enabled run cannot exhaust memory; overflow is
// counted instead of silently lost.
constexpr std::size_t kMaxTraceEvents = std::size_t(1) << 20;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint32_t> g_next_thread_index{0};

std::mutex g_events_mutex;
std::vector<TraceEvent> g_events;

std::uint32_t thread_index() {
  thread_local const std::uint32_t index =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void push_event(TraceEvent event) {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  if (g_events.size() >= kMaxTraceEvents) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_events.push_back(std::move(event));
}

double to_microseconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

io::Value event_to_json(const TraceEvent& event,
                        std::chrono::steady_clock::time_point epoch) {
  io::Value v = io::Value::object();
  v.set("name", std::string(event.name));
  v.set("ph", "X");
  v.set("ts", to_microseconds(event.start - epoch));
  v.set("dur", to_microseconds(event.duration));
  v.set("pid", 1);
  v.set("tid", event.thread_index);
  io::Value args = io::Value::object();
  args.set("span_id", event.id);
  if (event.parent_id != 0) args.set("parent_span_id", event.parent_id);
  for (std::size_t i = 0; i < event.arg_count; ++i) {
    args.set(event.arg_keys[i], event.arg_values[i]);
  }
  v.set("args", std::move(args));
  return v;
}

std::vector<TraceEvent> copy_events() {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  return g_events;
}

}  // namespace

bool tracing_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_tracing_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void clear_trace() {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  g_events.clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::size_t trace_event_count() {
  std::lock_guard<std::mutex> lock(g_events_mutex);
  return g_events.size();
}

std::uint64_t trace_events_dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

void record_span(const char* name, TraceContext parent,
                 std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end) {
  if (!tracing_enabled()) return;
  TraceEvent event{};
  event.name = name;
  event.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  event.parent_id = parent.span_id;
  event.thread_index = thread_index();
  event.start = start;
  event.duration = end - start;
  event.arg_count = 0;
  push_event(std::move(event));
}

Span::Span(const char* name, TraceContext parent) : name_(name) {
  if (!tracing_enabled()) return;
  active_ = true;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_id_ = parent.span_id;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  TraceEvent event{};
  event.name = name_;
  event.id = id_;
  event.parent_id = parent_id_;
  event.thread_index = thread_index();
  event.start = start_;
  event.duration = std::chrono::steady_clock::now() - start_;
  event.arg_count = arg_count_;
  for (std::size_t i = 0; i < arg_count_; ++i) {
    event.arg_keys[i] = arg_keys_[i];
    event.arg_values[i] = arg_values_[i];
  }
  push_event(std::move(event));
}

void Span::set_arg(const char* key, double value) {
  if (!active_ || arg_count_ >= kMaxArgs) return;
  arg_keys_[arg_count_] = key;
  arg_values_[arg_count_] = value;
  ++arg_count_;
}

io::Value chrome_trace_json() {
  const std::vector<TraceEvent> events = copy_events();
  std::chrono::steady_clock::time_point epoch{};
  if (!events.empty()) {
    epoch = events.front().start;
    for (const TraceEvent& event : events) {
      if (event.start < epoch) epoch = event.start;
    }
  }
  io::Value doc = io::Value::object();
  io::Value list = io::Value::array();
  for (const TraceEvent& event : events) {
    list.push_back(event_to_json(event, epoch));
  }
  doc.set("traceEvents", std::move(list));
  doc.set("displayTimeUnit", "ms");
  doc.set("droppedEvents", trace_events_dropped());
  return doc;
}

std::string trace_ndjson() {
  const std::vector<TraceEvent> events = copy_events();
  std::chrono::steady_clock::time_point epoch{};
  if (!events.empty()) {
    epoch = events.front().start;
    for (const TraceEvent& event : events) {
      if (event.start < epoch) epoch = event.start;
    }
  }
  std::string out;
  for (const TraceEvent& event : events) {
    out += io::dump(event_to_json(event, epoch));
    out += '\n';
  }
  return out;
}

namespace {

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << text;
  return static_cast<bool>(file);
}

}  // namespace

bool write_chrome_trace(const std::string& path) {
  return write_text_file(path, io::dump(chrome_trace_json()));
}

bool write_trace_ndjson(const std::string& path) {
  return write_text_file(path, trace_ndjson());
}

bool write_trace(const std::string& path) {
  const std::string suffix = ".ndjson";
  if (path.size() >= suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return write_trace_ndjson(path);
  }
  return write_chrome_trace(path);
}

// --- Work accounts ----------------------------------------------------------

namespace {
thread_local WorkAccount* t_account = nullptr;
}  // namespace

void WorkAccount::add(Work what, std::uint64_t n) {
  const auto index = static_cast<std::size_t>(what);
  for (WorkAccount* a = this; a != nullptr; a = a->parent_) {
    a->counts_[index].fetch_add(n, std::memory_order_relaxed);
  }
}

WorkAccount* WorkAccount::current() { return t_account; }

WorkAccount::Scope::Scope(WorkAccount* account) : previous_(t_account) {
  t_account = account;
}

WorkAccount::Scope::~Scope() { t_account = previous_; }

void count(Work what, std::uint64_t n) {
  if (t_account != nullptr) t_account->add(what, n);
}

StageTimer::StageTimer(Work stage) : account_(t_account), stage_(stage) {
  if (account_ != nullptr) start_ = std::chrono::steady_clock::now();
}

StageTimer::~StageTimer() {
  if (account_ == nullptr) return;
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start_);
  account_->add(stage_, static_cast<std::uint64_t>(elapsed.count()));
}

}  // namespace obs
}  // namespace vpd
