// Lightweight RAII trace spans with explicit parent context, plus scoped
// work accounts that attribute solver and mesh work to the scope that
// caused it. Tracing is off by default: a disabled Span costs one relaxed
// atomic load in its constructor and nothing else. When enabled, spans
// record (name, ids, thread, start, duration, numeric args) into a bounded
// process-wide buffer that serializes to Chrome trace-event JSON (loadable in
// about:tracing / Perfetto) or NDJSON.
//
// Parent linkage is explicit, not ambient: callers thread an obs::TraceContext
// through options structs (EvaluationOptions -> IrDropOptions -> CgOptions),
// the same process-local pattern as EvaluationOptions::mesh_cache. Context
// never goes on the wire and never influences numerical results. Work
// accounts are the one ambient piece (a thread's current account, carried
// into ThreadPool tasks), because every solve and mesh lookup counts into
// them; they too never influence results.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace vpd {
namespace io {
class Value;
}  // namespace io

namespace obs {

/// Parent linkage for a span. span_id == 0 means "no parent" (root span).
/// Plain value type so it can ride inside options structs; never serialized
/// onto the wire schema.
struct TraceContext {
  std::uint64_t span_id{0};
};

/// Process-wide tracing switch. Off by default; flipping it never affects
/// numerical results, only whether spans record events.
bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// Drops all buffered events (and resets the dropped-event counter).
void clear_trace();
/// Number of events currently buffered / dropped since the last clear.
std::size_t trace_event_count();
std::uint64_t trace_events_dropped();

/// Records an externally-measured interval (e.g. queue wait, where the span
/// does not live on one stack) as if a Span had covered it.
void record_span(const char* name, TraceContext parent,
                 std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end);

/// RAII span. Construction when tracing is off is a single relaxed load;
/// when on, the span takes a timestamp and an id, and its destructor emits
/// one complete ("ph":"X") event into the trace buffer.
class Span {
 public:
  explicit Span(const char* name, TraceContext parent = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is recording (tracing was enabled at construction).
  bool active() const { return active_; }
  /// Context for child spans; zero (no parent) when inactive, so passing it
  /// down unconditionally is harmless.
  TraceContext context() const { return TraceContext{active_ ? id_ : 0}; }

  /// Attaches a numeric argument (shown in the trace viewer). No-op when
  /// inactive; at most kMaxArgs are kept.
  void set_arg(const char* key, double value);

  static constexpr std::size_t kMaxArgs = 6;

 private:
  const char* name_;
  std::uint64_t id_{0};
  std::uint64_t parent_id_{0};
  std::chrono::steady_clock::time_point start_{};
  const char* arg_keys_[kMaxArgs] = {};
  double arg_values_[kMaxArgs] = {};
  std::size_t arg_count_{0};
  bool active_{false};
};

/// Buffered events as a Chrome trace-event document
/// ({"traceEvents": [...], "displayTimeUnit": "ms"}); timestamps in
/// microseconds relative to the first buffered event.
io::Value chrome_trace_json();
/// Buffered events as NDJSON, one event object per line.
std::string trace_ndjson();
/// Writes chrome_trace_json() / trace_ndjson() to `path`; returns false on
/// I/O failure. The format is chosen by extension in write_trace(): ".ndjson"
/// gets NDJSON, everything else the Chrome document.
bool write_chrome_trace(const std::string& path);
bool write_trace_ndjson(const std::string& path);
bool write_trace(const std::string& path);

// --- Work accounts ---------------------------------------------------------

/// Wall-clock decomposition of one service request. All seconds; stages that
/// did not run stay 0 (e.g. mesh_seconds on a mesh-cache hit is ~0).
struct StageTimings {
  double queue_seconds{0.0};
  double mesh_seconds{0.0};
  double solve_seconds{0.0};
  double evaluate_seconds{0.0};
  double serialize_seconds{0.0};
};

/// What a WorkAccount counts: solver and mesh-cache events, and the wall
/// time of the mesh and solve stages in nanoseconds.
enum class Work : std::size_t {
  kCgSolves, kCgIterations, kPrecondFactorizations, kPrecondReuses,
  kMeshHits, kMeshMisses, kMeshNanoseconds, kSolveNanoseconds,
};
inline constexpr std::size_t kWorkKinds =
    std::size_t(Work::kSolveNanoseconds) + 1;

/// Exact attribution of solver and mesh work to the scope that caused it.
/// A Scope makes an account the calling thread's current account,
/// ThreadPool tasks run under the account current at submit, and every
/// count adds to the current account and to each account it is nested in.
/// Sibling accounts never see each other's work; work done with no account
/// current is counted nowhere. Lifetime rule: an account must outlive
/// every scope that makes it current, every pool task submitted under it
/// and every account nested in it.
class WorkAccount {
 public:
  /// Nests the account in `parent` (by default the calling thread's
  /// current account); nullptr makes a root account.
  explicit WorkAccount(WorkAccount* parent = current()) : parent_(parent) {}
  WorkAccount(const WorkAccount&) = delete;
  WorkAccount& operator=(const WorkAccount&) = delete;

  /// Adds `n` to this account and every account it is nested in.
  void add(Work what, std::uint64_t n = 1);
  std::uint64_t count(Work what) const {
    return counts_[std::size_t(what)].load(std::memory_order_relaxed);
  }
  /// A stage entry (kMeshNanoseconds, kSolveNanoseconds) in seconds.
  double seconds(Work stage) const { return 1e-9 * double(count(stage)); }

  /// The calling thread's current account (nullptr when none).
  static WorkAccount* current();

  /// Makes `account` (nullptr: none) the calling thread's current account
  /// for the scope's lifetime, then restores the previous one.
  class Scope {
   public:
    explicit Scope(WorkAccount* account);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    WorkAccount* previous_;
  };

 private:
  WorkAccount* parent_;
  std::atomic<std::uint64_t> counts_[kWorkKinds] = {};
};

/// Adds `n` to the current account chain; a no-op when none is current.
void count(Work what, std::uint64_t n = 1);

/// Adds its scope's elapsed wall time to a stage entry of the account that
/// was current at construction. With no account current the constructor
/// is one thread-local load and the destructor a branch.
class StageTimer {
 public:
  explicit StageTimer(Work stage);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  WorkAccount* account_;
  Work stage_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace obs
}  // namespace vpd
