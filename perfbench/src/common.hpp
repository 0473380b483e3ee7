// Shared plumbing of the benchmark binary: run options, the result record
// run.py turns into the benchmark's output line, order statistics, trace
// span analysis and the tolerance comparison of wire documents.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "vpd/arch/evaluator.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/io/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Worker threads of every pool the benchmark drives (sweep and campaign
/// runners, the evaluation service). Two leave headroom on a 4-core host
/// for the client, session and writer threads.
inline constexpr std::size_t kWorkerThreads = 2;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 5;

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// A metric the run reports, with its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What one run measured and checked. `counts` are the deterministic work
/// counters of the run's fixed job set: run.py compares them across runs
/// of one seed, and the binary itself across the passes of one run.
class RunRecord {
 public:
  void metric(const std::string& name, double value);
  void count(const std::string& name, double value);
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Records one failed operation (error, rejection or check mismatch).
  void fail(const std::string& what);

  std::size_t failed() const { return failed_; }
  /// The result document with exactly the metrics in `reported`: one the
  /// workload did not record reads 0 (a layer it does not exercise).
  vpd::io::Value to_json(const std::vector<MetricSpec>& reported) const;

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, double>> counts_;
  std::vector<std::string> problems_;
  std::size_t attempted_{0};
  std::size_t failed_{0};
};

/// Linearly interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Peak resident set size of this process [MB].
double peak_rss_mb();

/// Safe ratio: 0 when the denominator is 0.
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// One closed trace span with its self time (duration minus the part of
/// it covered by its children, floored at 0 for parallel children).
struct SpanEvent {
  std::string name;
  double dur_us{0.0};
  double self_us{0.0};
  std::map<std::string, double> args;
};

/// Buffered trace spans since the last obs::clear_trace(); throws when the
/// trace buffer overflowed (a partial trace would bias every self time).
std::vector<SpanEvent> collect_spans();

/// Aggregates over collected spans.
class SpanTable {
 public:
  void add(const std::vector<SpanEvent>& events);
  std::size_t count(const std::string& name) const;
  double mean_dur_us(const std::string& name) const;
  double mean_self_us(const std::string& name) const;
  /// Sum of argument `arg` over the spans called `name`.
  double arg_sum(const std::string& name, const std::string& arg) const;
  /// Mean duration of `name` spans whose argument `arg` is at least `min`.
  double mean_dur_us_where(const std::string& name, const std::string& arg,
                           double min) const;

 private:
  std::vector<SpanEvent> events_;
};

/// Compares two wire documents: numbers within a relative tolerance of
/// max(|a|, |b|, 1), members named "*iterations*" skipped (block and
/// scalar CG take different iteration counts to the same certified
/// accuracy), everything else exactly. Returns "" on agreement, else the
/// path of the first difference.
std::string compare_within(const vpd::io::Value& a, const vpd::io::Value& b,
                           double rel_tol, const std::string& path = "$");

/// The paper-mode evaluation options every workload starts from (the
/// relaxed below-die area budget that admits A2's published 48 VRs).
vpd::EvaluationOptions paper_mode_options(std::size_t mesh_nodes);

/// The four vertical architectures, in the order the campaign workloads
/// cycle through them.
inline constexpr vpd::ArchitectureKind kCampaignArchitectures[] = {
    vpd::ArchitectureKind::kA1_InterposerPeriphery,
    vpd::ArchitectureKind::kA2_InterposerBelowDie,
    vpd::ArchitectureKind::kA3_TwoStage12V,
    vpd::ArchitectureKind::kA3_TwoStage6V,
};

/// A design point whose distribution solve the layer probes time.
struct ProbeTarget {
  vpd::PowerDeliverySpec spec;
  vpd::ArchitectureKind architecture{};
  vpd::TopologyKind topology{vpd::TopologyKind::kDsch};
  vpd::EvaluationOptions options;
};

/// A2 (the paper's below-die deployment) on the paper system at the given
/// mesh size.
ProbeTarget paper_probe_target(std::size_t mesh_nodes);

/// Layer probes outside any timed region: times assemble_mesh,
/// solve_irdrop and solve_cg (reused vs fresh CgWorkspace) on the target's
/// own distribution solve and records probe.* / solver.*_solve_us metrics.
void run_layer_probes(const ProbeTarget& target, RunRecord& record);

/// The workloads. Each fills `record`; false means the workload name is
/// not one this entry point runs.
bool run_batch_workload(const RunOptions& options, RunRecord& record);
void run_serve_mix(const RunOptions& options, RunRecord& record);

}  // namespace perfbench
