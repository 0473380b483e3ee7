// The three closed-loop batch workloads: sweep_fine (fine-mesh design
// sweeps), fault_campaign (N-1 + N-2 survivability campaigns) and
// droop_campaign (transient droop campaigns). One client runs a seeded
// series of jobs back to back; a job is one sweep or one campaign.
//
// Untraced runs time the series for the requested seconds, rerun the
// series' first pass to guard the deterministic work counts, and check a
// seeded sample of jobs against a serial SweepConfig::batch=false rerun.
// Traced runs alternate untraced and traced passes over the first pass,
// derive the per-layer metrics from the program's own spans and counters,
// and run the layer probes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "vpd/common/rng.hpp"
#include "vpd/fault/campaign.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/sweep/sweep.hpp"
#include "vpd/workload/droop_campaign.hpp"

namespace perfbench {
namespace {

using namespace vpd;

/// Relative tolerance for entries whose job launched block-CG panels: the
/// batch contract promises the certified backward error there, not bits.
constexpr double kBlockTolerance = 1e-6;

/// The deterministic work counts of one job (sweep.hpp: solves and
/// iterations are deterministic, the factorization/reuse split is not).
struct JobCounts {
  std::uint64_t cg_solves{0};
  std::uint64_t cg_iterations{0};
  std::uint64_t mesh_assemblies{0};
  std::uint64_t batch_groups{0};
  std::uint64_t scenarios{0};
  std::uint64_t transient_steps{0};

  bool operator==(const JobCounts&) const = default;
};

struct JobRecord {
  double wall_s{0.0};
  std::size_t units{0};
  SolverCounters solver;
  MeshSolveCache::Stats mesh;
  BatchStats batch;
  std::size_t scenarios{0};
  std::size_t transient_steps{0};
  TransientFactorCache::Stats lu;
  double integrate_s{0.0};   // droop: summed per-scenario integration time
  double point_busy_s{0.0};  // sweep: summed per-point wall time
  std::size_t points{0};     // sweep: points with a wall time
  double worker_s{0.0};      // sweep: wall time x worker threads
  std::vector<io::Value> outputs;  // filled for the correctness gate

  JobCounts counts() const {
    return {solver.cg_solves, solver.cg_iterations, mesh.misses,
            batch.groups,     scenarios,            transient_steps};
  }
};

struct JobMode {
  /// Serial SweepConfig::batch=false rerun: the gate's reference.
  bool reference{false};
  /// Keep the wire form of every entry/outcome.
  bool collect{false};
  obs::TraceContext trace{};
};

SweepConfig sweep_config(const JobMode& mode) {
  SweepConfig config;
  config.threads = mode.reference ? 1 : kWorkerThreads;
  config.batch = !mode.reference;
  return config;
}

class BatchWorkload {
 public:
  explicit BatchWorkload(std::uint64_t seed) : seed_(seed) {}
  virtual ~BatchWorkload() = default;

  /// Runs job `index` of the seeded series.
  virtual JobRecord run(std::size_t index, const JobMode& mode) const = 0;
  /// Jobs in one pass: the series' first jobs, one full cycle of its job
  /// kinds. The pass is the fixed job set of the count guard and of the
  /// traced run.
  virtual std::size_t pass_jobs() const = 0;
  virtual ProbeTarget probe_target() const = 0;
  /// Records the metrics of the workload's own layer from the traced
  /// passes' job totals.
  virtual void layer_metrics(const JobRecord& /*totals*/, double /*passes*/,
                             RunRecord& /*record*/) const {}

  /// Seeded pair of jobs from the first two passes for the correctness
  /// gate.
  virtual std::vector<std::size_t> gate_sample() const {
    Rng rng(seed_, 0);
    const auto k = static_cast<std::uint32_t>(pass_jobs());
    return {rng.next_below(k), k + rng.next_below(k)};
  }

 protected:
  Rng job_rng(std::size_t index) const { return Rng(seed_, 2 * index + 1); }
  std::uint64_t seed_;
};

/// Closed-loop design sweeps over the paper-mode default grid at 129^2 and
/// 257^2 (multigrid engages at 257). Every job varies the spec and the
/// sheet resistance, so its meshes assemble cold in the sweep's private
/// cache and the remaining points hit them.
class SweepFine final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  static constexpr std::size_t kMeshPattern[] = {129, 129, 257};

  std::size_t pass_jobs() const override { return 3; }

  void layer_metrics(const JobRecord& t, double,
                     RunRecord& record) const override {
    record.metric("sweep.point_ms",
                  1e3 * ratio(t.point_busy_s, double(t.points)));
    record.metric("sweep.worker_busy_ratio", ratio(t.point_busy_s, t.worker_s));
  }

  std::vector<std::size_t> gate_sample() const override {
    Rng rng(seed_, 0);
    return {2 + 3 * rng.next_below(2), 3 * rng.next_below(2) +
                                           rng.next_below(2)};
  }

  JobRecord run(std::size_t index, const JobMode& mode) const override {
    PowerDeliverySpec spec;
    EvaluationOptions options;
    params(index, &spec, &options);
    options.trace = mode.trace;
    const std::vector<SweepPoint> points = SweepGridBuilder(options).build();
    const auto start = Clock::now();
    const SweepReport report =
        SweepRunner(spec, sweep_config(mode)).run(points);
    JobRecord r;
    r.wall_s = seconds_since(start);
    r.units = points.size();
    r.solver = report.solver;
    r.mesh = report.cache_stats;
    r.batch = report.batch;
    r.worker_s = r.wall_s * double(report.threads_used);
    r.points = report.outcomes.size();
    for (const SweepOutcome& o : report.outcomes) {
      r.point_busy_s += o.stats.wall_seconds;
      if (mode.collect) r.outputs.push_back(io::to_json(o.entry));
    }
    return r;
  }

  ProbeTarget probe_target() const override {
    ProbeTarget t;
    params(2, &t.spec, &t.options);  // the first 257^2 job
    t.architecture = ArchitectureKind::kA2_InterposerBelowDie;
    return t;
  }

 private:
  void params(std::size_t index, PowerDeliverySpec* spec,
              EvaluationOptions* options) const {
    Rng rng = job_rng(index);
    *spec = paper_system();
    spec->total_power = Power{rng.uniform(900.0, 1100.0)};
    spec->die_area = Area{rng.uniform(450e-6, 550e-6)};
    *options = paper_mode_options(kMeshPattern[index % 3]);
    options->distribution_sheet_ohms = rng.uniform(1.8e-3, 2.2e-3);
  }
};

/// Closed-loop N-1 exhaustive + 32-sample N-2 Monte-Carlo campaigns over
/// A1/A2/A3@12V/A3@6V at the default 41^2 mesh, one seed per campaign.
class FaultCampaign final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  std::size_t pass_jobs() const override { return 4; }

  void layer_metrics(const JobRecord& t, double passes,
                     RunRecord& record) const override {
    record.metric("fault.scenarios", double(t.scenarios) / passes);
    record.metric("fault.scenario_ms",
                  1e3 * ratio(t.wall_s, double(t.scenarios)));
  }

  JobRecord run(std::size_t index, const JobMode& mode) const override {
    Rng rng = job_rng(index);
    FaultCampaignConfig config;
    config.nk_samples = 32;
    config.nk_order = 2;
    config.seed = (std::uint64_t{rng.next_u32()} << 32) | rng.next_u32();
    config.sweep = sweep_config(mode);
    MeshSolveCache cache;
    config.sweep.cache = &cache;
    EvaluationOptions options = paper_mode_options(41);
    options.trace = mode.trace;
    const auto start = Clock::now();
    const FaultCampaignReport report =
        FaultCampaignRunner(paper_system(), config)
            .run(kCampaignArchitectures[index % 4], TopologyKind::kDsch,
                 DeviceTechnology::kGalliumNitride, options);
    JobRecord r;
    r.wall_s = seconds_since(start);
    r.units = r.scenarios = report.scenario_count();
    r.solver = report.solver;
    r.mesh = cache.stats();
    r.batch = report.batch;
    if (mode.collect) {
      r.outputs.push_back(io::to_json(report.nominal));
      for (const FaultScenarioOutcome& o : report.outcomes) {
        io::Value v = io::Value::object();
        v.set("scenario", io::to_json(o.scenario));
        v.set("evaluated", o.evaluated);
        v.set("extrapolated", o.extrapolated);
        v.set("survives", o.survives());
        v.set("evaluation",
              o.evaluation ? io::to_json(*o.evaluation) : io::Value());
        r.outputs.push_back(std::move(v));
      }
    }
    return r;
  }

  ProbeTarget probe_target() const override {
    return paper_probe_target(41);
  }
};

/// Closed-loop transient droop campaigns (load steps, bursts, ramps and VR
/// dropouts) across the four architectures, with seeded load shapes.
class DroopCampaign final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  std::size_t pass_jobs() const override { return 4; }

  JobRecord run(std::size_t index, const JobMode& mode) const override {
    Rng rng = job_rng(index);
    DroopCampaignConfig config;
    config.base_fraction = rng.uniform(0.40, 0.55);
    config.step_fraction = rng.uniform(0.30, 0.45);
    // Burst edges must fit half the on-window (duty 0.4): edge <= 100 ns
    // at up to 2 MHz.
    config.edge = Seconds{rng.uniform(60e-9, 100e-9)};
    config.burst_frequency = Frequency{rng.uniform(1.5e6, 2.0e6)};
    config.trace = mode.trace;
    config.sweep = sweep_config(mode);
    MeshSolveCache cache;
    config.sweep.cache = &cache;
    const auto start = Clock::now();
    const DroopCampaignReport report =
        DroopCampaignRunner(paper_system(), config)
            .run(kCampaignArchitectures[index % 4], TopologyKind::kDsch,
                 DeviceTechnology::kGalliumNitride, paper_mode_options(41));
    JobRecord r;
    r.wall_s = seconds_since(start);
    r.units = r.scenarios = report.scenario_count();
    r.solver = report.solver;
    r.mesh = cache.stats();
    r.transient_steps = report.transient_steps;
    r.lu = report.factors;
    r.integrate_s = report.scenario_seconds.sum;
    if (mode.collect) {
      for (const TransientScenarioOutcome& o : report.outcomes) {
        r.outputs.push_back(io::to_json(o));
      }
    }
    return r;
  }

  ProbeTarget probe_target() const override {
    return paper_probe_target(41);
  }
};

std::unique_ptr<BatchWorkload> make_workload(const std::string& name,
                                             std::uint64_t seed) {
  if (name == "sweep_fine") return std::make_unique<SweepFine>(seed);
  if (name == "fault_campaign") return std::make_unique<FaultCampaign>(seed);
  if (name == "droop_campaign") return std::make_unique<DroopCampaign>(seed);
  return nullptr;
}

/// Runs one job, counting it as attempted and any exception as a failure.
bool run_job(const BatchWorkload& w, std::size_t index, const JobMode& mode,
             RunRecord& record, JobRecord* out) {
  record.attempt();
  try {
    *out = w.run(index, mode);
    return true;
  } catch (const std::exception& e) {
    record.fail("job " + std::to_string(index) + ": " + e.what());
    return false;
  }
}

/// One pass over the series' first jobs, each under a "bench.job" span.
struct Pass {
  double wall_s{0.0};
  std::vector<JobRecord> jobs;
  std::size_t evaluate_spans{0};
};

Pass run_pass(const BatchWorkload& w, bool traced, RunRecord& record,
              SpanTable* spans) {
  obs::set_tracing_enabled(traced);
  obs::clear_trace();
  Pass pass;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < w.pass_jobs(); ++i) {
    obs::Span span("bench.job");
    JobMode mode;
    mode.trace = span.context();
    JobRecord r;
    if (run_job(w, i, mode, record, &r)) pass.jobs.push_back(std::move(r));
  }
  pass.wall_s = seconds_since(start);
  obs::set_tracing_enabled(false);
  if (traced) {
    const std::vector<SpanEvent> events = collect_spans();
    pass.evaluate_spans = static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(), [](const SpanEvent& e) {
          return e.name == "vpd.evaluate";
        }));
    spans->add(events);
    obs::clear_trace();
  }
  return pass;
}

/// Fails the run unless `pass` reproduces the reference per-job counts.
void guard_counts(const std::vector<JobCounts>& reference, const Pass& pass,
                  RunRecord& record) {
  if (pass.jobs.size() != reference.size()) {
    record.fail("count guard: a pass job failed");
    return;
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (!(pass.jobs[i].counts() == reference[i])) {
      record.fail("count guard: job " + std::to_string(i) +
                  " changed its deterministic work counts between passes");
    }
  }
}

void emit_counts(const std::vector<JobCounts>& jobs, RunRecord& record) {
  JobCounts t;
  for (const JobCounts& c : jobs) {
    t.cg_solves += c.cg_solves;
    t.cg_iterations += c.cg_iterations;
    t.mesh_assemblies += c.mesh_assemblies;
    t.batch_groups += c.batch_groups;
    t.scenarios += c.scenarios;
    t.transient_steps += c.transient_steps;
  }
  record.count("solver.cg_solves", double(t.cg_solves));
  record.count("solver.cg_iterations", double(t.cg_iterations));
  record.count("mesh.assemblies", double(t.mesh_assemblies));
  record.count("batch.groups", double(t.batch_groups));
  record.count("scenarios", double(t.scenarios));
  record.count("transient.steps", double(t.transient_steps));
}

std::vector<JobCounts> counts_of(const Pass& pass) {
  std::vector<JobCounts> counts;
  for (const JobRecord& r : pass.jobs) counts.push_back(r.counts());
  return counts;
}

/// Checks each sampled job against its serial batch=false rerun. The
/// sampled jobs run again in the timed configuration (jobs are
/// deterministic; the count guard holds them to it) so the timed loop
/// keeps no outputs.
void run_gate(const BatchWorkload& w, RunRecord& record) {
  for (std::size_t index : w.gate_sample()) {
    JobMode fast_mode;
    fast_mode.collect = true;
    JobMode reference_mode;
    reference_mode.reference = true;
    reference_mode.collect = true;
    JobRecord fast;
    JobRecord reference;
    if (!run_job(w, index, fast_mode, record, &fast) ||
        !run_job(w, index, reference_mode, record, &reference)) {
      continue;
    }
    const std::string job = "gate: job " + std::to_string(index);
    if (fast.outputs.size() != reference.outputs.size()) {
      record.fail(job + " returned a different number of entries");
      continue;
    }
    // Bit identity is the contract unless block panels ran.
    const bool bit_exact = fast.solver.cg_block_panels == 0;
    for (std::size_t e = 0; e < fast.outputs.size(); ++e) {
      if (io::dump(fast.outputs[e]) == io::dump(reference.outputs[e])) continue;
      const std::string diff =
          bit_exact ? "bits" : compare_within(fast.outputs[e],
                                              reference.outputs[e],
                                              kBlockTolerance);
      if (!diff.empty()) {
        record.fail(job + " entry " + std::to_string(e) +
                    " differs from the serial reference at " + diff);
      }
    }
  }
}

void timed_run(const BatchWorkload& w, const RunOptions& options,
               RunRecord& record) {
  const std::size_t k = w.pass_jobs();
  std::vector<double> walls_ms;
  std::vector<std::vector<double>> kind_walls_ms(k);  // by position in a pass
  // Throughput per cycle of the series' job kinds (one pass long), so a
  // burst of host noise moves one cycle, not the run's figure.
  std::vector<double> cycle_rates;
  double cycle_units = 0.0;
  double cycle_s = 0.0;
  std::vector<JobCounts> first_pass;
  const auto loop_start = Clock::now();
  for (std::size_t i = 0;
       i % k != 0 || seconds_since(loop_start) < options.seconds; ++i) {
    if (i % k == 0 && cycle_s > 0.0) {
      cycle_rates.push_back(cycle_units / cycle_s);
      cycle_units = cycle_s = 0.0;
    }
    JobRecord r;
    if (!run_job(w, i, JobMode{}, record, &r)) continue;
    walls_ms.push_back(1e3 * r.wall_s);
    kind_walls_ms[i % k].push_back(1e3 * r.wall_s);
    cycle_units += double(r.units);
    cycle_s += r.wall_s;
    if (i < k) first_pass.push_back(r.counts());
  }
  if (cycle_s > 0.0) cycle_rates.push_back(cycle_units / cycle_s);
  record.metric("throughput_per_s", median(cycle_rates));
  // The median over job kinds of each kind's median wall. Job kinds differ
  // in cost, so the plain median over all jobs falls on the gap between
  // two kinds' clusters and reads the extremes of both.
  std::vector<double> kind_p50_ms;
  for (const std::vector<double>& walls : kind_walls_ms) {
    kind_p50_ms.push_back(median(walls));
  }
  record.metric("latency_p50_ms", median(kind_p50_ms));
  // p90: a 20 s run leaves at least 10 jobs beyond it on every workload.
  record.metric("latency_tail_ms", quantile(walls_ms, 0.9));
  // Before the checks, whose reference copies are the benchmark's memory.
  record.metric("peak_rss_mb", peak_rss_mb());

  if (first_pass.size() == k) {
    guard_counts(first_pass, run_pass(w, false, record, nullptr), record);
    emit_counts(first_pass, record);
  } else {
    record.fail("count guard: a first-pass job failed");
  }
  run_gate(w, record);
}

void traced_run(const BatchWorkload& w, const RunOptions& options,
                RunRecord& record) {
  SpanTable spans;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<JobCounts> reference;
  std::vector<JobRecord> traced_jobs;
  std::size_t evaluate_spans = 0;
  const auto loop_start = Clock::now();
  for (std::size_t p = 0; p < 4 || seconds_since(loop_start) < options.seconds;
       ++p) {
    const bool traced = p % 2 == 1;
    Pass pass = run_pass(w, traced, record, &spans);
    if (p == 0) {
      reference = counts_of(pass);
      if (reference.size() != w.pass_jobs()) return;  // failure recorded
    } else {
      guard_counts(reference, pass, record);
    }
    (traced ? traced_s : untraced_s).push_back(pass.wall_s);
    if (!traced) continue;
    if (p > 1 && pass.evaluate_spans != evaluate_spans) {
      record.fail("count guard: vpd.evaluate calls changed between passes");
    }
    evaluate_spans = pass.evaluate_spans;
    for (JobRecord& r : pass.jobs) traced_jobs.push_back(std::move(r));
  }
  emit_counts(reference, record);
  record.count("evaluate.calls", double(evaluate_spans));

  // Per-pass totals over the traced passes' jobs.
  const double passes = double(traced_s.size());
  JobRecord t;
  for (const JobRecord& r : traced_jobs) {
    t.wall_s += r.wall_s;
    t.units += r.units;
    t.solver = t.solver + r.solver;
    t.mesh.hits += r.mesh.hits;
    t.mesh.misses += r.mesh.misses;
    t.batch += r.batch;
    t.scenarios += r.scenarios;
    t.transient_steps += r.transient_steps;
    t.lu.hits += r.lu.hits;
    t.lu.misses += r.lu.misses;
    t.integrate_s += r.integrate_s;
    t.point_busy_s += r.point_busy_s;
    t.points += r.points;
    t.worker_s += r.worker_s;
  }
  const auto per_pass = [&](double total) { return total / passes; };
  const SolverCounters& s = t.solver;
  const double mg_nodes =
      double(kAutoMultigridMeshNodes * kAutoMultigridMeshNodes);

  record.metric("mesh.assemblies", per_pass(double(t.mesh.misses)));
  record.metric("mesh.assemble_ms", 1e-3 * spans.mean_dur_us("mesh.assemble"));
  record.metric("mesh.cache_hit_ratio",
                ratio(double(t.mesh.hits),
                      double(t.mesh.hits + t.mesh.misses)));
  record.metric("irdrop.solves",
                per_pass(double(spans.count("irdrop.solve") +
                                spans.count("irdrop.solve_batch"))));
  record.metric("irdrop.overhead_us", spans.mean_self_us("irdrop.solve"));
  record.metric("solver.cg_solves", per_pass(double(s.cg_solves)));
  record.metric("solver.cg_iterations", per_pass(double(s.cg_iterations)));
  record.metric("solver.iterations_per_solve",
                ratio(double(s.cg_iterations), double(s.cg_solves)));
  record.metric("solver.precond_factorizations",
                per_pass(double(s.precond_factorizations)));
  record.metric("solver.precond_reuse_ratio",
                ratio(double(s.precond_reuses),
                      double(s.precond_reuses + s.precond_factorizations)));
  record.metric("mg.solve_ms",
                1e-3 * spans.mean_dur_us_where("solve.cg", "nodes", mg_nodes));
  // Group solves as the solver layer saw them (the droop report exposes no
  // BatchStats).
  record.metric("batch.groups",
                per_pass(double(spans.count("irdrop.solve_batch"))));
  record.metric("batch.dedup_ratio", ratio(double(t.batch.deduped_solves),
                                           double(t.batch.grouped_points)));
  record.metric("batch.block_yield",
                ratio(double(s.cg_block_columns),
                      spans.arg_sum("solve.cg_block", "columns")));
  record.metric("evaluate.calls_per_point",
                ratio(double(spans.count("vpd.evaluate")), double(t.units)));
  record.metric("evaluate.self_ms", 1e-3 * spans.mean_self_us("vpd.evaluate"));
  w.layer_metrics(t, passes, record);
  record.metric("transient.steps", per_pass(double(t.transient_steps)));
  record.metric("transient.step_us",
                1e6 * ratio(t.integrate_s, double(t.transient_steps)));
  record.metric("transient.lu_hit_ratio",
                ratio(double(t.lu.hits), double(t.lu.hits + t.lu.misses)));
  record.metric("trace.overhead_ratio",
                ratio(median(traced_s), median(untraced_s)));
  run_layer_probes(w.probe_target(), record);
  run_gate(w, record);
}

}  // namespace

bool run_batch_workload(const RunOptions& options, RunRecord& record) {
  // Set-up: build the workload's input series and warm the program up with
  // the series' first job (thread pools, per-thread solver workspaces).
  std::unique_ptr<BatchWorkload> workload;
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    const auto start = Clock::now();
    workload = make_workload(options.workload, options.seed);
    if (!workload) return false;
    JobRecord warm;
    if (!run_job(*workload, 0, JobMode{}, record, &warm)) return true;
    setup_s.push_back(seconds_since(start));
  }
  if (!options.trace) record.metric("setup_s", median(setup_s));

  if (options.trace) {
    traced_run(*workload, options, record);
  } else {
    timed_run(*workload, options, record);
  }
  return true;
}

}  // namespace perfbench
