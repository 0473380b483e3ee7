// Seeded multi-objective design-space optimizer: an NSGA-II-style
// generation loop over the DesignSpace that replaces exhaustive grid
// enumeration with adaptive sampling, emitting an ε-dominance Pareto
// front over {total loss, peak droop, VR area, N-1 vulnerability}.
//
// Search shape: a Latin-hypercube initial population (optionally
// warm-started from known-good design points, e.g. cached sweep
// winners), then per generation binary-tournament selection on
// (non-domination rank, crowding distance), uniform/blend crossover,
// per-gene mutation, and elitist environmental selection over parents
// plus children. Candidates are deduplicated by design_point_key, every
// distinct point is evaluated exactly once through the same
// evaluate_with_exclusion path the sweep engine uses (sharing one
// MeshSolveCache), and N-1 survivability is scored by a
// FaultCampaignRunner on cheap-front elites only — the one expensive
// objective rides on the designs that already earn it.
//
// Determinism contract (the repo convention): a parallel run is
// bit-identical to a serial run, and a re-run with the same seed
// reproduces the front bit for bit. Every random draw comes from a
// counter-seeded Rng stream addressed by (generation, child) or
// (axis) — never by thread or completion order — evaluation batches
// write to pre-assigned slots, and every sort in selection and in the
// archive is total (ties always break on candidate id). Only wall-time
// fields and the factorization/reuse split vary run to run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "vpd/core/spec.hpp"
#include "vpd/fault/fault_model.hpp"
#include "vpd/fault/resilience.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/opt/design_space.hpp"
#include "vpd/opt/pareto.hpp"
#include "vpd/sweep/sweep.hpp"

namespace vpd {
namespace opt {

/// How N-1 survivability is scored on cheap-front elites. The campaign
/// is the fault subsystem's exhaustive N-1 set (no Monte Carlo): VR
/// dropouts and derates always, attach faults and mesh-damage regions
/// by choice. max_elites caps the campaigns per scoring pass (one pass
/// per generation plus a final pass); 0 disables survivability entirely
/// and the optimizer emits a three-objective front.
struct SurvivabilityScoring {
  std::size_t max_elites{4};
  FaultSeverity severity;
  ResilienceSpec resilience;
  bool include_attach_faults{true};
  bool include_mesh_regions{false};
  std::size_t mesh_region_grid{2};
};

struct OptimizerConfig {
  /// Population per generation (>= 4).
  std::size_t population{24};
  /// Generation-loop iterations beyond the initial population (>= 1).
  std::size_t generations{8};
  /// Hard cap on evaluator runs; 0 = population * (generations + 1).
  /// Children past the cap are dropped in deterministic (id) order.
  std::size_t max_evaluations{0};
  /// Seed of the counter-based search RNG: axis permutations, candidate
  /// init and each (generation, child) variation draw from their own
  /// Rng(seed, stream), independent of evaluation order. Kept within
  /// 2^53 so the wire form (a JSON number) round-trips exactly.
  std::uint64_t seed{0x5eedULL};
  /// Probability a child is bred from two parents (else cloned).
  double crossover_rate{0.9};
  /// Per-gene mutation probability.
  double mutation_rate{0.3};
  /// Mutation step, as a fraction of each knob's range.
  double mutation_scale{0.2};
  /// ε-archive box sides per objective in the canonical order
  /// {loss, droop, area, vulnerability}; empty picks the defaults
  /// (default_epsilon). Sized to the active objective count.
  std::vector<double> epsilon;
  /// Hypervolume reference point, same order; empty picks
  /// default_reference. Objectives at or beyond it contribute nothing.
  std::vector<double> reference;
  SurvivabilityScoring survivability;
  /// Extra generation-0 candidates evaluated ahead of the Latin
  /// hypercube (e.g. winners recalled from cached sweep evaluations).
  /// Every point must lie inside the space.
  std::vector<DesignPoint> warm_start;
  /// Everything the design space does not search (mesh resolution,
  /// tolerances, ...). Must be fault-free with no sink map.
  EvaluationOptions base_options;
  /// Worker pool + shared mesh cache for the evaluation batches and the
  /// survivability campaigns (SweepConfig semantics: threads == 1 is
  /// the serial reference path, bit-identical to any parallel run).
  SweepConfig sweep;
  /// Parent span for the run's "opt.run" trace span.
  obs::TraceContext trace{};

  void validate() const;
};

/// Canonical objective order. Vulnerability (1 - survivability) is
/// present only when SurvivabilityScoring::max_elites > 0.
enum ObjectiveIndex : std::size_t {
  kLossFraction = 0,
  kDroopFraction = 1,
  kAreaFraction = 2,
  kVulnerability = 3,
};

/// Default ε boxes / hypervolume reference for the first
/// `objective_count` canonical objectives (3 or 4).
std::vector<double> default_epsilon(std::size_t objective_count);
std::vector<double> default_reference(std::size_t objective_count);

/// The cheap objective vector {loss, droop, area} the optimizer assigns
/// one feasible evaluation — exposed so exhaustive-grid baselines
/// (bench_optimize) and tests score external candidates identically.
std::vector<double> cheap_objectives_of(const PowerDeliverySpec& spec,
                                        const DesignPoint& point,
                                        const ArchitectureEvaluation& eval);

/// One evaluated candidate (dedup'd: a design point appears once no
/// matter how many generations rediscover it).
struct Candidate {
  std::size_t id{0};          // insertion order; all tie-breaks use this
  std::size_t generation{0};  // generation that first proposed it
  DesignPoint point;
  /// False when the paper's exclusion rule applied (rating exceeded or
  /// infeasible); such candidates never enter fronts or archives.
  bool feasible{false};
  std::string exclusion_reason;
  double loss_fraction{0.0};
  double droop_fraction{0.0};
  double area_fraction{0.0};
  /// N-1 surviving fraction; present once a scoring pass elected this
  /// candidate as a cheap-front elite.
  std::optional<double> survivability;

  /// {loss, droop, area} — the cheap objectives that steer selection.
  std::vector<double> cheap_objectives() const;
};

struct FrontEntry {
  Candidate candidate;
  /// The archive-facing vector: cheap objectives plus vulnerability
  /// when survivability scoring is on.
  std::vector<double> objectives;
};

struct OptimizeReport {
  /// ε-archive front in the archive's stable order.
  std::vector<FrontEntry> front;
  /// Evaluator runs spent (dedup'd candidates actually evaluated).
  std::size_t evaluations{0};
  /// Distinct design points proposed (evaluated + budget-dropped).
  std::size_t candidates{0};
  std::size_t generations_run{0};
  /// N-1 campaigns spent on elite scoring.
  std::size_t fault_campaigns{0};
  /// The ε boxes and reference point the run used (config or defaults).
  std::vector<double> epsilon;
  std::vector<double> reference;
  /// Hypervolume of `front` against `reference` (minimization).
  double hypervolume{0.0};
  double wall_seconds{0.0};
  /// This run's own mesh lookups and solver work (its work account, which
  /// every sweep and campaign of the run nests in), exact beside other
  /// work in the process. The factorization/reuse split is
  /// scheduling-dependent; everything else is deterministic.
  MeshSolveCache::Stats cache_stats;
  SolverCounters solver;
  /// Batch-engine accounting summed over every generation's sweep and
  /// every elite fault campaign (all zero with sweep.batch=false).
  BatchStats batch;

  std::size_t front_size() const { return front.size(); }

  /// The report's metrics in the unified telemetry shape (opt.*
  /// counters and gauges plus mesh_cache.* / solver.* counters);
  /// emitted via obs::Snapshot::to_json() by bench_optimize and the
  /// service.
  obs::Snapshot snapshot() const;
};

class DesignOptimizer {
 public:
  DesignOptimizer(PowerDeliverySpec spec, DesignSpace space,
                  OptimizerConfig config = {});

  const PowerDeliverySpec& spec() const { return spec_; }
  const DesignSpace& space() const { return space_; }
  const OptimizerConfig& config() const { return config_; }

  /// Number of objectives the run optimizes (3, or 4 with
  /// survivability scoring).
  std::size_t objective_count() const;

  /// Runs the full generation loop and returns the front.
  OptimizeReport run() const;

 private:
  PowerDeliverySpec spec_;
  DesignSpace space_;
  OptimizerConfig config_;
};

}  // namespace opt
}  // namespace vpd
