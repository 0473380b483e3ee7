// N-k survivability campaigns on the sweep engine. A campaign takes one
// (architecture, topology, technology) combination, evaluates it nominally
// to learn the deployment (VR counts), generates a scenario population —
// the N-0 baseline, the exhaustive N-1 set over every modeled fault site,
// and an optional Monte-Carlo sample of order-k scenarios — and evaluates
// every scenario on the sweep ThreadPool. Scenario content is seeded per
// scenario index (counter-based RNG streams), so a parallel campaign is
// bit-identical to a serial one and to any re-run with the same seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "vpd/arch/evaluator.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/fault/fault_model.hpp"
#include "vpd/fault/resilience.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/sweep/sweep.hpp"

namespace vpd {

struct FaultCampaignConfig {
  FaultSeverity severity;
  ResilienceSpec resilience;
  /// Monte-Carlo scenarios beyond the exhaustive N-1 set (0 = N-1 only).
  std::size_t nk_samples{0};
  /// Simultaneous faults per sampled scenario (k of N-k), >= 2.
  std::size_t nk_order{2};
  /// Seed of the counter-based scenario RNG: scenario i draws from
  /// Rng(seed, stream = i), independent of evaluation order.
  std::uint64_t seed{0x5eedULL};
  /// Which single-fault families the exhaustive N-1 set enumerates (the
  /// Monte-Carlo sampler draws from the enabled families too).
  bool include_dropouts{true};
  bool include_derates{true};
  bool include_attach_faults{true};
  bool include_mesh_regions{true};
  bool include_stage2_dropouts{true};
  /// Mesh-damage region centers are placed on this many grid positions
  /// per die axis (the N-1 set gets grid*grid region scenarios).
  std::size_t mesh_region_grid{3};
  /// Worker pool for the scenario evaluations.
  SweepConfig sweep;
};

struct FaultScenarioOutcome {
  FaultScenario scenario;
  FaultInjection injection;
  /// False when the scenario could not be evaluated at all (e.g. the
  /// fault state is infeasible); such scenarios count as non-survivors.
  bool evaluated{false};
  /// True when the evaluation needed beyond-rating loss extrapolation
  /// (the exclusion rule's flagged estimate).
  bool extrapolated{false};
  std::string failure_reason;
  std::optional<ArchitectureEvaluation> evaluation;
  ResilienceReport resilience;

  bool survives() const { return evaluated && resilience.survives; }
};

/// Bucketed margin distribution over the evaluated scenarios.
struct MarginHistogram {
  double lo{0.0};
  double hi{0.0};
  std::vector<std::size_t> counts;
  /// Scenarios that failed to evaluate (no margin to bucket).
  std::size_t unevaluated{0};
};

struct FaultCampaignReport {
  ArchitectureKind architecture{};
  std::optional<TopologyKind> topology;
  DeviceTechnology tech{DeviceTechnology::kGalliumNitride};
  /// The fault-free evaluation the deployment was read from. Evaluated
  /// through the same sweep path as the scenarios; the campaign's N-0
  /// scenario (outcomes.front()) reuses this evaluation outright, so it
  /// reproduces it bit for bit by construction.
  ArchitectureEvaluation nominal;
  std::vector<FaultScenarioOutcome> outcomes;
  double wall_seconds{0.0};
  /// Solver counter delta across the campaign's two sweeps (nominal +
  /// scenarios). Solves/iterations are deterministic; the
  /// factorization/reuse split is scheduling-dependent (see SweepReport).
  SolverCounters solver;
  /// Batch-engine accounting summed over the campaign's sweeps (all zero
  /// when the sweep runs with batch=false).
  BatchStats batch;

  std::size_t scenario_count() const { return outcomes.size(); }
  std::size_t survivor_count() const;
  /// Surviving fraction of the scenario population.
  double survivability() const;
  /// Worst droop fraction over the evaluated scenarios.
  double worst_droop_fraction() const;
  /// Worst load-shedding fraction the degradation policy had to apply.
  double worst_load_shed_fraction() const;
  MarginHistogram margin_histogram(std::size_t bins) const;

  /// The report's metrics in the unified telemetry shape (fault.* counters
  /// and gauges plus solver.* counters); emitted via
  /// obs::Snapshot::to_json() by the campaign benches.
  obs::Snapshot snapshot() const;
};

class FaultCampaignRunner {
 public:
  explicit FaultCampaignRunner(PowerDeliverySpec spec,
                               FaultCampaignConfig config = {});

  const PowerDeliverySpec& spec() const { return spec_; }
  const FaultCampaignConfig& config() const { return config_; }

  /// Generates the scenario population for a deployment with
  /// `site_count` mesh-stage VRs and `stage2_count` below-die final-stage
  /// VRs (0 for single-stage). Deterministic in (config, counts):
  /// N-0 first, then the exhaustive N-1 families in a fixed order, then
  /// the sampled N-k scenarios in stream order. Exposed for tests.
  std::vector<FaultScenario> generate_scenarios(
      std::size_t site_count, std::size_t stage2_count) const;

  /// Runs the campaign for one combination. `base_options` must carry an
  /// empty FaultInjection (the campaign owns the injections). Throws
  /// InfeasibleDesign when even the nominal evaluation is excluded
  /// without an extrapolated estimate.
  FaultCampaignReport run(
      ArchitectureKind architecture, TopologyKind topology,
      DeviceTechnology tech = DeviceTechnology::kGalliumNitride,
      const EvaluationOptions& base_options = {}) const;

 private:
  PowerDeliverySpec spec_;
  FaultCampaignConfig config_;
};

}  // namespace vpd
