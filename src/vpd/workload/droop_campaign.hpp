// Time-domain droop campaigns: couples the MNA transient engine to the
// sweep/fault stack. A campaign takes one (architecture, topology,
// technology) combination, probes it nominally through the sweep engine
// to learn the deployment, generates a TransientScenario population
// (load-step / burst / ramp di/dt events on a power-map tile grid, plus
// per-VR dropout transients), evaluates every scenario's DC operating
// point on the sweep engine (hotspot sink maps for the load scenarios,
// FaultInjection re-solves for the dropouts), lowers each operating
// point onto a reduced transient netlist, and integrates them all on the
// sweep ThreadPool against the ResilienceSpec's dynamic-droop limits.
//
// Determinism contract (the sweep contract extended to the time domain):
// a parallel campaign is bit-identical to a serial one. Every scenario is
// integrated by the same pure routine against an immutable DC report, and
// the shared TransientFactorCache hands out factorizations computed from
// matrices its keys determine bit for bit — whichever thread populates an
// entry, every consumer solves against the same factors. Only wall-time
// fields vary run to run.
//
// VR-dropout transients settle, by construction, onto the post-fault DC
// re-solve's answer: the supply Thevenin resistance steps from the
// nominal R_eff to the faulted evaluation's R_eff (a bypass switch across
// the delta opens at t_event) while the dropped VR's share of the load
// current collapses to zero over the scenario's `edge`. The t -> inf
// limit therefore matches the FaultInjection DC answer, and the transient
// adds the droop/recovery trajectory between the two DC endpoints.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "vpd/arch/evaluator.hpp"
#include "vpd/arch/transient_model.hpp"
#include "vpd/circuit/transient.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/fault/resilience.hpp"
#include "vpd/fault/transient_scenario.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/sweep/sweep.hpp"

namespace vpd {

struct DroopCampaignConfig {
  /// Dynamic-droop acceptance limits (the transient_* / recovery fields).
  ResilienceSpec resilience;
  /// Reduced-PDN lowering knobs (decap bank, ESR).
  ReducedModelOptions model;

  // --- Integration window ----------------------------------------------
  Seconds t_stop{Seconds{20e-6}};
  Seconds dt{Seconds{2e-9}};
  IntegrationMethod method{IntegrationMethod::kTrapezoidal};

  // --- Scenario population ---------------------------------------------
  /// Load scenarios are anchored on tile_grid x tile_grid power-map tiles
  /// (hotspot sink maps at the tile centers).
  std::size_t tile_grid{2};
  double tile_sigma{0.15};
  double tile_background{0.3};
  /// Load shape: base -> base + step (fractions of the die current).
  double base_fraction{0.5};
  double step_fraction{0.4};
  Seconds t_event{Seconds{2e-6}};
  Seconds edge{Seconds{100e-9}};
  Frequency burst_frequency{Frequency{2e6}};
  double burst_duty{0.4};
  bool include_load_steps{true};
  bool include_bursts{true};
  bool include_ramps{true};
  bool include_vr_dropouts{true};
  /// Cap on the per-site dropout transients (each costs one faulted DC
  /// re-solve); 0 = every mesh-stage site.
  std::size_t max_dropout_sites{8};

  /// Parent span for the campaign's "droop.campaign" trace span.
  obs::TraceContext trace{};
  /// Worker pool for the DC re-solves and the transient integrations.
  SweepConfig sweep;

  void validate() const;
};

/// Measured dynamic response of one scenario's POL rail.
struct DroopMetrics {
  /// Regulated rail the fractions are referred to [V].
  double rail{0.0};
  /// Worst rail voltage after the disturbance onset [V].
  double v_min{0.0};
  /// Settled rail voltage: the final sample, or the last full cycle's
  /// average for burst scenarios [V].
  double v_settled{0.0};
  /// The scenario's t -> inf DC prediction [V] (tile model at the final
  /// load; post-fault re-solve for dropouts; cycle-average load for
  /// bursts). v_settled converging onto this is the transient/DC
  /// consistency the campaign tests rely on.
  double v_predicted{0.0};
  /// (rail - v_min) / rail, checked against transient_droop_tolerance.
  double undershoot_fraction{0.0};
  /// (rail - v_settled) / rail: the steady-state recovery level.
  double settled_droop_fraction{0.0};
  /// Last excursion outside the recovery band after the disturbance,
  /// checked against settling_time_limit (burst scenarios: time to the
  /// first steady cycle).
  Seconds settling_time{};
  /// Burst scenarios: first_steady_cycle index, checked against
  /// steady_cycle_limit; nullopt when the trace never reached a steady
  /// cycle (or for non-burst scenarios).
  std::optional<std::size_t> steady_cycle;
  /// Samples in the transient record (steps + 1).
  std::size_t samples{0};
};

struct TransientScenarioOutcome {
  TransientScenario scenario;
  /// False when the scenario's DC operating point or integration failed.
  bool evaluated{false};
  /// True when the DC operating point needed beyond-rating extrapolation.
  bool extrapolated{false};
  std::string failure_reason;
  DroopMetrics metrics;
  std::vector<SpecViolation> violations;
  /// Smallest relative headroom over the scenario's dynamic checks (see
  /// ResilienceReport::margin); negative when a check fails.
  double margin{1.0};

  bool passes() const { return evaluated && violations.empty(); }
};

struct DroopCampaignReport {
  ArchitectureKind architecture{};
  std::optional<TopologyKind> topology;
  DeviceTechnology tech{DeviceTechnology::kGalliumNitride};
  /// The fault-free evaluation the deployment (and the dropout model's
  /// pre-fault supply impedance) was read from.
  ArchitectureEvaluation nominal;
  /// One outcome per generated scenario, in generation order.
  std::vector<TransientScenarioOutcome> outcomes;
  double wall_seconds{0.0};
  /// The solver work of the campaign's DC sweeps (nominal probe +
  /// per-scenario operating points), the sum of their own work accounts.
  SolverCounters solver;
  /// Shared transient LU cache reuse across every integration. Both
  /// fields are deterministic: misses count distinct (netlist, method,
  /// step size, switch-state) matrices, hits the per-simulation lookups
  /// that found them, independent of scheduling.
  TransientFactorCache::Stats factors;
  /// Accepted time steps across all evaluated scenarios.
  std::size_t transient_steps{0};
  /// Per-scenario integration wall times (timing only — the one
  /// scheduling-dependent part of the report, like SweepStats).
  obs::HistogramData scenario_seconds;

  std::size_t scenario_count() const { return outcomes.size(); }
  std::size_t pass_count() const;
  /// Passing fraction of the scenario population.
  double pass_fraction() const;
  double worst_undershoot_fraction() const;
  Seconds worst_settling_time() const;
  double worst_margin() const;

  /// The report's metrics in the unified telemetry shape (transient.*
  /// counters and gauges plus solver.* counters and the
  /// transient.scenario_seconds histogram); emitted via
  /// obs::Snapshot::to_json() by the campaign bench and the service.
  obs::Snapshot snapshot() const;
};

class DroopCampaignRunner {
 public:
  explicit DroopCampaignRunner(PowerDeliverySpec spec,
                               DroopCampaignConfig config = {});

  const PowerDeliverySpec& spec() const { return spec_; }
  const DroopCampaignConfig& config() const { return config_; }

  /// Generates the scenario population for a deployment with `site_count`
  /// mesh-stage VRs. Deterministic in (config, site_count): the load
  /// families in a fixed order over the tile grid (steps, bursts, ramps),
  /// then the capped per-site dropouts. Exposed for tests.
  std::vector<TransientScenario> generate_scenarios(
      std::size_t site_count) const;

  /// Runs the campaign for one combination. `base_options` must carry an
  /// empty FaultInjection and no sink map (the campaign owns both).
  /// Throws InfeasibleDesign when the nominal evaluation is excluded
  /// without an extrapolated estimate.
  DroopCampaignReport run(
      ArchitectureKind architecture, TopologyKind topology,
      DeviceTechnology tech = DeviceTechnology::kGalliumNitride,
      const EvaluationOptions& base_options = {}) const;

 private:
  PowerDeliverySpec spec_;
  DroopCampaignConfig config_;
};

}  // namespace vpd
