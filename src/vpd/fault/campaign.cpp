#include "vpd/fault/campaign.hpp"

#include <algorithm>
#include <cmath>

#include "vpd/common/error.hpp"
#include "vpd/common/rng.hpp"

namespace vpd {

namespace {

/// Picks the evaluation an exclusion-rule entry carries: the accepted one,
/// or the flagged beyond-rating extrapolation (the paper's 3LHD
/// treatment). Nullptr when the combination failed outright.
const ArchitectureEvaluation* entry_evaluation(const ExplorationEntry& entry) {
  if (entry.evaluation.has_value()) return &*entry.evaluation;
  if (entry.extrapolated.has_value()) return &*entry.extrapolated;
  return nullptr;
}

}  // namespace

std::size_t FaultCampaignReport::survivor_count() const {
  std::size_t survivors = 0;
  for (const FaultScenarioOutcome& outcome : outcomes) {
    if (outcome.survives()) ++survivors;
  }
  return survivors;
}

double FaultCampaignReport::survivability() const {
  if (outcomes.empty()) return 0.0;
  return static_cast<double>(survivor_count()) /
         static_cast<double>(outcomes.size());
}

double FaultCampaignReport::worst_droop_fraction() const {
  double worst = 0.0;
  for (const FaultScenarioOutcome& outcome : outcomes) {
    if (outcome.evaluated) {
      worst = std::max(worst, outcome.resilience.droop_fraction);
    }
  }
  return worst;
}

double FaultCampaignReport::worst_load_shed_fraction() const {
  double worst = 0.0;
  for (const FaultScenarioOutcome& outcome : outcomes) {
    if (outcome.evaluated) {
      worst = std::max(worst, outcome.resilience.load_shed_fraction);
    }
  }
  return worst;
}

MarginHistogram FaultCampaignReport::margin_histogram(
    std::size_t bins) const {
  VPD_REQUIRE(bins > 0, "margin histogram needs at least one bin");
  MarginHistogram histogram;
  histogram.counts.assign(bins, 0);
  std::vector<double> margins;
  margins.reserve(outcomes.size());
  for (const FaultScenarioOutcome& outcome : outcomes) {
    if (outcome.evaluated) {
      margins.push_back(outcome.resilience.margin);
    } else {
      ++histogram.unevaluated;
    }
  }
  if (margins.empty()) return histogram;
  histogram.lo = *std::min_element(margins.begin(), margins.end());
  histogram.hi = *std::max_element(margins.begin(), margins.end());
  const double span = histogram.hi - histogram.lo;
  for (double margin : margins) {
    std::size_t bucket = 0;
    if (span > 0.0) {
      bucket = std::min(
          bins - 1, static_cast<std::size_t>(std::floor(
                        (margin - histogram.lo) / span *
                        static_cast<double>(bins))));
    }
    ++histogram.counts[bucket];
  }
  return histogram;
}

obs::Snapshot FaultCampaignReport::snapshot() const {
  obs::Snapshot s;
  s.set_counter("fault.scenarios", scenario_count());
  s.set_counter("fault.survivors", survivor_count());
  set_solver_counters(s, solver);
  s.set_counter("fault.batch_groups", batch.groups);
  s.set_counter("fault.batch_grouped_points", batch.grouped_points);
  s.set_counter("fault.batch_scalar_points", batch.scalar_points);
  s.set_counter("fault.batch_panel_columns", batch.panel_columns);
  s.set_counter("fault.batch_deduped_solves", batch.deduped_solves);
  s.set_gauge("fault.survivability", survivability(), survivability());
  s.set_gauge("fault.worst_droop_fraction", worst_droop_fraction(),
              worst_droop_fraction());
  s.set_gauge("fault.worst_load_shed_fraction", worst_load_shed_fraction(),
              worst_load_shed_fraction());
  s.set_gauge("fault.wall_seconds", wall_seconds, wall_seconds);
  return s;
}

FaultCampaignRunner::FaultCampaignRunner(PowerDeliverySpec spec,
                                         FaultCampaignConfig config)
    : spec_(spec), config_(std::move(config)) {
  spec_.validate();
  config_.severity.validate();
  config_.resilience.validate();
  VPD_REQUIRE(config_.nk_order >= 2,
              "nk_order must be >= 2 (order-1 scenarios are the exhaustive "
              "N-1 set)");
  VPD_REQUIRE(config_.mesh_region_grid > 0,
              "mesh_region_grid must be >= 1");
}

std::vector<FaultScenario> FaultCampaignRunner::generate_scenarios(
    std::size_t site_count, std::size_t stage2_count) const {
  VPD_REQUIRE(site_count > 0, "campaign needs at least one mesh-stage VR");
  std::vector<FaultScenario> scenarios;
  scenarios.push_back(FaultScenario{"N-0", {}});

  // Exhaustive N-1: every enabled single-fault event, fixed family order.
  if (config_.include_dropouts) {
    for (std::size_t s = 0; s < site_count; ++s) {
      scenarios.push_back(FaultScenario{
          detail::concat("drop[", s, "]"),
          {Fault{FaultKind::kVrDropout, s, Length{}, Length{}}}});
    }
  }
  if (config_.include_derates) {
    for (std::size_t s = 0; s < site_count; ++s) {
      scenarios.push_back(FaultScenario{
          detail::concat("derate[", s, "]"),
          {Fault{FaultKind::kVrDerate, s, Length{}, Length{}}}});
    }
  }
  if (config_.include_attach_faults) {
    for (std::size_t s = 0; s < site_count; ++s) {
      scenarios.push_back(FaultScenario{
          detail::concat("attach[", s, "]"),
          {Fault{FaultKind::kAttachFault, s, Length{}, Length{}}}});
    }
  }
  if (config_.include_stage2_dropouts) {
    for (std::size_t s = 0; s < stage2_count; ++s) {
      scenarios.push_back(FaultScenario{
          detail::concat("stage2-drop[", s, "]"),
          {Fault{FaultKind::kStage2Dropout, s, Length{}, Length{}}}});
    }
  }
  if (config_.include_mesh_regions) {
    const double side = spec_.die_side().value;
    const std::size_t grid = config_.mesh_region_grid;
    for (std::size_t i = 0; i < grid; ++i) {
      for (std::size_t j = 0; j < grid; ++j) {
        const double cx =
            side * static_cast<double>(i + 1) / static_cast<double>(grid + 1);
        const double cy =
            side * static_cast<double>(j + 1) / static_cast<double>(grid + 1);
        scenarios.push_back(FaultScenario{
            detail::concat("mesh[", i, ",", j, "]"),
            {Fault{FaultKind::kMeshRegionFault, 0, Length{cx}, Length{cy}}}});
      }
    }
  }

  // Sampled N-k: scenario i draws from its own counter-based stream, so
  // the population is independent of evaluation order and thread count.
  std::vector<FaultKind> families;
  if (config_.include_dropouts) families.push_back(FaultKind::kVrDropout);
  if (config_.include_derates) families.push_back(FaultKind::kVrDerate);
  if (config_.include_attach_faults) {
    families.push_back(FaultKind::kAttachFault);
  }
  if (config_.include_mesh_regions) {
    families.push_back(FaultKind::kMeshRegionFault);
  }
  if (config_.include_stage2_dropouts && stage2_count > 0) {
    families.push_back(FaultKind::kStage2Dropout);
  }
  if (config_.nk_samples > 0) {
    VPD_REQUIRE(!families.empty(),
                "nk_samples > 0 with every fault family disabled");
  }
  const double side = spec_.die_side().value;
  for (std::size_t i = 0; i < config_.nk_samples; ++i) {
    Rng rng(config_.seed, /*stream=*/i);
    FaultScenario scenario;
    scenario.label = detail::concat("N-", config_.nk_order, "[", i, "]");
    for (std::size_t k = 0; k < config_.nk_order; ++k) {
      Fault fault;
      fault.kind = families[rng.next_below(
          static_cast<std::uint32_t>(families.size()))];
      switch (fault.kind) {
        case FaultKind::kVrDropout:
        case FaultKind::kVrDerate:
        case FaultKind::kAttachFault:
          fault.site =
              rng.next_below(static_cast<std::uint32_t>(site_count));
          break;
        case FaultKind::kStage2Dropout:
          fault.site =
              rng.next_below(static_cast<std::uint32_t>(stage2_count));
          break;
        case FaultKind::kMeshRegionFault:
          fault.x = Length{rng.uniform(0.0, side)};
          fault.y = Length{rng.uniform(0.0, side)};
          break;
      }
      scenario.faults.push_back(fault);
    }
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

FaultCampaignReport FaultCampaignRunner::run(
    ArchitectureKind architecture, TopologyKind topology,
    DeviceTechnology tech, const EvaluationOptions& base_options) const {
  VPD_REQUIRE(architecture != ArchitectureKind::kA0_PcbConversion,
              "fault campaigns need distributed VRs; A0 has a single PCB "
              "regulator");
  VPD_REQUIRE(base_options.faults.empty(),
              "base_options must carry an empty FaultInjection (the "
              "campaign owns the injections)");

  // One cache across the nominal probe and every scenario: all
  // non-perturbing scenarios share the nominal operator, and each distinct
  // mesh perturbation gets its own digest-keyed entry.
  MeshSolveCache campaign_cache;
  SweepConfig sweep_config = config_.sweep;
  if (sweep_config.use_mesh_cache && sweep_config.cache == nullptr) {
    sweep_config.cache = &campaign_cache;
  }
  const SweepRunner runner(spec_, sweep_config);

  // Nominal probe: learns the deployment the scenarios address.
  SweepPoint nominal_point;
  nominal_point.architecture = architecture;
  nominal_point.topology = topology;
  nominal_point.tech = tech;
  nominal_point.options = base_options;
  nominal_point.label = sweep_point_label(architecture, topology, tech);
  const SweepReport nominal_report = runner.run({nominal_point});
  const ExplorationEntry& nominal_entry = nominal_report.outcomes[0].entry;
  const ArchitectureEvaluation* nominal = entry_evaluation(nominal_entry);
  if (nominal == nullptr) {
    throw InfeasibleDesign(detail::concat(
        "nominal evaluation failed for ", nominal_point.label, ": ",
        nominal_entry.exclusion_reason));
  }

  const bool two_stage = is_two_stage(architecture);
  const std::size_t site_count =
      two_stage ? nominal->vr_count_stage1 : nominal->vr_count_stage2;
  const std::size_t stage2_count = two_stage ? nominal->vr_count_stage2 : 0;
  const std::vector<FaultScenario> scenarios =
      generate_scenarios(site_count, stage2_count);

  // The N-0 scenario (scenarios[0]) IS the nominal evaluation — reuse the
  // probe instead of evaluating it again. This keeps the
  // outcomes.front()-reproduces-nominal invariant bit-exact by
  // construction and saves one evaluation per campaign.
  std::vector<SweepPoint> points;
  std::vector<FaultInjection> injections;
  points.reserve(scenarios.size() - 1);
  injections.reserve(scenarios.size());
  injections.push_back(to_injection(scenarios[0], config_.severity));
  for (std::size_t i = 1; i < scenarios.size(); ++i) {
    SweepPoint point = nominal_point;
    point.options.faults = to_injection(scenarios[i], config_.severity);
    point.label =
        detail::concat(nominal_point.label, "/", scenarios[i].label);
    injections.push_back(point.options.faults);
    points.push_back(std::move(point));
  }
  const SweepReport sweep_report = runner.run(points);

  FaultCampaignReport report;
  report.architecture = architecture;
  report.topology = topology;
  report.tech = tech;
  report.nominal = *nominal;
  report.wall_seconds = nominal_report.wall_seconds +
                        sweep_report.wall_seconds;
  report.solver = nominal_report.solver + sweep_report.solver;
  report.batch = nominal_report.batch;
  report.batch += sweep_report.batch;
  report.outcomes.reserve(scenarios.size());
  const ResilienceContext context{spec_, architecture, topology, tech};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ExplorationEntry& entry =
        i == 0 ? nominal_entry : sweep_report.outcomes[i - 1].entry;
    FaultScenarioOutcome outcome;
    outcome.scenario = scenarios[i];
    outcome.injection = injections[i];
    if (const ArchitectureEvaluation* eval = entry_evaluation(entry)) {
      outcome.evaluated = true;
      outcome.extrapolated = eval->used_extrapolation;
      outcome.evaluation = *eval;
      outcome.resilience =
          check_resilience(*eval, injections[i], context,
                           config_.resilience);
    } else {
      outcome.failure_reason = entry.exclusion_reason;
    }
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

}  // namespace vpd
