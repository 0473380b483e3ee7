// Droop-campaign subsystem (ctest -L transient): the TransientScenario
// model, deterministic population generation, the parallel-vs-serial
// bit-identity acceptance test over the default grid, the VR-dropout
// transient's t -> inf consistency with the FaultInjection DC re-solve,
// dynamic-droop metric/check coherence, and the shared factor-cache
// amortization across scenarios.
#include "vpd/workload/droop_campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "vpd/arch/evaluator.hpp"
#include "vpd/arch/transient_model.hpp"
#include "vpd/common/error.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/fault/fault_model.hpp"
#include "vpd/fault/transient_scenario.hpp"
#include "vpd/workload/power_map.hpp"

namespace vpd {
namespace {

/// The paper-mode options every sweep/explorer test pins, at a coarse
/// mesh to keep the DC phases fast.
EvaluationOptions paper_options(std::size_t mesh_nodes = 21) {
  EvaluationOptions o;
  o.below_die_area_fraction = 1.6;
  o.mesh_nodes = mesh_nodes;
  return o;
}

// ---------------------------------------------------------------------------
// TransientScenario model
// ---------------------------------------------------------------------------

TEST(TransientScenarioModel, KindStringsCoverEveryKind) {
  EXPECT_STREQ(to_string(TransientKind::kLoadStep), "load-step");
  EXPECT_STREQ(to_string(TransientKind::kLoadBurst), "load-burst");
  EXPECT_STREQ(to_string(TransientKind::kLoadRamp), "load-ramp");
  EXPECT_STREQ(to_string(TransientKind::kVrDropout), "vr-dropout");
  EXPECT_EQ(all_transient_kinds().size(), 4u);
}

TEST(TransientScenarioModel, ValidationRejectsBadShapes) {
  TransientScenario sc;  // defaults are a valid load step
  EXPECT_NO_THROW(sc.validate());
  sc.tile_x = 1.5;
  EXPECT_THROW(sc.validate(), InvalidArgument);
  sc.tile_x = 0.5;
  sc.base_fraction = 0.9;
  sc.step_fraction = 0.5;  // 1.4 > the 1.2x overload ceiling
  EXPECT_THROW(sc.validate(), InvalidArgument);
  sc.base_fraction = 0.5;
  sc.step_fraction = 0.4;

  sc.kind = TransientKind::kLoadBurst;
  // The boundary edge == half the on-window (the degenerate triangular
  // plateau) is accepted; anything longer is rejected.
  sc.burst_frequency = Frequency{2e6};
  sc.burst_duty = 0.4;
  sc.edge = Seconds{100e-9};  // exactly 0.5 * duty / f
  EXPECT_NO_THROW(sc.validate());
  sc.edge = Seconds{101e-9};
  EXPECT_THROW(sc.validate(), InvalidArgument);

  // Dropouts ignore the tile fields entirely.
  sc.kind = TransientKind::kVrDropout;
  sc.tile_x = 7.0;
  sc.edge = Seconds{200e-9};
  EXPECT_NO_THROW(sc.validate());
}

// ---------------------------------------------------------------------------
// Population generation
// ---------------------------------------------------------------------------

TEST(DroopCampaign, GeneratesDeterministicPopulation) {
  const DroopCampaignRunner runner(paper_system());
  const std::vector<TransientScenario> scenarios =
      runner.generate_scenarios(48);
  // Default config: 2x2 tiles x {step, burst, ramp} + 8 capped dropouts.
  ASSERT_EQ(scenarios.size(), 12u + 8u);
  EXPECT_EQ(scenarios[0].label, "step[0,0]");
  EXPECT_EQ(scenarios[0].kind, TransientKind::kLoadStep);
  EXPECT_EQ(scenarios[4].label, "burst[0,0]");
  EXPECT_EQ(scenarios[8].label, "ramp[0,0]");
  EXPECT_EQ(scenarios[12].label, "dropout[0]");
  EXPECT_EQ(scenarios[12].site, 0u);
  EXPECT_EQ(scenarios.back().label, "dropout[7]");
  // Dropouts run at full load; tiles sit strictly inside the unit die.
  EXPECT_DOUBLE_EQ(scenarios[12].base_fraction, 1.0);
  EXPECT_DOUBLE_EQ(scenarios[0].tile_x, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(scenarios[3].tile_y, 2.0 / 3.0);

  // max_dropout_sites == 0 means every site.
  DroopCampaignConfig all;
  all.max_dropout_sites = 0;
  EXPECT_EQ(DroopCampaignRunner(paper_system(), all)
                .generate_scenarios(5)
                .size(),
            12u + 5u);

  // Families toggle off independently.
  DroopCampaignConfig steps_only;
  steps_only.include_bursts = false;
  steps_only.include_ramps = false;
  steps_only.include_vr_dropouts = false;
  EXPECT_EQ(DroopCampaignRunner(paper_system(), steps_only)
                .generate_scenarios(48)
                .size(),
            4u);
}

TEST(DroopCampaign, RejectsBadConfigAndOptions) {
  DroopCampaignConfig late_event;
  late_event.t_event = late_event.t_stop;
  EXPECT_THROW(DroopCampaignRunner(paper_system(), late_event),
               InvalidArgument);

  DroopCampaignConfig short_window;
  short_window.t_stop = Seconds{0.5e-6};  // less than two burst cycles
  short_window.t_event = Seconds{0.1e-6};
  EXPECT_THROW(DroopCampaignRunner(paper_system(), short_window),
               InvalidArgument);

  const DroopCampaignRunner runner(paper_system());
  EXPECT_THROW(runner.run(ArchitectureKind::kA0_PcbConversion,
                          TopologyKind::kDsch),
               InvalidArgument);
  EvaluationOptions with_map = paper_options();
  with_map.sink_map = [](const GridMesh& mesh, Current total) {
    return uniform_power_map(mesh, total);
  };
  EXPECT_THROW(runner.run(ArchitectureKind::kA1_InterposerPeriphery,
                          TopologyKind::kDsch,
                          DeviceTechnology::kGalliumNitride, with_map),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Acceptance: parallel bit-identity over the default scenario grid
// ---------------------------------------------------------------------------

/// Every outcome, counter and worst case of two droop campaigns over the
/// same scenarios must match bit for bit.
void expect_bit_identical(const DroopCampaignReport& a,
                          const DroopCampaignReport& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const std::string& label = a.outcomes[i].scenario.label;
    EXPECT_EQ(label, b.outcomes[i].scenario.label);
    ASSERT_EQ(a.outcomes[i].evaluated, b.outcomes[i].evaluated) << label;
    if (!a.outcomes[i].evaluated) continue;
    const DroopMetrics& ma = a.outcomes[i].metrics;
    const DroopMetrics& mb = b.outcomes[i].metrics;
    // Bit-identity: EXPECT_EQ on doubles, not EXPECT_NEAR.
    EXPECT_EQ(ma.v_min, mb.v_min) << label;
    EXPECT_EQ(ma.v_settled, mb.v_settled) << label;
    EXPECT_EQ(ma.v_predicted, mb.v_predicted) << label;
    EXPECT_EQ(ma.undershoot_fraction, mb.undershoot_fraction) << label;
    EXPECT_EQ(ma.settled_droop_fraction, mb.settled_droop_fraction)
        << label;
    EXPECT_EQ(ma.settling_time.value, mb.settling_time.value) << label;
    EXPECT_EQ(ma.steady_cycle, mb.steady_cycle) << label;
    EXPECT_EQ(ma.samples, mb.samples) << label;
    EXPECT_EQ(a.outcomes[i].margin, b.outcomes[i].margin) << label;
    ASSERT_EQ(a.outcomes[i].violations.size(),
              b.outcomes[i].violations.size())
        << label;
    for (std::size_t v = 0; v < a.outcomes[i].violations.size(); ++v) {
      EXPECT_EQ(a.outcomes[i].violations[v].kind,
                b.outcomes[i].violations[v].kind)
          << label;
      EXPECT_EQ(a.outcomes[i].violations[v].value,
                b.outcomes[i].violations[v].value)
          << label;
    }
  }
  EXPECT_EQ(a.pass_count(), b.pass_count());
  EXPECT_EQ(a.transient_steps, b.transient_steps);
  EXPECT_EQ(a.worst_undershoot_fraction(), b.worst_undershoot_fraction());
  EXPECT_EQ(a.worst_margin(), b.worst_margin());
  // The shared factor cache's hit/miss split is deterministic too: misses
  // count distinct step matrices, independent of which thread got there
  // first.
  EXPECT_EQ(a.factors.hits, b.factors.hits);
  EXPECT_EQ(a.factors.misses, b.factors.misses);
}

TEST(DroopCampaign, ParallelCampaignIsBitIdenticalToSerial) {
  const PowerDeliverySpec spec = paper_system();
  const EvaluationOptions options = paper_options(21);
  DroopCampaignConfig serial;  // default grid: 12 load + 8 dropout
  serial.sweep.threads = 1;
  DroopCampaignConfig parallel = serial;
  parallel.sweep.threads = 4;
  // The scalar reference: the DC operating points evaluated one by one
  // instead of through the batch engine's same-operator groups (the
  // hotspot sink maps of one deployment share its stamped operator).
  DroopCampaignConfig scalar = parallel;
  scalar.sweep.batch = false;

  const auto run = [&](const DroopCampaignConfig& config) {
    return DroopCampaignRunner(spec, config)
        .run(ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch,
             DeviceTechnology::kGalliumNitride, options);
  };
  const DroopCampaignReport a = run(serial);
  EXPECT_EQ(a.outcomes.size(), 20u);
  {
    SCOPED_TRACE("parallel vs serial");
    expect_bit_identical(a, run(parallel));
  }
  {
    SCOPED_TRACE("scalar (sweep.batch = false) vs serial");
    expect_bit_identical(a, run(scalar));
  }
}

// ---------------------------------------------------------------------------
// VR-dropout transient vs the post-fault DC re-solve
// ---------------------------------------------------------------------------

TEST(DroopCampaign, DropoutTransientSettlesOntoDcAnswer) {
  const PowerDeliverySpec spec = paper_system();
  const EvaluationOptions options = paper_options(21);
  DroopCampaignConfig config;
  config.include_load_steps = false;
  config.include_bursts = false;
  config.include_ramps = false;
  config.max_dropout_sites = 2;
  config.sweep.threads = 2;
  const DroopCampaignReport report =
      DroopCampaignRunner(spec, config)
          .run(ArchitectureKind::kA1_InterposerPeriphery,
               TopologyKind::kDsch, DeviceTechnology::kGalliumNitride,
               options);

  ASSERT_EQ(report.outcomes.size(), 2u);
  const double rail = spec.die_voltage.value;
  const double i_die = spec.die_current().value;
  const ArchitectureEvaluation nominal = evaluate_architecture(
      ArchitectureKind::kA1_InterposerPeriphery, spec, TopologyKind::kDsch,
      DeviceTechnology::kGalliumNitride, options);
  for (const TransientScenarioOutcome& outcome : report.outcomes) {
    ASSERT_TRUE(outcome.evaluated) << outcome.failure_reason;
    const DroopMetrics& m = outcome.metrics;

    // The t -> inf limit of the transient matches the campaign's DC
    // prediction...
    EXPECT_NEAR(m.v_settled, m.v_predicted, 2e-3 * rail)
        << outcome.scenario.label;

    // ...and that prediction is the independent FaultInjection DC
    // re-solve's answer (rail minus the faulted R_eff drop), not a
    // campaign-internal convention.
    EvaluationOptions faulted_options = options;
    const FaultScenario fault{
        outcome.scenario.label,
        {Fault{FaultKind::kVrDropout, outcome.scenario.site, Length{},
               Length{}}}};
    faulted_options.faults = to_injection(fault, FaultSeverity{});
    const ArchitectureEvaluation faulted = evaluate_architecture(
        ArchitectureKind::kA1_InterposerPeriphery, spec,
        TopologyKind::kDsch, DeviceTechnology::kGalliumNitride,
        faulted_options);
    const double r_post =
        build_reduced_pdn(spec, faulted).effective_resistance.value;
    const double r_pre =
        build_reduced_pdn(spec, nominal).effective_resistance.value;
    EXPECT_GT(r_post, r_pre) << outcome.scenario.label;
    // Exact landing point including the documented bypass-leak correction
    // (delta in parallel with the 1-Ohm open switch)...
    const double delta = std::max(r_post - r_pre, 1e-12);
    EXPECT_NEAR(m.v_predicted,
                rail - i_die * (r_pre + delta * 1.0 / (delta + 1.0)), 1e-6)
        << outcome.scenario.label;
    // ...which is the faulted DC drop up to an O(delta^2) leak.
    EXPECT_NEAR(m.v_predicted, rail - i_die * r_post, 0.02 * rail)
        << outcome.scenario.label;
    // The dropout actually disturbed the rail on its way down.
    EXPECT_LT(m.v_min, m.v_settled) << outcome.scenario.label;
  }
}

// ---------------------------------------------------------------------------
// Dynamic-droop metrics and the shared factor cache
// ---------------------------------------------------------------------------

TEST(DroopCampaign, LoadScenariosMeasureCoherentDynamics) {
  const PowerDeliverySpec spec = paper_system();
  DroopCampaignConfig config;
  config.tile_grid = 1;  // one tile x {step, burst, ramp}
  config.include_vr_dropouts = false;
  config.sweep.threads = 2;
  const DroopCampaignReport report =
      DroopCampaignRunner(spec, config)
          .run(ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDsch,
               DeviceTechnology::kGalliumNitride, paper_options(21));

  ASSERT_EQ(report.outcomes.size(), 3u);
  const std::size_t expected_steps = static_cast<std::size_t>(
      std::llround(config.t_stop.value / config.dt.value));
  for (const TransientScenarioOutcome& outcome : report.outcomes) {
    ASSERT_TRUE(outcome.evaluated) << outcome.failure_reason;
    const DroopMetrics& m = outcome.metrics;
    EXPECT_EQ(m.samples, expected_steps + 1) << outcome.scenario.label;
    EXPECT_GT(m.undershoot_fraction, 0.0) << outcome.scenario.label;
    // The worst excursion is at least as deep as the settled droop.
    EXPECT_GE(m.undershoot_fraction,
              m.settled_droop_fraction - 1e-12)
        << outcome.scenario.label;
    EXPECT_LE(m.settling_time.value, config.t_stop.value)
        << outcome.scenario.label;
    // The settled level converges onto the scenario's DC prediction
    // (generous band: lightly-damped ringing may still be decaying).
    EXPECT_NEAR(m.v_settled, m.v_predicted, 0.02 * m.rail)
        << outcome.scenario.label;
    // A failed check is exactly a negative margin.
    EXPECT_EQ(outcome.margin < 0.0, !outcome.violations.empty())
        << outcome.scenario.label;
    if (outcome.scenario.kind == TransientKind::kLoadBurst) {
      EXPECT_TRUE(m.steady_cycle.has_value()) << outcome.scenario.label;
    }
  }
  EXPECT_EQ(report.transient_steps, 3u * expected_steps);

  // Step, burst and ramp at one tile share the tile's reduced netlist, so
  // the shared cache hands the same factorizations to all three: two
  // matrices total (first-step BE + trapezoidal), the rest are hits.
  EXPECT_EQ(report.factors.misses, 2u);
  EXPECT_EQ(report.factors.hits, 4u);

  // Telemetry shape: the transient.* family in the unified snapshot.
  const obs::Snapshot snapshot = report.snapshot();
  ASSERT_NE(snapshot.counter("transient.scenarios"), nullptr);
  EXPECT_EQ(*snapshot.counter("transient.scenarios"), 3u);
  ASSERT_NE(snapshot.counter("transient.factor_misses"), nullptr);
  EXPECT_EQ(*snapshot.counter("transient.factor_misses"), 2u);
  ASSERT_NE(snapshot.counter("transient.steps"), nullptr);
  EXPECT_NE(snapshot.gauge("transient.pass_fraction"), nullptr);
  EXPECT_NE(snapshot.histogram("transient.scenario_seconds"), nullptr);
  EXPECT_EQ(snapshot.histogram("transient.scenario_seconds")->count, 3u);
}

}  // namespace
}  // namespace vpd
