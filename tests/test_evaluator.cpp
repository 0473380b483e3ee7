// The reproduction's core assertions: the architecture evaluator must
// recover the paper's Section IV / Fig. 7 claims.
#include "vpd/arch/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "vpd/common/error.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/workload/power_map.hpp"

namespace vpd {
namespace {

using namespace vpd::literals;

EvaluationOptions paper_mode() {
  EvaluationOptions o;
  o.below_die_area_fraction = 1.6;  // Fig. 7 includes A2+DPMIH (see docs)
  return o;
}

ArchitectureEvaluation eval(ArchitectureKind arch,
                            TopologyKind topo = TopologyKind::kDsch,
                            EvaluationOptions opts = paper_mode()) {
  return evaluate_architecture(arch, paper_system(), topo,
                               DeviceTechnology::kGalliumNitride, opts);
}

TEST(Evaluator, A0LosesMoreThanFortyPercent) {
  const auto a0 = eval(ArchitectureKind::kA0_PcbConversion);
  const double f = a0.loss_fraction(Power{1000.0});
  EXPECT_GT(f, 0.40);
  EXPECT_LT(f, 0.50);
  // Converter contributes its 10%-of-throughput; the rest is horizontal.
  EXPECT_NEAR(a0.conversion_stage1.value, 111.0, 2.0);
  EXPECT_GT(a0.horizontal_loss.value, 250.0);
}

TEST(Evaluator, A0VerticalLossIsNegligible) {
  const auto a0 = eval(ArchitectureKind::kA0_PcbConversion);
  EXPECT_LT(a0.vertical_loss.value, 5.0);  // the paper: negligible
}

TEST(Evaluator, A0FlagsDieSizeInfeasibility) {
  const auto a0 = eval(ArchitectureKind::kA0_PcbConversion);
  ASSERT_FALSE(a0.notes.empty());
  EXPECT_NE(a0.notes.front().find("1176"), std::string::npos);
}

TEST(Evaluator, VerticalDeliveryReachesEightyPercentEfficiency) {
  for (ArchitectureKind arch : {ArchitectureKind::kA1_InterposerPeriphery,
                                ArchitectureKind::kA2_InterposerBelowDie}) {
    const auto e = eval(arch, TopologyKind::kDsch);
    EXPECT_GT(e.efficiency(Power{1000.0}), 0.80) << to_string(arch);
    EXPECT_TRUE(e.within_rating) << to_string(arch);
  }
}

TEST(Evaluator, VpdConverterLossExceedsTenPercent) {
  // Paper conclusion: all proposed architectures show >10% converter loss.
  for (ArchitectureKind arch :
       {ArchitectureKind::kA1_InterposerPeriphery,
        ArchitectureKind::kA2_InterposerBelowDie,
        ArchitectureKind::kA3_TwoStage12V,
        ArchitectureKind::kA3_TwoStage6V}) {
    const auto e = eval(arch, TopologyKind::kDsch);
    EXPECT_GT(e.conversion_loss().value, 100.0) << to_string(arch);
  }
}

TEST(Evaluator, VpdPpdnLossBelowTenPercent) {
  // Paper conclusion: <10% loss in the PPDN for all proposed archs.
  for (ArchitectureKind arch :
       {ArchitectureKind::kA1_InterposerPeriphery,
        ArchitectureKind::kA2_InterposerBelowDie,
        ArchitectureKind::kA3_TwoStage12V,
        ArchitectureKind::kA3_TwoStage6V}) {
    const auto e = eval(arch, TopologyKind::kDsch);
    EXPECT_LT(e.ppdn_loss().value, 100.0) << to_string(arch);
  }
}

TEST(Evaluator, TwoStageLessEfficientThanSingleStage) {
  // The paper: dual-stage conversion yields lower efficiency than the
  // single-stage A1/A2 with DSCH.
  const double a1 = eval(ArchitectureKind::kA1_InterposerPeriphery)
                        .total_loss()
                        .value;
  const double a2 =
      eval(ArchitectureKind::kA2_InterposerBelowDie).total_loss().value;
  const double a3_12 =
      eval(ArchitectureKind::kA3_TwoStage12V).total_loss().value;
  const double a3_6 =
      eval(ArchitectureKind::kA3_TwoStage6V).total_loss().value;
  EXPECT_GT(a3_12, a1);
  EXPECT_GT(a3_12, a2);
  EXPECT_GT(a3_6, a3_12);  // lower intermediate rail carries more current
}

TEST(Evaluator, HorizontalLossShrinksDramaticallyWithTwoStage) {
  // Paper: up to 19x and 7x horizontal reduction for A3@12V / A3@6V
  // relative to A0. Our model reproduces double-digit reduction factors.
  const double a0 =
      eval(ArchitectureKind::kA0_PcbConversion).horizontal_loss.value;
  const double a3_12 =
      eval(ArchitectureKind::kA3_TwoStage12V).horizontal_loss.value;
  const double a3_6 =
      eval(ArchitectureKind::kA3_TwoStage6V).horizontal_loss.value;
  EXPECT_GT(a0 / a3_12, 10.0);
  EXPECT_GT(a0 / a3_6, 7.0);
  EXPECT_GT(a3_6, a3_12);  // 6 V rail carries 2x the current
}

TEST(Evaluator, A1PerVrCurrentsInPaperBand) {
  // Paper: A1 VR loads range 16-27 A. Our mesh yields the same band for
  // mid-edge VRs with lighter corner VRs; the max stays within the 30 A
  // DSCH rating.
  const auto a1 = eval(ArchitectureKind::kA1_InterposerPeriphery);
  ASSERT_TRUE(a1.vr_current_spread.has_value());
  EXPECT_EQ(a1.vr_count_stage2, 48u);
  EXPECT_GT(a1.vr_current_spread->max, 25.0);
  EXPECT_LT(a1.vr_current_spread->max, 30.0);
  EXPECT_GT(a1.vr_current_spread->mean, 19.0);
  EXPECT_LT(a1.vr_current_spread->mean, 22.5);
}

TEST(Evaluator, A2DpmihPerVrCurrentsApproachRating) {
  // Paper: A2 converters below the die center provide up to 93 A.
  const auto a2 =
      eval(ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDpmih);
  ASSERT_TRUE(a2.vr_current_spread.has_value());
  EXPECT_GT(a2.vr_current_spread->max, 80.0);
  EXPECT_LT(a2.vr_current_spread->max, 100.0);
  EXPECT_TRUE(a2.within_rating);
}

TEST(Evaluator, A2SpreadWidensWithHotspotWorkload) {
  EvaluationOptions opts = paper_mode();
  const auto uniform =
      eval(ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDpmih,
           opts);
  opts.sink_map = [](const GridMesh& mesh, Current total) {
    return hotspot_power_map(mesh, total, 0.5, 0.5, 0.15, 0.3);
  };
  opts.allow_extrapolation = true;
  const auto hotspot =
      eval(ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDpmih,
           opts);
  const double uniform_ratio =
      uniform.vr_current_spread->max / uniform.vr_current_spread->min;
  const double hotspot_ratio =
      hotspot.vr_current_spread->max / hotspot.vr_current_spread->min;
  EXPECT_GT(hotspot_ratio, uniform_ratio);
  EXPECT_GT(hotspot_ratio, 4.0);  // the paper's ~9x band needs a hotspot
}

TEST(Evaluator, DicksonExceedsRatingAtPaperDeployment) {
  EvaluationOptions opts = paper_mode();
  opts.fixed_final_stage_vrs = 48;  // the paper's Table II deployment
  const auto e = eval(ArchitectureKind::kA1_InterposerPeriphery,
                      TopologyKind::kDickson, opts);
  EXPECT_FALSE(e.within_rating);
  EXPECT_TRUE(e.used_extrapolation);
}

TEST(Evaluator, ExtrapolationCanBeDisabled) {
  EvaluationOptions opts = paper_mode();
  opts.fixed_final_stage_vrs = 48;
  opts.allow_extrapolation = false;
  EXPECT_THROW(eval(ArchitectureKind::kA1_InterposerPeriphery,
                    TopologyKind::kDickson, opts),
               InfeasibleDesign);
}

TEST(Evaluator, StagesListCoversPath) {
  const auto a0 = eval(ArchitectureKind::kA0_PcbConversion);
  // PCB lateral, BGA, pkg lateral, C4, interposer lateral, TSV, u-bump.
  EXPECT_EQ(a0.stages.size(), 7u);
  double total = 0.0;
  for (const PathStage& s : a0.stages) total += s.loss().value;
  EXPECT_NEAR(total, a0.ppdn_loss().value, 1e-9);
}

TEST(Evaluator, LossBreakdownAddsUp) {
  const auto e = eval(ArchitectureKind::kA3_TwoStage12V);
  EXPECT_NEAR(e.total_loss().value,
              e.vertical_loss.value + e.horizontal_loss.value +
                  e.conversion_stage1.value + e.conversion_stage2.value,
              1e-9);
  EXPECT_GT(e.vr_count_stage1, 0u);
  EXPECT_GT(e.vr_count_stage2, 0u);
}

// Regression for the 48 V feed sizing: the feed current must cover the
// feed's own conduction loss (fixed point), not just the downstream
// demand. Before the fix the upstream path was sized from the losses
// known *before* the feed stages were added, under-reporting both the
// feed current and its I^2 R.
TEST(Evaluator, InputPowerBalancesEveryModeledLoss) {
  for (ArchitectureKind arch : {ArchitectureKind::kA0_PcbConversion,
                                ArchitectureKind::kA1_InterposerPeriphery,
                                ArchitectureKind::kA2_InterposerBelowDie,
                                ArchitectureKind::kA3_TwoStage12V,
                                ArchitectureKind::kA3_TwoStage6V}) {
    const auto e = eval(arch);
    // Energy balance: what the PCB supplies is the delivered power plus
    // every modeled loss — never less.
    EXPECT_NEAR(e.input_power.value, 1000.0 + e.total_loss().value,
                1e-9 * e.input_power.value)
        << to_string(arch);
    EXPECT_GE(e.input_power.value, 1000.0 + e.total_loss().value - 1e-9)
        << to_string(arch);
  }
}

TEST(Evaluator, FeedCurrentIsSelfConsistentWithInputPower) {
  const auto e = eval(ArchitectureKind::kA1_InterposerPeriphery);
  const PowerDeliverySpec spec = paper_system();
  // The PCB lateral segment carries the whole feed; at the fixed point
  // its current times 48 V equals the reported input power. The naive
  // (pre-fix) sizing from downstream demand alone is strictly smaller.
  const PathStage* pcb = nullptr;
  for (const PathStage& s : e.stages) {
    if (s.name == "pcb-lateral") pcb = &s;
  }
  ASSERT_NE(pcb, nullptr);
  EXPECT_NEAR(pcb->current.value * spec.pcb_voltage.value,
              e.input_power.value, 1e-6 * e.input_power.value);
  double upstream_feed_loss = 0.0;
  for (const PathStage& s : e.stages) {
    if (s.current.value == pcb->current.value) {
      upstream_feed_loss += s.loss().value;
    }
  }
  const double naive_current =
      (e.input_power.value - upstream_feed_loss) / spec.pcb_voltage.value;
  EXPECT_GT(pcb->current.value, naive_current);
}

TEST(Evaluator, IrdropToleranceOptionIsHonoured) {
  EvaluationOptions tight = paper_mode();
  tight.irdrop_relative_tolerance = 1e-12;
  EvaluationOptions loose = paper_mode();
  loose.irdrop_relative_tolerance = 1e-6;
  const auto precise = eval(ArchitectureKind::kA1_InterposerPeriphery,
                            TopologyKind::kDsch, tight);
  const auto coarse = eval(ArchitectureKind::kA1_InterposerPeriphery,
                           TopologyKind::kDsch, loose);
  // A looser solve stops earlier but must land on the same physics.
  EXPECT_LT(coarse.cg_iterations, precise.cg_iterations);
  EXPECT_NEAR(coarse.total_loss().value, precise.total_loss().value,
              1e-3 * precise.total_loss().value);

  EvaluationOptions invalid = paper_mode();
  invalid.irdrop_relative_tolerance = 0.0;
  EXPECT_THROW(eval(ArchitectureKind::kA1_InterposerPeriphery,
                    TopologyKind::kDsch, invalid),
               InvalidArgument);
}

TEST(Evaluator, WarmStartDoesNotChangeThePhysics) {
  // Pinned to Jacobi: under the IC default the preconditioner is strong
  // enough that warm and cold starts can land on the same (small)
  // iteration count, which would make the `<` below vacuous.
  EvaluationOptions warm = paper_mode();
  warm.irdrop_preconditioner = CgPreconditioner::kJacobi;
  EvaluationOptions cold = warm;
  cold.cg_warm_start = false;
  const auto with = eval(ArchitectureKind::kA2_InterposerBelowDie,
                         TopologyKind::kDsch, warm);
  const auto without = eval(ArchitectureKind::kA2_InterposerBelowDie,
                            TopologyKind::kDsch, cold);
  EXPECT_NEAR(with.total_loss().value, without.total_loss().value,
              1e-6 * without.total_loss().value);
  // The flat rail-voltage start is much closer than zero: most of the
  // rail sits within millivolts of nominal.
  EXPECT_LT(with.cg_iterations, without.cg_iterations);
}

TEST(Evaluator, OptionValidation) {
  EvaluationOptions opts;
  opts.mesh_nodes = 2;
  EXPECT_THROW(eval(ArchitectureKind::kA1_InterposerPeriphery,
                    TopologyKind::kDsch, opts),
               InvalidArgument);
  opts = EvaluationOptions{};
  opts.distribution_sheet_ohms = 0.0;
  EXPECT_THROW(eval(ArchitectureKind::kA1_InterposerPeriphery,
                    TopologyKind::kDsch, opts),
               InvalidArgument);
}

TEST(Evaluator, AutomaticPreconditionerIsMultigridFromSixtyFourNodes) {
  EvaluationOptions options;
  for (std::size_t nodes : {41u, 63u}) {
    options.mesh_nodes = nodes;
    EXPECT_EQ(resolved_irdrop_preconditioner(options),
              CgPreconditioner::kIncompleteCholesky)
        << nodes;
  }
  for (std::size_t nodes : {64u, 129u, 257u}) {
    options.mesh_nodes = nodes;
    EXPECT_EQ(resolved_irdrop_preconditioner(options),
              CgPreconditioner::kMultigrid)
        << nodes;
  }
  // An explicit choice wins on either side of the threshold.
  options.mesh_nodes = 129;
  options.irdrop_preconditioner = CgPreconditioner::kIncompleteCholesky;
  EXPECT_EQ(resolved_irdrop_preconditioner(options),
            CgPreconditioner::kIncompleteCholesky);
  options.mesh_nodes = 41;
  options.irdrop_preconditioner = CgPreconditioner::kMultigrid;
  EXPECT_EQ(resolved_irdrop_preconditioner(options),
            CgPreconditioner::kMultigrid);
}

/// Every number of two evaluations' wire forms agrees within 1e-8
/// relative to max(|a|, |b|, 1), except cg_iterations, the one number the
/// preconditioner is expected to move; everything else matches exactly.
void expect_same_numbers(const io::Value& a, const io::Value& b,
                         const std::string& path) {
  ASSERT_EQ(a.type(), b.type()) << path;
  if (a.is_number()) {
    const double scale =
        std::max({std::fabs(a.as_number()), std::fabs(b.as_number()), 1.0});
    EXPECT_NEAR(a.as_number(), b.as_number(), 1e-8 * scale) << path;
  } else if (a.is_array()) {
    ASSERT_EQ(a.size(), b.size()) << path;
    for (std::size_t i = 0; i < a.size(); ++i)
      expect_same_numbers(a.as_array()[i], b.as_array()[i],
                          path + "[" + std::to_string(i) + "]");
  } else if (a.is_object()) {
    ASSERT_EQ(a.size(), b.size()) << path;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const auto& [key, value] = a.as_object()[i];
      ASSERT_EQ(key, b.as_object()[i].first) << path;
      if (key == "cg_iterations") continue;
      expect_same_numbers(value, b.as_object()[i].second, path + "." + key);
    }
  } else {
    EXPECT_EQ(a, b) << path;
  }
}

TEST(Evaluator, AutomaticMultigridAgreesWithIcAtSixtyFiveNodes) {
  // 65^2 now resolves to multigrid: the same evaluation forced onto IC(0)
  // reports the same certified numbers, in fewer CG iterations. Once
  // nominal, once with a severed mesh region whose interior nodes are
  // grounded.
  EvaluationOptions automatic = paper_mode();
  automatic.mesh_nodes = 65;
  ASSERT_EQ(resolved_irdrop_preconditioner(automatic),
            CgPreconditioner::kMultigrid);
  EvaluationOptions severed = automatic;
  const double side = paper_system().die_side().value;
  severed.faults.mesh_perturbation = {
      EdgeScaleRegion{Length{0.3 * side}, Length{0.3 * side},
                      Length{0.6 * side}, Length{0.6 * side}, 0.0}};
  {
    // The region fully cuts its interior at 65^2: those nodes float and
    // the solve grounds them.
    const GridMesh mesh(Length{side}, Length{side}, 65, 65,
                        severed.distribution_sheet_ohms,
                        severed.faults.mesh_perturbation);
    const auto vrs =
        patch_attachment(mesh, Length{0.1 * side}, Length{0.1 * side},
                         Length{1.5e-3}, Voltage{1.0}, Resistance{100e-6});
    IrDropOptions options;
    options.preconditioner = CgPreconditioner::kMultigrid;
    EXPECT_GT(solve_irdrop(mesh, vrs, uniform_sinks(mesh, Current{100.0}),
                           options)
                  .floating_nodes,
              0u);
  }
  for (const EvaluationOptions& options : {automatic, severed}) {
    EvaluationOptions ic = options;
    ic.irdrop_preconditioner = CgPreconditioner::kIncompleteCholesky;
    const auto mg_eval = eval(ArchitectureKind::kA2_InterposerBelowDie,
                              TopologyKind::kDsch, options);
    const auto ic_eval = eval(ArchitectureKind::kA2_InterposerBelowDie,
                              TopologyKind::kDsch, ic);
    expect_same_numbers(io::to_json(mg_eval), io::to_json(ic_eval),
                        options.faults.empty() ? "nominal" : "severed");
    EXPECT_LT(mg_eval.cg_iterations, ic_eval.cg_iterations);
  }
}

// Mesh-resolution robustness of the headline numbers.
class EvaluatorMeshSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EvaluatorMeshSweep, A1LossStableAcrossResolutions) {
  EvaluationOptions opts = paper_mode();
  opts.mesh_nodes = GetParam();
  const auto e = eval(ArchitectureKind::kA1_InterposerPeriphery,
                      TopologyKind::kDsch, opts);
  const double f = e.loss_fraction(Power{1000.0});
  EXPECT_GT(f, 0.14);
  EXPECT_LT(f, 0.21);
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, EvaluatorMeshSweep,
                         ::testing::Values<std::size_t>(21, 31, 41, 61));

}  // namespace
}  // namespace vpd
