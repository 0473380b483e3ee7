// Design-space optimizer subsystem: DesignSpace validation and lowering,
// ε-dominance Pareto archive semantics (dominance edges, box duels,
// stable ordering), the analytic hypervolume cases, the seeded
// determinism contract (parallel == serial bit-identical, same seed ->
// same front), survivability scoring on elites, and the optimize wire
// schema. Runs in its own ctest executable labelled `opt` so the
// threaded search paths can be exercised under -DVPD_SANITIZE=ON in
// isolation (ctest -L opt).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "vpd/common/error.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/opt/design_space.hpp"
#include "vpd/opt/optimizer.hpp"
#include "vpd/opt/pareto.hpp"

namespace vpd {
namespace {

/// A cheap, fully feasible slice of the space: the two-stage
/// architectures accept every VR count from 36 up even at the coarse
/// mesh resolution the tests pin (single-stage A1/A2 need 56+ VRs
/// there, which would starve small populations of feasible points).
opt::DesignSpace small_space() {
  opt::DesignSpace space;
  space.architectures = {ArchitectureKind::kA3_TwoStage12V,
                         ArchitectureKind::kA3_TwoStage6V};
  space.topologies = {TopologyKind::kDsch};
  space.vr_count = {36, 48};
  return space;
}

opt::OptimizerConfig small_config() {
  opt::OptimizerConfig config;
  config.population = 6;
  config.generations = 2;
  config.survivability.max_elites = 0;
  config.base_options.mesh_nodes = 11;
  config.sweep.threads = 2;
  return config;
}

// ---------------------------------------------------------------------------
// DesignSpace: validation, membership, lowering
// ---------------------------------------------------------------------------

TEST(DesignSpace, DefaultSpaceValidates) {
  const opt::DesignSpace space;
  EXPECT_NO_THROW(space.validate());
  EXPECT_EQ(space.categorical_combinations(), 4u * 3u * 1u);
}

TEST(DesignSpace, RejectsDegenerateAxes) {
  opt::DesignSpace space;
  space.architectures.clear();
  EXPECT_THROW(space.validate(), InvalidArgument);

  space = opt::DesignSpace{};
  space.architectures.push_back(space.architectures.front());  // duplicate
  EXPECT_THROW(space.validate(), InvalidArgument);

  space = opt::DesignSpace{};
  space.architectures.push_back(ArchitectureKind::kA0_PcbConversion);
  EXPECT_THROW(space.validate(), InvalidArgument);

  space = opt::DesignSpace{};
  space.vr_count = {0, 8};  // the optimizer searches explicit counts
  EXPECT_THROW(space.validate(), InvalidArgument);

  space = opt::DesignSpace{};
  space.vr_attach_series_ohms = {2e-4, 1e-4};  // inverted
  EXPECT_THROW(space.validate(), InvalidArgument);

  space = opt::DesignSpace{};
  space.distribution_sheet_ohms = {0.0, 1e-3};  // non-positive
  EXPECT_THROW(space.validate(), InvalidArgument);
}

TEST(DesignSpace, ContainsAndRepair) {
  const opt::DesignSpace space;
  opt::DesignPoint point;  // defaults sit inside the default space
  EXPECT_TRUE(opt::contains(space, point));

  point.vr_count = 1000;
  EXPECT_FALSE(opt::contains(space, point));
  const opt::DesignPoint repaired = opt::repair(space, point);
  EXPECT_EQ(repaired.vr_count, space.vr_count.hi);
  EXPECT_TRUE(opt::contains(space, repaired));

  // Categorical values off their axis are not repairable.
  opt::DesignSpace narrow = small_space();
  opt::DesignPoint foreign;
  foreign.architecture = ArchitectureKind::kA1_InterposerPeriphery;
  foreign.vr_count = 40;
  EXPECT_THROW(opt::repair(narrow, foreign), InvalidArgument);
}

TEST(DesignSpace, LowerMapsEveryKnobAndPreservesBase) {
  opt::DesignPoint point;
  point.vr_count = 42;
  point.periphery_rings = 3;
  point.below_die_area_fraction = 1.25;
  point.vr_attach_series_ohms = 77e-6;
  point.distribution_sheet_ohms = 3e-3;

  EvaluationOptions base;
  base.mesh_nodes = 17;
  const EvaluationOptions lowered = opt::lower(point, base);
  EXPECT_EQ(lowered.fixed_final_stage_vrs, 42u);
  EXPECT_EQ(lowered.max_periphery_rings, 3u);
  EXPECT_DOUBLE_EQ(lowered.below_die_area_fraction, 1.25);
  EXPECT_DOUBLE_EQ(lowered.vr_attach_series.value, 77e-6);
  EXPECT_DOUBLE_EQ(lowered.distribution_sheet_ohms, 3e-3);
  EXPECT_EQ(lowered.mesh_nodes, 17u);  // base survives untouched

  base.faults.dropped_sites = {0};
  EXPECT_THROW(opt::lower(point, base), InvalidArgument);
}

TEST(DesignSpace, DesignPointKeyIsExactAndDistinct) {
  opt::DesignPoint a;
  const std::string key = opt::design_point_key(a);
  EXPECT_NE(key.find("A1/DSCH/GaN/vrs=48"), std::string::npos);

  opt::DesignPoint b = a;
  b.vr_attach_series_ohms = std::nextafter(a.vr_attach_series_ohms, 1.0);
  // Shortest-round-trip float printing keeps even 1-ulp neighbours
  // distinct — the dedup intern never conflates near-identical points.
  EXPECT_NE(opt::design_point_key(a), opt::design_point_key(b));
}

TEST(DesignSpace, SampleStaysInsideAndIsSeedStable) {
  const opt::DesignSpace space;
  Rng rng(7, 3);
  Rng rng2(7, 3);
  for (int i = 0; i < 64; ++i) {
    const opt::DesignPoint p = opt::sample(space, rng);
    EXPECT_TRUE(opt::contains(space, p));
    EXPECT_EQ(opt::design_point_key(p),
              opt::design_point_key(opt::sample(space, rng2)));
  }
}

// ---------------------------------------------------------------------------
// Pareto dominance and the ε archive
// ---------------------------------------------------------------------------

TEST(Pareto, DominanceEdges) {
  EXPECT_TRUE(opt::dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(opt::dominates({1.0, 2.0}, {2.0, 2.0}));  // one axis strict
  EXPECT_FALSE(opt::dominates({1.0, 1.0}, {1.0, 1.0}));  // equal: no
  EXPECT_FALSE(opt::dominates({1.0, 3.0}, {2.0, 2.0}));  // incomparable
  EXPECT_FALSE(opt::dominates({2.0, 2.0}, {1.0, 1.0}));
}

TEST(Pareto, ZeroEpsilonDegradesToPlainDominance) {
  opt::ParetoArchive archive({0.0, 0.0});
  EXPECT_TRUE(archive.insert(0, {1.0, 2.0}));
  EXPECT_TRUE(archive.insert(1, {2.0, 1.0}));   // incomparable: both stay
  EXPECT_FALSE(archive.insert(2, {1.0, 2.0}));  // duplicate loses the duel
  EXPECT_TRUE(archive.insert(3, {0.5, 0.5}));   // dominates both: evicts
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.entries().front().id, 3u);
}

TEST(Pareto, EpsilonBoxKeepsOneRepresentativePerBox) {
  opt::ParetoArchive archive({1.0, 1.0});
  EXPECT_TRUE(archive.insert(0, {1.9, 1.9}));
  // Same box [1,2)x[1,2): closer to the lower corner wins the duel.
  EXPECT_TRUE(archive.insert(1, {1.2, 1.2}));
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.entries().front().id, 1u);
  // Farther from the corner: rejected, archive unchanged.
  EXPECT_FALSE(archive.insert(2, {1.8, 1.3}));
  EXPECT_EQ(archive.entries().front().id, 1u);
  // A box-dominated point (box {2,1} vs member box {1,1}) is rejected
  // even though no member plainly dominates it per-coordinate.
  EXPECT_FALSE(archive.insert(3, {2.5, 1.1}));
  // An incomparable box (here {2,0}) survives alongside.
  EXPECT_TRUE(archive.insert(4, {2.5, 0.1}));
  EXPECT_EQ(archive.size(), 2u);
}

TEST(Pareto, SameBoxExactTieBreaksOnSmallerId) {
  opt::ParetoArchive archive({1.0});
  EXPECT_TRUE(archive.insert(5, {0.5}));
  EXPECT_FALSE(archive.insert(9, {0.5}));  // same point, larger id loses
  EXPECT_EQ(archive.entries().front().id, 5u);

  opt::ParetoArchive reversed({1.0});
  EXPECT_TRUE(reversed.insert(9, {0.5}));
  EXPECT_TRUE(reversed.insert(5, {0.5}));  // smaller id wins the duel
  EXPECT_EQ(reversed.entries().front().id, 5u);
}

TEST(Pareto, EntriesHaveStableLexicographicOrder) {
  opt::ParetoArchive archive({0.0, 0.0});
  archive.insert(2, {3.0, 1.0});
  archive.insert(0, {1.0, 3.0});
  archive.insert(1, {2.0, 2.0});
  const std::vector<opt::ArchiveEntry> entries = archive.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].id, 0u);  // (1,3) < (2,2) < (3,1) lexicographically
  EXPECT_EQ(entries[1].id, 1u);
  EXPECT_EQ(entries[2].id, 2u);
}

TEST(Pareto, InsertRejectsWrongArity) {
  opt::ParetoArchive archive({1.0, 1.0});
  EXPECT_THROW(archive.insert(0, {1.0}), InvalidArgument);
  EXPECT_THROW(opt::ParetoArchive({-1.0}), InvalidArgument);
}

TEST(Pareto, HypervolumeAnalyticCases) {
  // 1-D: distance from the best point to the reference.
  EXPECT_DOUBLE_EQ(opt::hypervolume({{2.0}, {3.0}}, {5.0}), 3.0);
  // 2-D single point: the dominated rectangle.
  EXPECT_DOUBLE_EQ(opt::hypervolume({{1.0, 1.0}}, {3.0, 4.0}), 6.0);
  // 2-D staircase: union of two overlapping rectangles.
  // (1,2) spans 2x2, (2,1) spans 1x3, overlap 1x2 -> 2*2 + 1*3 - 1*2 = 5.
  EXPECT_DOUBLE_EQ(opt::hypervolume({{1.0, 2.0}, {2.0, 1.0}}, {3.0, 4.0}),
                   5.0);
  // A point at or beyond the reference contributes nothing.
  EXPECT_DOUBLE_EQ(opt::hypervolume({{3.0, 4.0}}, {3.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(opt::hypervolume({}, {3.0, 4.0}), 0.0);
  // Clipping: a coordinate at or past the reference is clipped to it, so
  // a point worse than the reference on one axis contributes only what
  // the remaining axes dominate inside the box — here nothing.
  EXPECT_DOUBLE_EQ(opt::hypervolume({{1.0, 5.0}, {2.0, 1.0}}, {3.0, 4.0}),
                   3.0);
  // 3-D cube corner.
  EXPECT_DOUBLE_EQ(opt::hypervolume({{0.0, 0.0, 0.0}}, {2.0, 2.0, 2.0}),
                   8.0);
}

// ---------------------------------------------------------------------------
// Optimizer: config validation and the determinism contract
// ---------------------------------------------------------------------------

TEST(Optimizer, ConfigValidation) {
  opt::OptimizerConfig config;
  config.population = 3;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.generations = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.mutation_rate = 1.5;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.base_options.faults.dropped_sites = {0};
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  EXPECT_NO_THROW(config.validate());
}

TEST(Optimizer, DefaultEpsilonAndReferenceAreSized) {
  EXPECT_EQ(opt::default_epsilon(3).size(), 3u);
  EXPECT_EQ(opt::default_epsilon(4).size(), 4u);
  EXPECT_EQ(opt::default_reference(4).size(), 4u);
  EXPECT_THROW(opt::default_epsilon(2), InvalidArgument);
  EXPECT_THROW(opt::default_reference(5), InvalidArgument);
}

TEST(Optimizer, FrontIsNonDominatedAndWithinSpace) {
  const opt::DesignSpace space = small_space();
  const opt::DesignOptimizer optimizer(paper_system(), space,
                                       small_config());
  const opt::OptimizeReport report = optimizer.run();
  ASSERT_FALSE(report.front.empty());
  EXPECT_GT(report.hypervolume, 0.0);
  EXPECT_LE(report.evaluations, 6u * 3u);
  for (const opt::FrontEntry& entry : report.front) {
    EXPECT_TRUE(entry.candidate.feasible);
    EXPECT_TRUE(opt::contains(space, entry.candidate.point));
    ASSERT_EQ(entry.objectives.size(), 3u);
    for (const opt::FrontEntry& other : report.front) {
      if (&entry == &other) continue;
      EXPECT_FALSE(opt::dominates(other.objectives, entry.objectives));
    }
  }
}

TEST(Optimizer, ParallelMatchesSerialBitIdentically) {
  const opt::DesignSpace space = small_space();
  opt::OptimizerConfig parallel = small_config();
  parallel.sweep.threads = 4;
  opt::OptimizerConfig serial = small_config();
  serial.sweep.threads = 1;

  const opt::OptimizeReport a =
      opt::DesignOptimizer(paper_system(), space, parallel).run();
  const opt::OptimizeReport b =
      opt::DesignOptimizer(paper_system(), space, serial).run();

  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].candidate.id, b.front[i].candidate.id);
    EXPECT_EQ(a.front[i].objectives, b.front[i].objectives);  // bitwise
  }
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.hypervolume, b.hypervolume);
}

TEST(Optimizer, DifferentSeedsExploreDifferently) {
  const opt::DesignSpace space = small_space();
  opt::OptimizerConfig other = small_config();
  other.seed = 1234;
  const opt::OptimizeReport a =
      opt::DesignOptimizer(paper_system(), space, small_config()).run();
  const opt::OptimizeReport b =
      opt::DesignOptimizer(paper_system(), space, other).run();
  std::set<std::string> keys_a;
  std::set<std::string> keys_b;
  for (const opt::FrontEntry& e : a.front) {
    keys_a.insert(opt::design_point_key(e.candidate.point));
  }
  for (const opt::FrontEntry& e : b.front) {
    keys_b.insert(opt::design_point_key(e.candidate.point));
  }
  EXPECT_NE(keys_a, keys_b);
}

TEST(Optimizer, WarmStartPointsAreEvaluatedFirst) {
  const opt::DesignSpace space = small_space();
  opt::OptimizerConfig config = small_config();
  opt::DesignPoint seed_point;
  seed_point.architecture = ArchitectureKind::kA3_TwoStage12V;
  seed_point.vr_count = 40;
  config.warm_start = {seed_point};
  const opt::OptimizeReport report =
      opt::DesignOptimizer(paper_system(), space, config).run();
  // The warm-start point interns as candidate 0 ahead of the hypercube.
  EXPECT_GE(report.candidates, config.population);

  config.warm_start.front().architecture =
      ArchitectureKind::kA2_InterposerBelowDie;  // off the space's axis
  EXPECT_THROW(opt::DesignOptimizer(paper_system(), space, config).run(),
               InvalidArgument);
}

TEST(Optimizer, EvaluationBudgetIsAHardCap) {
  const opt::DesignSpace space = small_space();
  opt::OptimizerConfig config = small_config();
  config.max_evaluations = 7;
  const opt::OptimizeReport report =
      opt::DesignOptimizer(paper_system(), space, config).run();
  EXPECT_LE(report.evaluations, 7u);
}

TEST(Optimizer, SurvivabilityScoresElitesOnly) {
  const opt::DesignSpace space = small_space();
  opt::OptimizerConfig config = small_config();
  config.survivability.max_elites = 2;
  const opt::DesignOptimizer optimizer(paper_system(), space, config);
  EXPECT_EQ(optimizer.objective_count(), 4u);
  const opt::OptimizeReport report = optimizer.run();
  ASSERT_FALSE(report.front.empty());
  EXPECT_GT(report.fault_campaigns, 0u);
  // Campaigns stay bounded: at most max_elites per scoring pass, one
  // pass per generation plus the final pass.
  EXPECT_LE(report.fault_campaigns,
            config.survivability.max_elites * (config.generations + 2));
  for (const opt::FrontEntry& entry : report.front) {
    // Only scored candidates enter the 4-objective archive.
    ASSERT_TRUE(entry.candidate.survivability.has_value());
    ASSERT_EQ(entry.objectives.size(), 4u);
    EXPECT_DOUBLE_EQ(entry.objectives[opt::kVulnerability],
                     1.0 - *entry.candidate.survivability);
  }
}

TEST(Optimizer, ReportSnapshotCarriesOptCounters) {
  const opt::OptimizeReport report =
      opt::DesignOptimizer(paper_system(), small_space(), small_config())
          .run();
  const obs::Snapshot snapshot = report.snapshot();
  const std::uint64_t* evaluations = snapshot.counter("opt.evaluations");
  ASSERT_NE(evaluations, nullptr);
  EXPECT_EQ(*evaluations, report.evaluations);
  const std::uint64_t* front_size = snapshot.counter("opt.front_size");
  ASSERT_NE(front_size, nullptr);
  EXPECT_EQ(*front_size, report.front.size());
}

// ---------------------------------------------------------------------------
// Wire schema: optimize requests and reports
// ---------------------------------------------------------------------------

io::OptimizeRequest parse_optimize(const std::string& text) {
  return io::optimize_request_from_json(io::parse(text));
}

TEST(OptimizeSchema, RoundTripsThroughJson) {
  io::OptimizeRequest request;
  request.spec = paper_system();
  request.space = small_space();
  request.config = small_config();
  request.config.seed = 987654321;
  opt::DesignPoint warm;
  warm.architecture = ArchitectureKind::kA3_TwoStage6V;
  warm.vr_count = 44;
  request.config.warm_start = {warm};

  const io::Value wire = io::to_json(request);
  const io::OptimizeRequest parsed =
      io::optimize_request_from_json(wire);
  EXPECT_EQ(parsed.config.seed, 987654321u);
  EXPECT_EQ(parsed.config.population, request.config.population);
  EXPECT_EQ(parsed.space.vr_count.lo, request.space.vr_count.lo);
  ASSERT_EQ(parsed.config.warm_start.size(), 1u);
  EXPECT_EQ(opt::design_point_key(parsed.config.warm_start.front()),
            opt::design_point_key(warm));
  // The canonical key is the dump of the canonical form: re-serializing
  // the parsed request reproduces it exactly.
  EXPECT_EQ(io::canonical_optimize_key(request),
            io::canonical_optimize_key(parsed));
}

TEST(OptimizeSchema, DefaultsAreOptionalOnTheWire) {
  const io::OptimizeRequest request = parse_optimize(R"({"cmd":"optimize"})");
  EXPECT_EQ(request.config.population, opt::OptimizerConfig{}.population);
  EXPECT_EQ(request.space.architectures.size(), 4u);
}

TEST(OptimizeSchema, RejectsInvalidRequests) {
  // Bad space bounds.
  EXPECT_THROW(parse_optimize(
                   R"({"space":{"vr_count":{"lo":0,"hi":4}}})"),
               InvalidArgument);
  // Faults may not ride in the base options.
  EXPECT_THROW(
      parse_optimize(R"({"options":{"faults":{"dropped_sites":[0]}}})"),
      InvalidArgument);
  // Warm-start points outside the space are named in the error.
  try {
    parse_optimize(
        R"({"space":{"architectures":["A3@12V"],"topologies":["DSCH"]},)"
        R"("config":{"warm_start":[{"architecture":"A1",)"
        R"("topology":"DSCH"}]}})");
    FAIL() << "outside warm start must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("A1/DSCH"), std::string::npos);
  }
  // Wrong schema version.
  EXPECT_THROW(parse_optimize(R"({"schema_version":99})"), InvalidArgument);
}

TEST(OptimizeSchema, ReportSerializesDeterministicPrefix) {
  const opt::OptimizeReport report =
      opt::DesignOptimizer(paper_system(), small_space(), small_config())
          .run();
  const std::string line = io::dump(io::to_json(report));
  // Everything before "wall_seconds" is deterministic; the socket smoke
  // test strips from there on when diffing socket against stdin output.
  const std::size_t cut = line.find(",\"wall_seconds\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_NE(line.find("\"front\":["), std::string::npos);
  EXPECT_NE(line.find("\"hypervolume\":"), std::string::npos);
  EXPECT_LT(line.find("\"hypervolume\":"), cut);
  EXPECT_GT(line.find("\"mesh_cache\":"), cut);
}

}  // namespace
}  // namespace vpd
