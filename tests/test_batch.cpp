// Batch-first evaluation engine (core/batch.hpp): same-operator grouping
// and sink-vector deduplication, the one contract (every batched entry is
// bit-identical to the scalar evaluation of its point), one evaluation
// pass per point, per-point error transport, and the batch accounting
// surfaced by the sweep / fault-campaign / optimizer reports and the
// serving layer's evaluate_batch. Runs in its own ctest executable
// labelled `batch` so the grouped paths join the sanitizer matrix
// (ctest -L batch).
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "vpd/common/error.hpp"
#include "vpd/common/sparse.hpp"
#include "vpd/core/batch.hpp"
#include "vpd/core/explorer.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/fault/campaign.hpp"
#include "vpd/io/json.hpp"
#include "vpd/io/schema.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/opt/optimizer.hpp"
#include "vpd/serve/service.hpp"
#include "vpd/sweep/sweep.hpp"

namespace vpd {
namespace {

/// The paper-mode options every sweep/explorer test pins (A2's published
/// 48 below-die VRs need the relaxed area budget), at a mesh coarse
/// enough to keep the solves cheap.
EvaluationOptions paper_options(std::size_t mesh_nodes = 31) {
  EvaluationOptions o;
  o.below_die_area_fraction = 1.6;
  o.mesh_nodes = mesh_nodes;
  return o;
}

/// A3@12V/DSCH evaluation point; a stage-2 dropout scales the
/// intermediate-rail current — the stage-1 deployment is sized at design
/// time — so faulted variants share the nominal point's stamped operator
/// and differ only in the sink vector. The canonical group case.
EvaluationPoint a3_point(std::vector<std::size_t> dropped_stage2 = {}) {
  EvaluationPoint p;
  p.architecture = ArchitectureKind::kA3_TwoStage12V;
  p.topology = TopologyKind::kDsch;
  p.options = paper_options();
  p.options.faults.dropped_stage2 = std::move(dropped_stage2);
  return p;
}

ExplorationEntry scalar_reference(const EvaluationPoint& p) {
  return evaluate_with_exclusion(paper_system(), p.architecture, p.topology,
                                 p.tech, p.options);
}

void expect_identical(const ExplorationEntry& a, const ExplorationEntry& b,
                      const std::string& label) {
  ASSERT_EQ(a.excluded(), b.excluded()) << label;
  ASSERT_EQ(a.evaluation.has_value(), b.evaluation.has_value()) << label;
  ASSERT_EQ(a.extrapolated.has_value(), b.extrapolated.has_value()) << label;
  const auto check = [&](const ArchitectureEvaluation& x,
                         const ArchitectureEvaluation& y) {
    // Exact equality on doubles is the point: bit-identical results.
    EXPECT_EQ(x.total_loss().value, y.total_loss().value) << label;
    EXPECT_EQ(x.vertical_loss.value, y.vertical_loss.value) << label;
    EXPECT_EQ(x.horizontal_loss.value, y.horizontal_loss.value) << label;
    EXPECT_EQ(x.input_power.value, y.input_power.value) << label;
    EXPECT_EQ(x.cg_iterations, y.cg_iterations) << label;
    ASSERT_EQ(x.min_distribution_voltage.has_value(),
              y.min_distribution_voltage.has_value())
        << label;
    if (x.min_distribution_voltage) {
      EXPECT_EQ(x.min_distribution_voltage->value,
                y.min_distribution_voltage->value)
          << label;
    }
  };
  if (a.evaluation) check(*a.evaluation, *b.evaluation);
  if (a.extrapolated) check(*a.extrapolated, *b.extrapolated);
}

// ---------------------------------------------------------------------------
// EvaluationBatch: grouping, dedup, bit-identity, one pass per point
// ---------------------------------------------------------------------------

TEST(EvaluationBatch, GroupsSameOperatorPointsAndDedupsIdenticalSinks) {
  std::vector<EvaluationPoint> points;
  points.push_back(a3_point());     // group lead
  points.push_back(a3_point({0}));  // same operator, scaled sinks
  points.push_back(a3_point());     // identical sinks -> deduped solve
  {
    EvaluationPoint a1;  // different operator (1 V rail, own legs)
    a1.architecture = ArchitectureKind::kA1_InterposerPeriphery;
    a1.topology = TopologyKind::kDsch;
    a1.options = paper_options();
    points.push_back(a1);
  }
  {
    EvaluationPoint a0;  // never reaches a distribution solve
    a0.architecture = ArchitectureKind::kA0_PcbConversion;
    a0.options = paper_options();
    points.push_back(a0);
  }

  BatchStats stats;
  const std::vector<ExplorationEntry> entries =
      evaluate_batch_with_exclusion(paper_system(), points, &stats);

  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(stats.points, 5u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.grouped_points, 3u);
  EXPECT_EQ(stats.scalar_points, 2u);
  EXPECT_EQ(stats.panel_columns, 2u);
  EXPECT_EQ(stats.deduped_solves, 1u);
  // The deduplicated twin shares its lead's solve bit for bit.
  expect_identical(entries[0], entries[2], "dedup twin");
  EXPECT_FALSE(entries[0].excluded());
  EXPECT_FALSE(entries[4].excluded());  // A0 evaluates fine without a mesh
}

TEST(EvaluationBatch, GroupedPointsAreBitIdenticalToScalarEvaluation) {
  // Dropping one vs two stage-2 VRs changes the survivor count, hence the
  // intermediate-rail current: three genuinely distinct right-hand sides.
  // (Dropping site 0 vs site 1 would NOT — survivors split uniformly, so
  // those sinks are value-identical and deduplicate.)
  const std::vector<EvaluationPoint> points = {a3_point(), a3_point({0}),
                                               a3_point({0, 1})};
  BatchStats stats;
  const std::vector<ExplorationEntry> entries =
      evaluate_batch_with_exclusion(paper_system(), points, &stats);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.panel_columns, 3u);
  ASSERT_EQ(entries.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(entries[i], scalar_reference(points[i]),
                     "grouped point " + std::to_string(i));
  }
}

TEST(EvaluationBatch, ErrorsSurfacePerPointFirstInInputOrder) {
  EvaluationPoint bad = a3_point();
  bad.options.irdrop_relative_tolerance = -1.0;  // invalid configuration

  // Per-point API: the bad point's slot carries the error, the good
  // points still group and evaluate.
  std::vector<EvaluationPoint> points = {a3_point(), bad, a3_point({0})};
  EvaluationBatch batch(paper_system(), points);
  batch.run();
  EXPECT_EQ(batch.error(0), nullptr);
  EXPECT_NE(batch.error(1), nullptr);
  EXPECT_EQ(batch.error(2), nullptr);
  EXPECT_EQ(batch.stats().grouped_points, 2u);
  EXPECT_FALSE(batch.entry(0).excluded());
  EXPECT_THROW(batch.rethrow_first_error(), InvalidArgument);

  // One-call API: the first error in input order is rethrown.
  EXPECT_THROW(evaluate_batch_with_exclusion(paper_system(), points),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// SweepRunner: batch accounting, bit-identity, one pass per point
// ---------------------------------------------------------------------------

/// The default grid plus stage-2-dropout variants of the two-stage
/// points: guaranteed same-operator pairs on top of whatever the default
/// grid already groups.
std::vector<SweepPoint> grid_with_fault_variants() {
  std::vector<SweepPoint> points = SweepGridBuilder(paper_options()).build();
  for (ArchitectureKind arch : {ArchitectureKind::kA3_TwoStage12V,
                                ArchitectureKind::kA3_TwoStage6V}) {
    SweepPoint p;
    p.architecture = arch;
    p.topology = TopologyKind::kDsch;
    p.options = paper_options();
    p.options.faults.dropped_stage2 = {0};
    p.label = sweep_point_label(arch, p.topology, p.tech, "stage2-drop");
    points.push_back(p);
  }
  return points;
}

TEST(SweepBatch, BatchedSweepIsBitIdenticalToTheScalarLoop) {
  const std::vector<SweepPoint> points = grid_with_fault_variants();
  SweepConfig batched;
  batched.threads = 2;
  SweepConfig scalar;
  scalar.threads = 2;
  scalar.batch = false;
  const SweepReport with = SweepRunner(paper_system(), batched).run(points);
  const SweepReport without = SweepRunner(paper_system(), scalar).run(points);
  ASSERT_EQ(with.outcomes.size(), points.size());
  ASSERT_EQ(without.outcomes.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(with.outcomes[i].entry, without.outcomes[i].entry,
                     points[i].label);
  }
  // The batched sweep groups; the scalar loop never touches the batch
  // engine.
  EXPECT_GT(with.batch.grouped_points, 0u);
  EXPECT_EQ(without.batch.points, 0u);
}

TEST(SweepBatch, BlockSweepReportsPanelsInReportAndSnapshot) {
  const std::vector<SweepPoint> points = grid_with_fault_variants();
  SweepConfig config;
  config.threads = 2;
  const SweepReport report = SweepRunner(paper_system(), config).run(points);

  EXPECT_EQ(report.batch.points, points.size());
  EXPECT_GT(report.batch.groups, 0u);
  EXPECT_GT(report.batch.grouped_points, 0u);
  EXPECT_GT(report.batch.panel_columns, 0u);
  // Every distinct right-hand side of a group is one CG solve.
  EXPECT_GE(report.solver.cg_solves, report.batch.panel_columns);

  const obs::Snapshot snap = report.snapshot();
  const std::uint64_t* grouped = snap.counter("sweep.batch_grouped_points");
  const std::uint64_t* columns = snap.counter("sweep.batch_panel_columns");
  ASSERT_NE(grouped, nullptr);
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(*grouped, report.batch.grouped_points);
  EXPECT_EQ(*columns, report.batch.panel_columns);
}

TEST(SweepBatch, BatchedParallelIsBitIdenticalToBatchedSerial) {
  const std::vector<SweepPoint> points = grid_with_fault_variants();
  SweepConfig serial;
  serial.threads = 1;
  SweepConfig parallel;
  parallel.threads = 4;
  const SweepReport a = SweepRunner(paper_system(), serial).run(points);
  const SweepReport b = SweepRunner(paper_system(), parallel).run(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(a.outcomes[i].entry, b.outcomes[i].entry,
                     points[i].label);
  }
  // Grouping is planned single-threaded in input order: the accounting
  // cannot depend on scheduling.
  EXPECT_EQ(a.batch.groups, b.batch.groups);
  EXPECT_EQ(a.batch.grouped_points, b.batch.grouped_points);
  EXPECT_EQ(a.batch.panel_columns, b.batch.panel_columns);
  EXPECT_EQ(a.batch.deduped_solves, b.batch.deduped_solves);
}

/// The "vpd.evaluate" spans recorded while `run` executes, counted per
/// architecture (the span's "architecture" argument).
template <typename Run>
std::map<int, std::size_t> evaluate_spans_by_architecture(Run run) {
  const bool was_enabled = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  run();
  obs::set_tracing_enabled(was_enabled);
  const io::Value doc = obs::chrome_trace_json();
  obs::clear_trace();
  std::map<int, std::size_t> counts;
  for (const io::Value& event : doc.at("traceEvents").as_array()) {
    if (event.at("name").as_string() != "vpd.evaluate") continue;
    ++counts[static_cast<int>(
        event.at("args").at("architecture").as_number())];
  }
  return counts;
}

TEST(EvaluationBatch, EvaluatesEachPointOnce) {
  // One evaluation pass per point: prepare and finish are the two halves
  // of a single evaluation, so every point records exactly one
  // "vpd.evaluate" span on the batched path — grouped, deduplicated,
  // singleton, A0 — just as on the scalar loop.
  const std::vector<SweepPoint> points = grid_with_fault_variants();
  std::map<int, std::size_t> expected;
  for (const SweepPoint& p : points) {
    ++expected[static_cast<int>(p.architecture)];
  }
  for (bool batch : {true, false}) {
    SweepConfig config;
    config.threads = 2;
    config.batch = batch;
    SweepReport report;
    const std::map<int, std::size_t> spans =
        evaluate_spans_by_architecture([&] {
          report = SweepRunner(paper_system(), config).run(points);
        });
    EXPECT_EQ(spans, expected) << (batch ? "batched" : "scalar");
    if (batch) {
      EXPECT_GT(report.batch.grouped_points, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// FaultCampaignRunner: batch accounting and the N-0 bit-exactness rule
// ---------------------------------------------------------------------------

TEST(FaultCampaignBatch, StageTwoCampaignPanelsAndBitExactNominal) {
  FaultCampaignConfig config;
  // Stage-2 dropouts only: every scenario shares the nominal operator, so
  // the whole campaign rides one group. All N-1 dropouts leave the same
  // survivor count — value-identical sinks that deduplicate onto one
  // shared solve — so the order-2 samples are what add a second distinct
  // right-hand side.
  config.include_dropouts = false;
  config.include_derates = false;
  config.include_attach_faults = false;
  config.include_mesh_regions = false;
  config.nk_samples = 4;
  config.nk_order = 2;
  config.sweep.threads = 2;
  const FaultCampaignRunner runner(paper_system(), config);
  const FaultCampaignReport report =
      runner.run(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch,
                 DeviceTechnology::kGalliumNitride, paper_options(21));

  ASSERT_GT(report.outcomes.size(), 1u);
  EXPECT_GT(report.batch.grouped_points, 0u);
  EXPECT_GT(report.batch.deduped_solves, 0u);
  EXPECT_GT(report.batch.panel_columns, 0u);

  // The N-0 outcome reuses the nominal evaluation outright: bit-exact by
  // construction.
  const FaultScenarioOutcome& baseline = report.outcomes.front();
  ASSERT_TRUE(baseline.evaluation.has_value());
  EXPECT_EQ(baseline.evaluation->total_loss().value,
            report.nominal.total_loss().value);
  EXPECT_EQ(baseline.evaluation->cg_iterations,
            report.nominal.cg_iterations);

  const obs::Snapshot snap = report.snapshot();
  const std::uint64_t* columns = snap.counter("fault.batch_panel_columns");
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(*columns, report.batch.panel_columns);
}

// ---------------------------------------------------------------------------
// DesignOptimizer: generations ride the batch engine
// ---------------------------------------------------------------------------

TEST(OptimizerBatch, ReportAccumulatesBatchStatsAcrossGenerations) {
  opt::DesignSpace space;
  space.architectures = {ArchitectureKind::kA3_TwoStage12V,
                         ArchitectureKind::kA3_TwoStage6V};
  space.topologies = {TopologyKind::kDsch};
  space.vr_count = {36, 48};
  opt::OptimizerConfig config;
  config.population = 6;
  config.generations = 2;
  config.survivability.max_elites = 0;
  config.base_options.mesh_nodes = 11;
  config.sweep.threads = 2;

  const opt::OptimizeReport report =
      opt::DesignOptimizer(paper_system(), space, config).run();
  // Every generation's sweep flows through the batch engine.
  EXPECT_GT(report.batch.points, 0u);
  const obs::Snapshot snap = report.snapshot();
  const std::uint64_t* groups = snap.counter("opt.batch_groups");
  ASSERT_NE(groups, nullptr);
  EXPECT_EQ(*groups, report.batch.groups);
  const std::uint64_t* columns = snap.counter("opt.batch_panel_columns");
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(*columns, report.batch.panel_columns);
}

// ---------------------------------------------------------------------------
// EvaluationService::evaluate_batch: dedup, LRU, partitions, errors
// ---------------------------------------------------------------------------

io::EvaluationRequest make_request(ArchitectureKind arch,
                                   std::optional<TopologyKind> topo) {
  io::EvaluationRequest request;
  request.architecture = arch;
  request.topology = topo;
  request.options = paper_options();
  return request;
}

TEST(ServeBatch, DedupsCachesPartitionsAndSurfacesErrors) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService service(config);

  // Pre-warm the result LRU through the queued path.
  const io::EvaluationRequest warm = make_request(
      ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch);
  ASSERT_EQ(service.evaluate(warm).status, serve::ResponseStatus::kOk);

  const io::EvaluationRequest a3 =
      make_request(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch);
  io::EvaluationRequest a3_faulted = a3;
  a3_faulted.options.faults.dropped_stage2 = {0};
  io::EvaluationRequest bad = a3;
  bad.options.irdrop_relative_tolerance = -1.0;
  io::EvaluationRequest other_spec = a3;
  other_spec.spec.total_power = Power{900.0};

  const std::vector<io::EvaluationRequest> requests = {
      warm,        // 0: LRU hit
      a3,          // 1: leader, groups with 2
      a3_faulted,  // 2: same operator -> grouped with 1
      a3,          // 3: in-batch duplicate of 1
      bad,         // 4: per-member error
      other_spec,  // 5: second spec partition, evaluated alone
  };
  const std::vector<serve::ServiceResponse> responses =
      service.evaluate_batch(requests);

  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_EQ(responses[0].status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(responses[0].from_cache);
  EXPECT_EQ(responses[1].status, serve::ResponseStatus::kOk);
  EXPECT_EQ(responses[2].status, serve::ResponseStatus::kOk);
  EXPECT_EQ(responses[3].status, serve::ResponseStatus::kOk);
  // The duplicate shares its leader's published entry, like coalescing.
  EXPECT_EQ(responses[3].entry, responses[1].entry);
  EXPECT_EQ(responses[4].status, serve::ResponseStatus::kError);
  EXPECT_FALSE(responses[4].error.empty());
  EXPECT_EQ(responses[5].status, serve::ResponseStatus::kOk);

  // A later lone evaluate() of a batched request is served from the LRU:
  // batch results publish into the same cache.
  EXPECT_TRUE(service.evaluate(a3).from_cache);

  // The serve.batch.* instruments carry the batch accounting.
  const obs::Snapshot snap = service.registry().snapshot();
  const auto counter = [&](const char* name) {
    const std::uint64_t* value = snap.counter(name);
    return value == nullptr ? std::uint64_t{0} : *value;
  };
  EXPECT_EQ(counter("serve.batch.requests"), requests.size());
  EXPECT_EQ(counter("serve.batch.cache_hits"), 1u);
  EXPECT_EQ(counter("serve.batch.errors"), 1u);
  // Leaders evaluated: a3, a3_faulted, bad, other_spec.
  EXPECT_EQ(counter("serve.batch.evaluated"), 4u);
  EXPECT_EQ(counter("serve.batch.groups"), 1u);
  EXPECT_EQ(counter("serve.batch.grouped_points"), 2u);
  EXPECT_EQ(counter("serve.batch.panel_columns"), 2u);
}

TEST(ServeBatch, ResponsesMatchLoneEvaluates) {
  serve::ServiceConfig config;
  config.threads = 2;
  serve::EvaluationService service(config);
  io::EvaluationRequest a3_faulted =
      make_request(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch);
  a3_faulted.options.faults.dropped_stage2 = {0};
  // Singleton operators and a same-operator pair (A3@12V nominal plus a
  // stage-2 dropout, solved as one group): every response is
  // bit-identical to a lone evaluate() of the same request.
  const std::vector<io::EvaluationRequest> requests = {
      make_request(ArchitectureKind::kA1_InterposerPeriphery,
                   TopologyKind::kDsch),
      make_request(ArchitectureKind::kA2_InterposerBelowDie,
                   TopologyKind::kDpmih),
      make_request(ArchitectureKind::kA0_PcbConversion, std::nullopt),
      // Excluded by the paper's rule, not an error.
      make_request(ArchitectureKind::kA1_InterposerPeriphery,
                   TopologyKind::kDickson),
      make_request(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch),
      a3_faulted,
  };
  const std::vector<serve::ServiceResponse> responses =
      service.evaluate_batch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_EQ(responses[3].status, serve::ResponseStatus::kExcluded);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ExplorationEntry reference = evaluate_with_exclusion(
        requests[i].spec, requests[i].architecture, requests[i].topology,
        requests[i].tech, requests[i].options);
    ASSERT_NE(responses[i].entry, nullptr) << "request " << i;
    EXPECT_EQ(io::dump(io::to_json(*responses[i].entry)),
              io::dump(io::to_json(reference)))
        << "request " << i;
  }
  // The A3@12V pair did solve as one group.
  const obs::Snapshot snap = service.registry().snapshot();
  const std::uint64_t* groups = snap.counter("serve.batch.groups");
  ASSERT_NE(groups, nullptr);
  EXPECT_EQ(*groups, 1u);
}

}  // namespace
}  // namespace vpd
