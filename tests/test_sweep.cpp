// Sweep engine: determinism (parallel bit-identical to serial and to the
// explorer), cache semantics under concurrency, result ordering, error
// transport, and the worker pool itself. These run in their own ctest
// executable labelled `sweep` so the thread-pool paths can be exercised
// under -DVPD_SANITIZE=ON in isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>

#include "vpd/common/error.hpp"
#include "vpd/package/irdrop.hpp"
#include "vpd/sweep/sweep.hpp"
#include "vpd/sweep/thread_pool.hpp"

namespace vpd {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleCoversTasksSubmittedByTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool joins after the queue is drained
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsPicksHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------------------------
// SweepGridBuilder
// ---------------------------------------------------------------------------

TEST(SweepGrid, DefaultGridMatchesExplorerOrder) {
  const std::vector<SweepPoint> points = SweepGridBuilder().build();
  // A0 once plus 4 VPD architectures x 3 topologies.
  ASSERT_EQ(points.size(), 13u);
  EXPECT_EQ(points[0].architecture, ArchitectureKind::kA0_PcbConversion);
  EXPECT_FALSE(points[0].topology.has_value());
  std::size_t i = 1;
  for (ArchitectureKind arch : all_architectures()) {
    if (arch == ArchitectureKind::kA0_PcbConversion) continue;
    for (TopologyKind topo : all_topologies()) {
      ASSERT_LT(i, points.size());
      EXPECT_EQ(points[i].architecture, arch);
      EXPECT_EQ(points[i].topology, topo);
      ++i;
    }
  }
  EXPECT_EQ(i, points.size());
}

TEST(SweepGrid, LabelsAreUniqueAndNamed) {
  const std::vector<SweepPoint> points =
      SweepGridBuilder()
          .technologies({DeviceTechnology::kSilicon,
                         DeviceTechnology::kGalliumNitride})
          .build();
  std::set<std::string> labels;
  for (const SweepPoint& p : points) labels.insert(p.label);
  EXPECT_EQ(labels.size(), points.size());
  EXPECT_EQ(points[0].label, "A0/Si");
  EXPECT_EQ(sweep_point_label(ArchitectureKind::kA1_InterposerPeriphery,
                              TopologyKind::kDsch,
                              DeviceTechnology::kGalliumNitride),
            "A1/DSCH");
}

TEST(SweepGrid, OptionVariantsMultiplyTheGrid) {
  SweepGridBuilder builder;
  builder.architectures({ArchitectureKind::kA1_InterposerPeriphery})
      .topologies({TopologyKind::kDsch});
  EvaluationOptions coarse;
  coarse.mesh_nodes = 21;
  EvaluationOptions fine;
  fine.mesh_nodes = 61;
  builder.add_option_variant(coarse, "coarse").add_option_variant(fine,
                                                                  "fine");
  const std::vector<SweepPoint> points = builder.build();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].options.mesh_nodes, 21u);
  EXPECT_EQ(points[1].options.mesh_nodes, 61u);
  EXPECT_EQ(points[0].label, "A1/DSCH/coarse");
  EXPECT_EQ(points[1].label, "A1/DSCH/fine");
}

// ---------------------------------------------------------------------------
// SweepRunner determinism
// ---------------------------------------------------------------------------

EvaluationOptions paper_options() {
  EvaluationOptions o;
  o.below_die_area_fraction = 1.6;
  return o;
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
    ASSERT_EQ(x.vr_current_spread.has_value(),
              y.vr_current_spread.has_value())
        << label;
    if (x.vr_current_spread) {
      EXPECT_EQ(x.vr_current_spread->min, y.vr_current_spread->min) << label;
      EXPECT_EQ(x.vr_current_spread->max, y.vr_current_spread->max) << label;
    }
  };
  if (a.evaluation) check(*a.evaluation, *b.evaluation);
  if (a.extrapolated) check(*a.extrapolated, *b.extrapolated);
}

TEST(SweepRunner, ParallelIsBitIdenticalToSerial) {
  const std::vector<SweepPoint> points =
      SweepGridBuilder(paper_options()).build();
  const PowerDeliverySpec spec = paper_system();

  SweepConfig serial_config;
  serial_config.threads = 1;
  SweepConfig parallel_config;
  parallel_config.threads = 4;
  const SweepReport serial = SweepRunner(spec, serial_config).run(points);
  const SweepReport parallel = SweepRunner(spec, parallel_config).run(points);

  ASSERT_EQ(serial.outcomes.size(), points.size());
  ASSERT_EQ(parallel.outcomes.size(), points.size());
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(parallel.threads_used, 4u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(parallel.outcomes[i].point.label, points[i].label);
    expect_identical(serial.outcomes[i].entry, parallel.outcomes[i].entry,
                     points[i].label);
  }
}

TEST(SweepRunner, MatchesTheSerialExplorer) {
  const EvaluationOptions options = paper_options();
  const PowerDeliverySpec spec = paper_system();
  const ExplorationResult explored =
      ArchitectureExplorer(spec, options).explore();
  SweepConfig config;
  config.threads = 4;
  const SweepReport sweep =
      SweepRunner(spec, config).run(SweepGridBuilder(options).build());
  ASSERT_EQ(explored.entries.size(), sweep.outcomes.size());
  for (std::size_t i = 0; i < sweep.outcomes.size(); ++i) {
    expect_identical(explored.entries[i], sweep.outcomes[i].entry,
                     sweep.outcomes[i].point.label);
  }
}

TEST(SweepRunner, CacheDoesNotChangeResults) {
  // The sweep shares one cache across its points; a per-point evaluation
  // without a cache assembles its own mesh. Both agree bit for bit.
  const std::vector<SweepPoint> points =
      SweepGridBuilder(paper_options()).build();
  const PowerDeliverySpec spec = paper_system();
  SweepConfig config;
  config.threads = 2;
  const SweepReport with = SweepRunner(spec, config).run(points);
  EXPECT_GT(with.cache_stats.hits, 0u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EvaluationOptions options = points[i].options;
    options.mesh_cache = nullptr;
    const ExplorationEntry without =
        evaluate_with_exclusion(spec, points[i].architecture,
                                points[i].topology, points[i].tech, options);
    expect_identical(with.outcomes[i].entry, without, points[i].label);
  }
}

TEST(SweepRunner, CacheMissesEqualDistinctGeometries) {
  // 12 mesh-solving points on one geometry -> exactly one miss, however
  // the workers interleave (the cache assembles under its lock).
  const std::vector<SweepPoint> points =
      SweepGridBuilder(paper_options()).build();
  SweepConfig config;
  config.threads = 4;
  const SweepReport report =
      SweepRunner(paper_system(), config).run(points);
  EXPECT_EQ(report.cache_stats.misses, 1u);
  EXPECT_EQ(report.cache_stats.hits, 11u);  // A0 never touches the mesh
}

TEST(SweepRunner, ExternalCachePersistsAcrossRuns) {
  MeshSolveCache cache;
  SweepConfig config;
  config.threads = 2;
  config.cache = &cache;
  const SweepRunner runner(paper_system(), config);
  const std::vector<SweepPoint> points =
      SweepGridBuilder(paper_options()).build();
  const SweepReport first = runner.run(points);
  EXPECT_EQ(first.cache_stats.misses, 1u);
  const SweepReport second = runner.run(points);
  // The second run finds everything already assembled; per-run stats
  // count the run's own lookups, not lifetime totals.
  EXPECT_EQ(second.cache_stats.misses, 0u);
  EXPECT_EQ(second.cache_stats.hits, 12u);
}

TEST(SweepRunner, StatsCarryDeterministicCgIterations) {
  const std::vector<SweepPoint> points =
      SweepGridBuilder(paper_options()).build();
  SweepConfig a;
  a.threads = 1;
  SweepConfig b;
  b.threads = 4;
  const SweepReport serial = SweepRunner(paper_system(), a).run(points);
  const SweepReport parallel = SweepRunner(paper_system(), b).run(points);
  EXPECT_GT(serial.total_cg_iterations(), 0u);
  EXPECT_EQ(serial.total_cg_iterations(), parallel.total_cg_iterations());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(serial.outcomes[i].stats.cg_iterations,
              parallel.outcomes[i].stats.cg_iterations);
    EXPECT_GE(serial.outcomes[i].stats.wall_seconds, 0.0);
  }
}

TEST(SweepRunner, InfeasiblePointsComeBackExcludedNotThrown) {
  SweepPoint p;
  p.architecture = ArchitectureKind::kA1_InterposerPeriphery;
  p.topology = TopologyKind::kDickson;  // over-rated at the paper's load
  p.options = paper_options();
  p.label = "A1/3LHD";
  const SweepReport report = SweepRunner(paper_system()).run({p});
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].entry.excluded());
  EXPECT_FALSE(report.outcomes[0].entry.exclusion_reason.empty());
}

TEST(SweepRunner, HarnessErrorsAreRethrownOnTheCallingThread) {
  SweepPoint good;
  good.architecture = ArchitectureKind::kA0_PcbConversion;
  good.options = paper_options();
  SweepPoint bad = good;
  bad.architecture = ArchitectureKind::kA1_InterposerPeriphery;
  bad.topology = TopologyKind::kDsch;
  bad.options.irdrop_relative_tolerance = -1.0;  // invalid configuration
  SweepConfig config;
  config.threads = 2;
  EXPECT_THROW(SweepRunner(paper_system(), config).run({good, bad, good}),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Work accounting
// ---------------------------------------------------------------------------

/// The scheduling-independent part of a run's accounting: solves,
/// iterations, preconditioner setups (factored or reused, whichever the
/// per-thread workspace allowed) and mesh lookups.
std::vector<std::uint64_t> own_work(const SweepReport& report) {
  return {report.solver.cg_solves, report.solver.cg_iterations,
          report.solver.precond_factorizations +
              report.solver.precond_reuses,
          report.cache_stats.hits + report.cache_stats.misses};
}

TEST(SweepAccounting, OverlappingRunCountsOnlyItsOwnWork) {
  const PowerDeliverySpec spec = paper_system();
  const std::vector<SweepPoint> inner_points =
      SweepGridBuilder(paper_options())
          .architectures({ArchitectureKind::kA2_InterposerBelowDie})
          .build();
  std::vector<SweepPoint> outer_points = inner_points;
  outer_points[0].options.sink_map = uniform_sinks;

  SweepConfig serial;
  serial.threads = 1;
  const SweepReport outer_solo = SweepRunner(spec, serial).run(outer_points);
  const SweepReport inner_solo = SweepRunner(spec, serial).run(inner_points);
  ASSERT_GT(outer_solo.solver.cg_solves, 0u);
  ASSERT_GT(outer_solo.cache_stats.hits + outer_solo.cache_stats.misses, 0u);

  // Private caches, then one cache shared by both runs.
  for (const bool shared : {false, true}) {
    MeshSolveCache cache;
    SweepConfig config = serial;
    if (shared) config.cache = &cache;
    // The outer run's first point runs the inner sweep to completion on
    // another thread while it builds its sink map.
    SweepReport inner;
    bool spawned = false;
    std::vector<SweepPoint> points = outer_points;
    points[0].options.sink_map = [&](const GridMesh& mesh, Current total) {
      if (!spawned) {
        spawned = true;
        std::thread other(
            [&] { inner = SweepRunner(spec, config).run(inner_points); });
        other.join();
      }
      return uniform_sinks(mesh, total);
    };
    const SweepReport outer = SweepRunner(spec, config).run(points);
    ASSERT_TRUE(spawned);

    EXPECT_EQ(own_work(outer), own_work(outer_solo)) << "shared " << shared;
    EXPECT_EQ(own_work(inner), own_work(inner_solo)) << "shared " << shared;
    if (!shared) {
      EXPECT_EQ(outer.cache_stats.misses, outer_solo.cache_stats.misses);
      EXPECT_EQ(inner.cache_stats.misses, inner_solo.cache_stats.misses);
    } else {
      // One shared cache assembles the mesh once, for whichever run asked
      // first: the outer one, before it built the sink map.
      EXPECT_EQ(outer.cache_stats.misses, 1u);
      EXPECT_EQ(inner.cache_stats.misses, 0u);
      EXPECT_EQ(cache.stats().hits + cache.stats().misses,
                own_work(outer)[3] + own_work(inner)[3]);
    }
  }
}

}  // namespace
}  // namespace vpd
