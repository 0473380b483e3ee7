// Fault-tolerance comparison of the paper's vertical architectures.
//
// For each of A1, A2, A3@12V, A3@6V (DSCH final stage, GaN) this bench
// runs a fault campaign on the sweep thread pool: the exhaustive N-1 set
// over every modeled fault site (VR dropout / derate / attach cluster /
// below-die stage-2 dropout / mesh-region damage) plus a Monte-Carlo
// sample of N-2 scenarios, then scores every fault state against the
// default resilience spec (5% DC droop budget, 1.2x VR overload
// allowance, per-site via-field EM capacity).
//
// `--json` switches the output to a machine-readable JSON document with
// the same numbers plus the per-architecture margin histograms.
//
// `--check` adds the batch-evaluation regression guard (exit 1 on
// violation): the campaigns must route scenarios through the batch
// engine with at least one multi-column group solved, and the batched
// A3@12V campaign must reproduce a scalar-loop rerun (batch off) bit for
// bit.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_output.hpp"
#include "vpd/common/table.hpp"
#include "vpd/fault/campaign.hpp"
#include "vpd/io/schema.hpp"

namespace {

/// Bit-exact campaign comparison: scenario populations are seeded, so
/// two runs of the same campaign see identical scenarios; the outcomes
/// must match on their full wire dumps, not within a tolerance.
bool campaigns_bit_identical(const vpd::FaultCampaignReport& a,
                             const vpd::FaultCampaignReport& b) {
  using vpd::io::dump;
  using vpd::io::to_json;
  if (a.outcomes.size() != b.outcomes.size()) return false;
  if (dump(to_json(a.nominal)) != dump(to_json(b.nominal))) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const vpd::FaultScenarioOutcome& x = a.outcomes[i];
    const vpd::FaultScenarioOutcome& y = b.outcomes[i];
    if (x.evaluated != y.evaluated || x.survives() != y.survives())
      return false;
    if (x.evaluation.has_value() != y.evaluation.has_value()) return false;
    if (x.evaluation &&
        dump(to_json(*x.evaluation)) != dump(to_json(*y.evaluation))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vpd;

  bool json = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--check]\n", argv[0]);
      return 2;
    }
  }

  const PowerDeliverySpec spec = paper_system();
  MeshSolveCache cache;
  EvaluationOptions options;
  options.below_die_area_fraction = 1.6;  // paper mode (A2's 48 VRs)
  options.mesh_cache = &cache;

  FaultCampaignConfig config;
  config.nk_samples = 32;
  config.nk_order = 2;

  const ArchitectureKind architectures[] = {
      ArchitectureKind::kA1_InterposerPeriphery,
      ArchitectureKind::kA2_InterposerBelowDie,
      ArchitectureKind::kA3_TwoStage12V,
      ArchitectureKind::kA3_TwoStage6V,
  };

  const FaultCampaignRunner runner(spec, config);
  std::vector<FaultCampaignReport> reports;
  for (ArchitectureKind arch : architectures) {
    reports.push_back(
        runner.run(arch, TopologyKind::kDsch,
                   DeviceTechnology::kGalliumNitride, options));
  }

  // --- Batch-engine regression guards (--check) -----------------------------
  // The campaigns run with the default batch-first sweep: across the four
  // architectures the stage-2 dropouts and the order-2 Monte-Carlo samples
  // must produce same-operator groups with at least one multi-column
  // solve.
  bool guard_ok = true;
  if (check) {
    std::size_t panel_columns = 0;
    for (const FaultCampaignReport& r : reports) {
      panel_columns += r.batch.panel_columns;
    }
    if (panel_columns == 0) {
      guard_ok = false;
      std::fprintf(stderr, "bench_fault_tolerance: no campaign routed a "
                           "multi-column group through the batch engine\n");
    }

    // The batched campaign (batch on) must reproduce the scalar loop
    // (batch off) bit for bit on the A3@12V campaign — the tightest
    // architecture with both stage-1 and stage-2 fault families.
    FaultCampaignConfig batched_config = config;
    batched_config.sweep.batch = true;
    FaultCampaignConfig scalar_config = config;
    scalar_config.sweep.batch = false;
    const FaultCampaignReport batched_report =
        FaultCampaignRunner(spec, batched_config)
            .run(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch,
                 DeviceTechnology::kGalliumNitride, options);
    const FaultCampaignReport scalar_report =
        FaultCampaignRunner(spec, scalar_config)
            .run(ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch,
                 DeviceTechnology::kGalliumNitride, options);
    if (!campaigns_bit_identical(batched_report, scalar_report)) {
      guard_ok = false;
      std::fprintf(stderr, "bench_fault_tolerance: the batched A3@12V "
                           "campaign diverges from the scalar loop\n");
    }
    if (batched_report.batch.grouped_points == 0) {
      guard_ok = false;
      std::fprintf(stderr, "bench_fault_tolerance: the batched campaign "
                           "bypassed the batch engine entirely\n");
    }
  }

  constexpr std::size_t kHistogramBins = 8;

  if (json) {
    benchio::JsonReport out("bench_fault_tolerance");
    io::Value resilience = io::Value::object();
    resilience.set("droop_tolerance", config.resilience.droop_tolerance);
    resilience.set("vr_overcurrent_factor",
                   config.resilience.vr_overcurrent_factor);
    resilience.set("interconnect_stress_margin",
                   config.resilience.interconnect_stress_margin);
    out.add("spec", std::move(resilience));
    out.add("nk_samples", config.nk_samples);
    out.add("nk_order", config.nk_order);
    io::Value campaigns = io::Value::array();
    for (const FaultCampaignReport& r : reports) {
      const MarginHistogram h = r.margin_histogram(kHistogramBins);
      io::Value c = io::Value::object();
      c.set("architecture", to_string(r.architecture));
      c.set("topology", "DSCH");
      c.set("vr_count_stage1", r.nominal.vr_count_stage1);
      c.set("vr_count_stage2", r.nominal.vr_count_stage2);
      c.set("scenarios", r.scenario_count());
      c.set("survivors", r.survivor_count());
      c.set("survivability", r.survivability());
      c.set("nominal_droop_fraction",
            r.outcomes.front().resilience.droop_fraction);
      c.set("worst_droop_fraction", r.worst_droop_fraction());
      c.set("worst_load_shed_fraction", r.worst_load_shed_fraction());
      io::Value hist = io::Value::object();
      hist.set("lo", h.lo);
      hist.set("hi", h.hi);
      hist.set("unevaluated", h.unevaluated);
      io::Value counts = io::Value::array();
      for (std::size_t count : h.counts) counts.push_back(count);
      hist.set("counts", std::move(counts));
      c.set("margin_histogram", std::move(hist));
      io::Value batch = io::Value::object();
      batch.set("groups", r.batch.groups);
      batch.set("grouped_points", r.batch.grouped_points);
      batch.set("scalar_points", r.batch.scalar_points);
      batch.set("panel_columns", r.batch.panel_columns);
      batch.set("deduped_solves", r.batch.deduped_solves);
      c.set("batch", std::move(batch));
      c.set("wall_seconds", r.wall_seconds);
      campaigns.push_back(std::move(c));
    }
    out.add("campaigns", std::move(campaigns));
    if (check) out.add("guard_ok", guard_ok);
    out.set_mesh_cache(cache.stats());
    // Merge the per-architecture campaign snapshots: counters accumulate
    // per campaign; the merged document keeps the last architecture's
    // gauges, so expose only the aggregate counters here.
    obs::Snapshot merged;
    for (const FaultCampaignReport& r : reports) {
      const obs::Snapshot s = r.snapshot();
      const auto acc = [&](const char* name) {
        const std::uint64_t* prev = merged.counter(name);
        const std::uint64_t* cur = s.counter(name);
        merged.set_counter(name, (prev ? *prev : 0) + (cur ? *cur : 0));
      };
      acc("fault.scenarios");
      acc("fault.survivors");
      acc("fault.batch_groups");
      acc("fault.batch_grouped_points");
      acc("fault.batch_scalar_points");
      acc("fault.batch_panel_columns");
      acc("fault.batch_deduped_solves");
      acc("solver.cg_solves");
      acc("solver.cg_iterations");
      acc("solver.precond_factorizations");
      acc("solver.precond_reuses");
    }
    out.set_observability(merged);
    out.print();
    return guard_ok ? 0 : 1;
  }

  std::printf("=== Fault campaigns: N-1 exhaustive + %zu sampled N-%zu "
              "(DSCH final stage, GaN) ===\n\n",
              config.nk_samples, config.nk_order);
  TextTable t({"Architecture", "VRs", "Scenarios", "Survive", "Nominal droop",
               "Worst droop", "Worst shed", "Min margin", "Wall"});
  for (const FaultCampaignReport& r : reports) {
    const MarginHistogram h = r.margin_histogram(kHistogramBins);
    const std::string vrs =
        r.nominal.vr_count_stage1 > 0
            ? std::to_string(r.nominal.vr_count_stage1) + "+" +
                  std::to_string(r.nominal.vr_count_stage2)
            : std::to_string(r.nominal.vr_count_stage2);
    t.add_row({to_string(r.architecture), vrs,
               std::to_string(r.scenario_count()),
               format_double(100.0 * r.survivability(), 1) + " %",
               format_double(
                   100.0 * r.outcomes.front().resilience.droop_fraction, 2) +
                   " %",
               format_double(100.0 * r.worst_droop_fraction(), 2) + " %",
               format_double(100.0 * r.worst_load_shed_fraction(), 1) + " %",
               format_double(h.lo, 3),
               format_double(1e3 * r.wall_seconds, 0) + " ms"});
  }
  std::cout << t << '\n';

  std::printf(
      "Observations:\n"
      " * A1 fails the 5%% DC droop budget even fault-free: periphery-only\n"
      "   lateral distribution at 1 V droops ~14%% at the die center — the\n"
      "   paper's core argument for vertical power delivery. Its\n"
      "   survivability is 0 by definition; the shed column shows how much\n"
      "   load a power-cap policy must drop to recover.\n"
      " * A2 survives most single faults: 48 below-die VRs leave ~2%% load\n"
      "   swing per dropout, but die-center dropouts concentrate current\n"
      "   onto already-hot neighbours (the Section IV 1.5x spread) and\n"
      "   exhaust the 1.2x overload allowance first.\n"
      " * The two-stage A3s regulate at the die with an intermediate-rail\n"
      "   mesh at 12 V / 6 V, so the same absolute droop costs 12x / 6x\n"
      "   less margin; stage-1 dropouts are their dominant vulnerability,\n"
      "   and the 6 V variant's doubled rail current makes it the tighter\n"
      "   of the two.\n");
  if (check) {
    std::printf("\nGuard: %s (points grouped, batched campaign "
                "bit-identical to the scalar loop).\n",
                guard_ok ? "OK" : "VIOLATED - see stderr");
  }
  return guard_ok ? 0 : 1;
}
