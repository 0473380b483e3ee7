// Solver-core bench: Jacobi vs IC(0) (modified, level-1 fill) vs geometric
// multigrid CG on the distribution mesh operators, across mesh sizes and
// on the default evaluation grid. Every preconditioner converges to the
// same certified normwise backward-error criterion; the comparison is
// purely about how many iterations (and how much wall time) that
// certification costs.
//
// Modes:
//   (default)  human-readable tables + ratios
//   --json     one JSON document through benchio::JsonReport
//   --check    regression guard (exit 1 on violation): IC iteration
//              counts on the default evaluation grid must not exceed the
//              recorded Jacobi baselines, and multigrid iteration counts
//              across the 64 -> 512 refinement ladder must stay flat
//              within 2x (max/min); prints the comparison
//
// The recorded baselines are the warm-start Jacobi iteration counts of
// the default grid at the time the preconditioned core landed. The
// Jacobi path preserves that operation order bit for bit, so these are
// stable reference points, not environment-dependent timings. The
// multigrid flatness guard needs no recorded numbers at all: mesh-size
// independence is the property itself.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_output.hpp"
#include "vpd/arch/evaluator.hpp"
#include "vpd/common/table.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/package/irdrop.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace {

using namespace vpd;

struct GridPoint {
  ArchitectureKind architecture;
  TopologyKind topology;
  const char* label;
  // Warm-start Jacobi iteration count recorded when IC(0) landed; the
  // guard fails if IC ever needs more than this.
  std::size_t recorded_jacobi_iterations;
};

// Default evaluation grid (DSCH column of Fig. 7, default options).
constexpr GridPoint kDefaultGrid[] = {
    {ArchitectureKind::kA1_InterposerPeriphery, TopologyKind::kDsch, "A1/DSCH",
     75},
    {ArchitectureKind::kA2_InterposerBelowDie, TopologyKind::kDsch, "A2/DSCH",
     68},
    {ArchitectureKind::kA3_TwoStage12V, TopologyKind::kDsch, "A3-12V/DSCH",
     122},
    {ArchitectureKind::kA3_TwoStage6V, TopologyKind::kDsch, "A3-6V/DSCH",
     170},
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SolveSample {
  std::size_t iterations{0};
  double best_seconds{0.0};
};

// Four mid-edge VR patches sourcing the paper die's rail, shared by the
// mesh-size scan and the refinement ladder.
std::vector<VrAttachment> mid_edge_vrs(const GridMesh& mesh) {
  const double w = mesh.width().value;
  const double h = mesh.height().value;
  const Voltage rail{1.0};
  std::vector<VrAttachment> vrs;
  for (const auto& [cx, cy] : std::vector<std::pair<double, double>>{
           {0.5 * w, 0.0}, {0.5 * w, h}, {0.0, 0.5 * h}, {w, 0.5 * h}}) {
    const auto patch =
        patch_attachment(mesh, Length{cx}, Length{cy}, Length{1.5e-3}, rail,
                         Resistance{100e-6});
    vrs.insert(vrs.end(), patch.begin(), patch.end());
  }
  return vrs;
}

// Representative distribution solve at an arbitrary mesh resolution: the
// paper die with four mid-edge VR patches sourcing a uniform 500 A draw.
SolveSample mesh_solve(std::size_t nodes, CgPreconditioner preconditioner,
                       int repetitions) {
  const Length side{10e-3};
  const GridMesh mesh(side, side, nodes, nodes, 2e-3);
  const std::vector<VrAttachment> vrs = mid_edge_vrs(mesh);
  const Vector sinks = uniform_sinks(mesh, Current{500.0});
  IrDropOptions options;
  options.warm_start_voltage = 1.0;
  options.preconditioner = preconditioner;

  SolveSample sample;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const IrDropResult result = solve_irdrop(mesh, vrs, sinks, options);
    const double seconds = seconds_since(start);
    sample.iterations = result.cg_iterations;
    if (rep == 0 || seconds < sample.best_seconds)
      sample.best_seconds = seconds;
  }
  return sample;
}

// Same solve against a pre-assembled operator, so the multigrid hierarchy
// and IC symbolic analysis are cached exactly as the production paths
// cache them (the refinement ladder measures the numeric solve, not the
// per-call symbolic setup).
SolveSample assembled_solve(const AssembledMesh& assembled,
                            CgPreconditioner preconditioner,
                            int repetitions) {
  const std::vector<VrAttachment> vrs = mid_edge_vrs(assembled.mesh);
  const Vector sinks = uniform_sinks(assembled.mesh, Current{500.0});
  IrDropOptions options;
  options.warm_start_voltage = 1.0;
  options.preconditioner = preconditioner;

  SolveSample sample;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const IrDropResult result = solve_irdrop(assembled, vrs, sinks, options);
    const double seconds = seconds_since(start);
    sample.iterations = result.cg_iterations;
    if (rep == 0 || seconds < sample.best_seconds)
      sample.best_seconds = seconds;
  }
  return sample;
}

SolveSample grid_point(const GridPoint& point,
                       CgPreconditioner preconditioner, int repetitions) {
  const PowerDeliverySpec spec = paper_system();
  EvaluationOptions options;
  options.irdrop_preconditioner = preconditioner;
  SolveSample sample;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const ArchitectureEvaluation eval = evaluate_architecture(
        point.architecture, spec, point.topology,
        DeviceTechnology::kGalliumNitride, options);
    const double seconds = seconds_since(start);
    sample.iterations = eval.cg_iterations;
    if (rep == 0 || seconds < sample.best_seconds)
      sample.best_seconds = seconds;
  }
  return sample;
}

std::string format_ratio(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2fx", value);
  return buffer;
}

std::string format_us(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.0f us", 1e6 * seconds);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
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
  const int repetitions = 3;

  // --- Mesh-size scan --------------------------------------------------------
  const std::size_t sizes[] = {41, 61, 81, 121};
  TextTable mesh_table({"Mesh", "Jacobi its", "IC(0) its", "Iteration ratio",
                        "Jacobi wall", "IC(0) wall", "Wall ratio"});
  io::Value mesh_rows = io::Value::array();
  for (std::size_t nodes : sizes) {
    const SolveSample jacobi =
        mesh_solve(nodes, CgPreconditioner::kJacobi, repetitions);
    const SolveSample ic =
        mesh_solve(nodes, CgPreconditioner::kIncompleteCholesky, repetitions);
    const double it_ratio = static_cast<double>(jacobi.iterations) /
                            static_cast<double>(ic.iterations);
    const double wall_ratio = jacobi.best_seconds / ic.best_seconds;
    mesh_table.add_row({std::to_string(nodes) + "x" + std::to_string(nodes),
                        std::to_string(jacobi.iterations),
                        std::to_string(ic.iterations), format_ratio(it_ratio),
                        format_us(jacobi.best_seconds),
                        format_us(ic.best_seconds), format_ratio(wall_ratio)});
    io::Value row = io::Value::object();
    row.set("nodes", nodes);
    row.set("jacobi_iterations", jacobi.iterations);
    row.set("ic_iterations", ic.iterations);
    row.set("iteration_ratio", it_ratio);
    row.set("jacobi_seconds", jacobi.best_seconds);
    row.set("ic_seconds", ic.best_seconds);
    row.set("wall_ratio", wall_ratio);
    mesh_rows.push_back(std::move(row));
  }

  // --- Refinement ladder: IC(0) vs multigrid --------------------------------
  // IC(0) iteration counts grow with refinement; the multigrid V-cycle
  // keeps them essentially flat. The guard asserts the flatness (max/min
  // multigrid iterations across the ladder <= 2x) rather than comparing
  // against recorded counts: mesh-size independence is the property.
  const std::size_t ladder[] = {64, 128, 256, 512};
  TextTable ladder_table({"Mesh", "IC(0) its", "MG its", "IC(0) wall",
                          "MG wall", "Wall ratio"});
  io::Value ladder_rows = io::Value::array();
  std::size_t mg_min_iterations = 0;
  std::size_t mg_max_iterations = 0;
  for (std::size_t nodes : ladder) {
    const auto assembled =
        assemble_mesh(Length{10e-3}, Length{10e-3}, nodes, nodes, 2e-3);
    const SolveSample ic = assembled_solve(
        *assembled, CgPreconditioner::kIncompleteCholesky, 1);
    const SolveSample mg =
        assembled_solve(*assembled, CgPreconditioner::kMultigrid, 1);
    if (mg_min_iterations == 0 || mg.iterations < mg_min_iterations)
      mg_min_iterations = mg.iterations;
    if (mg.iterations > mg_max_iterations)
      mg_max_iterations = mg.iterations;
    ladder_table.add_row(
        {std::to_string(nodes) + "x" + std::to_string(nodes),
         std::to_string(ic.iterations), std::to_string(mg.iterations),
         format_us(ic.best_seconds), format_us(mg.best_seconds),
         format_ratio(ic.best_seconds / mg.best_seconds)});
    io::Value row = io::Value::object();
    row.set("nodes", nodes);
    row.set("ic_iterations", ic.iterations);
    row.set("mg_iterations", mg.iterations);
    row.set("ic_seconds", ic.best_seconds);
    row.set("mg_seconds", mg.best_seconds);
    ladder_rows.push_back(std::move(row));
  }
  const double mg_growth = static_cast<double>(mg_max_iterations) /
                           static_cast<double>(mg_min_iterations);
  const bool mg_ladder_flat = mg_growth <= 2.0;

  // --- Default evaluation grid ----------------------------------------------
  const SolverCounters before = solver_counters();
  TextTable grid_table({"Point", "Jacobi its", "IC(0) its", "Ratio",
                        "Recorded baseline", "Guard"});
  io::Value grid_rows = io::Value::array();
  bool guard_ok = true;
  double worst_ratio = 0.0;
  for (const GridPoint& point : kDefaultGrid) {
    const SolveSample jacobi =
        grid_point(point, CgPreconditioner::kJacobi, 1);
    const SolveSample ic =
        grid_point(point, CgPreconditioner::kIncompleteCholesky, 1);
    const double ratio = static_cast<double>(jacobi.iterations) /
                         static_cast<double>(ic.iterations);
    const bool ok = ic.iterations <= point.recorded_jacobi_iterations;
    guard_ok = guard_ok && ok;
    if (worst_ratio == 0.0 || ratio < worst_ratio) worst_ratio = ratio;
    grid_table.add_row({point.label, std::to_string(jacobi.iterations),
                        std::to_string(ic.iterations), format_ratio(ratio),
                        std::to_string(point.recorded_jacobi_iterations),
                        ok ? "ok" : "EXCEEDED"});
    io::Value row = io::Value::object();
    row.set("point", point.label);
    row.set("jacobi_iterations", jacobi.iterations);
    row.set("ic_iterations", ic.iterations);
    row.set("iteration_ratio", ratio);
    row.set("recorded_jacobi_baseline", point.recorded_jacobi_iterations);
    row.set("within_baseline", ok);
    grid_rows.push_back(std::move(row));
  }
  const SolverCounters delta = solver_counters() - before;
  const bool grid_guard_ok = guard_ok;
  guard_ok = guard_ok && mg_ladder_flat;

  if (json) {
    benchio::JsonReport report("bench_solver");
    report.add("mesh_sizes", std::move(mesh_rows));
    report.add("refinement_ladder", std::move(ladder_rows));
    report.add("mg_iteration_growth", mg_growth);
    report.add("mg_ladder_flat", mg_ladder_flat);
    report.add("default_grid", std::move(grid_rows));
    report.add("worst_grid_iteration_ratio", worst_ratio);
    report.add("guard_ok", guard_ok);
    report.set_solver(delta);
    report.print();
    return guard_ok ? 0 : 1;
  }

  std::printf("=== CG preconditioning: Jacobi vs modified IC(0) vs "
              "geometric multigrid ===\n\n");
  std::printf("Mesh-size scan (warm-started distribution solve, best of "
              "%d):\n", repetitions);
  std::cout << mesh_table << '\n';
  std::printf("Refinement ladder (cached hierarchy, IC(0) vs multigrid "
              "V(1,1)):\n");
  std::cout << ladder_table << '\n';
  std::printf("Multigrid iteration growth across the ladder: %.2fx "
              "(flat means <= 2x): %s\n\n",
              mg_growth, mg_ladder_flat ? "ok" : "EXCEEDED");
  std::printf("Default evaluation grid (per-evaluation CG iterations):\n");
  std::cout << grid_table << '\n';
  std::printf(
      "Worst default-grid iteration ratio: %.2fx (acceptance floor 3x).\n"
      "Solver counters over the grid section: %llu solves, %llu "
      "iterations, %llu factorizations, %llu reuses.\n",
      worst_ratio, static_cast<unsigned long long>(delta.cg_solves),
      static_cast<unsigned long long>(delta.cg_iterations),
      static_cast<unsigned long long>(delta.precond_factorizations),
      static_cast<unsigned long long>(delta.precond_reuses));
  if (check) {
    std::printf("\nGuard: IC iterations %s the recorded Jacobi baselines; "
                "multigrid ladder %s.\n",
                grid_guard_ok ? "within" : "EXCEED",
                mg_ladder_flat ? "flat" : "NOT FLAT");
  }
  return guard_ok ? 0 : 1;
}
