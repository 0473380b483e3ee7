// Layer probes: time the package and solver layers in isolation on one
// distribution solve of the workload's own inputs, captured through the
// evaluator's DistributionSolveHook. Run outside every timed region; they
// answer which layer dominates at a workload's mesh size.
#include <memory>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "vpd/common/sparse.hpp"
#include "vpd/core/explorer.hpp"
#include "vpd/package/irdrop.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace perfbench {
namespace {

using namespace vpd;

/// Records the first distribution solve an evaluation requests and lets it
/// run as usual.
class CaptureHook final : public DistributionSolveHook {
 public:
  bool solve(const std::shared_ptr<const AssembledMesh>& assembled,
             const std::vector<VrAttachment>& legs, const Vector& sinks,
             const IrDropOptions& options, IrDropResult&) override {
    if (assembled_ == nullptr) {
      assembled_ = assembled;
      legs_ = legs;
      sinks_ = sinks;
      options_ = options;
    }
    return false;
  }

  std::shared_ptr<const AssembledMesh> assembled_;
  std::vector<VrAttachment> legs_;
  Vector sinks_;
  IrDropOptions options_;
};

/// Median wall time [s] of `fn` over repeats until 0.2 s have been spent
/// (at least 3, at most 200 repeats). `prepare` runs untimed before each.
template <typename Prepare, typename Fn>
double median_seconds(Prepare prepare, Fn fn) {
  std::vector<double> samples;
  const auto budget_start = Clock::now();
  while (samples.size() < 3 ||
         (samples.size() < 200 && seconds_since(budget_start) < 0.2)) {
    prepare();
    const auto start = Clock::now();
    fn();
    samples.push_back(seconds_since(start));
  }
  return median(std::move(samples));
}

}  // namespace

void run_layer_probes(const ProbeTarget& target, RunRecord& record) {
  CaptureHook hook;
  MeshSolveCache cache;
  EvaluationOptions options = target.options;
  options.mesh_cache = &cache;
  options.solve_hook = &hook;
  evaluate_with_exclusion(target.spec, target.architecture, target.topology,
                          DeviceTechnology::kGalliumNitride, options);
  if (hook.assembled_ == nullptr) {
    throw std::runtime_error("layer probe: the target made no mesh solve");
  }
  const AssembledMesh& assembled = *hook.assembled_;
  const GridMesh& mesh = assembled.mesh;
  IrDropOptions solve_options = hook.options_;
  solve_options.trace = {};

  const auto nothing = [] {};
  record.metric("probe.assemble_ms",
                1e3 * median_seconds(nothing, [&] {
                  assemble_mesh(mesh.width(), mesh.height(), mesh.nx(),
                                mesh.ny(), mesh.sheet_resistance());
                }));
  record.metric("probe.irdrop_ms", 1e3 * median_seconds(nothing, [&] {
                                     solve_irdrop(assembled, hook.legs_,
                                                  hook.sinks_, solve_options);
                                   }));

  // The stamped operator and right-hand side solve_irdrop hands solve_cg
  // (Norton-folded VR legs over the cached Laplacian).
  CsrMatrix a = assembled.laplacian;
  Vector b(mesh.node_count(), 0.0);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = -hook.sinks_[i];
  for (const VrAttachment& leg : hook.legs_) {
    const double g = 1.0 / leg.series.value;
    a.add_to_entry(leg.node, leg.node, g);
    b[leg.node] += g * leg.source_voltage.value;
  }
  CgOptions cg;
  cg.relative_tolerance = solve_options.relative_tolerance;
  cg.preconditioner = solve_options.preconditioner;
  cg.ic_symbolic = &assembled.ic_symbolic;
  cg.mg_symbolic = &assembled.mg_symbolic;
  if (solve_options.warm_start_voltage) {
    cg.x0.assign(mesh.node_count(), *solve_options.warm_start_voltage);
  }
  CgWorkspace warm;
  solve_cg(a, b, cg, warm);
  record.metric("solver.warm_solve_us",
                1e6 * median_seconds(nothing,
                                     [&] { solve_cg(a, b, cg, warm); }));
  std::unique_ptr<CgWorkspace> cold;
  record.metric("solver.cold_solve_us",
                1e6 * median_seconds(
                          [&] { cold = std::make_unique<CgWorkspace>(); },
                          [&] { solve_cg(a, b, cg, *cold); }));
}

}  // namespace perfbench
