#include "vpd/package/irdrop.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "vpd/common/error.hpp"

namespace vpd {

Summary IrDropResult::vr_current_summary() const {
  return summarize(vr_currents);
}

namespace {

/// Marks every node reachable from a VR attachment over nonzero-conductance
/// edges, then grounds the rest out of the system: their rows become the
/// identity (the off-diagonals are already stored zeros — a node with a
/// live edge would be reachable) and their rhs becomes 0, so they solve to
/// 0 V. Keeps a fault-severed operator SPD with the nominal sparsity
/// pattern. Fills `grounded_mask` (resized to the node count) with 1 for
/// every grounded node — the caller pins those voltages to exactly 0 after
/// the solve, since CG itself only reaches 0 to within the tolerance —
/// and returns the number of grounded nodes.
std::size_t ground_floating_nodes(CsrMatrix& a, Vector& rhs,
                                  const std::vector<VrAttachment>& vrs,
                                  std::vector<char>& grounded_mask) {
  const std::size_t n = a.rows();
  std::vector<char> reachable(n, 0);
  std::vector<std::size_t> stack;
  stack.reserve(n);
  for (const VrAttachment& vr : vrs) {
    if (!reachable[vr.node]) {
      reachable[vr.node] = 1;
      stack.push_back(vr.node);
    }
  }
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& values = a.values();
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const std::size_t v = cols[k];
      if (v != u && values[k] != 0.0 && !reachable[v]) {
        reachable[v] = 1;
        stack.push_back(v);
      }
    }
  }
  std::size_t grounded = 0;
  auto& mut = a.values_mut();
  grounded_mask.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    if (reachable[r]) continue;
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
      mut[k] = cols[k] == r ? 1.0 : 0.0;
    rhs[r] = 0.0;
    grounded_mask[r] = 1;
    ++grounded;
  }
  return grounded;
}

/// rhs = -sinks, with per-entry validation. The VR Norton injections are
/// added by stamp_vr_shunts.
void build_sink_rhs(const GridMesh& mesh, const Vector& sink_currents,
                    Vector& rhs) {
  VPD_REQUIRE(sink_currents.size() == mesh.node_count(),
              "sink vector has ", sink_currents.size(), " entries, mesh has ",
              mesh.node_count(), " nodes");
  rhs.assign(mesh.node_count(), 0.0);
  for (std::size_t i = 0; i < sink_currents.size(); ++i) {
    VPD_REQUIRE(sink_currents[i] >= 0.0, "negative sink at node ", i);
    rhs[i] -= sink_currents[i];
  }
}

/// Validates the attachments and folds them in by Norton equivalence:
/// shunt conductance onto the diagonal (when `a` is non-null — batch
/// solves stamp the shared operator once) and source injection into rhs.
void stamp_vr_shunts(const GridMesh& mesh,
                     const std::vector<VrAttachment>& vrs, CsrMatrix* a,
                     Vector& rhs) {
  for (const VrAttachment& vr : vrs) {
    VPD_REQUIRE(vr.node < mesh.node_count(), "VR node ", vr.node,
                " outside mesh");
    VPD_REQUIRE(vr.series.value > 0.0,
                "VR series resistance must be positive");
    const double g = 1.0 / vr.series.value;
    if (a != nullptr) a->add_to_entry(vr.node, vr.node, g);
    rhs[vr.node] += g * vr.source_voltage.value;
  }
}

/// Derives the output metrics from a converged solve. Shared by the
/// single and batch paths so their per-map results are computed
/// identically.
IrDropResult extract_result(const GridMesh& mesh,
                            const std::vector<VrAttachment>& vrs,
                            CgResult&& cg, std::size_t floating,
                            const std::vector<char>& grounded_mask) {
  IrDropResult result;
  result.node_voltages = std::move(cg.x);
  result.cg_iterations = cg.iterations;
  result.floating_nodes = floating;
  // Grounded nodes solve an identity row with rhs 0: the exact answer is
  // 0 V, but a warm-started CG only reaches it to within the tolerance.
  // Pin them so a dead rail reads exactly 0 V as documented. (Their edges
  // all have zero conductance, so edge_loss is unaffected either way.)
  if (floating > 0) {
    for (std::size_t i = 0; i < result.node_voltages.size(); ++i)
      if (grounded_mask[i]) result.node_voltages[i] = 0.0;
  }
  const Vector& x = result.node_voltages;
  result.vr_currents.reserve(vrs.size());
  double series_loss = 0.0;
  for (const VrAttachment& vr : vrs) {
    const double i =
        (vr.source_voltage.value - x[vr.node]) / vr.series.value;
    result.vr_currents.push_back(i);
    series_loss += i * i * vr.series.value;
  }
  result.grid_loss = mesh.edge_loss(x);
  result.series_loss = Power{series_loss};
  const auto [mn, mx] = std::minmax_element(x.begin(), x.end());
  result.min_node_voltage = Voltage{*mn};
  result.max_node_voltage = Voltage{*mx};
  return result;
}

/// Builds the CgOptions an IR-drop solve hands the solver.
CgOptions make_cg_options(const GridMesh& mesh, const IcSymbolic* ic,
                          const MgSymbolic* mg, const IrDropOptions& options,
                          obs::TraceContext trace) {
  CgOptions opts;
  opts.relative_tolerance = options.relative_tolerance;
  opts.preconditioner = options.preconditioner;
  opts.ic_symbolic = ic;
  opts.mg_symbolic = mg;
  opts.trace = trace;
  if (options.warm_start_voltage) {
    opts.x0.assign(mesh.node_count(), *options.warm_start_voltage);
  }
  return opts;
}

/// Shared solve core: copies the compiled Laplacian (a fresh assembly or a
/// cached one — identical either way) into per-thread storage, stamps the
/// VR shunts in place, and runs preconditioned CG through a reusable
/// workspace. Keeping one code path guarantees cached and uncached solves
/// are bit-identical.
IrDropResult solve_assembled(const GridMesh& mesh, const CsrMatrix& base,
                             const IcSymbolic* symbolic,
                             const MgSymbolic* hierarchy,
                             const std::vector<VrAttachment>& vrs,
                             const Vector& sink_currents,
                             const IrDropOptions& options) {
  VPD_REQUIRE(!vrs.empty(), "need at least one VR attachment");
  VPD_REQUIRE(options.relative_tolerance > 0.0,
              "relative tolerance must be positive, got ",
              options.relative_tolerance);

  const obs::StageTimer stage_timer(obs::Work::kSolveNanoseconds);
  obs::Span span("irdrop.solve", options.trace);

  thread_local CsrMatrix a;
  thread_local Vector rhs;
  a = base;
  build_sink_rhs(mesh, sink_currents, rhs);
  stamp_vr_shunts(mesh, vrs, &a, rhs);

  // Only a perturbed mesh can sever nodes (nominal grids are connected and
  // every edge conductance is positive), so the nominal path skips the
  // reachability sweep entirely.
  thread_local std::vector<char> grounded_mask;
  const std::size_t floating =
      mesh.perturbed() ? ground_floating_nodes(a, rhs, vrs, grounded_mask) : 0;

  const CgOptions opts =
      make_cg_options(mesh, symbolic, hierarchy, options, span.context());
  thread_local CgWorkspace workspace;
  CgResult cg = solve_cg(a, rhs, opts, workspace);
  VPD_CHECK_NUMERIC(cg.converged, "IR-drop CG did not converge: residual ",
                    cg.residual_norm, " after ", cg.iterations,
                    " iterations");

  if (span.active()) {
    span.set_arg("nodes", double(mesh.node_count()));
    span.set_arg("vrs", double(vrs.size()));
    span.set_arg("iterations", double(cg.iterations));
  }

  return extract_result(mesh, vrs, std::move(cg), floating, grounded_mask);
}

}  // namespace

IrDropResult solve_irdrop(const GridMesh& mesh,
                          const std::vector<VrAttachment>& vrs,
                          const Vector& sink_currents,
                          const IrDropOptions& options) {
  const CsrMatrix laplacian(mesh.laplacian());
  if (options.preconditioner == CgPreconditioner::kMultigrid) {
    // No cached hierarchy to borrow on this path; build one for the solve.
    const MgSymbolic hierarchy(mesh.nx(), mesh.ny());
    return solve_assembled(mesh, laplacian, nullptr, &hierarchy, vrs,
                           sink_currents, options);
  }
  return solve_assembled(mesh, laplacian, nullptr, nullptr, vrs,
                         sink_currents, options);
}

IrDropResult solve_irdrop(const AssembledMesh& assembled,
                          const std::vector<VrAttachment>& vrs,
                          const Vector& sink_currents,
                          const IrDropOptions& options) {
  return solve_assembled(assembled.mesh, assembled.laplacian,
                         &assembled.ic_symbolic, &assembled.mg_symbolic, vrs,
                         sink_currents, options);
}

std::vector<IrDropResult> solve_irdrop_batch(
    const AssembledMesh& assembled, const std::vector<VrAttachment>& vrs,
    const std::vector<Vector>& sink_maps, const IrDropOptions& options) {
  VPD_REQUIRE(!vrs.empty(), "need at least one VR attachment");
  VPD_REQUIRE(!sink_maps.empty(), "need at least one sink map");
  VPD_REQUIRE(options.relative_tolerance > 0.0,
              "relative tolerance must be positive, got ",
              options.relative_tolerance);
  const GridMesh& mesh = assembled.mesh;

  const obs::StageTimer stage_timer(obs::Work::kSolveNanoseconds);
  obs::Span span("irdrop.solve_batch", options.trace);

  // One stamped operator for the whole batch; per-map right-hand sides.
  thread_local CsrMatrix a;
  thread_local std::vector<Vector> rhs_set;
  a = assembled.laplacian;
  rhs_set.resize(sink_maps.size());
  for (std::size_t j = 0; j < sink_maps.size(); ++j) {
    build_sink_rhs(mesh, sink_maps[j], rhs_set[j]);
    stamp_vr_shunts(mesh, vrs, j == 0 ? &a : nullptr, rhs_set[j]);
  }

  // Severed nodes depend on the operator and attachments only, so the
  // reachability sweep runs once and its mask applies to every map.
  thread_local std::vector<char> grounded_mask;
  std::size_t floating = 0;
  if (mesh.perturbed()) {
    floating = ground_floating_nodes(a, rhs_set[0], vrs, grounded_mask);
    if (floating > 0) {
      for (std::size_t j = 1; j < rhs_set.size(); ++j)
        for (std::size_t i = 0; i < grounded_mask.size(); ++i)
          if (grounded_mask[i]) rhs_set[j][i] = 0.0;
    }
  }

  const CgOptions opts =
      make_cg_options(mesh, &assembled.ic_symbolic, &assembled.mg_symbolic,
                      options, span.context());
  thread_local CgWorkspace workspace;
  std::vector<CgResult> solved = solve_cg_batch(a, rhs_set, opts, workspace);

  std::vector<IrDropResult> results;
  results.reserve(solved.size());
  std::size_t total_iterations = 0;
  for (CgResult& cg : solved) {
    VPD_CHECK_NUMERIC(cg.converged, "IR-drop CG did not converge: residual ",
                      cg.residual_norm, " after ", cg.iterations,
                      " iterations");
    total_iterations += cg.iterations;
    results.push_back(
        extract_result(mesh, vrs, std::move(cg), floating, grounded_mask));
  }

  if (span.active()) {
    span.set_arg("nodes", double(mesh.node_count()));
    span.set_arg("vrs", double(vrs.size()));
    span.set_arg("maps", double(sink_maps.size()));
    span.set_arg("iterations", double(total_iterations));
  }
  return results;
}

Vector uniform_sinks(const GridMesh& mesh, Current total) {
  VPD_REQUIRE(total.value >= 0.0, "negative total current");
  return Vector(mesh.node_count(),
                total.value / static_cast<double>(mesh.node_count()));
}

std::vector<VrAttachment> patch_attachment(const GridMesh& mesh, Length cx,
                                           Length cy, Length patch_side,
                                           Voltage source_voltage,
                                           Resistance series) {
  VPD_REQUIRE(patch_side.value > 0.0, "patch side must be positive");
  VPD_REQUIRE(series.value > 0.0, "series resistance must be positive");
  const double half = 0.5 * patch_side.value;
  // Candidate index window from the uniform grid geometry (conservatively
  // widened by one cell), then the exact per-node test used before — same
  // node set in the same row-major order as the full scan this replaces.
  const auto index_window = [half](double c, double extent,
                                   std::size_t count) {
    const double pitch = extent / static_cast<double>(count - 1);
    const double lo = (c - half - 1e-12) / pitch - 1.0;
    const double hi = (c + half + 1e-12) / pitch + 1.0;
    const std::size_t first =
        lo <= 0.0 ? 0
                  : std::min(count - 1,
                             static_cast<std::size_t>(std::floor(lo)));
    const std::size_t last =
        hi <= 0.0 ? 0
                  : std::min(count - 1,
                             static_cast<std::size_t>(std::ceil(hi)));
    return std::pair<std::size_t, std::size_t>{first, last};
  };
  const auto [ix_lo, ix_hi] =
      index_window(cx.value, mesh.width().value, mesh.nx());
  const auto [iy_lo, iy_hi] =
      index_window(cy.value, mesh.height().value, mesh.ny());
  std::vector<std::size_t> nodes;
  for (std::size_t iy = iy_lo; iy <= iy_hi; ++iy) {
    for (std::size_t ix = ix_lo; ix <= ix_hi; ++ix) {
      const std::size_t i = mesh.node(ix, iy);
      const double dx = mesh.x_of(i).value - cx.value;
      const double dy = mesh.y_of(i).value - cy.value;
      if (std::fabs(dx) <= half + 1e-12 && std::fabs(dy) <= half + 1e-12)
        nodes.push_back(i);
    }
  }
  if (nodes.empty()) nodes.push_back(mesh.nearest_node(cx, cy));
  std::vector<VrAttachment> legs;
  legs.reserve(nodes.size());
  const Resistance per_leg{series.value * static_cast<double>(nodes.size())};
  for (std::size_t n : nodes) legs.push_back({n, source_voltage, per_leg});
  return legs;
}

}  // namespace vpd
