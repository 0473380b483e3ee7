#include "vpd/package/irdrop.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "vpd/common/error.hpp"

namespace vpd {

Summary IrDropResult::vr_current_summary() const {
  return summarize(vr_currents);
}

namespace {

/// Marks every node reachable from a VR attachment over nonzero-conductance
/// edges, then grounds the rest out of the operator: their rows become the
/// identity (the off-diagonals are already stored zeros — a node with a
/// live edge would be reachable). Keeps a fault-severed operator SPD with
/// the nominal sparsity pattern. Fills `grounded_mask` (resized to the
/// node count) with 1 for every grounded node — each right-hand side gets
/// 0 there, so they solve to 0 V, and the caller pins those voltages to
/// exactly 0 after the solve, since CG itself only reaches 0 to within the
/// tolerance — and returns the number of grounded nodes.
std::size_t ground_floating_nodes(CsrMatrix& a,
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
    grounded_mask[r] = 1;
    ++grounded;
  }
  return grounded;
}

/// Validates the attachments and folds their shunt conductances onto the
/// operator's diagonal (Norton equivalence; the source injections go into
/// each right-hand side, see build_rhs).
void stamp_vr_shunts(const GridMesh& mesh,
                     const std::vector<VrAttachment>& vrs, CsrMatrix& a) {
  for (const VrAttachment& vr : vrs) {
    VPD_REQUIRE(vr.node < mesh.node_count(), "VR node ", vr.node,
                " outside mesh");
    VPD_REQUIRE(vr.series.value > 0.0,
                "VR series resistance must be positive");
    a.add_to_entry(vr.node, vr.node, 1.0 / vr.series.value);
  }
}

/// rhs = -sinks plus the VR Norton injections, with per-entry validation,
/// and 0 at every grounded node.
void build_rhs(const GridMesh& mesh, const std::vector<VrAttachment>& vrs,
               const Vector& sink_currents, std::size_t floating,
               const std::vector<char>& grounded_mask, Vector& rhs) {
  VPD_REQUIRE(sink_currents.size() == mesh.node_count(),
              "sink vector has ", sink_currents.size(), " entries, mesh has ",
              mesh.node_count(), " nodes");
  rhs.assign(mesh.node_count(), 0.0);
  for (std::size_t i = 0; i < sink_currents.size(); ++i) {
    VPD_REQUIRE(sink_currents[i] >= 0.0, "negative sink at node ", i);
    rhs[i] -= sink_currents[i];
  }
  for (const VrAttachment& vr : vrs) {
    const double g = 1.0 / vr.series.value;
    rhs[vr.node] += g * vr.source_voltage.value;
  }
  if (floating > 0) {
    for (std::size_t i = 0; i < rhs.size(); ++i)
      if (grounded_mask[i]) rhs[i] = 0.0;
  }
}

/// Derives the output metrics from a converged solve.
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

/// Per-thread solver state: the stamped operator, one right-hand side,
/// the grounding mask and the CG workspace, whose preconditioner keeps its
/// IC pattern or multigrid hierarchy while the pattern or grid stays the
/// same. One per thread, so each analysis is built once per thread.
struct SolveState {
  CsrMatrix a;
  Vector rhs;
  std::vector<char> grounded_mask;
  CgWorkspace workspace;
};

/// Shared solve core of solve_irdrop and solve_irdrop_batch: copies the
/// compiled Laplacian (a fresh assembly or a cached one — identical either
/// way) into the thread's operator, stamps the VR shunts in place, grounds
/// severed nodes, and solves each sink map in order through the thread's
/// workspace, so the first map factors and the rest reuse the factor. One
/// code path keeps cached, uncached and batched solves bit-identical.
std::vector<IrDropResult> solve_maps(const GridMesh& mesh,
                                     const CsrMatrix& base,
                                     const std::vector<VrAttachment>& vrs,
                                     std::span<const Vector> sink_maps,
                                     const IrDropOptions& options,
                                     bool batch) {
  VPD_REQUIRE(!vrs.empty(), "need at least one VR attachment");
  VPD_REQUIRE(options.relative_tolerance > 0.0,
              "relative tolerance must be positive, got ",
              options.relative_tolerance);

  const obs::StageTimer stage_timer(obs::Work::kSolveNanoseconds);
  obs::Span span(batch ? "irdrop.solve_batch" : "irdrop.solve",
                 options.trace);

  thread_local SolveState state;
  // The thread's operator usually already has the base's structure (the
  // last solve was on the same grid): then only the values are copied.
  if (state.a.rows() == base.rows() &&
      state.a.structure_digest() == base.structure_digest() &&
      state.a.nonzero_count() == base.nonzero_count()) {
    std::copy(base.values().begin(), base.values().end(),
              state.a.values_mut().begin());
  } else {
    state.a = base;
  }
  stamp_vr_shunts(mesh, vrs, state.a);
  // Only a perturbed mesh can sever nodes (nominal grids are connected and
  // every edge conductance is positive), so the nominal path skips the
  // reachability sweep entirely. Severed nodes depend on the operator and
  // attachments only, so one mask serves every map.
  const std::size_t floating =
      mesh.perturbed() ? ground_floating_nodes(state.a, vrs,
                                               state.grounded_mask)
                       : 0;

  const MgSymbolic grid(mesh.nx(), mesh.ny());
  CgOptions opts;
  opts.relative_tolerance = options.relative_tolerance;
  opts.preconditioner = options.preconditioner;
  opts.mg_symbolic = &grid;
  opts.trace = span.context();
  if (options.warm_start_voltage) {
    opts.x0.assign(mesh.node_count(), *options.warm_start_voltage);
  }

  std::vector<IrDropResult> results;
  results.reserve(sink_maps.size());
  std::size_t total_iterations = 0;
  for (const Vector& sinks : sink_maps) {
    build_rhs(mesh, vrs, sinks, floating, state.grounded_mask, state.rhs);
    CgResult cg = solve_cg(state.a, state.rhs, opts, state.workspace);
    VPD_CHECK_NUMERIC(cg.converged, "IR-drop CG did not converge: residual ",
                      cg.residual_norm, " after ", cg.iterations,
                      " iterations");
    total_iterations += cg.iterations;
    results.push_back(extract_result(mesh, vrs, std::move(cg), floating,
                                     state.grounded_mask));
  }

  if (span.active()) {
    span.set_arg("nodes", double(mesh.node_count()));
    span.set_arg("vrs", double(vrs.size()));
    if (batch) span.set_arg("maps", double(sink_maps.size()));
    span.set_arg("iterations", double(total_iterations));
  }
  return results;
}

}  // namespace

IrDropResult solve_irdrop(const GridMesh& mesh,
                          const std::vector<VrAttachment>& vrs,
                          const Vector& sink_currents,
                          const IrDropOptions& options) {
  const CsrMatrix laplacian(mesh.laplacian());
  return std::move(solve_maps(mesh, laplacian, vrs, {&sink_currents, 1},
                              options, false)
                       .front());
}

IrDropResult solve_irdrop(const AssembledMesh& assembled,
                          const std::vector<VrAttachment>& vrs,
                          const Vector& sink_currents,
                          const IrDropOptions& options) {
  return std::move(solve_maps(assembled.mesh, assembled.laplacian, vrs,
                              {&sink_currents, 1}, options, false)
                       .front());
}

std::vector<IrDropResult> solve_irdrop_batch(
    const AssembledMesh& assembled, const std::vector<VrAttachment>& vrs,
    const std::vector<Vector>& sink_maps, const IrDropOptions& options) {
  VPD_REQUIRE(!sink_maps.empty(), "need at least one sink map");
  return solve_maps(assembled.mesh, assembled.laplacian, vrs, sink_maps,
                    options, true);
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
