// IR-drop analysis on a GridMesh: voltage regulators are Thevenin sources
// (ideal voltage behind a series resistance — their output impedance plus
// the vertical interconnect under them), loads are per-node current sinks.
// Sources are folded in by Norton equivalence, keeping the system SPD for
// the conjugate-gradient solver.
//
// Outputs: the node-voltage map, per-VR delivered currents (the paper's
// A1 16-27 A vs A2 10-93 A load-sharing observation), the lateral-grid
// loss, and the worst-case droop.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "vpd/common/statistics.hpp"
#include "vpd/package/mesh.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace vpd {

struct VrAttachment {
  std::size_t node{0};       // mesh node the VR output lands on
  Voltage source_voltage{};  // regulated output voltage
  Resistance series{};       // VR output + vertical interconnect resistance
};

struct IrDropResult {
  Vector node_voltages;            // per mesh node
  std::vector<double> vr_currents; // per VR, amps (positive = sourcing)
  Power grid_loss{};               // lateral mesh I^2 R
  Power series_loss{};             // loss in the VR series resistances
  Voltage min_node_voltage{};
  Voltage max_node_voltage{};
  std::size_t cg_iterations{0};    // CG iterations the solve took
  /// Nodes severed from every VR by a zero-conductance perturbation (fully
  /// cut copper). They are grounded out of the solve and report 0 V — a
  /// dead rail with finite metrics — and any sink current at them goes
  /// unserved. 0 on an intact mesh.
  std::size_t floating_nodes{0};

  /// Summary of the per-VR current spread.
  Summary vr_current_summary() const;
};

struct IrDropOptions {
  /// Relative CG tolerance on the true residual ||b - A x|| / ||b||.
  double relative_tolerance{1e-12};
  /// Warm-start every node at this voltage (typically the rail voltage:
  /// the solution is the rail minus millivolt-scale drops, so the initial
  /// residual starts at the sink scale instead of the shunt scale and CG
  /// converges in far fewer iterations). Unset = cold start from zero.
  /// A constant warm start is deterministic per solve, which keeps sweep
  /// results independent of execution order.
  std::optional<double> warm_start_voltage;
  /// Preconditioner for the CG solve. IC(0) (the default) cuts mesh
  /// iteration counts several-fold over Jacobi; kMultigrid makes the
  /// count near-independent of mesh size. Each thread solves through one
  /// workspace: the IC pattern or multigrid hierarchy is built once per
  /// thread and mesh pattern or grid, and the factorization is reused
  /// when the same stamped operator is solved again on that thread.
  CgPreconditioner preconditioner{CgPreconditioner::kIncompleteCholesky};
  /// Parent span for the solve's "irdrop.solve" trace span. Observability
  /// plumbing only; never read by the numerics.
  obs::TraceContext trace{};
};

/// Solves the mesh with the given sources and per-node sink currents
/// (sink_currents[i] = current drawn at node i; size = mesh.node_count()).
/// Throws InvalidArgument on shape errors and NumericalError if CG fails.
IrDropResult solve_irdrop(const GridMesh& mesh,
                          const std::vector<VrAttachment>& vrs,
                          const Vector& sink_currents,
                          const IrDropOptions& options = {});

/// Same solve against a pre-assembled (typically cached) mesh operator:
/// skips triplet generation and CSR compilation, copying the Laplacian
/// values and stamping the VR shunts in place. Numerically identical to
/// the GridMesh overload.
IrDropResult solve_irdrop(const AssembledMesh& assembled,
                          const std::vector<VrAttachment>& vrs,
                          const Vector& sink_currents,
                          const IrDropOptions& options = {});

/// Solves one stamped operator (mesh + VR shunts) against many sink maps
/// — the sweep/fault/optimizer inner loop where only the load pattern
/// varies. The operator is stamped once and the right-hand sides solve in
/// sequence through the thread's workspace, so the factorization is
/// reused; each result is bit-identical to a solve_irdrop call with the
/// same inputs. Throws like solve_irdrop; sink_maps must be non-empty.
std::vector<IrDropResult> solve_irdrop_batch(
    const AssembledMesh& assembled, const std::vector<VrAttachment>& vrs,
    const std::vector<Vector>& sink_maps, const IrDropOptions& options = {});

/// Uniform per-node sinks totalling `total` over the mesh.
Vector uniform_sinks(const GridMesh& mesh, Current total);

/// Attaches one VR over a physical footprint instead of a point node: all
/// mesh nodes within the square patch of side `patch_side` centered at
/// (cx, cy) become attachment points, with the VR's series resistance
/// distributed among them (n parallel legs of n * series each). A
/// footprint attachment keeps the solution mesh-independent — a point
/// source's spreading resistance diverges logarithmically with refinement.
std::vector<VrAttachment> patch_attachment(const GridMesh& mesh, Length cx,
                                           Length cy, Length patch_side,
                                           Voltage source_voltage,
                                           Resistance series);

}  // namespace vpd
