// End-to-end evaluation of a power-delivery architecture: assembles the
// PCB-to-POL path (vertical interconnect fields, lateral segments, mesh
// IR-drop distribution), allocates and places VRs, computes per-VR load
// currents, and rolls everything into the loss breakdown of Fig. 7.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "vpd/arch/architecture.hpp"
#include "vpd/arch/fault_injection.hpp"
#include "vpd/arch/report.hpp"
#include "vpd/converters/catalog.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/package/irdrop.hpp"
#include "vpd/package/mesh.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace vpd {

/// The distribution-rail mesh solve of one evaluation: the assembled mesh
/// operator, the VR legs stamped onto it, the per-node sink currents and
/// the resolved solve options. A scalar evaluation runs it as
/// solve_irdrop(*assembled, legs, sinks, options).
struct DistributionRequest {
  std::shared_ptr<const AssembledMesh> assembled;
  std::vector<VrAttachment> legs;
  Vector sinks;
  IrDropOptions options;
};

/// Interception point for the distribution IR-drop solve of a scalar
/// evaluation: evaluate_architecture and evaluate_with_exclusion consult
/// it once, between prepare and finish, with the fully assembled request
/// (layer probes use it to capture a workload's own solve inputs). The
/// batch engine (core/batch.hpp) runs its solves itself and ignores it.
/// Process-local plumbing like mesh_cache and trace: never on the wire,
/// ignored by the io schema.
class DistributionSolveHook {
 public:
  virtual ~DistributionSolveHook() = default;

  /// Substitute the solve: return true with `result` filled to skip the
  /// scalar solve, false to run it as usual.
  virtual bool solve(const std::shared_ptr<const AssembledMesh>& assembled,
                     const std::vector<VrAttachment>& legs,
                     const Vector& sinks, const IrDropOptions& options,
                     IrDropResult& result) = 0;
};

/// Builds the per-node sink currents for a distribution solve; the total
/// must equal `total` (checked to 0.1%). Defaults to a uniform draw.
using SinkMapBuilder =
    std::function<Vector(const GridMesh& mesh, Current total)>;

struct EvaluationOptions {
  /// Mesh nodes per die edge for the distribution solve.
  std::size_t mesh_nodes{41};
  /// Effective sheet resistance of the POL-rail distribution metal
  /// (interposer power planes in parallel with the die grid) [Ohm/sq].
  /// Calibrated so A1's horizontal loss lands in the paper's <10% band.
  double distribution_sheet_ohms{2.0e-3};
  /// Vertical interconnect and local feed under each VR output (its share
  /// of the TSV/u-bump/pad field plus output routing).
  Resistance vr_attach_series{Resistance{100e-6}};
  /// Physical footprint of each VR's output attachment patch (capped per
  /// site so neighbouring patches never share a mesh node; see
  /// disjoint_patch_sides). 1.5 mm is the footprint the paper-mode
  /// calibration was pinned against: the paper's headline 48-VR
  /// deployments sit on a ~1.9 mm periphery pitch / 3.2 mm below-die
  /// pitch, and the per-VR current spreads of Section IV reproduce at
  /// this patch size.
  Length vr_patch{Length{1.5e-3}};
  /// Extra series resistance per periphery ring beyond the first (longer
  /// feed to the die edge), in units of the distribution sheet
  /// resistance. Zero by default: staggered rows feed their own edge
  /// sections through essentially the same metal; a positive value models
  /// congested feed routing (see the placement ablation bench).
  double ring_series_squares{0.0};
  /// Per-VR current derating against the published max rating.
  double derating{0.70};
  /// Fraction of the die footprint below-die VRs may occupy.
  double below_die_area_fraction{0.75};
  /// Compute extrapolated losses when the per-VR load exceeds the rating
  /// (flagged in the result); if false, such cases throw InfeasibleDesign.
  bool allow_extrapolation{true};
  /// Override the automatic VR count of the final regulation stage (e.g.
  /// the paper's published 48); 0 = automatic.
  unsigned fixed_final_stage_vrs{0};
  /// Maximum periphery VR rows ("additional rows of VRs are utilized
  /// farther away from the perimeter of the die" — the paper uses a
  /// small number).
  unsigned max_periphery_rings{2};
  /// Spatial load profile on the POL rail; empty = uniform.
  SinkMapBuilder sink_map;
  /// Relative CG tolerance for the distribution IR-drop solve (true
  /// residual; see solve_cg).
  double irdrop_relative_tolerance{1e-12};
  /// Warm-start the mesh solve at the rail voltage. Deterministic per
  /// point (no cross-point state), so sweep results are independent of
  /// execution order; disable to reproduce the cold-start iteration
  /// counts.
  bool cg_warm_start{true};
  /// Preconditioner for the distribution IR-drop solve. Unset (the
  /// default) selects automatically by mesh size: IC(0) below
  /// kAutoMultigridMeshNodes nodes per edge — it cuts CG iteration counts
  /// several-fold over Jacobi on mesh operators — and kMultigrid at or
  /// above, where whole sweep jobs run faster on it. Set explicitly to
  /// override the automatic choice; every choice converges to the same
  /// certified criterion. See resolved_irdrop_preconditioner().
  std::optional<CgPreconditioner> irdrop_preconditioner;
  /// Shared cache of assembled mesh operators; nullptr = assemble per
  /// call. The cache is thread-safe and must outlive the evaluation; a
  /// SweepRunner wires its own cache in here for every point.
  MeshSolveCache* mesh_cache{nullptr};
  /// Fault state to evaluate the deployment under (see
  /// arch/fault_injection.hpp). Allocation and placement stay nominal;
  /// the injection drops/degrades placed VRs and perturbs the mesh, and
  /// the distribution solve redistributes load across the survivors. An
  /// empty injection (the default) is the nominal evaluation bit for bit.
  /// Not supported for A0, which has no distributed VRs.
  FaultInjection faults;
  /// Parent span for this evaluation's "vpd.evaluate" trace span.
  /// Process-local observability plumbing (like mesh_cache): never on the
  /// wire, never read by the numerics.
  obs::TraceContext trace{};
  /// Distribution-solve interception (see DistributionSolveHook).
  /// Process-local plumbing like mesh_cache and trace: never on the wire,
  /// ignored by the io schema. nullptr = solve_irdrop.
  DistributionSolveHook* solve_hook{nullptr};
};

/// Mesh size (nodes per die edge) at which the automatic preconditioner
/// choice switches from IC(0) to multigrid. It is a wall-time crossover,
/// not an iteration-count one: whole seeded sweep jobs with each
/// preconditioner forced ran at multigrid/IC(0) wall ratios of 0.74 at
/// 65^2, 0.60 at 97^2, 0.50 at 129^2 and 0.31 at 257^2 (EXPERIMENTS.md).
/// At the default 41^2 mesh the two are within noise, and it stays on
/// IC(0).
inline constexpr std::size_t kAutoMultigridMeshNodes = 64;

/// The preconditioner the distribution solve actually runs with: the
/// explicit override when set, otherwise IC(0) below
/// kAutoMultigridMeshNodes nodes per edge and kMultigrid at or above.
CgPreconditioner resolved_irdrop_preconditioner(
    const EvaluationOptions& options);

/// An evaluation split at its distribution solve. prepare_evaluation runs
/// everything before the mesh solve — VR allocation, placement, the mesh
/// cache lookup, legs and sinks — and finish() completes the evaluation
/// from the solve's result. The prepared state owns everything finish()
/// needs and keeps no pointer into the caller's options, so the halves
/// may run on different threads: the batch engine (core/batch.hpp)
/// prepares every point, solves each same-operator group once and then
/// finishes the members.
class PreparedEvaluation {
 public:
  /// The pending distribution solve; nullptr when the evaluation needs
  /// none (A0, which prepare already completed).
  const DistributionRequest* request() const {
    return request_ ? &*request_ : nullptr;
  }

  /// Completes the evaluation with `result`, the solve of request()
  /// (ignored when request() is nullptr). Call once. Throws
  /// InfeasibleDesign when a solved per-VR current exceeds the rating and
  /// extrapolation is disabled.
  ArchitectureEvaluation finish(const IrDropResult& result) {
    return finish_(result);
  }

 private:
  friend PreparedEvaluation prepare_evaluation(ArchitectureKind,
                                               const PowerDeliverySpec&,
                                               TopologyKind, DeviceTechnology,
                                               const EvaluationOptions&);

  std::optional<DistributionRequest> request_;
  std::function<ArchitectureEvaluation(const IrDropResult&)> finish_;
};

/// Prepares one (architecture, topology, device technology) evaluation
/// (see PreparedEvaluation). Throws InvalidArgument on bad options and
/// InfeasibleDesign when the design fails before its mesh solve (area or
/// periphery caps, every rail VR dropped, a final stage over its rating
/// with extrapolation disabled). options.trace parents the mesh-assembly
/// span and rides on the request's solve options.
PreparedEvaluation prepare_evaluation(
    ArchitectureKind architecture, const PowerDeliverySpec& spec,
    TopologyKind topology,
    DeviceTechnology tech = DeviceTechnology::kGalliumNitride,
    const EvaluationOptions& options = {});

/// Runs a prepared request the way a scalar evaluation does: through
/// `hook` when one is set and takes the solve, otherwise solve_irdrop.
/// Returns an empty result when `request` is nullptr.
IrDropResult solve_distribution(const DistributionRequest* request,
                                DistributionSolveHook* hook);

/// The "vpd.evaluate" trace span of one evaluation, plus the options its
/// child spans (mesh assembly, IR-drop, CG) parent onto. The options are
/// copied only while tracing is live, so the disabled path stays a single
/// relaxed load with zero extra work.
class EvaluationSpan {
 public:
  EvaluationSpan(ArchitectureKind architecture,
                 const EvaluationOptions& options);
  EvaluationSpan(const EvaluationSpan&) = delete;
  EvaluationSpan& operator=(const EvaluationSpan&) = delete;

  /// The caller's options, re-parented onto this span when it records.
  const EvaluationOptions& options() const { return *options_; }

 private:
  obs::Span span_;
  EvaluationOptions traced_;
  const EvaluationOptions* options_;
};

/// Evaluates one (architecture, topology, device technology) combination:
/// prepare, the distribution solve (through options.solve_hook when set)
/// and finish, under one "vpd.evaluate" span. For A0 the topology
/// argument is ignored (the paper models A0 with a 90% PCB regulator).
/// For the two-stage architectures the first stage is a DPMIH (the
/// paper's choice) retargeted to 48V -> V_mid, and `topology` provides
/// the second stage retargeted to V_mid -> 1V.
ArchitectureEvaluation evaluate_architecture(
    ArchitectureKind architecture, const PowerDeliverySpec& spec,
    TopologyKind topology,
    DeviceTechnology tech = DeviceTechnology::kGalliumNitride,
    const EvaluationOptions& options = {});

}  // namespace vpd
