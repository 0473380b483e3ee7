// Batch-first evaluation: the group-detecting front end that solves many
// evaluation points' distribution meshes together instead of one scalar
// evaluation per point.
//
// An EvaluationBatch evaluates each point exactly once, split at its mesh
// solve (see PreparedEvaluation):
//
//   1. prepare — each point runs the evaluator up to its distribution
//                solve (prepare_with_exclusion) and keeps the request:
//                assembled mesh, VR legs, sink vector, solve options.
//                Points that need no solve (A0, pre-solve exclusions)
//                finish outright here.
//   2. group   — plan() groups the requests by stamped operator: identical
//                assembled mesh and VR legs with identical solve options,
//                differing only in the sink vector (sink-map variants,
//                fault load scalings, two-stage intermediate currents).
//                Grouping is deterministic in input order and independent
//                of thread count or mesh-cache wiring. Within a group,
//                value-identical sink vectors deduplicate onto one solve.
//   3. solve   — execute() solves each group's distinct right-hand sides
//                against one stamped operator (solve_irdrop_batch, a
//                sequential loop that reuses the factorization) and
//                singleton points through solve_irdrop;
//   4. finish  — then completes every member's entry from its result.
//
// Correctness contract: every entry is bit-identical to a scalar
// evaluate_with_exclusion of the same point — the solver is deterministic
// in its inputs, so grouping and deduplication change where a solve runs,
// never its bits. Errors surface per point, the first one in input order
// rethrown by rethrow_first_error().
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <vector>

#include "vpd/core/explorer.hpp"

namespace vpd {

/// One point of a batch: the same coordinates evaluate_with_exclusion
/// takes. `options.mesh_cache` is honoured (a shared cache makes grouping
/// cheap via pointer identity, but grouping works without one);
/// `options.solve_hook` is ignored — the batch runs its solves itself.
struct EvaluationPoint {
  ArchitectureKind architecture{};
  std::optional<TopologyKind> topology;  // nullopt only for A0
  DeviceTechnology tech{DeviceTechnology::kGalliumNitride};
  EvaluationOptions options;
};

/// Deterministic accounting of one batch run (plan() fills every field;
/// execute() never changes them).
struct BatchStats {
  std::size_t points{0};          // batch size
  std::size_t groups{0};          // multi-point same-operator groups
  std::size_t grouped_points{0};  // points solved through a group
  std::size_t scalar_points{0};   // singletons + pre-solve completions
  /// Distinct right-hand sides solved through solve_irdrop_batch.
  std::size_t panel_columns{0};
  /// Group members whose sink vector matched another member's exactly and
  /// shared its solve (bit-identical to solving twice).
  std::size_t deduped_solves{0};

  BatchStats& operator+=(const BatchStats& other);
};

class EvaluationBatch {
 public:
  /// Validates the spec and takes ownership of the points.
  EvaluationBatch(PowerDeliverySpec spec, std::vector<EvaluationPoint> points);

  EvaluationBatch(const EvaluationBatch&) = delete;
  EvaluationBatch& operator=(const EvaluationBatch&) = delete;

  std::size_t size() const { return points_.size(); }

  /// Phase 1: prepare point `index` under its "vpd.evaluate" span.
  /// Thread-safe for distinct indices; call exactly once per point before
  /// plan(). Never throws — failures land in error(index).
  void prepare(std::size_t index);

  /// Phase 2: group the prepared requests. Single-threaded; call after
  /// every prepare() has returned. Returns the number of execution units.
  std::size_t plan();

  std::size_t unit_count() const { return units_.size(); }

  /// Phases 3 and 4: solve unit `unit` (a whole group or one scalar point)
  /// and finish its points. Thread-safe for distinct units. Never throws —
  /// failures land in the error slots of the points the unit covers.
  void execute(std::size_t unit);

  /// Serial convenience: prepare everything, plan, execute every unit.
  void run();

  /// The finished entry for point `index`; valid once the point's unit has
  /// executed and error(index) is null. Mutable so callers can move it out.
  ExplorationEntry& entry(std::size_t index);
  std::exception_ptr error(std::size_t index) const;
  /// Wall time attributed to the point: its prepare plus its share of the
  /// group solve plus its finish. Scheduling-dependent, like SweepStats.
  double wall_seconds(std::size_t index) const;

  /// Valid after plan().
  const BatchStats& stats() const { return stats_; }

  /// Rethrows the first recorded per-point error in input order (the
  /// deterministic choice, unlike completion order). No-op when clean.
  void rethrow_first_error() const;

 private:
  /// A same-operator group: members in input order, each mapped onto the
  /// deduplicated distinct right-hand sides (owned by their first member).
  struct Group {
    std::vector<std::size_t> members;
    std::vector<std::size_t> rhs_of_member;  // member slot -> distinct slot
    std::vector<std::size_t> distinct;       // distinct slot -> owning member
  };
  struct Unit {
    bool is_group{false};
    std::size_t index{0};  // group index when is_group, else point index
  };

  const DistributionRequest& request(std::size_t index) const;
  IrDropOptions solve_options(std::size_t index) const;
  void execute_scalar(std::size_t index);
  void execute_group(const Group& group);
  void finish(std::size_t index, const IrDropResult& result);

  PowerDeliverySpec spec_;
  std::vector<EvaluationPoint> points_;
  std::vector<PreparedEntry> prepared_;
  std::vector<ExplorationEntry> entries_;
  std::vector<std::exception_ptr> errors_;
  std::vector<double> wall_seconds_;
  std::vector<Group> groups_;
  std::vector<Unit> units_;
  BatchStats stats_;
};

/// One-call batch evaluation with the explorer's exclusion rule: prepares,
/// groups and executes serially on the calling thread, wiring a private
/// MeshSolveCache into points that have none (cached assembly is
/// numerically identical to per-call assembly). Returns entries in input
/// order; rethrows the first per-point error in input order. `stats`, when
/// non-null, receives the batch accounting.
std::vector<ExplorationEntry> evaluate_batch_with_exclusion(
    const PowerDeliverySpec& spec, std::vector<EvaluationPoint> points,
    BatchStats* stats = nullptr);

}  // namespace vpd
