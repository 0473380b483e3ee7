// Architecture-space exploration: evaluates every (architecture, topology)
// combination the paper's Fig. 7 covers, applying the paper's exclusion
// rule (a topology whose required per-VR current exceeds its published
// rating is reported N/A rather than silently extrapolated — the 3LHD
// case at ~20 A per VR).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "vpd/arch/evaluator.hpp"
#include "vpd/arch/report.hpp"
#include "vpd/core/spec.hpp"

namespace vpd {

struct ExplorationEntry {
  ArchitectureKind architecture{};
  std::optional<TopologyKind> topology;  // nullopt for A0
  /// Absent when the paper's exclusion rule applies (rating exceeded).
  std::optional<ArchitectureEvaluation> evaluation;
  /// The flagged, extrapolated evaluation for excluded combinations.
  std::optional<ArchitectureEvaluation> extrapolated;
  std::string exclusion_reason;

  bool excluded() const { return !evaluation.has_value(); }
};

struct ExplorationResult {
  PowerDeliverySpec spec;
  std::vector<ExplorationEntry> entries;

  /// Entry lookup; throws InvalidArgument when absent.
  const ExplorationEntry& find(
      ArchitectureKind arch,
      std::optional<TopologyKind> topo = std::nullopt) const;
};

/// evaluate_with_exclusion split at its distribution solve, the unit the
/// batch engine (core/batch.hpp) groups: prepare_with_exclusion runs the
/// evaluator up to the mesh solve (see PreparedEvaluation) and finish()
/// completes the entry from the solve's result. A0 and points excluded
/// before the solve carry no request.
class PreparedEntry {
 public:
  /// The pending distribution solve; nullptr when the entry needs none.
  const DistributionRequest* request() const {
    return evaluation_ ? evaluation_->request() : nullptr;
  }

  /// Completes the entry with `result`, the solve of request() (ignored
  /// when request() is nullptr), under the paper's exclusion rule. Call
  /// once; releases the prepared state.
  ExplorationEntry finish(const IrDropResult& result);

 private:
  friend PreparedEntry prepare_with_exclusion(const PowerDeliverySpec&,
                                              ArchitectureKind,
                                              std::optional<TopologyKind>,
                                              DeviceTechnology,
                                              const EvaluationOptions&);

  ExplorationEntry entry_;
  std::optional<PreparedEvaluation> evaluation_;  // unset once excluded
};

/// Prepares one (architecture, topology, tech) combination under the
/// exclusion rule: an InfeasibleDesign before the solve yields an
/// excluded entry with no request. Other errors throw.
PreparedEntry prepare_with_exclusion(const PowerDeliverySpec& spec,
                                     ArchitectureKind architecture,
                                     std::optional<TopologyKind> topology,
                                     DeviceTechnology tech,
                                     const EvaluationOptions& options);

/// Evaluates one (architecture, topology, tech) combination with the
/// paper's exclusion rule applied: InfeasibleDesign and over-rating
/// results become excluded entries (with the flagged extrapolation kept
/// for inspection) instead of throwing. Runs prepare, the distribution
/// solve (through options.solve_hook when set) and finish under one
/// "vpd.evaluate" span — the same halves the batch engine runs, so a
/// batched sweep is bit-identical to a loop of these calls.
ExplorationEntry evaluate_with_exclusion(
    const PowerDeliverySpec& spec, ArchitectureKind architecture,
    std::optional<TopologyKind> topology, DeviceTechnology tech,
    const EvaluationOptions& options);

class ArchitectureExplorer {
 public:
  explicit ArchitectureExplorer(PowerDeliverySpec spec,
                                EvaluationOptions options = {});

  const PowerDeliverySpec& spec() const { return spec_; }
  const EvaluationOptions& options() const { return options_; }

  /// Full sweep: A0 once, then every VPD architecture x topology.
  ExplorationResult explore(
      DeviceTechnology tech = DeviceTechnology::kGalliumNitride) const;

  /// Single combination with the exclusion rule applied.
  ExplorationEntry evaluate(
      ArchitectureKind architecture, std::optional<TopologyKind> topology,
      DeviceTechnology tech = DeviceTechnology::kGalliumNitride) const;

 private:
  PowerDeliverySpec spec_;
  EvaluationOptions options_;
};

}  // namespace vpd
