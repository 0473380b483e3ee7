#include "vpd/core/explorer.hpp"

#include "vpd/common/error.hpp"
#include "vpd/core/batch.hpp"

namespace vpd {

const ExplorationEntry& ExplorationResult::find(
    ArchitectureKind arch, std::optional<TopologyKind> topo) const {
  for (const ExplorationEntry& e : entries) {
    if (e.architecture == arch && e.topology == topo) return e;
  }
  throw InvalidArgument(detail::concat(
      "no exploration entry for ", to_string(arch),
      topo ? std::string(" / ") + to_string(*topo) : std::string()));
}

ArchitectureExplorer::ArchitectureExplorer(PowerDeliverySpec spec,
                                           EvaluationOptions options)
    : spec_(spec), options_(options) {
  spec_.validate();
}

PreparedEntry prepare_with_exclusion(const PowerDeliverySpec& spec,
                                     ArchitectureKind architecture,
                                     std::optional<TopologyKind> topology,
                                     DeviceTechnology tech,
                                     const EvaluationOptions& options) {
  PreparedEntry prepared;
  prepared.entry_.architecture = architecture;
  prepared.entry_.topology = topology;
  VPD_REQUIRE(architecture == ArchitectureKind::kA0_PcbConversion ||
                  topology.has_value(),
              "VPD architectures need a topology selection");
  try {
    // A0 ignores the topology (the paper's 90% PCB regulator).
    prepared.evaluation_ = prepare_evaluation(
        architecture, spec, topology.value_or(TopologyKind::kDpmih), tech,
        options);
  } catch (const InfeasibleDesign& err) {
    prepared.entry_.exclusion_reason = err.what();
  }
  return prepared;
}

ExplorationEntry PreparedEntry::finish(const IrDropResult& result) {
  if (evaluation_) {
    try {
      ArchitectureEvaluation eval = evaluation_->finish(result);
      if (eval.within_rating) {
        entry_.evaluation = std::move(eval);
      } else {
        // The paper's Fig. 7 rule: no published efficiency at the
        // required per-VR current -> the combination is not plotted.
        entry_.extrapolated = std::move(eval);
        entry_.exclusion_reason = detail::concat(
            to_string(*entry_.topology),
            ": required per-VR current exceeds the published rating; "
            "efficiency at that load is not reported (paper excludes this "
            "combination from Fig. 7)");
      }
    } catch (const InfeasibleDesign& err) {
      entry_.exclusion_reason = err.what();
    }
    evaluation_.reset();
  }
  return std::move(entry_);
}

ExplorationEntry evaluate_with_exclusion(
    const PowerDeliverySpec& spec, ArchitectureKind architecture,
    std::optional<TopologyKind> topology, DeviceTechnology tech,
    const EvaluationOptions& options) {
  const EvaluationSpan span(architecture, options);
  PreparedEntry prepared = prepare_with_exclusion(
      spec, architecture, topology, tech, span.options());
  return prepared.finish(
      solve_distribution(prepared.request(), options.solve_hook));
}

ExplorationEntry ArchitectureExplorer::evaluate(
    ArchitectureKind architecture, std::optional<TopologyKind> topology,
    DeviceTechnology tech) const {
  return evaluate_with_exclusion(spec_, architecture, topology, tech,
                                 options_);
}

ExplorationResult ArchitectureExplorer::explore(DeviceTechnology tech) const {
  // Serial exploration rides the same batch engine as the parallel sweep
  // (core/batch.hpp), so both share one code path end to end: same
  // grouping, same solves, same results for the same point list.
  std::vector<EvaluationPoint> points;
  points.push_back(EvaluationPoint{ArchitectureKind::kA0_PcbConversion,
                                   std::nullopt, tech, options_});
  for (ArchitectureKind arch : all_architectures()) {
    if (arch == ArchitectureKind::kA0_PcbConversion) continue;
    for (TopologyKind topo : all_topologies()) {
      points.push_back(EvaluationPoint{arch, topo, tech, options_});
    }
  }
  ExplorationResult result;
  result.spec = spec_;
  result.entries = evaluate_batch_with_exclusion(spec_, std::move(points));
  return result;
}

}  // namespace vpd
