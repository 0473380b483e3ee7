// JSON schema for the library's public request/response surface: every
// design point, sweep point or fault scenario expressible through the C++
// API round-trips through these functions, so external clients (the vpdd
// daemon, scripted experiment harnesses) speak the same vocabulary as the
// in-process evaluators.
//
// Conventions:
//  * all quantities are bare numbers in SI units (W, V, A, Ohm, m, m^2);
//  * enums serialize as their to_string() names ("A1", "DSCH", "GaN",
//    "vr-dropout") and parse strictly — an unknown name is an
//    InvalidArgument, never a silent default;
//  * readers treat absent fields as the C++ default and IGNORE unknown
//    fields (the v2 compatibility rule: a newer client may send fields an
//    older server does not know, and vice versa). Field *values* are still
//    strict — a wrong type or unknown enum name is an InvalidArgument;
//  * requests and responses carry "schema_version" (see kSchemaVersion).
//    Readers accept an absent field (v1, the pre-versioning wire form) and
//    any version up to kSchemaVersion; writers always emit the current one;
//  * writers materialize every field in a fixed order, which makes the
//    compact dump of a request its canonical form — the evaluation
//    service keys coalescing and its result cache on exactly that string.
//
// Not representable on the wire: EvaluationOptions::sink_map (an arbitrary
// C++ callback; serialization throws if one is set) and
// EvaluationOptions::mesh_cache (a process-local pointer; ignored on write,
// always null after parse — the service wires in its own cache).
#pragma once

#include <optional>
#include <string>

#include "vpd/arch/evaluator.hpp"
#include "vpd/arch/report.hpp"
#include "vpd/core/explorer.hpp"
#include "vpd/fault/fault_model.hpp"
#include "vpd/fault/resilience.hpp"
#include "vpd/fault/transient_scenario.hpp"
#include "vpd/io/json.hpp"
#include "vpd/opt/optimizer.hpp"
#include "vpd/package/mesh_cache.hpp"
#include "vpd/sweep/sweep.hpp"
#include "vpd/workload/droop_campaign.hpp"

namespace vpd {
namespace io {

/// Current wire schema version, stamped as "schema_version" on every
/// request and response. v1 is the unversioned PR-3 wire form (the field
/// is simply absent); v2 adds the field, the ignore-unknown-keys rule and
/// the unified telemetry shape (obs::kTelemetrySchemaVersion mirrors it).
inline constexpr int kSchemaVersion = 2;

/// Validates an optional "schema_version" member of `v`: absent (v1) and
/// 1..kSchemaVersion are accepted, anything else throws InvalidArgument
/// naming `what`. Call sites parse the rest of the object normally — the
/// schema is backward-compatible within the accepted range.
void check_schema_version(const Value& v, const char* what);

/// Best-effort recovery of the transport "id" from a request line that
/// failed full parsing, so even malformed-payload error replies keep the
/// client's correlation id (a pipelining client cannot match an
/// {"id":null} error to anything). Scans the raw line for a top-level
/// "id" member and parses its scalar value (string / number / bool /
/// null); returns null when the line does not get far enough to contain
/// one, or when the id itself is unparseable or structured.
Value recover_wire_id(std::string_view line);

/// Longest client string an error message quotes whole.
inline constexpr std::size_t kQuotedBytes = 64;
/// A client-supplied string quoted for an error message: whole when it is
/// at most kQuotedBytes long, otherwise its first kQuotedBytes bytes (cut
/// on a UTF-8 character boundary), "...", and its byte length. An error
/// reply stays short whatever a request line held.
std::string quote_for_error(std::string_view s);

// --- Enums -----------------------------------------------------------------

Value to_json(ArchitectureKind kind);
Value to_json(TopologyKind kind);
Value to_json(DeviceTechnology tech);
Value to_json(FaultKind kind);

ArchitectureKind architecture_from_json(const Value& v);
TopologyKind topology_from_json(const Value& v);
DeviceTechnology technology_from_json(const Value& v);
FaultKind fault_kind_from_json(const Value& v);

// --- Spec and options ------------------------------------------------------

Value to_json(const PowerDeliverySpec& spec);
PowerDeliverySpec spec_from_json(const Value& v);

Value to_json(const EdgeScaleRegion& region);
EdgeScaleRegion edge_scale_region_from_json(const Value& v);

Value to_json(const VrDerate& derate);
VrDerate vr_derate_from_json(const Value& v);

Value to_json(const FaultInjection& injection);
FaultInjection fault_injection_from_json(const Value& v);

Value to_json(const EvaluationOptions& options);
EvaluationOptions evaluation_options_from_json(const Value& v);

// --- Fault scenarios -------------------------------------------------------

Value to_json(const Fault& fault);
Fault fault_from_json(const Value& v);

Value to_json(const FaultSeverity& severity);
FaultSeverity fault_severity_from_json(const Value& v);

Value to_json(const FaultScenario& scenario);
FaultScenario fault_scenario_from_json(const Value& v);

// --- Transient droop campaigns ---------------------------------------------

Value to_json(TransientKind kind);
TransientKind transient_kind_from_json(const Value& v);

Value to_json(const TransientScenario& scenario);
TransientScenario transient_scenario_from_json(const Value& v);

/// Serializes both the DC thresholds and the dynamic (time-domain) droop
/// limits of the resilience spec.
Value to_json(const ResilienceSpec& rspec);
ResilienceSpec resilience_spec_from_json(const Value& v);

/// Campaign knobs. Not representable on the wire: the trace parent (a
/// process-local context, omitted on write, default after parse) and the
/// sweep mesh-cache pointer (the server wires in its own); the worker
/// count rides along as "threads".
Value to_json(const DroopCampaignConfig& config);
DroopCampaignConfig droop_campaign_config_from_json(const Value& v);

// --- Requests --------------------------------------------------------------

/// One evaluation request: a design point plus the system spec it is
/// evaluated against. The wire form accepts either explicit
/// `options.faults` (low-level injection) or a `fault_scenario` +
/// optional `fault_severity` pair, which is lowered onto the injection at
/// parse time via to_injection() — after parsing, only `options.faults`
/// is populated, so the canonical key is scenario-representation-blind.
struct EvaluationRequest {
  ArchitectureKind architecture{ArchitectureKind::kA1_InterposerPeriphery};
  std::optional<TopologyKind> topology{TopologyKind::kDsch};  // nullopt: A0
  DeviceTechnology tech{DeviceTechnology::kGalliumNitride};
  PowerDeliverySpec spec;  // defaults to the paper's 1 kW system
  EvaluationOptions options;
};

Value to_json(const EvaluationRequest& request);
EvaluationRequest evaluation_request_from_json(const Value& v);

/// Compact dump of the fully-materialized request — the canonical wire
/// key used for coalescing and result caching. Two requests with equal
/// canonical keys describe bit-identical evaluations.
std::string canonical_request_key(const EvaluationRequest& request);

/// Sweep points round-trip too, so a whole sweep grid is expressible as a
/// JSON array of points.
Value to_json(const SweepPoint& point);
SweepPoint sweep_point_from_json(const Value& v);

/// One droop-campaign request: the combination to integrate plus the
/// campaign configuration. `options` are the campaign's base evaluation
/// options and must arrive fault-free (the campaign owns its injections);
/// the parser rejects a populated `options.faults`.
struct TransientRequest {
  ArchitectureKind architecture{ArchitectureKind::kA1_InterposerPeriphery};
  TopologyKind topology{TopologyKind::kDsch};
  DeviceTechnology tech{DeviceTechnology::kGalliumNitride};
  PowerDeliverySpec spec;  // defaults to the paper's 1 kW system
  EvaluationOptions options;
  DroopCampaignConfig config;
};

Value to_json(const TransientRequest& request);
TransientRequest transient_request_from_json(const Value& v);

/// Canonical wire key of a fully-materialized transient request (same
/// convention as canonical_request_key).
std::string canonical_transient_key(const TransientRequest& request);

// --- Design-space optimization ---------------------------------------------

Value to_json(const opt::ParamRange& range);
opt::ParamRange param_range_from_json(const Value& v);

Value to_json(const opt::CountRange& range);
opt::CountRange count_range_from_json(const Value& v);

Value to_json(const opt::DesignSpace& space);
opt::DesignSpace design_space_from_json(const Value& v);

Value to_json(const opt::DesignPoint& point);
opt::DesignPoint design_point_from_json(const Value& v);

Value to_json(const opt::SurvivabilityScoring& scoring);
opt::SurvivabilityScoring survivability_scoring_from_json(const Value& v);

/// Optimizer search knobs. Not representable on the wire: base_options
/// (they travel at the request level as "options"), the trace parent and
/// the sweep mesh-cache pointer; the worker count rides as "threads".
/// The seed is a JSON number, so it must stay a non-negative integer
/// within 2^53 (the parser enforces this).
Value to_json(const opt::OptimizerConfig& config);
opt::OptimizerConfig optimizer_config_from_json(const Value& v);

/// One design-space optimization request: the system spec, the
/// searchable space and the search configuration. `options` are the
/// optimizer's base evaluation options and must arrive fault-free
/// (survivability scoring owns the injections).
struct OptimizeRequest {
  PowerDeliverySpec spec;  // defaults to the paper's 1 kW system
  opt::DesignSpace space;
  opt::OptimizerConfig config;
};

Value to_json(const OptimizeRequest& request);
OptimizeRequest optimize_request_from_json(const Value& v);

/// Canonical wire key of a fully-materialized optimize request (same
/// convention as canonical_request_key): equal-seed repeats give equal
/// keys.
std::string canonical_optimize_key(const OptimizeRequest& request);

// --- Results (serialize-only: responses are produced, not consumed) --------

Value to_json(const Summary& summary);
Value to_json(const MeshSolveCache::Stats& stats);
Value to_json(const SweepStats& stats);
Value to_json(const PathStage& stage);
Value to_json(const ArchitectureEvaluation& evaluation);
Value to_json(const ExplorationEntry& entry);

Value to_json(const SpecViolation& violation);
Value to_json(const DroopMetrics& metrics);
Value to_json(const TransientScenarioOutcome& outcome);
Value to_json(const DroopCampaignReport& report);

/// Optimizer results. to_json(OptimizeReport) materializes every
/// deterministic member first and the scheduling-dependent tail
/// ("wall_seconds" onward) last, so bit-identity checks can strip the
/// tail with a single cut.
Value to_json(const opt::Candidate& candidate);
Value to_json(const opt::FrontEntry& entry);
Value to_json(const opt::OptimizeReport& report);

}  // namespace io
}  // namespace vpd
