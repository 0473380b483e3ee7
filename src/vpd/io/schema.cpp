#include "vpd/io/schema.hpp"

#include <cmath>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "vpd/common/error.hpp"

namespace vpd {
namespace io {
namespace {

// Tolerant object reader: fields are pulled by name, absent fields fall
// back to the C++ default, and members nobody asked for are ignored — the
// v2 compatibility rule, which lets a v2 peer add fields without breaking
// a v1-era reader. Values remain strict: a present field with the wrong
// type or an unknown enum name still throws.
class FieldReader {
 public:
  FieldReader(const Value& v, const char* what)
      : object_(v.as_object()), what_(what) {}

  const Value* get(std::string_view key) const {
    for (std::size_t i = 0; i < object_.size(); ++i) {
      if (object_[i].first == key) return &object_[i].second;
    }
    return nullptr;
  }

  const Value& require(std::string_view key) const {
    const Value* v = get(key);
    if (v == nullptr) {
      throw InvalidArgument(detail::concat(what_, ": missing required field \"",
                                           key, "\""));
    }
    return *v;
  }

 private:
  const Value::Object& object_;
  const char* what_;
};

std::size_t as_index(const Value& v, const char* what) {
  const double n = v.as_number();
  if (n < 0.0 || n != std::floor(n) || n > 9.007199254740992e15) {
    throw InvalidArgument(
        detail::concat(what, ": expected a non-negative integer, got ",
                       dump_number(n)));
  }
  return static_cast<std::size_t>(n);
}

double number_or(FieldReader& r, std::string_view key, double fallback) {
  const Value* v = r.get(key);
  return v != nullptr ? v->as_number() : fallback;
}

bool bool_or(FieldReader& r, std::string_view key, bool fallback) {
  const Value* v = r.get(key);
  return v != nullptr ? v->as_bool() : fallback;
}

std::size_t index_or(FieldReader& r, std::string_view key,
                     std::size_t fallback) {
  const Value* v = r.get(key);
  return v != nullptr ? as_index(*v, "field") : fallback;
}

/// as_index() for the fields stored as `unsigned`: a larger value is
/// refused by name instead of wrapping to a small count.
unsigned as_count(const Value& v, const char* what) {
  const std::size_t n = as_index(v, what);
  if (n > std::numeric_limits<unsigned>::max()) {
    throw InvalidArgument(detail::concat(
        what, ": at most ", std::numeric_limits<unsigned>::max(), ", got ",
        n));
  }
  return static_cast<unsigned>(n);
}

unsigned count_or(FieldReader& r, const char* key, unsigned fallback) {
  const Value* v = r.get(key);
  return v != nullptr ? as_count(*v, key) : fallback;
}

/// A campaign's "threads" field. Refused above the machine's hardware
/// thread count (when known): campaigns are CPU-bound and their results
/// are identical at any thread count, so more workers buy nothing, and
/// each is an operating-system thread that one request line would start.
std::size_t threads_or(FieldReader& r, std::size_t fallback) {
  const std::size_t threads = index_or(r, "threads", fallback);
  const unsigned limit = std::thread::hardware_concurrency();
  if (limit != 0 && threads > limit) {
    throw InvalidArgument(detail::concat(
        "threads: at most ", limit, " (the machine's hardware threads), got ",
        threads));
  }
  return threads;
}

template <typename Kind, typename FromString>
Kind enum_from_json(const Value& v, const char* what, FromString candidates) {
  const std::string& name = v.as_string();
  for (Kind kind : candidates()) {
    if (name == to_string(kind)) return kind;
  }
  throw InvalidArgument(
      detail::concat("unknown ", what, " ", quote_for_error(name)));
}

}  // namespace

std::string quote_for_error(std::string_view s) {
  if (s.size() <= kQuotedBytes) return detail::concat("\"", s, "\"");
  // Cut on a UTF-8 character boundary, so the reply stays valid text.
  std::size_t cut = kQuotedBytes;
  while (cut > 0 && (static_cast<unsigned char>(s[cut]) & 0xC0) == 0x80)
    --cut;
  return detail::concat("\"", s.substr(0, cut), "...\" (", s.size(),
                        " bytes)");
}

void check_schema_version(const Value& v, const char* what) {
  if (!v.is_object()) return;  // shape errors surface in the field reads
  const Value* version = v.find("schema_version");
  if (version == nullptr) return;  // v1: the field did not exist yet
  const double n = version->as_number();
  if (n != std::floor(n) || n < 1.0 ||
      n > static_cast<double>(kSchemaVersion)) {
    throw InvalidArgument(detail::concat(
        what, ": unsupported schema_version ", dump_number(n),
        " (this build speaks versions 1..", kSchemaVersion, ")"));
  }
}

Value recover_wire_id(std::string_view line) {
  // Hand-rolled scan, not a parse: the whole point is that `line` already
  // failed the strict parser. Track brace/bracket depth and string state,
  // find the "id" key at depth 1, then parse just its scalar value.
  std::size_t depth = 0;
  bool in_string = false;
  bool escaped = false;
  std::size_t token_start = std::string_view::npos;  // current string token
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        if (depth == 1 && token_start != std::string_view::npos &&
            line.substr(token_start, i - token_start) == "id") {
          // Key candidate: confirm the next non-space char is ':'.
          std::size_t j = i + 1;
          while (j < line.size() &&
                 (line[j] == ' ' || line[j] == '\t')) {
            ++j;
          }
          if (j >= line.size() || line[j] != ':') continue;
          ++j;
          while (j < line.size() &&
                 (line[j] == ' ' || line[j] == '\t')) {
            ++j;
          }
          if (j >= line.size() || line[j] == '{' || line[j] == '[') {
            return Value();  // structured or truncated id: unrecoverable
          }
          // Scalar extent: a complete string, or the run up to the next
          // top-level delimiter.
          std::size_t end = j;
          if (line[j] == '"') {
            bool value_escaped = false;
            for (end = j + 1; end < line.size(); ++end) {
              if (value_escaped) {
                value_escaped = false;
              } else if (line[end] == '\\') {
                value_escaped = true;
              } else if (line[end] == '"') {
                ++end;
                break;
              }
            }
          } else {
            while (end < line.size() && line[end] != ',' &&
                   line[end] != '}' && line[end] != ' ' &&
                   line[end] != '\t' && line[end] != '\r') {
              ++end;
            }
          }
          try {
            return parse(line.substr(j, end - j));
          } catch (const Error&) {
            return Value();  // the id itself is malformed
          }
        }
        token_start = std::string_view::npos;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        token_start = i + 1;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (depth > 0) --depth;
        break;
      default:
        break;
    }
  }
  return Value();
}

// --- Enums -----------------------------------------------------------------

Value to_json(ArchitectureKind kind) { return Value(to_string(kind)); }
Value to_json(TopologyKind kind) { return Value(to_string(kind)); }
Value to_json(DeviceTechnology tech) { return Value(to_string(tech)); }
Value to_json(FaultKind kind) { return Value(to_string(kind)); }

ArchitectureKind architecture_from_json(const Value& v) {
  return enum_from_json<ArchitectureKind>(v, "architecture",
                                          all_architectures);
}

TopologyKind topology_from_json(const Value& v) {
  return enum_from_json<TopologyKind>(v, "topology", all_topologies);
}

DeviceTechnology technology_from_json(const Value& v) {
  return enum_from_json<DeviceTechnology>(v, "device technology", [] {
    return std::vector<DeviceTechnology>{DeviceTechnology::kSilicon,
                                         DeviceTechnology::kGalliumNitride};
  });
}

FaultKind fault_kind_from_json(const Value& v) {
  return enum_from_json<FaultKind>(v, "fault kind", [] {
    return std::vector<FaultKind>{
        FaultKind::kVrDropout, FaultKind::kVrDerate, FaultKind::kAttachFault,
        FaultKind::kMeshRegionFault, FaultKind::kStage2Dropout};
  });
}

// --- Spec and options ------------------------------------------------------

Value to_json(const PowerDeliverySpec& spec) {
  Value v = Value::object();
  v.set("total_power", spec.total_power.value);
  v.set("pcb_voltage", spec.pcb_voltage.value);
  v.set("die_voltage", spec.die_voltage.value);
  v.set("die_area", spec.die_area.value);
  return v;
}

PowerDeliverySpec spec_from_json(const Value& v) {
  FieldReader r(v, "spec");
  PowerDeliverySpec spec;
  spec.total_power = Power{number_or(r, "total_power", spec.total_power.value)};
  spec.pcb_voltage = Voltage{number_or(r, "pcb_voltage", spec.pcb_voltage.value)};
  spec.die_voltage = Voltage{number_or(r, "die_voltage", spec.die_voltage.value)};
  spec.die_area = Area{number_or(r, "die_area", spec.die_area.value)};
  spec.validate();
  return spec;
}

Value to_json(const EdgeScaleRegion& region) {
  Value v = Value::object();
  v.set("x0", region.x0.value);
  v.set("y0", region.y0.value);
  v.set("x1", region.x1.value);
  v.set("y1", region.y1.value);
  v.set("scale", region.scale);
  return v;
}

EdgeScaleRegion edge_scale_region_from_json(const Value& v) {
  FieldReader r(v, "mesh_perturbation region");
  EdgeScaleRegion region;
  region.x0 = Length{r.require("x0").as_number()};
  region.y0 = Length{r.require("y0").as_number()};
  region.x1 = Length{r.require("x1").as_number()};
  region.y1 = Length{r.require("y1").as_number()};
  region.scale = number_or(r, "scale", region.scale);
  return region;
}

Value to_json(const VrDerate& derate) {
  Value v = Value::object();
  v.set("current_limit_scale", derate.current_limit_scale);
  v.set("loss_scale", derate.loss_scale);
  return v;
}

VrDerate vr_derate_from_json(const Value& v) {
  FieldReader r(v, "derate");
  VrDerate derate;
  derate.current_limit_scale =
      number_or(r, "current_limit_scale", derate.current_limit_scale);
  derate.loss_scale = number_or(r, "loss_scale", derate.loss_scale);
  return derate;
}

Value to_json(const FaultInjection& injection) {
  Value v = Value::object();
  Value dropped = Value::array();
  for (std::size_t site : injection.dropped_sites) dropped.push_back(site);
  v.set("dropped_sites", std::move(dropped));
  Value attach = Value::array();
  for (const auto& [site, scale] : injection.attach_scale) {
    Value entry = Value::object();
    entry.set("site", site);
    entry.set("scale", scale);
    attach.push_back(std::move(entry));
  }
  v.set("attach_scale", std::move(attach));
  Value derates = Value::array();
  for (const auto& [site, derate] : injection.derates) {
    Value entry = Value::object();
    entry.set("site", site);
    entry.set("current_limit_scale", derate.current_limit_scale);
    entry.set("loss_scale", derate.loss_scale);
    derates.push_back(std::move(entry));
  }
  v.set("derates", std::move(derates));
  Value stage2 = Value::array();
  for (std::size_t site : injection.dropped_stage2) stage2.push_back(site);
  v.set("dropped_stage2", std::move(stage2));
  Value regions = Value::array();
  for (const EdgeScaleRegion& region : injection.mesh_perturbation) {
    regions.push_back(to_json(region));
  }
  v.set("mesh_perturbation", std::move(regions));
  return v;
}

FaultInjection fault_injection_from_json(const Value& v) {
  FieldReader r(v, "faults");
  FaultInjection injection;
  if (const Value* sites = r.get("dropped_sites")) {
    for (const Value& site : sites->as_array()) {
      injection.dropped_sites.push_back(as_index(site, "dropped_sites"));
    }
  }
  if (const Value* attach = r.get("attach_scale")) {
    for (const Value& entry : attach->as_array()) {
      FieldReader er(entry, "attach_scale entry");
      const std::size_t site = as_index(er.require("site"), "attach site");
      const double scale = er.require("scale").as_number();
      injection.attach_scale.emplace_back(site, scale);
    }
  }
  if (const Value* derates = r.get("derates")) {
    for (const Value& entry : derates->as_array()) {
      FieldReader er(entry, "derate entry");
      const std::size_t site = as_index(er.require("site"), "derate site");
      VrDerate derate;
      derate.current_limit_scale =
          number_or(er, "current_limit_scale", derate.current_limit_scale);
      derate.loss_scale = number_or(er, "loss_scale", derate.loss_scale);
      injection.derates.emplace_back(site, derate);
    }
  }
  if (const Value* stage2 = r.get("dropped_stage2")) {
    for (const Value& site : stage2->as_array()) {
      injection.dropped_stage2.push_back(as_index(site, "dropped_stage2"));
    }
  }
  if (const Value* regions = r.get("mesh_perturbation")) {
    for (const Value& region : regions->as_array()) {
      injection.mesh_perturbation.push_back(edge_scale_region_from_json(region));
    }
  }
  return injection;
}

Value to_json(const EvaluationOptions& options) {
  VPD_REQUIRE(!options.sink_map,
              "EvaluationOptions::sink_map is a C++ callback and has no "
              "wire representation");
  Value v = Value::object();
  v.set("mesh_nodes", options.mesh_nodes);
  v.set("distribution_sheet_ohms", options.distribution_sheet_ohms);
  v.set("vr_attach_series", options.vr_attach_series.value);
  v.set("vr_patch", options.vr_patch.value);
  v.set("ring_series_squares", options.ring_series_squares);
  v.set("derating", options.derating);
  v.set("below_die_area_fraction", options.below_die_area_fraction);
  v.set("allow_extrapolation", options.allow_extrapolation);
  v.set("fixed_final_stage_vrs", options.fixed_final_stage_vrs);
  v.set("max_periphery_rings", options.max_periphery_rings);
  v.set("irdrop_relative_tolerance", options.irdrop_relative_tolerance);
  v.set("cg_warm_start", options.cg_warm_start);
  v.set("irdrop_preconditioner",
        options.irdrop_preconditioner.has_value()
            ? std::string(to_string(*options.irdrop_preconditioner))
            : std::string("auto"));
  v.set("faults", to_json(options.faults));
  return v;
}

EvaluationOptions evaluation_options_from_json(const Value& v) {
  FieldReader r(v, "options");
  EvaluationOptions options;
  options.mesh_nodes = index_or(r, "mesh_nodes", options.mesh_nodes);
  options.distribution_sheet_ohms = number_or(
      r, "distribution_sheet_ohms", options.distribution_sheet_ohms);
  options.vr_attach_series =
      Resistance{number_or(r, "vr_attach_series",
                           options.vr_attach_series.value)};
  options.vr_patch = Length{number_or(r, "vr_patch", options.vr_patch.value)};
  options.ring_series_squares =
      number_or(r, "ring_series_squares", options.ring_series_squares);
  options.derating = number_or(r, "derating", options.derating);
  options.below_die_area_fraction = number_or(
      r, "below_die_area_fraction", options.below_die_area_fraction);
  options.allow_extrapolation =
      bool_or(r, "allow_extrapolation", options.allow_extrapolation);
  options.fixed_final_stage_vrs =
      count_or(r, "fixed_final_stage_vrs", options.fixed_final_stage_vrs);
  options.max_periphery_rings =
      count_or(r, "max_periphery_rings", options.max_periphery_rings);
  options.irdrop_relative_tolerance = number_or(
      r, "irdrop_relative_tolerance", options.irdrop_relative_tolerance);
  options.cg_warm_start = bool_or(r, "cg_warm_start", options.cg_warm_start);
  // Optional so pre-preconditioner requests keep parsing; absent and
  // "auto" both mean the automatic mesh-size choice (see
  // resolved_irdrop_preconditioner).
  if (const Value* precond = r.get("irdrop_preconditioner")) {
    const std::string& name = precond->as_string();
    if (name == "auto") {
      options.irdrop_preconditioner.reset();
    } else if (name == to_string(CgPreconditioner::kJacobi)) {
      options.irdrop_preconditioner = CgPreconditioner::kJacobi;
    } else if (name == to_string(CgPreconditioner::kIncompleteCholesky)) {
      options.irdrop_preconditioner = CgPreconditioner::kIncompleteCholesky;
    } else if (name == to_string(CgPreconditioner::kMultigrid)) {
      options.irdrop_preconditioner = CgPreconditioner::kMultigrid;
    } else {
      throw InvalidArgument(detail::concat(
          "unknown irdrop_preconditioner ", quote_for_error(name),
          " (expected \"auto\", \"jacobi\", \"ic0\" or \"multigrid\")"));
    }
  }
  if (const Value* faults = r.get("faults")) {
    options.faults = fault_injection_from_json(*faults);
  }
  return options;
}

// --- Fault scenarios -------------------------------------------------------

Value to_json(const Fault& fault) {
  Value v = Value::object();
  v.set("kind", to_json(fault.kind));
  if (fault.kind == FaultKind::kMeshRegionFault) {
    v.set("x", fault.x.value);
    v.set("y", fault.y.value);
  } else {
    v.set("site", fault.site);
  }
  return v;
}

Fault fault_from_json(const Value& v) {
  FieldReader r(v, "fault");
  Fault fault;
  fault.kind = fault_kind_from_json(r.require("kind"));
  if (fault.kind == FaultKind::kMeshRegionFault) {
    fault.x = Length{r.require("x").as_number()};
    fault.y = Length{r.require("y").as_number()};
  } else {
    fault.site = as_index(r.require("site"), "fault site");
  }
  return fault;
}

Value to_json(const FaultSeverity& severity) {
  Value v = Value::object();
  v.set("derate_current_limit_scale", severity.derate_current_limit_scale);
  v.set("derate_loss_scale", severity.derate_loss_scale);
  v.set("attach_resistance_scale", severity.attach_resistance_scale);
  v.set("mesh_conductance_scale", severity.mesh_conductance_scale);
  v.set("mesh_region_side", severity.mesh_region_side.value);
  return v;
}

FaultSeverity fault_severity_from_json(const Value& v) {
  FieldReader r(v, "fault_severity");
  FaultSeverity severity;
  severity.derate_current_limit_scale = number_or(
      r, "derate_current_limit_scale", severity.derate_current_limit_scale);
  severity.derate_loss_scale =
      number_or(r, "derate_loss_scale", severity.derate_loss_scale);
  severity.attach_resistance_scale = number_or(
      r, "attach_resistance_scale", severity.attach_resistance_scale);
  severity.mesh_conductance_scale = number_or(
      r, "mesh_conductance_scale", severity.mesh_conductance_scale);
  severity.mesh_region_side =
      Length{number_or(r, "mesh_region_side", severity.mesh_region_side.value)};
  severity.validate();
  return severity;
}

Value to_json(const FaultScenario& scenario) {
  Value v = Value::object();
  v.set("label", scenario.label);
  Value faults = Value::array();
  for (const Fault& fault : scenario.faults) faults.push_back(to_json(fault));
  v.set("faults", std::move(faults));
  return v;
}

FaultScenario fault_scenario_from_json(const Value& v) {
  FieldReader r(v, "fault_scenario");
  FaultScenario scenario;
  if (const Value* label = r.get("label")) scenario.label = label->as_string();
  if (const Value* faults = r.get("faults")) {
    for (const Value& fault : faults->as_array()) {
      scenario.faults.push_back(fault_from_json(fault));
    }
  }
  return scenario;
}

// --- Transient droop campaigns ---------------------------------------------

Value to_json(TransientKind kind) { return Value(to_string(kind)); }

TransientKind transient_kind_from_json(const Value& v) {
  return enum_from_json<TransientKind>(v, "transient kind",
                                       all_transient_kinds);
}

Value to_json(const TransientScenario& scenario) {
  Value v = Value::object();
  v.set("kind", to_json(scenario.kind));
  v.set("label", scenario.label);
  if (scenario.kind == TransientKind::kVrDropout) {
    v.set("site", scenario.site);
  } else {
    v.set("tile_x", scenario.tile_x);
    v.set("tile_y", scenario.tile_y);
    v.set("tile_sigma", scenario.tile_sigma);
    v.set("tile_background", scenario.tile_background);
    v.set("step_fraction", scenario.step_fraction);
  }
  v.set("base_fraction", scenario.base_fraction);
  v.set("t_event", scenario.t_event.value);
  v.set("edge", scenario.edge.value);
  if (scenario.kind == TransientKind::kLoadBurst) {
    v.set("burst_frequency", scenario.burst_frequency.value);
    v.set("burst_duty", scenario.burst_duty);
  }
  return v;
}

TransientScenario transient_scenario_from_json(const Value& v) {
  FieldReader r(v, "transient_scenario");
  TransientScenario scenario;
  scenario.kind = transient_kind_from_json(r.require("kind"));
  if (const Value* label = r.get("label")) {
    scenario.label = label->as_string();
  }
  scenario.tile_x = number_or(r, "tile_x", scenario.tile_x);
  scenario.tile_y = number_or(r, "tile_y", scenario.tile_y);
  scenario.tile_sigma = number_or(r, "tile_sigma", scenario.tile_sigma);
  scenario.tile_background =
      number_or(r, "tile_background", scenario.tile_background);
  scenario.base_fraction =
      number_or(r, "base_fraction", scenario.base_fraction);
  scenario.step_fraction =
      number_or(r, "step_fraction", scenario.step_fraction);
  scenario.t_event = Seconds{number_or(r, "t_event", scenario.t_event.value)};
  scenario.edge = Seconds{number_or(r, "edge", scenario.edge.value)};
  scenario.burst_frequency = Frequency{
      number_or(r, "burst_frequency", scenario.burst_frequency.value)};
  scenario.burst_duty = number_or(r, "burst_duty", scenario.burst_duty);
  scenario.site = index_or(r, "site", scenario.site);
  scenario.validate();
  return scenario;
}

Value to_json(const ResilienceSpec& rspec) {
  Value v = Value::object();
  v.set("droop_tolerance", rspec.droop_tolerance);
  v.set("vr_overcurrent_factor", rspec.vr_overcurrent_factor);
  v.set("interconnect_stress_margin", rspec.interconnect_stress_margin);
  v.set("transient_droop_tolerance", rspec.transient_droop_tolerance);
  v.set("settling_time_limit", rspec.settling_time_limit);
  v.set("recovery_band", rspec.recovery_band);
  v.set("steady_cycle_limit", rspec.steady_cycle_limit);
  return v;
}

ResilienceSpec resilience_spec_from_json(const Value& v) {
  FieldReader r(v, "resilience");
  ResilienceSpec rspec;
  rspec.droop_tolerance =
      number_or(r, "droop_tolerance", rspec.droop_tolerance);
  rspec.vr_overcurrent_factor =
      number_or(r, "vr_overcurrent_factor", rspec.vr_overcurrent_factor);
  rspec.interconnect_stress_margin = number_or(
      r, "interconnect_stress_margin", rspec.interconnect_stress_margin);
  rspec.transient_droop_tolerance = number_or(
      r, "transient_droop_tolerance", rspec.transient_droop_tolerance);
  rspec.settling_time_limit =
      number_or(r, "settling_time_limit", rspec.settling_time_limit);
  rspec.recovery_band = number_or(r, "recovery_band", rspec.recovery_band);
  rspec.steady_cycle_limit =
      index_or(r, "steady_cycle_limit", rspec.steady_cycle_limit);
  rspec.validate();
  return rspec;
}

namespace {

const char* method_name(IntegrationMethod method) {
  return method == IntegrationMethod::kBackwardEuler ? "backward-euler"
                                                     : "trapezoidal";
}

IntegrationMethod method_from_json(const Value& v) {
  const std::string& name = v.as_string();
  if (name == "trapezoidal") return IntegrationMethod::kTrapezoidal;
  if (name == "backward-euler") return IntegrationMethod::kBackwardEuler;
  throw InvalidArgument(detail::concat(
      "unknown integration method ", quote_for_error(name),
      " (expected \"trapezoidal\" or \"backward-euler\")"));
}

}  // namespace

Value to_json(const DroopCampaignConfig& config) {
  Value v = Value::object();
  v.set("resilience", to_json(config.resilience));
  Value model = Value::object();
  model.set("decap",
            config.model.decap ? Value(config.model.decap->value) : Value());
  model.set("decap_esr", config.model.decap_esr.value);
  v.set("model", std::move(model));
  v.set("t_stop", config.t_stop.value);
  v.set("dt", config.dt.value);
  v.set("method", std::string(method_name(config.method)));
  v.set("tile_grid", config.tile_grid);
  v.set("tile_sigma", config.tile_sigma);
  v.set("tile_background", config.tile_background);
  v.set("base_fraction", config.base_fraction);
  v.set("step_fraction", config.step_fraction);
  v.set("t_event", config.t_event.value);
  v.set("edge", config.edge.value);
  v.set("burst_frequency", config.burst_frequency.value);
  v.set("burst_duty", config.burst_duty);
  v.set("include_load_steps", config.include_load_steps);
  v.set("include_bursts", config.include_bursts);
  v.set("include_ramps", config.include_ramps);
  v.set("include_vr_dropouts", config.include_vr_dropouts);
  v.set("max_dropout_sites", config.max_dropout_sites);
  v.set("threads", config.sweep.threads);
  return v;
}

DroopCampaignConfig droop_campaign_config_from_json(const Value& v) {
  FieldReader r(v, "campaign config");
  DroopCampaignConfig config;
  if (const Value* rspec = r.get("resilience")) {
    config.resilience = resilience_spec_from_json(*rspec);
  }
  if (const Value* model = r.get("model")) {
    FieldReader mr(*model, "campaign model");
    if (const Value* decap = mr.get("decap")) {
      if (!decap->is_null()) {
        config.model.decap = Capacitance{decap->as_number()};
      }
    }
    config.model.decap_esr =
        Resistance{number_or(mr, "decap_esr", config.model.decap_esr.value)};
  }
  config.t_stop = Seconds{number_or(r, "t_stop", config.t_stop.value)};
  config.dt = Seconds{number_or(r, "dt", config.dt.value)};
  if (const Value* method = r.get("method")) {
    config.method = method_from_json(*method);
  }
  config.tile_grid = index_or(r, "tile_grid", config.tile_grid);
  config.tile_sigma = number_or(r, "tile_sigma", config.tile_sigma);
  config.tile_background =
      number_or(r, "tile_background", config.tile_background);
  config.base_fraction =
      number_or(r, "base_fraction", config.base_fraction);
  config.step_fraction =
      number_or(r, "step_fraction", config.step_fraction);
  config.t_event = Seconds{number_or(r, "t_event", config.t_event.value)};
  config.edge = Seconds{number_or(r, "edge", config.edge.value)};
  config.burst_frequency = Frequency{
      number_or(r, "burst_frequency", config.burst_frequency.value)};
  config.burst_duty = number_or(r, "burst_duty", config.burst_duty);
  config.include_load_steps =
      bool_or(r, "include_load_steps", config.include_load_steps);
  config.include_bursts = bool_or(r, "include_bursts", config.include_bursts);
  config.include_ramps = bool_or(r, "include_ramps", config.include_ramps);
  config.include_vr_dropouts =
      bool_or(r, "include_vr_dropouts", config.include_vr_dropouts);
  config.max_dropout_sites =
      index_or(r, "max_dropout_sites", config.max_dropout_sites);
  config.sweep.threads = threads_or(r, config.sweep.threads);
  config.validate();
  return config;
}

// --- Requests --------------------------------------------------------------

Value to_json(const EvaluationRequest& request) {
  Value v = Value::object();
  v.set("schema_version", kSchemaVersion);
  v.set("architecture", to_json(request.architecture));
  v.set("topology",
        request.topology ? to_json(*request.topology) : Value());
  v.set("tech", to_json(request.tech));
  v.set("spec", to_json(request.spec));
  v.set("options", to_json(request.options));
  return v;
}

EvaluationRequest evaluation_request_from_json(const Value& v) {
  check_schema_version(v, "request");
  FieldReader r(v, "request");
  EvaluationRequest request;
  request.architecture = architecture_from_json(r.require("architecture"));
  request.topology.reset();
  if (const Value* topo = r.get("topology")) {
    if (!topo->is_null()) request.topology = topology_from_json(*topo);
  } else if (request.architecture != ArchitectureKind::kA0_PcbConversion) {
    request.topology = TopologyKind::kDsch;  // schema default
  }
  if (const Value* tech = r.get("tech")) {
    request.tech = technology_from_json(*tech);
  }
  if (const Value* spec = r.get("spec")) {
    request.spec = spec_from_json(*spec);
  }
  if (const Value* options = r.get("options")) {
    request.options = evaluation_options_from_json(*options);
  }
  // A fault scenario may be given instead of a low-level injection; it is
  // lowered here so the canonical key does not depend on which form the
  // client used.
  const Value* scenario = r.get("fault_scenario");
  const Value* severity = r.get("fault_severity");
  if (severity != nullptr && scenario == nullptr) {
    throw InvalidArgument("request: fault_severity without fault_scenario");
  }
  if (scenario != nullptr) {
    if (!request.options.faults.empty()) {
      throw InvalidArgument(
          "request: give either options.faults or fault_scenario, not both");
    }
    const FaultSeverity sev = severity != nullptr
                                  ? fault_severity_from_json(*severity)
                                  : FaultSeverity{};
    request.options.faults =
        to_injection(fault_scenario_from_json(*scenario), sev);
  }
  if (request.architecture == ArchitectureKind::kA0_PcbConversion) {
    request.topology.reset();
  } else if (!request.topology) {
    throw InvalidArgument(
        "request: topology must not be null for a VPD architecture");
  }
  return request;
}

std::string canonical_request_key(const EvaluationRequest& request) {
  return dump(to_json(request));
}

Value to_json(const SweepPoint& point) {
  Value v = Value::object();
  v.set("architecture", to_json(point.architecture));
  v.set("topology", point.topology ? to_json(*point.topology) : Value());
  v.set("tech", to_json(point.tech));
  v.set("options", to_json(point.options));
  v.set("label", point.label);
  return v;
}

SweepPoint sweep_point_from_json(const Value& v) {
  FieldReader r(v, "sweep point");
  SweepPoint point;
  point.architecture = architecture_from_json(r.require("architecture"));
  point.topology.reset();
  if (const Value* topo = r.get("topology")) {
    if (!topo->is_null()) point.topology = topology_from_json(*topo);
  }
  if (const Value* tech = r.get("tech")) {
    point.tech = technology_from_json(*tech);
  }
  if (const Value* options = r.get("options")) {
    point.options = evaluation_options_from_json(*options);
  }
  if (const Value* label = r.get("label")) point.label = label->as_string();
  return point;
}

Value to_json(const TransientRequest& request) {
  VPD_REQUIRE(request.options.faults.empty(),
              "transient request: base options must be fault-free (the "
              "campaign owns the injections)");
  Value v = Value::object();
  v.set("schema_version", kSchemaVersion);
  v.set("architecture", to_json(request.architecture));
  v.set("topology", to_json(request.topology));
  v.set("tech", to_json(request.tech));
  v.set("spec", to_json(request.spec));
  v.set("options", to_json(request.options));
  v.set("config", to_json(request.config));
  return v;
}

TransientRequest transient_request_from_json(const Value& v) {
  check_schema_version(v, "transient request");
  FieldReader r(v, "transient request");
  TransientRequest request;
  request.architecture = architecture_from_json(r.require("architecture"));
  if (request.architecture == ArchitectureKind::kA0_PcbConversion) {
    throw InvalidArgument(
        "transient request: droop campaigns need a distribution mesh; A0 "
        "has none");
  }
  if (const Value* topo = r.get("topology")) {
    request.topology = topology_from_json(*topo);
  }
  if (const Value* tech = r.get("tech")) {
    request.tech = technology_from_json(*tech);
  }
  if (const Value* spec = r.get("spec")) {
    request.spec = spec_from_json(*spec);
  }
  if (const Value* options = r.get("options")) {
    request.options = evaluation_options_from_json(*options);
    if (!request.options.faults.empty()) {
      throw InvalidArgument(
          "transient request: options.faults must be empty (give dropout "
          "scenarios through the campaign config instead)");
    }
  }
  if (const Value* config = r.get("config")) {
    request.config = droop_campaign_config_from_json(*config);
  }
  return request;
}

std::string canonical_transient_key(const TransientRequest& request) {
  return dump(to_json(request));
}

// --- Design-space optimization ---------------------------------------------

Value to_json(const opt::ParamRange& range) {
  Value v = Value::object();
  v.set("lo", range.lo);
  v.set("hi", range.hi);
  return v;
}

opt::ParamRange param_range_from_json(const Value& v) {
  FieldReader r(v, "param range");
  opt::ParamRange range;
  range.lo = r.require("lo").as_number();
  range.hi = r.require("hi").as_number();
  return range;
}

Value to_json(const opt::CountRange& range) {
  Value v = Value::object();
  v.set("lo", range.lo);
  v.set("hi", range.hi);
  return v;
}

opt::CountRange count_range_from_json(const Value& v) {
  FieldReader r(v, "count range");
  opt::CountRange range;
  range.lo = as_count(r.require("lo"), "count range");
  range.hi = as_count(r.require("hi"), "count range");
  return range;
}

Value to_json(const opt::DesignSpace& space) {
  Value v = Value::object();
  Value architectures = Value::array();
  for (ArchitectureKind arch : space.architectures) {
    architectures.push_back(to_json(arch));
  }
  v.set("architectures", std::move(architectures));
  Value topologies = Value::array();
  for (TopologyKind topo : space.topologies) {
    topologies.push_back(to_json(topo));
  }
  v.set("topologies", std::move(topologies));
  Value technologies = Value::array();
  for (DeviceTechnology tech : space.technologies) {
    technologies.push_back(to_json(tech));
  }
  v.set("technologies", std::move(technologies));
  v.set("vr_count", to_json(space.vr_count));
  v.set("periphery_rings", to_json(space.periphery_rings));
  v.set("below_die_area_fraction", to_json(space.below_die_area_fraction));
  v.set("vr_attach_series_ohms", to_json(space.vr_attach_series_ohms));
  v.set("distribution_sheet_ohms", to_json(space.distribution_sheet_ohms));
  return v;
}

opt::DesignSpace design_space_from_json(const Value& v) {
  FieldReader r(v, "design space");
  opt::DesignSpace space;
  if (const Value* archs = r.get("architectures")) {
    space.architectures.clear();
    for (const Value& e : archs->as_array()) {
      space.architectures.push_back(architecture_from_json(e));
    }
  }
  if (const Value* topos = r.get("topologies")) {
    space.topologies.clear();
    for (const Value& e : topos->as_array()) {
      space.topologies.push_back(topology_from_json(e));
    }
  }
  if (const Value* techs = r.get("technologies")) {
    space.technologies.clear();
    for (const Value& e : techs->as_array()) {
      space.technologies.push_back(technology_from_json(e));
    }
  }
  if (const Value* range = r.get("vr_count")) {
    space.vr_count = count_range_from_json(*range);
  }
  if (const Value* range = r.get("periphery_rings")) {
    space.periphery_rings = count_range_from_json(*range);
  }
  if (const Value* range = r.get("below_die_area_fraction")) {
    space.below_die_area_fraction = param_range_from_json(*range);
  }
  if (const Value* range = r.get("vr_attach_series_ohms")) {
    space.vr_attach_series_ohms = param_range_from_json(*range);
  }
  if (const Value* range = r.get("distribution_sheet_ohms")) {
    space.distribution_sheet_ohms = param_range_from_json(*range);
  }
  space.validate();
  return space;
}

Value to_json(const opt::DesignPoint& point) {
  Value v = Value::object();
  v.set("architecture", to_json(point.architecture));
  v.set("topology", to_json(point.topology));
  v.set("tech", to_json(point.tech));
  v.set("vr_count", point.vr_count);
  v.set("periphery_rings", point.periphery_rings);
  v.set("below_die_area_fraction", point.below_die_area_fraction);
  v.set("vr_attach_series_ohms", point.vr_attach_series_ohms);
  v.set("distribution_sheet_ohms", point.distribution_sheet_ohms);
  return v;
}

opt::DesignPoint design_point_from_json(const Value& v) {
  FieldReader r(v, "design point");
  opt::DesignPoint point;
  point.architecture = architecture_from_json(r.require("architecture"));
  point.topology = topology_from_json(r.require("topology"));
  if (const Value* tech = r.get("tech")) {
    point.tech = technology_from_json(*tech);
  }
  point.vr_count = count_or(r, "vr_count", point.vr_count);
  point.periphery_rings =
      count_or(r, "periphery_rings", point.periphery_rings);
  point.below_die_area_fraction = number_or(
      r, "below_die_area_fraction", point.below_die_area_fraction);
  point.vr_attach_series_ohms = number_or(
      r, "vr_attach_series_ohms", point.vr_attach_series_ohms);
  point.distribution_sheet_ohms = number_or(
      r, "distribution_sheet_ohms", point.distribution_sheet_ohms);
  return point;
}

Value to_json(const opt::SurvivabilityScoring& scoring) {
  Value v = Value::object();
  v.set("max_elites", scoring.max_elites);
  v.set("severity", to_json(scoring.severity));
  v.set("resilience", to_json(scoring.resilience));
  v.set("include_attach_faults", scoring.include_attach_faults);
  v.set("include_mesh_regions", scoring.include_mesh_regions);
  v.set("mesh_region_grid", scoring.mesh_region_grid);
  return v;
}

opt::SurvivabilityScoring survivability_scoring_from_json(const Value& v) {
  FieldReader r(v, "survivability scoring");
  opt::SurvivabilityScoring scoring;
  scoring.max_elites = index_or(r, "max_elites", scoring.max_elites);
  if (const Value* severity = r.get("severity")) {
    scoring.severity = fault_severity_from_json(*severity);
  }
  if (const Value* rspec = r.get("resilience")) {
    scoring.resilience = resilience_spec_from_json(*rspec);
  }
  scoring.include_attach_faults =
      bool_or(r, "include_attach_faults", scoring.include_attach_faults);
  scoring.include_mesh_regions =
      bool_or(r, "include_mesh_regions", scoring.include_mesh_regions);
  scoring.mesh_region_grid =
      index_or(r, "mesh_region_grid", scoring.mesh_region_grid);
  return scoring;
}

Value to_json(const opt::OptimizerConfig& config) {
  Value v = Value::object();
  v.set("population", config.population);
  v.set("generations", config.generations);
  v.set("max_evaluations", config.max_evaluations);
  v.set("seed", static_cast<double>(config.seed));
  v.set("crossover_rate", config.crossover_rate);
  v.set("mutation_rate", config.mutation_rate);
  v.set("mutation_scale", config.mutation_scale);
  Value epsilon = Value::array();
  for (double e : config.epsilon) epsilon.push_back(e);
  v.set("epsilon", std::move(epsilon));
  Value reference = Value::array();
  for (double rf : config.reference) reference.push_back(rf);
  v.set("reference", std::move(reference));
  v.set("survivability", to_json(config.survivability));
  Value warm = Value::array();
  for (const opt::DesignPoint& point : config.warm_start) {
    warm.push_back(to_json(point));
  }
  v.set("warm_start", std::move(warm));
  v.set("threads", config.sweep.threads);
  return v;
}

opt::OptimizerConfig optimizer_config_from_json(const Value& v) {
  FieldReader r(v, "optimizer config");
  opt::OptimizerConfig config;
  config.population = index_or(r, "population", config.population);
  config.generations = index_or(r, "generations", config.generations);
  config.max_evaluations =
      index_or(r, "max_evaluations", config.max_evaluations);
  if (const Value* seed = r.get("seed")) {
    config.seed = as_index(*seed, "optimizer seed");
  }
  config.crossover_rate =
      number_or(r, "crossover_rate", config.crossover_rate);
  config.mutation_rate = number_or(r, "mutation_rate", config.mutation_rate);
  config.mutation_scale =
      number_or(r, "mutation_scale", config.mutation_scale);
  if (const Value* epsilon = r.get("epsilon")) {
    config.epsilon.clear();
    for (const Value& e : epsilon->as_array()) {
      config.epsilon.push_back(e.as_number());
    }
  }
  if (const Value* reference = r.get("reference")) {
    config.reference.clear();
    for (const Value& e : reference->as_array()) {
      config.reference.push_back(e.as_number());
    }
  }
  if (const Value* scoring = r.get("survivability")) {
    config.survivability = survivability_scoring_from_json(*scoring);
  }
  if (const Value* warm = r.get("warm_start")) {
    for (const Value& e : warm->as_array()) {
      config.warm_start.push_back(design_point_from_json(e));
    }
  }
  config.sweep.threads = threads_or(r, config.sweep.threads);
  return config;
}

Value to_json(const OptimizeRequest& request) {
  VPD_REQUIRE(request.config.base_options.faults.empty(),
              "optimize request: base options must be fault-free "
              "(survivability scoring owns the injections)");
  Value v = Value::object();
  v.set("schema_version", kSchemaVersion);
  v.set("spec", to_json(request.spec));
  v.set("space", to_json(request.space));
  v.set("config", to_json(request.config));
  v.set("options", to_json(request.config.base_options));
  return v;
}

OptimizeRequest optimize_request_from_json(const Value& v) {
  check_schema_version(v, "optimize request");
  FieldReader r(v, "optimize request");
  OptimizeRequest request;
  if (const Value* spec = r.get("spec")) {
    request.spec = spec_from_json(*spec);
  }
  if (const Value* space = r.get("space")) {
    request.space = design_space_from_json(*space);
  }
  if (const Value* config = r.get("config")) {
    request.config = optimizer_config_from_json(*config);
  }
  if (const Value* options = r.get("options")) {
    request.config.base_options = evaluation_options_from_json(*options);
    if (!request.config.base_options.faults.empty()) {
      throw InvalidArgument(
          "optimize request: options.faults must be empty (survivability "
          "scoring owns the injections)");
    }
  }
  request.spec.validate();
  request.space.validate();
  request.config.validate();
  for (const opt::DesignPoint& point : request.config.warm_start) {
    if (!opt::contains(request.space, point)) {
      throw InvalidArgument(detail::concat(
          "optimize request: warm-start point \"",
          opt::design_point_key(point), "\" lies outside the design space"));
    }
  }
  return request;
}

std::string canonical_optimize_key(const OptimizeRequest& request) {
  return dump(to_json(request));
}

// --- Results ---------------------------------------------------------------

Value to_json(const Summary& summary) {
  Value v = Value::object();
  v.set("count", summary.count);
  v.set("min", summary.min);
  v.set("max", summary.max);
  v.set("mean", summary.mean);
  v.set("stddev", summary.stddev);
  v.set("median", summary.median);
  v.set("p05", summary.p05);
  v.set("p95", summary.p95);
  return v;
}

Value to_json(const MeshSolveCache::Stats& stats) {
  Value v = Value::object();
  v.set("hits", stats.hits);
  v.set("misses", stats.misses);
  return v;
}

Value to_json(const SweepStats& stats) {
  Value v = Value::object();
  v.set("wall_seconds", stats.wall_seconds);
  v.set("cg_iterations", stats.cg_iterations);
  return v;
}

Value to_json(const PathStage& stage) {
  Value v = Value::object();
  v.set("name", stage.name);
  v.set("resistance", stage.resistance.value);
  v.set("current", stage.current.value);
  v.set("vertical", stage.vertical);
  v.set("vias_per_net", stage.vias_per_net);
  v.set("loss", stage.loss().value);
  return v;
}

Value to_json(const ArchitectureEvaluation& evaluation) {
  Value v = Value::object();
  v.set("architecture", to_json(evaluation.architecture));
  v.set("converter", evaluation.converter_label);
  v.set("vertical_loss", evaluation.vertical_loss.value);
  v.set("horizontal_loss", evaluation.horizontal_loss.value);
  v.set("conversion_stage1", evaluation.conversion_stage1.value);
  v.set("conversion_stage2", evaluation.conversion_stage2.value);
  v.set("conversion_loss", evaluation.conversion_loss().value);
  v.set("ppdn_loss", evaluation.ppdn_loss().value);
  v.set("total_loss", evaluation.total_loss().value);
  v.set("input_power", evaluation.input_power.value);
  v.set("vr_count_stage1", evaluation.vr_count_stage1);
  v.set("vr_count_stage2", evaluation.vr_count_stage2);
  v.set("periphery_rings", evaluation.periphery_rings);
  v.set("vr_current_spread", evaluation.vr_current_spread
                                 ? to_json(*evaluation.vr_current_spread)
                                 : Value());
  v.set("min_pol_voltage", evaluation.min_pol_voltage
                               ? Value(evaluation.min_pol_voltage->value)
                               : Value());
  v.set("distribution_rail", evaluation.distribution_rail
                                 ? Value(evaluation.distribution_rail->value)
                                 : Value());
  v.set("min_distribution_voltage",
        evaluation.min_distribution_voltage
            ? Value(evaluation.min_distribution_voltage->value)
            : Value());
  Value site_currents = Value::array();
  for (double current : evaluation.fault_site_currents) {
    site_currents.push_back(current);
  }
  v.set("fault_site_currents", std::move(site_currents));
  v.set("cg_iterations", evaluation.cg_iterations);
  v.set("within_rating", evaluation.within_rating);
  v.set("used_extrapolation", evaluation.used_extrapolation);
  Value notes = Value::array();
  for (const std::string& note : evaluation.notes) notes.push_back(note);
  v.set("notes", std::move(notes));
  Value stages = Value::array();
  for (const PathStage& stage : evaluation.stages) {
    stages.push_back(to_json(stage));
  }
  v.set("stages", std::move(stages));
  return v;
}

Value to_json(const ExplorationEntry& entry) {
  Value v = Value::object();
  v.set("architecture", to_json(entry.architecture));
  v.set("topology", entry.topology ? to_json(*entry.topology) : Value());
  v.set("excluded", entry.excluded());
  v.set("exclusion_reason", entry.exclusion_reason);
  v.set("evaluation",
        entry.evaluation ? to_json(*entry.evaluation) : Value());
  v.set("extrapolated",
        entry.extrapolated ? to_json(*entry.extrapolated) : Value());
  return v;
}

Value to_json(const SpecViolation& violation) {
  Value v = Value::object();
  v.set("kind", std::string(to_string(violation.kind)));
  v.set("site", violation.site == static_cast<std::size_t>(-1)
                    ? Value()
                    : Value(static_cast<double>(violation.site)));
  v.set("value", violation.value);
  v.set("limit", violation.limit);
  v.set("detail", violation.detail);
  return v;
}

Value to_json(const DroopMetrics& metrics) {
  Value v = Value::object();
  v.set("rail", metrics.rail);
  v.set("v_min", metrics.v_min);
  v.set("v_settled", metrics.v_settled);
  v.set("v_predicted", metrics.v_predicted);
  v.set("undershoot_fraction", metrics.undershoot_fraction);
  v.set("settled_droop_fraction", metrics.settled_droop_fraction);
  v.set("settling_time", metrics.settling_time.value);
  v.set("steady_cycle",
        metrics.steady_cycle
            ? Value(static_cast<double>(*metrics.steady_cycle))
            : Value());
  v.set("samples", metrics.samples);
  return v;
}

Value to_json(const TransientScenarioOutcome& outcome) {
  Value v = Value::object();
  v.set("scenario", to_json(outcome.scenario));
  v.set("evaluated", outcome.evaluated);
  v.set("extrapolated", outcome.extrapolated);
  v.set("failure_reason", outcome.failure_reason);
  v.set("metrics", outcome.evaluated ? to_json(outcome.metrics) : Value());
  Value violations = Value::array();
  for (const SpecViolation& violation : outcome.violations) {
    violations.push_back(to_json(violation));
  }
  v.set("violations", std::move(violations));
  v.set("margin", outcome.margin);
  v.set("passes", outcome.passes());
  return v;
}

Value to_json(const DroopCampaignReport& report) {
  Value v = Value::object();
  v.set("architecture", to_json(report.architecture));
  v.set("topology", report.topology ? to_json(*report.topology) : Value());
  v.set("tech", to_json(report.tech));
  v.set("scenario_count", report.scenario_count());
  v.set("pass_count", report.pass_count());
  v.set("pass_fraction", report.pass_fraction());
  v.set("worst_undershoot_fraction", report.worst_undershoot_fraction());
  v.set("worst_settling_seconds", report.worst_settling_time().value);
  v.set("worst_margin", report.worst_margin());
  v.set("transient_steps", report.transient_steps);
  v.set("wall_seconds", report.wall_seconds);
  v.set("nominal", to_json(report.nominal));
  Value outcomes = Value::array();
  for (const TransientScenarioOutcome& outcome : report.outcomes) {
    outcomes.push_back(to_json(outcome));
  }
  v.set("outcomes", std::move(outcomes));
  /// The unified telemetry shape (transient.* + solver.* instruments).
  v.set("observability", report.snapshot().to_json());
  return v;
}

Value to_json(const opt::Candidate& candidate) {
  Value v = Value::object();
  v.set("id", candidate.id);
  v.set("generation", candidate.generation);
  v.set("point", to_json(candidate.point));
  v.set("feasible", candidate.feasible);
  v.set("exclusion_reason", candidate.exclusion_reason);
  v.set("loss_fraction", candidate.loss_fraction);
  v.set("droop_fraction", candidate.droop_fraction);
  v.set("area_fraction", candidate.area_fraction);
  v.set("survivability", candidate.survivability
                             ? Value(*candidate.survivability)
                             : Value());
  return v;
}

Value to_json(const opt::FrontEntry& entry) {
  Value v = Value::object();
  v.set("candidate", to_json(entry.candidate));
  Value objectives = Value::array();
  for (double f : entry.objectives) objectives.push_back(f);
  v.set("objectives", std::move(objectives));
  return v;
}

Value to_json(const opt::OptimizeReport& report) {
  // Deterministic members first; everything from "wall_seconds" onward is
  // the scheduling-dependent tail (the bit-identity smoke tests cut the
  // line at `,"wall_seconds"`).
  Value v = Value::object();
  Value front = Value::array();
  for (const opt::FrontEntry& entry : report.front) {
    front.push_back(to_json(entry));
  }
  v.set("front", std::move(front));
  v.set("front_size", report.front_size());
  v.set("evaluations", report.evaluations);
  v.set("candidates", report.candidates);
  v.set("generations", report.generations_run);
  v.set("fault_campaigns", report.fault_campaigns);
  Value epsilon = Value::array();
  for (double e : report.epsilon) epsilon.push_back(e);
  v.set("epsilon", std::move(epsilon));
  Value reference = Value::array();
  for (double rf : report.reference) reference.push_back(rf);
  v.set("reference", std::move(reference));
  v.set("hypervolume", report.hypervolume);
  v.set("wall_seconds", report.wall_seconds);
  v.set("mesh_cache", to_json(report.cache_stats));
  /// The unified telemetry shape (opt.* + solver.* instruments).
  v.set("observability", report.snapshot().to_json());
  return v;
}

}  // namespace io
}  // namespace vpd
