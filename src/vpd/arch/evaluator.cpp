#include "vpd/arch/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "vpd/arch/placement.hpp"
#include "vpd/arch/vr_allocation.hpp"
#include "vpd/common/error.hpp"
#include "vpd/converters/dpmih.hpp"
#include "vpd/converters/transformer_stage.hpp"
#include "vpd/package/irdrop.hpp"
#include "vpd/package/layers.hpp"
#include "vpd/package/mesh.hpp"

namespace vpd {

namespace {

/// Per-site fault lookups against placement-order site indices. Linear
/// scans: injections list at most a handful of faulted sites.
const double* attach_scale_for(const FaultInjection& faults,
                               std::size_t site) {
  for (const auto& [s, scale] : faults.attach_scale) {
    if (s == site) return &scale;
  }
  return nullptr;
}

const VrDerate* derate_for(const FaultInjection& faults, std::size_t site) {
  for (const auto& [s, derate] : faults.derates) {
    if (s == site) return &derate;
  }
  return nullptr;
}

/// Sum of per-VR conversion losses; flags rating violations.
/// `loss_scales` (empty, or one multiplier per entry of `currents`)
/// applies per-VR derating of the conversion loss; an empty vector takes
/// the nominal arithmetic path exactly.
Power vr_conversion_loss(const Converter& converter,
                         const std::vector<double>& currents,
                         const std::vector<double>& loss_scales,
                         bool allow_extrapolation,
                         ArchitectureEvaluation& eval) {
  VPD_REQUIRE(loss_scales.empty() || loss_scales.size() == currents.size(),
              "loss_scales must be empty or match the current vector");
  double total = 0.0;
  for (std::size_t k = 0; k < currents.size(); ++k) {
    const Current load{std::max(currents[k], 1e-6)};
    double loss = 0.0;
    if (converter.supports(load)) {
      loss = converter.loss(load).value;
    } else {
      eval.within_rating = false;
      if (!allow_extrapolation) {
        throw InfeasibleDesign(detail::concat(
            converter.name(), " cannot deliver ", load.value,
            " A per VR and extrapolation is disabled"));
      }
      eval.used_extrapolation = true;
      loss = converter.loss_extrapolated(load).value;
    }
    if (!loss_scales.empty()) loss *= loss_scales[k];
    total += loss;
  }
  return Power{total};
}

/// Adds the 48 V feed stages (PCB lateral, BGAs, package lateral, C4s;
/// optionally TSVs), sized self-consistently: the feed must carry the
/// power already accounted in `eval` *plus its own conduction loss*, so
/// the input power is iterated to a fixed point (the upstream loss is
/// ~1% of throughput, so the iteration contracts geometrically and 2-3
/// passes converge to machine precision). Sizing the feed from the
/// downstream power alone — the pre-fix behaviour — systematically
/// underestimated i48 and the upstream loss.
void add_upstream(ArchitectureEvaluation& eval,
                  const PowerDeliverySpec& spec, bool tsv_at_input) {
  const double p_downstream =
      spec.total_power.value + eval.total_loss().value;
  const auto build_path = [&](Current i48) {
    PowerPath path;
    path.add_lateral(pcb_lateral_segment(), i48);
    path.add_vertical(interconnect_spec(InterconnectLevel::kPcbToPackage),
                      i48);
    path.add_lateral(package_lateral_segment(), i48);
    path.add_vertical(
        interconnect_spec(InterconnectLevel::kPackageToInterposer), i48);
    if (tsv_at_input) {
      path.add_vertical(
          interconnect_spec(InterconnectLevel::kThroughInterposer), i48);
    }
    return path;
  };

  double upstream_loss = 0.0;
  for (int iteration = 0; iteration < 8; ++iteration) {
    const Current i48 =
        spec.input_current(Power{p_downstream + upstream_loss});
    const double next = build_path(i48).total_loss().value;
    const bool converged =
        std::fabs(next - upstream_loss) <= 1e-12 * p_downstream;
    upstream_loss = next;
    if (converged) break;
  }

  const PowerPath path = build_path(
      spec.input_current(Power{p_downstream + upstream_loss}));
  eval.horizontal_loss += path.lateral_loss();
  eval.vertical_loss += path.vertical_loss();
  for (const PathStage& s : path.stages()) eval.stages.push_back(s);
  eval.input_power =
      Power{spec.total_power.value + eval.total_loss().value};
}

/// Lumped vertical field crossing at `current` (e.g. the u-bump field
/// between interposer and die).
void add_vertical_field(ArchitectureEvaluation& eval, InterconnectLevel level,
                        Current current) {
  PowerPath path;
  path.add_vertical(interconnect_spec(level), current);
  eval.vertical_loss += path.vertical_loss();
  for (const PathStage& s : path.stages()) eval.stages.push_back(s);
}

/// Per-VR share of a vertical field carrying `total` through the die area.
Resistance per_vr_field_resistance(InterconnectLevel level, Current total,
                                   unsigned vr_count) {
  const auto spec = interconnect_spec(level);
  const std::size_t vias = std::max<std::size_t>(
      spec.vias_for_current(total) / std::max(1u, vr_count), 1);
  return spec.net_pair_resistance(vias);
}

unsigned area_capped_count(unsigned wanted, Area die_area, Area vr_area,
                           double fraction,
                           ArchitectureEvaluation& eval,
                           const std::string& label) {
  const auto cap = static_cast<unsigned>(
      std::floor(fraction * die_area.value / vr_area.value));
  if (cap == 0) {
    throw InfeasibleDesign(detail::concat(
        label, ": a single VR (", vr_area.value * 1e6,
        " mm^2) exceeds the available below-die area"));
  }
  if (wanted > cap) {
    eval.notes.push_back(detail::concat(
        label, ": area caps the below-die VR count at ", cap,
        " (current allocation wanted ", wanted, ")"));
    return cap;
  }
  return wanted;
}

ArchitectureEvaluation evaluate_a0(const PowerDeliverySpec& spec,
                                   const EvaluationOptions& options) {
  VPD_REQUIRE(options.faults.empty(),
              "fault injection is not supported for A0: a single PCB "
              "regulator has no distributed VRs to drop or derate");
  ArchitectureEvaluation eval;
  eval.architecture = ArchitectureKind::kA0_PcbConversion;
  const Current i_die = spec.die_current();

  const auto converter =
      pcb_reference_converter(Current{1.5 * i_die.value});
  eval.converter_label = converter->name();
  eval.conversion_stage1 = converter->loss(i_die);
  eval.vr_count_stage1 = 1;

  // Full die current crosses every lateral segment and vertical field.
  PowerPath path;
  path.add_lateral(pcb_lateral_segment(), i_die);
  path.add_vertical(interconnect_spec(InterconnectLevel::kPcbToPackage),
                    i_die);
  path.add_lateral(package_lateral_segment(), i_die);
  path.add_vertical(
      interconnect_spec(InterconnectLevel::kPackageToInterposer), i_die);
  path.add_lateral(interposer_lateral_segment(), i_die);
  path.add_vertical(
      interconnect_spec(InterconnectLevel::kThroughInterposer), i_die);
  path.add_vertical(
      interconnect_spec(InterconnectLevel::kInterposerToDieBump), i_die);
  eval.horizontal_loss += path.lateral_loss();
  eval.vertical_loss += path.vertical_loss();
  eval.stages = path.stages();

  // Feasibility commentary (the paper's Section IV die-size argument).
  const auto c4 = interconnect_spec(InterconnectLevel::kPackageToInterposer);
  const Area min_die{
      static_cast<double>(c4.vias_for_current(i_die)) * c4.pitch.value *
      c4.pitch.value / c4.max_power_fraction};
  if (min_die.value > spec.die_area.value) {
    eval.notes.push_back(detail::concat(
        "A0 needs a ", min_die.value * 1e6,
        " mm^2 die to satisfy the C4 allocation cap (spec die is ",
        spec.die_area.value * 1e6, " mm^2)"));
  }
  eval.input_power =
      Power{spec.total_power.value + eval.total_loss().value};
  return eval;
}

/// An evaluation prepared up to its distribution solve: the request, the
/// evaluation rolled up so far, and everything finish() needs after the
/// solve — copied out of the caller's options, so it outlives them.
struct PendingRail {
  DistributionRequest request;
  PowerDeliverySpec spec;
  ArchitectureEvaluation eval;
  std::shared_ptr<const Converter> converter;  // VRs driving the rail
  /// The rail is the POL rail (A1/A2): its VRs are the final stage.
  /// Otherwise it is A3's intermediate rail, fed by stage 1.
  bool pol_rail{false};
  /// Current climbing the u-bump field after the rail; unset for A2,
  /// whose die crossing is already inside the attach series.
  std::optional<Current> bump_current;
  bool tsv_at_input{false};
  bool allow_extrapolation{true};
  /// Nominal placement sites when faults are injected (sizes
  /// fault_site_currents); 0 on the nominal path.
  std::size_t fault_sites{0};
  std::vector<std::size_t> legs_per_site;  // per surviving site
  std::vector<std::size_t> site_map;  // surviving -> nominal placement index
  std::vector<double> loss_scales;    // empty unless a derate applies

  ArchitectureEvaluation finish(const IrDropResult& ir) {
    std::vector<double> vr_currents;
    vr_currents.reserve(legs_per_site.size());
    std::size_t cursor = 0;
    for (std::size_t count : legs_per_site) {
      double sum = 0.0;
      for (std::size_t k = 0; k < count; ++k) sum += ir.vr_currents[cursor++];
      vr_currents.push_back(sum);
    }
    eval.horizontal_loss += ir.grid_loss;
    eval.vertical_loss += ir.series_loss;
    eval.vr_current_spread = summarize(vr_currents);
    if (pol_rail) eval.min_pol_voltage = ir.min_node_voltage;
    eval.min_distribution_voltage = ir.min_node_voltage;
    eval.cg_iterations += ir.cg_iterations;
    if (fault_sites > 0) {
      eval.fault_site_currents.assign(fault_sites, 0.0);
      for (std::size_t k = 0; k < site_map.size(); ++k) {
        eval.fault_site_currents[site_map[k]] = vr_currents[k];
      }
    }
    const Power conversion = vr_conversion_loss(
        *converter, vr_currents, loss_scales, allow_extrapolation, eval);
    (pol_rail ? eval.conversion_stage2 : eval.conversion_stage1) = conversion;
    if (bump_current) {
      add_vertical_field(eval, InterconnectLevel::kInterposerToDieBump,
                         *bump_current);
    }
    // 48 V feed sized self-consistently from the actual input power.
    add_upstream(eval, spec, tsv_at_input);
    return std::move(eval);
  }
};

/// Prepares the mesh solve of one distribution rail: VR outputs at the
/// surviving `sites`, sinks totalling `total_current`. Fault injection
/// drops sites, scales attach resistances and perturbs the mesh operator;
/// the survivors pick up the redistributed load through the solve itself.
/// Fills `pending`'s request and the per-site bookkeeping its finish()
/// needs.
void prepare_rail(PendingRail& pending, const std::vector<VrSite>& sites,
                  Voltage rail, Current total_current,
                  Resistance attach_series,
                  const EvaluationOptions& options) {
  const PowerDeliverySpec& spec = pending.spec;
  const FaultInjection& faults = options.faults;
  // Surviving sites of the nominal deployment (dropped_sites is sorted).
  std::vector<VrSite> active;
  std::vector<std::size_t>& site_map = pending.site_map;
  active.reserve(sites.size());
  site_map.reserve(sites.size());
  {
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < sites.size(); ++s) {
      if (cursor < faults.dropped_sites.size() &&
          faults.dropped_sites[cursor] == s) {
        ++cursor;
        continue;
      }
      active.push_back(sites[s]);
      site_map.push_back(s);
    }
  }
  if (active.empty()) {
    throw InfeasibleDesign(
        "every distribution-stage VR is dropped: no source left to solve "
        "the rail");
  }
  // The mesh operator depends only on (die side, resolution, sheet,
  // conductance perturbation): reuse a shared assembly across sweep points
  // when the caller provides a cache. Cached and per-call assemblies are
  // numerically identical, and a perturbed operator can never alias the
  // nominal cache entry (the key carries the perturbation digest).
  DistributionRequest& request = pending.request;
  {
    const obs::StageTimer mesh_timer(obs::Work::kMeshNanoseconds);
    request.assembled =
        options.mesh_cache
            ? options.mesh_cache->get(spec.die_side(), spec.die_side(),
                                      options.mesh_nodes, options.mesh_nodes,
                                      options.distribution_sheet_ohms,
                                      faults.mesh_perturbation, options.trace)
            : assemble_mesh(spec.die_side(), spec.die_side(),
                            options.mesh_nodes, options.mesh_nodes,
                            options.distribution_sheet_ohms,
                            faults.mesh_perturbation);
  }
  const GridMesh& mesh = request.assembled->mesh;
  // Patch footprints: capped per site by the placement geometry so
  // neighbouring patches can never overlap and share attachment nodes.
  // Computed over the survivors: a dropped neighbour frees no extra
  // footprint at fault time (the cap only ever shrinks patches, and the
  // survivors' positions are unchanged), but it must not re-introduce the
  // dropped site's nodes either.
  const std::vector<Length> patch_sides =
      disjoint_patch_sides(active, options.vr_patch);
  pending.legs_per_site.reserve(active.size());
  for (std::size_t s = 0; s < active.size(); ++s) {
    const VrSite& site = active[s];
    const double ring_extra = site.ring * options.ring_series_squares *
                              options.distribution_sheet_ohms;
    double attach_value = attach_series.value;
    if (const double* scale = attach_scale_for(faults, site_map[s])) {
      attach_value *= *scale;
    }
    const auto patch = patch_attachment(
        mesh, site.x, site.y, patch_sides[s], rail,
        Resistance{attach_value + ring_extra});
    pending.legs_per_site.push_back(patch.size());
    request.legs.insert(request.legs.end(), patch.begin(), patch.end());
  }
  request.sinks = options.sink_map ? options.sink_map(mesh, total_current)
                                   : uniform_sinks(mesh, total_current);
  VPD_REQUIRE(request.sinks.size() == mesh.node_count(),
              "sink map returned wrong node count");
  double sink_total = 0.0;
  for (double s : request.sinks) sink_total += s;
  VPD_REQUIRE(std::fabs(sink_total - total_current.value) <=
                  1e-3 * total_current.value,
              "sink map totals ", sink_total, " A, expected ",
              total_current.value);
  request.options.relative_tolerance = options.irdrop_relative_tolerance;
  request.options.preconditioner = resolved_irdrop_preconditioner(options);
  request.options.trace = options.trace;
  if (options.cg_warm_start) request.options.warm_start_voltage = rail.value;

  pending.allow_extrapolation = options.allow_extrapolation;
  if (!faults.empty()) pending.fault_sites = sites.size();
  // Conversion-loss multipliers for the surviving sites, aligned with
  // site_map; empty when no derate applies (nominal path).
  if (!faults.derates.empty()) {
    pending.loss_scales.assign(site_map.size(), 1.0);
    for (std::size_t k = 0; k < site_map.size(); ++k) {
      if (const VrDerate* derate = derate_for(faults, site_map[k])) {
        pending.loss_scales[k] = derate->loss_scale;
      }
    }
  }
}

PendingRail prepare_single_stage(ArchitectureKind kind,
                                 const PowerDeliverySpec& spec,
                                 TopologyKind topology, DeviceTechnology tech,
                                 const EvaluationOptions& options) {
  PendingRail pending;
  pending.spec = spec;
  ArchitectureEvaluation& eval = pending.eval;
  eval.architecture = kind;
  const Current i_die = spec.die_current();
  const bool periphery = (kind == ArchitectureKind::kA1_InterposerPeriphery);

  const auto converter = make_topology(topology, tech);
  eval.converter_label = converter->name();

  VrAllocation alloc =
      options.fixed_final_stage_vrs > 0
          ? allocate_vrs_fixed(i_die, *converter,
                               options.fixed_final_stage_vrs)
          : allocate_vrs(i_die, *converter, options.derating);
  for (const auto& note : alloc.notes) eval.notes.push_back(note);

  unsigned count = alloc.count;
  PlacementResult placement;
  if (periphery) {
    const unsigned max_rings = std::max(1u, options.max_periphery_rings);
    const unsigned capacity =
        max_rings *
        periphery_ring_capacity(spec.die_side(), converter->spec().area);
    if (count > capacity) {
      eval.notes.push_back(detail::concat(
          converter->name(), ": periphery capacity caps the VR count at ",
          capacity, " (current allocation wanted ", count, ")"));
      count = capacity;
    }
    placement = periphery_placement(spec.die_side(),
                                    converter->spec().area, count,
                                    max_rings);
    eval.periphery_rings = placement.rings_used;
  } else {
    count = area_capped_count(count, spec.die_area, converter->spec().area,
                              options.below_die_area_fraction, eval,
                              converter->name());
    placement = below_die_placement(spec.die_side(), converter->spec().area,
                                    count, options.below_die_area_fraction);
  }
  eval.vr_count_stage2 = count;

  // Attachment series resistance: A1 VRs drive the mesh through their
  // local interposer via stack; A2 VRs reach the die through their share
  // of the TSV and Cu-pad fields.
  Resistance attach = options.vr_attach_series;
  if (!periphery) {
    attach = Resistance{
        per_vr_field_resistance(InterconnectLevel::kThroughInterposer,
                                i_die, count)
            .value +
        per_vr_field_resistance(InterconnectLevel::kInterposerToDiePad,
                                i_die, count)
            .value +
        options.vr_attach_series.value};
  }

  options.faults.validate(placement.sites.size(), 0);

  prepare_rail(pending, placement.sites, spec.die_voltage, i_die, attach,
               options);
  eval.distribution_rail = spec.die_voltage;
  pending.converter = converter;
  pending.pol_rail = true;
  // Die interface field: A1's 1 V current climbs the u-bump field after
  // its lateral journey; A2's climb is already inside the attach series.
  if (periphery) pending.bump_current = i_die;
  pending.tsv_at_input = periphery;
  return pending;
}

PendingRail prepare_two_stage(ArchitectureKind kind,
                              const PowerDeliverySpec& spec,
                              TopologyKind topology, DeviceTechnology tech,
                              const EvaluationOptions& options) {
  PendingRail pending;
  pending.spec = spec;
  ArchitectureEvaluation& eval = pending.eval;
  eval.architecture = kind;
  const Voltage v_mid = intermediate_voltage(kind);
  const Current i_die = spec.die_current();

  // --- Stage 2: V_mid -> 1 V on the power die under the functional die.
  const auto stage2_base = make_topology(topology, tech);
  const auto stage2 =
      stage2_base->with_conversion(v_mid, spec.die_voltage);
  eval.converter_label =
      std::string("DPMIH+") + to_string(topology);

  VrAllocation alloc2 =
      options.fixed_final_stage_vrs > 0
          ? allocate_vrs_fixed(i_die, *stage2,
                               options.fixed_final_stage_vrs)
          : allocate_vrs(i_die, *stage2, options.derating);
  for (const auto& note : alloc2.notes) eval.notes.push_back(note);
  unsigned count2 = area_capped_count(
      alloc2.count, spec.die_area, stage2->spec().area,
      options.below_die_area_fraction, eval, stage2->name());
  eval.vr_count_stage2 = count2;
  options.faults.validate_stage2(count2);

  // Stage-2 VRs sit directly below their loads: uniform current split,
  // re-split among the survivors when final-stage VRs drop out.
  const std::size_t live2 = count2 - options.faults.dropped_stage2.size();
  std::vector<double> stage2_currents(live2, i_die.value / live2);
  eval.conversion_stage2 =
      vr_conversion_loss(*stage2, stage2_currents, {},
                         options.allow_extrapolation, eval);

  // 1 V crossing from power die to functional die: the Cu-pad field.
  add_vertical_field(eval, InterconnectLevel::kInterposerToDiePad, i_die);

  // --- Intermediate rail: V_mid from periphery stage-1 VRs to the
  // below-die stage-2 inputs. The stage-1 deployment is sized at design
  // time from the fault-free stage-2 loss (faults cannot add VRs), while
  // the rail itself carries the actual, possibly fault-elevated current.
  double stage2_design_loss = eval.conversion_stage2.value;
  if (!options.faults.dropped_stage2.empty()) {
    ArchitectureEvaluation sizing_scratch;
    std::vector<double> nominal2(count2, i_die.value / count2);
    stage2_design_loss =
        vr_conversion_loss(*stage2, nominal2, {},
                           options.allow_extrapolation, sizing_scratch)
            .value;
  }
  const double p_mid_design =
      spec.total_power.value + stage2_design_loss;
  const Current i_mid_design{p_mid_design / v_mid.value};
  const double p_mid =
      spec.total_power.value + eval.conversion_stage2.value;
  const Current i_mid{p_mid / v_mid.value};

  const auto stage1 =
      dpmih_converter(tech)->with_conversion(Voltage{48.0}, v_mid);
  VrAllocation alloc1 =
      allocate_vrs(i_mid_design, *stage1, options.derating);
  for (const auto& note : alloc1.notes) eval.notes.push_back(note);
  eval.vr_count_stage1 = alloc1.count;

  const PlacementResult placement1 = periphery_placement(
      spec.die_side(), stage1->spec().area, alloc1.count);
  eval.periphery_rings = placement1.rings_used;
  options.faults.validate_sites(placement1.sites.size());

  prepare_rail(pending, placement1.sites, v_mid, i_mid,
               options.vr_attach_series, options);
  eval.distribution_rail = v_mid;
  pending.converter = stage1;
  // V_mid climbs into the power die through the u-bump field.
  pending.bump_current = i_mid;
  pending.tsv_at_input = true;
  return pending;
}

}  // namespace

CgPreconditioner resolved_irdrop_preconditioner(
    const EvaluationOptions& options) {
  if (options.irdrop_preconditioner.has_value()) {
    return *options.irdrop_preconditioner;
  }
  return options.mesh_nodes >= kAutoMultigridMeshNodes
             ? CgPreconditioner::kMultigrid
             : CgPreconditioner::kIncompleteCholesky;
}

PreparedEvaluation prepare_evaluation(ArchitectureKind architecture,
                                      const PowerDeliverySpec& spec,
                                      TopologyKind topology,
                                      DeviceTechnology tech,
                                      const EvaluationOptions& options) {
  spec.validate();
  VPD_REQUIRE(options.mesh_nodes >= 5, "mesh_nodes must be >= 5, got ",
              options.mesh_nodes);
  VPD_REQUIRE(options.distribution_sheet_ohms > 0.0,
              "distribution sheet resistance must be positive");
  VPD_REQUIRE(options.irdrop_relative_tolerance > 0.0,
              "IR-drop relative tolerance must be positive");

  PreparedEvaluation prepared;
  PendingRail pending;
  switch (architecture) {
    case ArchitectureKind::kA0_PcbConversion:
      prepared.finish_ = [eval = evaluate_a0(spec, options)](
                             const IrDropResult&) { return eval; };
      return prepared;
    case ArchitectureKind::kA1_InterposerPeriphery:
    case ArchitectureKind::kA2_InterposerBelowDie:
      pending = prepare_single_stage(architecture, spec, topology, tech,
                                     options);
      break;
    case ArchitectureKind::kA3_TwoStage12V:
    case ArchitectureKind::kA3_TwoStage6V:
      pending = prepare_two_stage(architecture, spec, topology, tech,
                                  options);
      break;
    default:
      throw InvalidArgument("unknown architecture kind");
  }
  prepared.request_ = std::move(pending.request);
  prepared.finish_ = [pending = std::move(pending)](
                         const IrDropResult& result) mutable {
    return pending.finish(result);
  };
  return prepared;
}

IrDropResult solve_distribution(const DistributionRequest* request,
                                DistributionSolveHook* hook) {
  IrDropResult result;
  if (request == nullptr) return result;
  if (hook == nullptr || !hook->solve(request->assembled, request->legs,
                                      request->sinks, request->options,
                                      result)) {
    result = solve_irdrop(*request->assembled, request->legs,
                          request->sinks, request->options);
  }
  return result;
}

EvaluationSpan::EvaluationSpan(ArchitectureKind architecture,
                               const EvaluationOptions& options)
    : span_("vpd.evaluate", options.trace), options_(&options) {
  if (span_.active()) {
    span_.set_arg("architecture", double(static_cast<int>(architecture)));
    span_.set_arg("mesh_nodes", double(options.mesh_nodes));
    traced_ = options;
    traced_.trace = span_.context();
    options_ = &traced_;
  }
}

ArchitectureEvaluation evaluate_architecture(ArchitectureKind architecture,
                                             const PowerDeliverySpec& spec,
                                             TopologyKind topology,
                                             DeviceTechnology tech,
                                             const EvaluationOptions& options) {
  const EvaluationSpan span(architecture, options);
  PreparedEvaluation prepared =
      prepare_evaluation(architecture, spec, topology, tech, span.options());
  return prepared.finish(
      solve_distribution(prepared.request(), options.solve_hook));
}

}  // namespace vpd
