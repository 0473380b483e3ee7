#include "vpd/workload/droop_campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>
#include <utility>

#include "vpd/common/error.hpp"
#include "vpd/fault/fault_model.hpp"
#include "vpd/sweep/thread_pool.hpp"
#include "vpd/workload/load_transient.hpp"
#include "vpd/workload/power_map.hpp"

namespace vpd {

namespace {

/// Bypass switch across the dropout's delta resistance: closed it shorts
/// the delta (nominal supply path), open it leaves the delta in series
/// (post-fault supply path). r_on must sit far below the micro-ohm-scale
/// effective PPDN resistances; r_off far above them but small enough to
/// keep the step matrices well conditioned.
constexpr double kBypassOn = 1e-9;
constexpr double kBypassOff = 1.0;

/// Picks the evaluation an exclusion-rule entry carries: the accepted one,
/// or the flagged beyond-rating extrapolation. Nullptr when the
/// combination failed outright.
const ArchitectureEvaluation* entry_evaluation(const ExplorationEntry& entry) {
  if (entry.evaluation.has_value()) return &*entry.evaluation;
  if (entry.extrapolated.has_value()) return &*entry.extrapolated;
  return nullptr;
}

/// Copies a reduced model's elements into a fresh netlist (the model's
/// netlist is shared per scenario family; the load source is scenario
/// specific).
Netlist copy_netlist(const Netlist& source) {
  Netlist nl;
  for (NodeId n = 1; n < source.node_count(); ++n)
    nl.add_node(source.node_name(n));
  for (const Element& e : source.elements()) {
    switch (e.kind) {
      case ElementKind::kResistor:
        nl.add_resistor(e.name, e.node_a, e.node_b, Resistance{e.value});
        break;
      case ElementKind::kCapacitor:
        nl.add_capacitor(e.name, e.node_a, e.node_b, Capacitance{e.value},
                         Voltage{e.initial});
        break;
      case ElementKind::kInductor:
        nl.add_inductor(e.name, e.node_a, e.node_b, Inductance{e.value},
                        Current{e.initial});
        break;
      case ElementKind::kVoltageSource:
        nl.add_vsource(e.name, e.node_a, e.node_b, e.source);
        break;
      case ElementKind::kCurrentSource:
        nl.add_isource(e.name, e.node_a, e.node_b, e.source);
        break;
      case ElementKind::kSwitch:
        nl.add_switch(e.name, e.node_a, e.node_b, Resistance{e.r_on},
                      Resistance{e.r_off}, e.initially_closed);
        break;
    }
  }
  return nl;
}

struct ScenarioSimulation {
  Netlist netlist;
  std::string pol_node;
  SwitchController controller;  // empty for the load scenarios
  double v_predicted{0.0};
};

/// Lowers a load scenario onto its tile's reduced model plus the
/// scenario's waveform.
ScenarioSimulation build_load_simulation(const PowerDeliverySpec& spec,
                                         const DroopCampaignConfig& config,
                                         const TransientScenario& sc,
                                         const ArchitectureEvaluation& eval) {
  const ReducedPdnModel model = build_reduced_pdn(spec, eval, config.model);
  const double i_die = spec.die_current().value;
  const Current base{sc.base_fraction * i_die};
  const Current step{sc.step_fraction * i_die};
  SourceFn load;
  double i_final = base.value + step.value;
  switch (sc.kind) {
    case TransientKind::kLoadStep:
      load = step_load(base, step, sc.t_event, sc.edge);
      break;
    case TransientKind::kLoadRamp:
      load = ramp_load(base, Current{base.value + step.value}, sc.t_event,
                       Seconds{sc.t_event.value + sc.edge.value});
      break;
    case TransientKind::kLoadBurst: {
      load = burst_load(base, Current{base.value + step.value},
                        sc.burst_frequency, sc.burst_duty, sc.edge);
      // Cycle-average load the burst settles around: the plateau carries
      // duty - edge/period of the step (each linear edge trades half its
      // span against the plateau on both flanks).
      const double period = 1.0 / sc.burst_frequency.value;
      i_final = base.value +
                step.value * (sc.burst_duty - sc.edge.value / period);
      break;
    }
    case TransientKind::kVrDropout:
      throw InvalidArgument("dropout scenarios use build_dropout_simulation");
  }

  ScenarioSimulation sim;
  sim.netlist = copy_netlist(model.netlist);
  sim.pol_node = model.pol_node;
  sim.netlist.add_isource("load", sim.netlist.node(model.pol_node), kGround,
                          std::move(load));
  sim.v_predicted = spec.die_voltage.value -
                    i_final * model.effective_resistance.value;
  return sim;
}

/// Lowers a VR-dropout scenario: the Thevenin supply resistance steps
/// from the nominal R_eff to the faulted re-solve's R_eff when the bypass
/// switch across the delta opens at t_event, while the dropped VR's share
/// of the load collapses to zero over `edge`. Settles exactly onto the
/// post-fault DC answer (modulo the r_off leak across the delta, an
/// O(delta^2 / r_off) correction).
ScenarioSimulation build_dropout_simulation(
    const PowerDeliverySpec& spec, const DroopCampaignConfig& config,
    const TransientScenario& sc, const ReducedPdnModel& nominal_model,
    const ArchitectureEvaluation& faulted_eval, std::size_t site_count) {
  const ReducedPdnModel post_model =
      build_reduced_pdn(spec, faulted_eval, config.model);
  const double r_pre = nominal_model.effective_resistance.value;
  const double r_post = post_model.effective_resistance.value;
  // Survivors feed longer lateral paths, so the faulted R_eff is never
  // below nominal; the clamp only guards FP noise on tiny deltas.
  const double delta =
      std::max(post_model.effective_resistance.value - r_pre, 1e-12);

  ScenarioSimulation sim;
  sim.pol_node = nominal_model.pol_node;
  Netlist& nl = sim.netlist;
  const NodeId vr = nl.add_node("vr");
  const NodeId drp = nl.add_node("drp");
  const NodeId mid = nl.add_node("mid");
  const NodeId pol = nl.add_node("pol");
  const NodeId esr = nl.add_node("esr");
  nl.add_vsource("Vvr", vr, kGround, spec.die_voltage);
  nl.add_resistor("Rpre", vr, drp, Resistance{r_pre});
  nl.add_resistor("Rdelta", drp, mid, Resistance{delta});
  nl.add_switch("Sbyp", drp, mid, Resistance{kBypassOn},
                Resistance{kBypassOff}, /*initially_closed=*/true);
  nl.add_inductor("Lloop", mid, pol, nominal_model.loop_inductance);
  nl.add_resistor("Resr", pol, esr, config.model.decap_esr);
  nl.add_capacitor("Cdecap", esr, kGround, nominal_model.decap,
                   spec.die_voltage);

  const double i_load = sc.base_fraction * spec.die_current().value;
  nl.add_isource("load", pol, kGround, Current{i_load});
  // The dropped VR's remnant: its (mean) share of the load keeps flowing
  // in while the VR collapses, ramping to zero over `edge`. Zero before
  // t_event — pre-fault the share is already inside the Thevenin supply —
  // so the DC operating point is not double-counted; the jump at t_event
  // exactly offsets the switch's impedance step, making the handoff to
  // the survivors finite-slew instead of instantaneous.
  const double i_site =
      i_load / static_cast<double>(std::max<std::size_t>(site_count, 1));
  const double te = sc.t_event.value;
  const double fall = sc.edge.value;
  nl.add_isource("Ivr", kGround, pol, [te, fall, i_site](double t) {
    if (t <= te || fall <= 0.0 || t >= te + fall) return 0.0;
    return i_site * (1.0 - (t - te) / fall);
  });
  sim.controller = [te](double t, SwitchStates& states) {
    states[0] = t < te;
  };

  // DC landing point with the bypass open: r_pre plus delta in parallel
  // with the open switch.
  const double r_dc =
      r_pre + (delta * kBypassOff) / (delta + kBypassOff);
  sim.v_predicted = spec.die_voltage.value - i_load * r_dc;
  (void)r_post;
  return sim;
}

/// Measures the POL trace against the scenario and the dynamic limits.
DroopMetrics measure(const Trace& v, const TransientScenario& sc,
                     double rail, double v_predicted,
                     const ResilienceSpec& rspec, double t_stop) {
  DroopMetrics m;
  m.rail = rail;
  m.v_predicted = v_predicted;
  m.samples = v.sample_count();
  const bool burst = sc.kind == TransientKind::kLoadBurst;
  const double t_meas = burst ? 0.0 : sc.t_event.value;
  m.v_min = v.min(t_meas, t_stop);
  m.undershoot_fraction = (rail - m.v_min) / rail;
  const double band = rspec.recovery_band * rail;
  if (burst) {
    const double period = 1.0 / sc.burst_frequency.value;
    m.v_settled = v.average(t_stop - period, t_stop);
    m.steady_cycle = first_steady_cycle(v, period, band);
    if (m.steady_cycle.has_value()) {
      m.settling_time =
          Seconds{static_cast<double>(*m.steady_cycle) * period};
    } else {
      m.settling_time = Seconds{t_stop};
    }
  } else {
    m.v_settled = v.back();
    double last_outside = t_meas;
    for (std::size_t i = 0; i < v.sample_count(); ++i) {
      const double t = v.times()[i];
      if (t < t_meas) continue;
      if (std::fabs(v.values()[i] - m.v_settled) > band) last_outside = t;
    }
    m.settling_time = Seconds{std::max(0.0, last_outside - t_meas)};
  }
  m.settled_droop_fraction = (rail - m.v_settled) / rail;
  return m;
}

/// Applies the dynamic-droop pass/fail rules; fills violations and margin.
void check_dynamic_limits(TransientScenarioOutcome& outcome,
                          const ResilienceSpec& rspec) {
  const TransientScenario& sc = outcome.scenario;
  const DroopMetrics& m = outcome.metrics;
  const std::size_t site = sc.kind == TransientKind::kVrDropout
                               ? sc.site
                               : static_cast<std::size_t>(-1);
  const auto note_margin = [&](double headroom) {
    outcome.margin = std::min(outcome.margin, headroom);
  };

  note_margin((rspec.transient_droop_tolerance - m.undershoot_fraction) /
              rspec.transient_droop_tolerance);
  if (m.undershoot_fraction > rspec.transient_droop_tolerance) {
    outcome.violations.push_back(SpecViolation{
        SpecViolation::Kind::kTransientDroop, site, m.undershoot_fraction,
        rspec.transient_droop_tolerance,
        detail::concat(to_string(sc.kind), " undershoots the POL rail by ",
                       m.undershoot_fraction * 100.0, "% (tolerance ",
                       rspec.transient_droop_tolerance * 100.0, "%)")});
  }

  if (sc.kind == TransientKind::kLoadBurst) {
    const double limit = static_cast<double>(rspec.steady_cycle_limit);
    if (!m.steady_cycle.has_value()) {
      note_margin(-1.0);
      outcome.violations.push_back(SpecViolation{
          SpecViolation::Kind::kNoSteadyState, site, limit + 1.0, limit,
          detail::concat("burst never reached a steady cycle within the "
                         "window (limit ",
                         rspec.steady_cycle_limit, " cycles)")});
    } else {
      const double cycle = static_cast<double>(*m.steady_cycle);
      note_margin((limit - cycle) / limit);
      if (cycle > limit) {
        outcome.violations.push_back(SpecViolation{
            SpecViolation::Kind::kNoSteadyState, site, cycle, limit,
            detail::concat("burst reaches a steady cycle only at cycle ",
                           *m.steady_cycle, " (limit ",
                           rspec.steady_cycle_limit, ")")});
      }
    }
  } else {
    note_margin((rspec.settling_time_limit - m.settling_time.value) /
                rspec.settling_time_limit);
    if (m.settling_time.value > rspec.settling_time_limit) {
      outcome.violations.push_back(SpecViolation{
          SpecViolation::Kind::kSettlingTime, site, m.settling_time.value,
          rspec.settling_time_limit,
          detail::concat(to_string(sc.kind), " settles in ",
                         m.settling_time.value * 1e6, " us (limit ",
                         rspec.settling_time_limit * 1e6, " us)")});
    }
  }
}

}  // namespace

void DroopCampaignConfig::validate() const {
  resilience.validate();
  // Refuses the windows simulate() refuses (dt outside (0, t_stop), 2^53
  // steps or more), once here rather than once per scenario.
  (void)transient_step_count(t_stop, dt);
  VPD_REQUIRE(tile_grid > 0, "tile_grid must be >= 1");
  VPD_REQUIRE(t_event.value >= 0.0 && t_event.value < t_stop.value,
              "t_event must fall inside the window");
  if (include_bursts) {
    VPD_REQUIRE(burst_frequency.value * t_stop.value >= 2.0,
                "burst scenarios need at least two cycles in the window");
  }
}

std::size_t DroopCampaignReport::pass_count() const {
  std::size_t passes = 0;
  for (const TransientScenarioOutcome& outcome : outcomes) {
    if (outcome.passes()) ++passes;
  }
  return passes;
}

double DroopCampaignReport::pass_fraction() const {
  if (outcomes.empty()) return 0.0;
  return static_cast<double>(pass_count()) /
         static_cast<double>(outcomes.size());
}

double DroopCampaignReport::worst_undershoot_fraction() const {
  double worst = 0.0;
  for (const TransientScenarioOutcome& outcome : outcomes) {
    if (outcome.evaluated) {
      worst = std::max(worst, outcome.metrics.undershoot_fraction);
    }
  }
  return worst;
}

Seconds DroopCampaignReport::worst_settling_time() const {
  double worst = 0.0;
  for (const TransientScenarioOutcome& outcome : outcomes) {
    if (outcome.evaluated) {
      worst = std::max(worst, outcome.metrics.settling_time.value);
    }
  }
  return Seconds{worst};
}

double DroopCampaignReport::worst_margin() const {
  double worst = 1.0;
  for (const TransientScenarioOutcome& outcome : outcomes) {
    if (outcome.evaluated) worst = std::min(worst, outcome.margin);
  }
  return worst;
}

obs::Snapshot DroopCampaignReport::snapshot() const {
  obs::Snapshot s;
  s.set_counter("transient.scenarios", scenario_count());
  s.set_counter("transient.passes", pass_count());
  s.set_counter("transient.steps", transient_steps);
  s.set_counter("transient.factor_hits", factors.hits);
  s.set_counter("transient.factor_misses", factors.misses);
  set_solver_counters(s, solver);
  s.set_gauge("transient.pass_fraction", pass_fraction(), pass_fraction());
  s.set_gauge("transient.worst_undershoot_fraction",
              worst_undershoot_fraction(), worst_undershoot_fraction());
  s.set_gauge("transient.worst_settling_seconds",
              worst_settling_time().value, worst_settling_time().value);
  s.set_gauge("transient.worst_margin", worst_margin(), worst_margin());
  s.set_gauge("transient.wall_seconds", wall_seconds, wall_seconds);
  s.set_histogram("transient.scenario_seconds", scenario_seconds);
  return s;
}

DroopCampaignRunner::DroopCampaignRunner(PowerDeliverySpec spec,
                                         DroopCampaignConfig config)
    : spec_(spec), config_(std::move(config)) {
  spec_.validate();
  config_.validate();
}

std::vector<TransientScenario> DroopCampaignRunner::generate_scenarios(
    std::size_t site_count) const {
  VPD_REQUIRE(site_count > 0, "campaign needs at least one mesh-stage VR");
  std::vector<TransientScenario> scenarios;

  const auto tile_scenarios = [&](TransientKind kind, const char* family,
                                  Seconds edge) {
    const std::size_t grid = config_.tile_grid;
    for (std::size_t i = 0; i < grid; ++i) {
      for (std::size_t j = 0; j < grid; ++j) {
        TransientScenario sc;
        sc.kind = kind;
        sc.label = detail::concat(family, "[", i, ",", j, "]");
        sc.tile_x = static_cast<double>(i + 1) /
                    static_cast<double>(grid + 1);
        sc.tile_y = static_cast<double>(j + 1) /
                    static_cast<double>(grid + 1);
        sc.tile_sigma = config_.tile_sigma;
        sc.tile_background = config_.tile_background;
        sc.base_fraction = config_.base_fraction;
        sc.step_fraction = config_.step_fraction;
        sc.t_event = config_.t_event;
        sc.edge = edge;
        sc.burst_frequency = config_.burst_frequency;
        sc.burst_duty = config_.burst_duty;
        sc.validate();
        scenarios.push_back(std::move(sc));
      }
    }
  };
  if (config_.include_load_steps) {
    tile_scenarios(TransientKind::kLoadStep, "step", config_.edge);
  }
  if (config_.include_bursts) {
    tile_scenarios(TransientKind::kLoadBurst, "burst", config_.edge);
  }
  if (config_.include_ramps) {
    // Ramps probe the slow-di/dt corner (a step with the same edge is the
    // same waveform): 10x the step slew, capped so the ramp completes
    // inside the window.
    const double ramp_edge =
        std::min(10.0 * config_.edge.value,
                 config_.t_stop.value - config_.t_event.value);
    tile_scenarios(TransientKind::kLoadRamp, "ramp", Seconds{ramp_edge});
  }
  if (config_.include_vr_dropouts) {
    const std::size_t sites =
        config_.max_dropout_sites == 0
            ? site_count
            : std::min(site_count, config_.max_dropout_sites);
    for (std::size_t s = 0; s < sites; ++s) {
      TransientScenario sc;
      sc.kind = TransientKind::kVrDropout;
      sc.label = detail::concat("dropout[", s, "]");
      sc.site = s;
      // Dropouts hit at full load: the handoff to the survivors is the
      // worst case when every VR carries its full share.
      sc.base_fraction = 1.0;
      sc.t_event = config_.t_event;
      sc.edge = config_.edge;
      sc.validate();
      scenarios.push_back(std::move(sc));
    }
  }
  return scenarios;
}

DroopCampaignReport DroopCampaignRunner::run(
    ArchitectureKind architecture, TopologyKind topology,
    DeviceTechnology tech, const EvaluationOptions& base_options) const {
  VPD_REQUIRE(architecture != ArchitectureKind::kA0_PcbConversion,
              "droop campaigns need a distribution mesh; A0 has none");
  VPD_REQUIRE(base_options.faults.empty(),
              "base_options must carry an empty FaultInjection (the "
              "campaign owns the injections)");
  VPD_REQUIRE(!base_options.sink_map,
              "base_options must not carry a sink map (the campaign "
              "anchors its own hotspot maps)");

  const auto campaign_start = std::chrono::steady_clock::now();
  obs::Span campaign_span("droop.campaign", config_.trace);

  MeshSolveCache campaign_cache;
  SweepConfig sweep_config = config_.sweep;
  if (sweep_config.cache == nullptr) sweep_config.cache = &campaign_cache;
  const SweepRunner runner(spec_, sweep_config);

  // Nominal probe: learns the deployment and the pre-fault reduced model.
  SweepPoint nominal_point;
  nominal_point.architecture = architecture;
  nominal_point.topology = topology;
  nominal_point.tech = tech;
  nominal_point.options = base_options;
  nominal_point.options.trace = campaign_span.context();
  nominal_point.label = sweep_point_label(architecture, topology, tech);
  const SweepReport nominal_report = runner.run({nominal_point});
  const ExplorationEntry& nominal_entry = nominal_report.outcomes[0].entry;
  const ArchitectureEvaluation* nominal = entry_evaluation(nominal_entry);
  if (nominal == nullptr) {
    throw InfeasibleDesign(detail::concat(
        "nominal evaluation failed for ", nominal_point.label, ": ",
        nominal_entry.exclusion_reason));
  }
  const ReducedPdnModel nominal_model =
      build_reduced_pdn(spec_, *nominal, config_.model);

  const bool two_stage = is_two_stage(architecture);
  const std::size_t site_count =
      two_stage ? nominal->vr_count_stage1 : nominal->vr_count_stage2;
  const std::vector<TransientScenario> scenarios =
      generate_scenarios(site_count);

  // --- DC operating points, one sweep point per scenario ----------------
  std::vector<SweepPoint> points;
  points.reserve(scenarios.size());
  for (const TransientScenario& sc : scenarios) {
    SweepPoint point = nominal_point;
    point.label = detail::concat(nominal_point.label, "/", sc.label);
    if (sc.kind == TransientKind::kVrDropout) {
      const FaultScenario fault{
          sc.label, {Fault{FaultKind::kVrDropout, sc.site, Length{},
                           Length{}}}};
      point.options.faults = to_injection(fault, FaultSeverity{});
    } else {
      const TransientScenario tile = sc;
      point.options.sink_map = [tile](const GridMesh& mesh, Current total) {
        return hotspot_power_map(mesh, total, tile.tile_x, tile.tile_y,
                                 tile.tile_sigma, tile.tile_background);
      };
    }
    points.push_back(std::move(point));
  }
  const SweepReport dc_report = runner.run(points);

  // --- Transient integrations on the worker pool ------------------------
  TransientFactorCache factor_cache;
  std::vector<TransientScenarioOutcome> outcomes(scenarios.size());
  std::vector<double> wall(scenarios.size(), 0.0);
  const double rail = spec_.die_voltage.value;
  const obs::TraceContext campaign_ctx = campaign_span.context();

  const auto evaluate_scenario = [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    obs::Span span("droop.scenario", campaign_ctx);
    TransientScenarioOutcome& outcome = outcomes[i];
    outcome.scenario = scenarios[i];
    const ExplorationEntry& entry = dc_report.outcomes[i].entry;
    const ArchitectureEvaluation* eval = entry_evaluation(entry);
    if (eval == nullptr) {
      outcome.failure_reason = entry.exclusion_reason;
    } else {
      outcome.extrapolated = eval->used_extrapolation;
      try {
        const TransientScenario& sc = scenarios[i];
        const ScenarioSimulation sim =
            sc.kind == TransientKind::kVrDropout
                ? build_dropout_simulation(spec_, config_, sc,
                                           nominal_model, *eval, site_count)
                : build_load_simulation(spec_, config_, sc, *eval);
        TransientOptions opts;
        opts.t_stop = config_.t_stop;
        opts.dt = config_.dt;
        opts.method = config_.method;
        opts.controller = sim.controller;
        opts.initialize_from_dc = true;
        opts.factor_cache = &factor_cache;
        const TransientResult result = simulate(sim.netlist, opts);
        const Trace v = result.voltage(sim.pol_node);
        outcome.metrics = measure(v, sc, rail, sim.v_predicted,
                                  config_.resilience,
                                  config_.t_stop.value);
        outcome.evaluated = true;
        check_dynamic_limits(outcome, config_.resilience);
        span.set_arg("undershoot", outcome.metrics.undershoot_fraction);
        span.set_arg("samples",
                     static_cast<double>(outcome.metrics.samples));
      } catch (const std::exception& error) {
        outcome.failure_reason = error.what();
        outcome.evaluated = false;
        outcome.violations.clear();
      }
    }
    wall[i] = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  };

  std::size_t threads = sweep_config.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  if (threads == 1 || scenarios.size() <= 1) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) evaluate_scenario(i);
  } else {
    ThreadPool pool(threads);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      pool.submit([&evaluate_scenario, i] { evaluate_scenario(i); });
    }
    pool.wait_idle();
  }

  DroopCampaignReport report;
  report.architecture = architecture;
  report.topology = topology;
  report.tech = tech;
  report.nominal = *nominal;
  report.outcomes = std::move(outcomes);
  report.solver = nominal_report.solver + dc_report.solver;
  report.factors = factor_cache.stats();
  report.scenario_seconds =
      obs::HistogramData(obs::default_latency_bounds());
  for (std::size_t i = 0; i < wall.size(); ++i) {
    report.scenario_seconds.record(wall[i]);
  }
  for (const TransientScenarioOutcome& outcome : report.outcomes) {
    if (outcome.metrics.samples > 0) {
      report.transient_steps += outcome.metrics.samples - 1;
    }
  }
  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            campaign_start)
                            .count();
  return report;
}

}  // namespace vpd
