#include "vpd/circuit/transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "vpd/circuit/dc_solver.hpp"
#include "vpd/common/error.hpp"

namespace vpd {

const LuFactorization& TransientFactorCache::get(
    const std::string& key, const std::function<Matrix()>& build_matrix) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    return *it->second;
  }
  // Factor under the lock: factorizations are rare (a handful per netlist
  // per campaign) and this guarantees each key is factored exactly once,
  // from a matrix the key determines bit for bit.
  ++stats_.misses;
  it = entries_
           .emplace(key, std::make_unique<LuFactorization>(build_matrix()))
           .first;
  return *it->second;
}

TransientFactorCache::Stats TransientFactorCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t TransientFactorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

TransientResult::TransientResult(const Netlist& netlist,
                                 std::vector<double> times,
                                 std::vector<double> node_voltages,
                                 std::vector<double> element_currents)
    : netlist_(&netlist),
      node_count_(netlist.node_count()),
      element_count_(netlist.element_count()),
      times_(std::move(times)),
      node_voltages_(std::move(node_voltages)),
      element_currents_(std::move(element_currents)) {
  VPD_REQUIRE(node_voltages_.size() == times_.size() * node_count_ &&
                  element_currents_.size() == times_.size() * element_count_,
              "inconsistent sample counts");
}

Trace TransientResult::voltage(NodeId node) const {
  VPD_REQUIRE(node < node_count_, "node id ", node, " out of range");
  std::vector<double> values(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i)
    values[i] = node_voltages_[i * node_count_ + node];
  return Trace("v(" + netlist_->node_name(node) + ")", times_, std::move(values));
}

Trace TransientResult::voltage(const std::string& node_name) const {
  return voltage(netlist_->node(node_name));
}

Trace TransientResult::current(ElementId element) const {
  VPD_REQUIRE(element < element_count_, "element id ", element,
              " out of range");
  std::vector<double> values(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i)
    values[i] = element_currents_[i * element_count_ + element];
  return Trace("i(" + netlist_->element(element).name + ")", times_,
               std::move(values));
}

Trace TransientResult::current(const std::string& element_name) const {
  return current(netlist_->element_id(element_name));
}

Trace TransientResult::power(ElementId element) const {
  VPD_REQUIRE(element < element_count_, "element id ", element,
              " out of range");
  const Element& e = netlist_->element(element);
  std::vector<double> values(times_.size());
  for (std::size_t i = 0; i < times_.size(); ++i) {
    const double* v = &node_voltages_[i * node_count_];
    const double v_ab = v[e.node_a] - v[e.node_b];
    values[i] = v_ab * element_currents_[i * element_count_ + element];
  }
  return Trace("p(" + e.name + ")", times_, std::move(values));
}

Trace TransientResult::power(const std::string& element_name) const {
  return power(netlist_->element_id(element_name));
}

Energy TransientResult::energy(const std::string& element_name) const {
  const Trace p = power(element_name);
  if (p.sample_count() < 2) return Energy{0.0};
  const double span = p.times().back() - p.times().front();
  return Energy{p.average() * span};
}

Power TransientResult::average_power(const std::string& element_name,
                                     Seconds window) const {
  const Trace p = power(element_name).tail(window.value);
  return Power{p.average()};
}

namespace {

struct ReactiveState {
  // Indexed by ElementId; only meaningful for the matching element kind.
  Vector cap_voltage;     // v_ab across each capacitor
  Vector cap_current;     // i_ab through each capacitor
  Vector ind_current;     // i_ab through each inductor
  Vector ind_voltage;     // v_ab across each inductor
};

/// MNA rows of one element, resolved once before stepping.
struct ElementRows {
  std::size_t a{MnaLayout::kNoRow};       // node_a's row; kNoRow for ground
  std::size_t b{MnaLayout::kNoRow};       // node_b's row; kNoRow for ground
  std::size_t branch{MnaLayout::kNoRow};  // V source / inductor branch row
  std::size_t switch_index{0};            // switches only: SwitchStates slot
};

/// Step counts from 2^53 on are refused: beyond it neither the count nor
/// the sample times step * dt are exact doubles.
constexpr double kStepCountLimit = 9007199254740992.0;  // 2^53

/// samples * per_sample doubles, refused when the product would wrap.
std::size_t record_size(std::size_t samples, std::size_t per_sample) {
  VPD_REQUIRE(per_sample == 0 ||
                  samples <= std::numeric_limits<std::size_t>::max() /
                                 per_sample,
              "a record of ", samples, " samples of ", per_sample,
              " values overflows size_t");
  return samples * per_sample;
}

/// Appends the bit pattern of a double to a cache key (exact match, no
/// formatting round-trip).
void append_bits(std::string& key, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 0; shift < 64; shift += 8) {
    key.push_back(static_cast<char>((bits >> shift) & 0xff));
  }
}

/// Everything matrix-relevant about the netlist itself: element kinds,
/// terminals and values (sources excluded — they only enter the RHS) plus
/// gmin. Shared-cache keys prefix this so distinct netlists never alias.
std::string netlist_matrix_key(const Netlist& netlist, double gmin) {
  std::string key;
  key.reserve(netlist.element_count() * 24 + 16);
  append_bits(key, static_cast<double>(netlist.node_count()));
  append_bits(key, gmin);
  for (const Element& e : netlist.elements()) {
    key.push_back(static_cast<char>(e.kind));
    append_bits(key, static_cast<double>(e.node_a));
    append_bits(key, static_cast<double>(e.node_b));
    switch (e.kind) {
      case ElementKind::kResistor:
      case ElementKind::kCapacitor:
      case ElementKind::kInductor:
        append_bits(key, e.value);
        break;
      case ElementKind::kSwitch:
        append_bits(key, e.r_on);
        append_bits(key, e.r_off);
        break;
      case ElementKind::kVoltageSource:
      case ElementKind::kCurrentSource:
        break;
    }
  }
  return key;
}

}  // namespace

StepSchedule schedule_steps(double t_stop, double dt) {
  VPD_REQUIRE(t_stop > 0.0, "t_stop must be positive, got ", t_stop);
  VPD_REQUIRE(dt > 0.0 && dt < t_stop, "dt must be in (0, t_stop), got ", dt);
  // Checked before the cast: converting a quotient that size_t cannot
  // hold (or an infinite one) is undefined behaviour.
  const double full = std::floor(t_stop / dt);
  VPD_REQUIRE(full < kStepCountLimit, "t_stop / dt = ", t_stop / dt,
              " steps; the step count must stay below 2^53");
  StepSchedule schedule;
  schedule.t_stop = t_stop;
  schedule.dt = dt;
  schedule.full_steps = static_cast<std::size_t>(full);
  schedule.remainder =
      t_stop - static_cast<double>(schedule.full_steps) * dt;
  if (schedule.remainder <= 1e-9 * dt) {
    // dt divides t_stop (up to FP slop): no partial step.
    schedule.remainder = 0.0;
  } else if (schedule.remainder >= (1.0 - 1e-9) * dt) {
    // floor() landed one full step short of an exact multiple.
    ++schedule.full_steps;
    schedule.remainder = 0.0;
  }
  VPD_REQUIRE(static_cast<double>(schedule.steps()) < kStepCountLimit,
              "t_stop / dt = ", t_stop / dt,
              " steps; the step count must stay below 2^53");
  return schedule;
}

std::size_t transient_step_count(Seconds t_stop, Seconds dt) {
  return schedule_steps(t_stop.value, dt.value).steps();
}

TransientResult simulate(const Netlist& netlist,
                         const TransientOptions& options) {
  // Step times are multiples of dt (never accumulated), so long runs do
  // not drift.
  const StepSchedule schedule =
      schedule_steps(options.t_stop.value, options.dt.value);
  const std::size_t n_steps = schedule.steps();

  const MnaLayout layout(netlist);
  const std::vector<Element>& elements = netlist.elements();
  const std::size_t n_nodes = netlist.node_count();
  const std::size_t n_elements = elements.size();

  std::vector<ElementRows> rows(n_elements);
  {
    std::size_t next_switch = 0;
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      rows[i].a = layout.node_row(e.node_a);
      rows[i].b = layout.node_row(e.node_b);
      if (layout.has_branch(i)) rows[i].branch = layout.branch_row(i);
      if (e.kind == ElementKind::kSwitch) rows[i].switch_index = next_switch++;
    }
  }

  SwitchStates states = initial_switch_states(netlist);

  // --- Initial conditions ---------------------------------------------------
  Vector v_nodes(n_nodes, 0.0);
  ReactiveState rs;
  rs.cap_voltage.assign(n_elements, 0.0);
  rs.cap_current.assign(n_elements, 0.0);
  rs.ind_current.assign(n_elements, 0.0);
  rs.ind_voltage.assign(n_elements, 0.0);

  if (options.initialize_from_dc) {
    DcOptions dc;
    dc.gmin = std::max(options.gmin, 1e-12);
    dc.switch_states = states;
    const DcSolution op = solve_dc(netlist, dc);
    for (NodeId n = 0; n < n_nodes; ++n) v_nodes[n] = op.voltage(n).value;
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      if (e.kind == ElementKind::kCapacitor)
        rs.cap_voltage[i] = v_nodes[e.node_a] - v_nodes[e.node_b];
      if (e.kind == ElementKind::kInductor) {
        rs.ind_current[i] = op.current(i).value;
        rs.ind_voltage[i] = 0.0;
      }
    }
  } else {
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      if (e.kind == ElementKind::kCapacitor) rs.cap_voltage[i] = e.initial;
      if (e.kind == ElementKind::kInductor) rs.ind_current[i] = e.initial;
    }
    // Consistent t = 0 node voltages: solve the network with capacitors
    // replaced by voltage sources at their initial voltage and inductors by
    // current sources at their initial current.
    Netlist snapshot;
    for (NodeId n = 1; n < n_nodes; ++n)
      snapshot.add_node(netlist.node_name(n));
    for (const Element& e : elements) {
      switch (e.kind) {
        case ElementKind::kCapacitor:
          snapshot.add_vsource(e.name, e.node_a, e.node_b,
                               Voltage{e.initial});
          break;
        case ElementKind::kInductor:
          snapshot.add_isource(e.name, e.node_a, e.node_b,
                               Current{e.initial});
          break;
        case ElementKind::kResistor:
          snapshot.add_resistor(e.name, e.node_a, e.node_b,
                                Resistance{e.value});
          break;
        case ElementKind::kSwitch:
          snapshot.add_switch(e.name, e.node_a, e.node_b,
                              Resistance{e.r_on}, Resistance{e.r_off},
                              e.initially_closed);
          break;
        case ElementKind::kVoltageSource:
          snapshot.add_vsource(e.name, e.node_a, e.node_b, e.source);
          break;
        case ElementKind::kCurrentSource:
          snapshot.add_isource(e.name, e.node_a, e.node_b, e.source);
          break;
      }
    }
    DcOptions dc;
    dc.gmin = std::max(options.gmin, 1e-12);
    const DcSolution t0 = solve_dc(snapshot, dc);
    for (NodeId n = 0; n < n_nodes; ++n) v_nodes[n] = t0.voltage(n).value;
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      // Inrush current through each capacitor (its substitute V source)
      // and initial voltage across each inductor seed the trapezoidal
      // history with consistent values.
      if (e.kind == ElementKind::kCapacitor)
        rs.cap_current[i] = t0.current(e.name).value;
      if (e.kind == ElementKind::kInductor)
        rs.ind_voltage[i] = v_nodes[e.node_a] - v_nodes[e.node_b];
    }
  }

  // --- Recording -------------------------------------------------------------
  // Flat and sample-major (see TransientResult), reserved up front, so
  // recording a step appends without allocating.
  const std::size_t n_samples = n_steps + 1;
  std::vector<double> times;
  std::vector<double> node_voltages;
  std::vector<double> element_currents;
  times.reserve(n_samples);
  node_voltages.reserve(record_size(n_samples, n_nodes));
  element_currents.reserve(record_size(n_samples, n_elements));

  // The t = 0 sample: currents come from the initialization solve so the
  // energy bookkeeping starts consistent (source inrush currents included).
  {
    Vector currents0(n_elements, 0.0);
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      switch (e.kind) {
        case ElementKind::kCapacitor:
          currents0[i] = rs.cap_current[i];
          break;
        case ElementKind::kInductor:
          currents0[i] = rs.ind_current[i];
          break;
        case ElementKind::kCurrentSource:
          currents0[i] = e.source(0.0);
          break;
        default: {
          // Resistive elements follow from the initial node voltages;
          // V-source currents are filled in by KCL below.
          const double v_ab = v_nodes[e.node_a] - v_nodes[e.node_b];
          if (e.kind == ElementKind::kResistor) currents0[i] = v_ab / e.value;
          if (e.kind == ElementKind::kSwitch) {
            currents0[i] = v_ab / switch_resistance(
                                      e, states[rows[i].switch_index]);
          }
          break;
        }
      }
    }
    // V-source currents at t = 0 from KCL: the branch current equals the
    // negated sum of all other element currents leaving the source's + node.
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      if (e.kind != ElementKind::kVoltageSource) continue;
      double leaving = 0.0;
      for (std::size_t j = 0; j < n_elements; ++j) {
        if (j == i) continue;
        const Element& other = elements[j];
        if (other.node_a == e.node_a) leaving += currents0[j];
        if (other.node_b == e.node_a) leaving -= currents0[j];
      }
      currents0[i] = -leaving;
    }
    times.push_back(0.0);
    node_voltages.insert(node_voltages.end(), v_nodes.begin(), v_nodes.end());
    element_currents.insert(element_currents.end(), currents0.begin(),
                            currents0.end());
  }

  // --- LU factorizations keyed by (step size, method, switch states) --------
  // The MNA matrix depends only on (topology, h, method, switch states);
  // sources and history enter through the RHS. PWM simulations revisit a
  // handful of patterns thousands of times. With a shared factor_cache the
  // reuse extends across simulate() calls: the key is prefixed with the
  // netlist's matrix-relevant content, so distinct netlists never alias.
  std::map<std::string, const LuFactorization*> lu_cache;
  std::vector<std::unique_ptr<LuFactorization>> owned_factors;
  const std::string base_key = options.factor_cache != nullptr
                                   ? netlist_matrix_key(netlist, options.gmin)
                                   : std::string();

  auto build_matrix = [&](IntegrationMethod method, double h,
                          const SwitchStates& sw) -> Matrix {
    MnaStamper stamper(layout);
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      switch (e.kind) {
        case ElementKind::kResistor:
          stamper.stamp_conductance(e.node_a, e.node_b, 1.0 / e.value);
          break;
        case ElementKind::kSwitch:
          stamper.stamp_conductance(
              e.node_a, e.node_b,
              1.0 / switch_resistance(e, sw[rows[i].switch_index]));
          break;
        case ElementKind::kCapacitor: {
          const double g = (method == IntegrationMethod::kBackwardEuler
                                ? e.value / h
                                : 2.0 * e.value / h);
          stamper.stamp_conductance(e.node_a, e.node_b, g);
          break;
        }
        case ElementKind::kInductor: {
          const double r_eq = (method == IntegrationMethod::kBackwardEuler
                                   ? e.value / h
                                   : 2.0 * e.value / h);
          stamper.stamp_inductor_branch(rows[i].branch, e.node_a, e.node_b,
                                        r_eq, 0.0);
          break;
        }
        case ElementKind::kVoltageSource:
          stamper.stamp_voltage_source(rows[i].branch, e.node_a, e.node_b,
                                       0.0);
          break;
        case ElementKind::kCurrentSource:
          break;
      }
    }
    stamper.stamp_gmin(options.gmin);
    return stamper.matrix();
  };

  // Each distinct key reaches the per-simulation map once per change of
  // pattern and the shared cache once per simulation.
  auto factorization_for = [&](IntegrationMethod method, double h,
                               const SwitchStates& sw)
      -> const LuFactorization& {
    std::string key;
    key.reserve(base_key.size() + sw.size() + 10);
    key = base_key;
    key.push_back(method == IntegrationMethod::kBackwardEuler ? 'b' : 't');
    append_bits(key, h);
    for (bool s : sw) key.push_back(s ? '1' : '0');
    auto it = lu_cache.find(key);
    if (it != lu_cache.end()) return *it->second;
    const LuFactorization* factors = nullptr;
    if (options.factor_cache != nullptr) {
      factors = &options.factor_cache->get(
          key, [&] { return build_matrix(method, h, sw); });
    } else {
      owned_factors.push_back(
          std::make_unique<LuFactorization>(build_matrix(method, h, sw)));
      factors = owned_factors.back().get();
    }
    lu_cache.emplace(std::move(key), factors);
    return *factors;
  };

  // --- Step loop --------------------------------------------------------------
  // Allocation-free: the RHS, the solution and the node voltages live in
  // vectors reused every step, the record was reserved above, and the
  // factorization is looked up only when (method, h, switch states)
  // differ from the previous step's.
  Vector rhs(layout.unknown_count());
  Vector x(layout.unknown_count());
  Vector v_new(n_nodes, 0.0);  // v_new[kGround] stays 0
  const LuFactorization* factors = nullptr;
  IntegrationMethod factored_method = IntegrationMethod::kBackwardEuler;
  double factored_h = 0.0;
  SwitchStates factored_states;

  // Current `value` injected into row `to` and drawn from row `from`
  // (MnaStamper::stamp_current_injection on resolved rows).
  const auto inject = [&rhs](std::size_t from, std::size_t to, double value) {
    if (from != MnaLayout::kNoRow) rhs[from] -= value;
    if (to != MnaLayout::kNoRow) rhs[to] += value;
  };

  for (std::size_t step = 1; step <= n_steps; ++step) {
    const double h = schedule.step_size(step);
    const double t_next = schedule.time(step);
    // First step uses backward Euler: trapezoidal needs consistent initial
    // element currents, which the ICs do not provide.
    const IntegrationMethod method =
        step == 1 ? IntegrationMethod::kBackwardEuler : options.method;
    const bool euler = method == IntegrationMethod::kBackwardEuler;

    if (options.controller) options.controller(t_next, states);

    if (factors == nullptr || method != factored_method || h != factored_h ||
        states != factored_states) {
      factors = &factorization_for(method, h, states);
      factored_method = method;
      factored_h = h;
      factored_states = states;
    }

    // RHS for this step: the companion-model history and the sources.
    std::fill(rhs.begin(), rhs.end(), 0.0);
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      const ElementRows& r = rows[i];
      switch (e.kind) {
        case ElementKind::kCapacitor:
          if (euler) {
            inject(r.b, r.a, (e.value / h) * rs.cap_voltage[i]);
          } else {
            inject(r.b, r.a,
                   (2.0 * e.value / h) * rs.cap_voltage[i] + rs.cap_current[i]);
          }
          break;
        case ElementKind::kInductor:
          if (euler) {
            rhs[r.branch] = -(e.value / h) * rs.ind_current[i];
          } else {
            rhs[r.branch] =
                -(2.0 * e.value / h) * rs.ind_current[i] - rs.ind_voltage[i];
          }
          break;
        case ElementKind::kVoltageSource:
          rhs[r.branch] = e.source(t_next);
          break;
        case ElementKind::kCurrentSource:
          inject(r.a, r.b, e.source(t_next));
          break;
        default:
          break;
      }
    }

    factors->solve_into(rhs, x);
    // Node n's row is n - 1 (ground has none).
    std::copy(x.begin(), x.begin() + static_cast<long>(layout.node_unknowns()),
              v_new.begin() + 1);

    // Update reactive histories.
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      if (e.kind == ElementKind::kCapacitor) {
        const double v_ab = v_new[e.node_a] - v_new[e.node_b];
        if (euler) {
          rs.cap_current[i] = (e.value / h) * (v_ab - rs.cap_voltage[i]);
        } else {
          rs.cap_current[i] =
              (2.0 * e.value / h) * (v_ab - rs.cap_voltage[i]) -
              rs.cap_current[i];
        }
        rs.cap_voltage[i] = v_ab;
      } else if (e.kind == ElementKind::kInductor) {
        rs.ind_current[i] = x[rows[i].branch];
        rs.ind_voltage[i] = v_new[e.node_a] - v_new[e.node_b];
      }
    }

    if (options.observer) options.observer(t_next, v_new);

    times.push_back(t_next);
    node_voltages.insert(node_voltages.end(), v_new.begin(), v_new.end());
    for (std::size_t i = 0; i < n_elements; ++i) {
      const Element& e = elements[i];
      double current = 0.0;
      switch (e.kind) {
        case ElementKind::kResistor:
          current = (v_new[e.node_a] - v_new[e.node_b]) / e.value;
          break;
        case ElementKind::kSwitch:
          current = (v_new[e.node_a] - v_new[e.node_b]) /
                    switch_resistance(e, states[rows[i].switch_index]);
          break;
        case ElementKind::kCapacitor:
          current = rs.cap_current[i];
          break;
        case ElementKind::kInductor:
          current = rs.ind_current[i];
          break;
        case ElementKind::kVoltageSource:
          current = x[rows[i].branch];
          break;
        case ElementKind::kCurrentSource:
          current = e.source(t_next);
          break;
      }
      element_currents.push_back(current);
    }
  }

  return TransientResult(netlist, std::move(times), std::move(node_voltages),
                         std::move(element_currents));
}

std::vector<double> cycle_averages(const Trace& trace, double period) {
  VPD_REQUIRE(period > 0.0, "period must be positive");
  const double t0 = trace.times().front();
  const double t_end = trace.times().back();
  // Each window is anchored at t0 + i * period (never accumulated with
  // repeated += period, which drifts by an ulp per cycle and loses or
  // gains windows over thousands of MHz-burst cycles). The tolerance is
  // relative to the period, not absolute, for the same reason.
  const double tol = 1e-9 * period;
  std::vector<double> averages;
  for (std::size_t i = 0;; ++i) {
    const double start = t0 + static_cast<double>(i) * period;
    const double end = start + period;
    if (end > t_end + tol) break;
    const double clamped_end = std::min(end, t_end);
    VPD_REQUIRE(start >= t0 && start < clamped_end,
                "cycle window [", start, ", ", clamped_end,
                ") escaped the trace span [", t0, ", ", t_end, "]");
    averages.push_back(trace.average(start, clamped_end));
  }
  return averages;
}

std::optional<std::size_t> first_steady_cycle(const Trace& trace,
                                              double period, double tol) {
  const std::vector<double> averages = cycle_averages(trace, period);
  for (std::size_t i = 0; i + 1 < averages.size(); ++i)
    if (std::fabs(averages[i + 1] - averages[i]) < tol) return i;
  return std::nullopt;
}

}  // namespace vpd
