#include "vpd/thermal/thermal.hpp"

#include <algorithm>
#include <cmath>

#include "vpd/circuit/transient.hpp"
#include "vpd/common/error.hpp"
#include "vpd/common/sparse.hpp"

namespace vpd {

ThermalSolver::ThermalSolver(Length die_side, std::size_t nodes_per_edge,
                             ThermalStack stack)
    : mesh_(die_side, die_side, nodes_per_edge, nodes_per_edge,
            stack.lateral_sheet_k_per_w),
      stack_(stack) {
  VPD_REQUIRE(stack.lateral_sheet_k_per_w > 0.0,
              "lateral thermal sheet must be positive");
  VPD_REQUIRE(stack.theta_to_coolant > 0.0,
              "theta to coolant must be positive");
  const double node_area = die_side.value * die_side.value /
                           static_cast<double>(mesh_.node_count());
  shunt_conductance_ = node_area / stack.theta_to_coolant;
}

Vector ThermalSolver::solve(const Vector& power_per_node) const {
  VPD_REQUIRE(power_per_node.size() == mesh_.node_count(),
              "power map has ", power_per_node.size(), " entries, mesh has ",
              mesh_.node_count(), " nodes");
  TripletList t = mesh_.laplacian();
  Vector rhs(mesh_.node_count());
  for (std::size_t i = 0; i < mesh_.node_count(); ++i) {
    VPD_REQUIRE(power_per_node[i] >= 0.0, "negative heat at node ", i);
    t.add(i, i, shunt_conductance_);
    rhs[i] = power_per_node[i] +
             shunt_conductance_ * stack_.coolant_temperature;
  }
  const CsrMatrix a(t);
  const CgResult cg = solve_cg(a, rhs);
  VPD_CHECK_NUMERIC(cg.converged, "thermal CG did not converge: residual ",
                    cg.residual_norm);
  return cg.x;
}

ThermalSolver::TransientTemperatures ThermalSolver::solve_transient(
    const std::function<Vector(double)>& power_of_t, Seconds t_stop,
    Seconds dt, double heat_capacity_per_area) const {
  VPD_REQUIRE(static_cast<bool>(power_of_t), "null power function");
  // The MNA engine's schedule: sample k at k * dt, and one shortened final
  // step when dt does not divide t_stop, so the record ends on t_stop.
  const StepSchedule schedule = schedule_steps(t_stop.value, dt.value);
  VPD_REQUIRE(heat_capacity_per_area > 0.0,
              "heat capacity must be positive");
  const std::size_t n = mesh_.node_count();
  const double node_area =
      mesh_.width().value * mesh_.height().value / static_cast<double>(n);
  const double c_node = heat_capacity_per_area * node_area;  // J/K

  // System matrix of a step of length h: C/h + G_lateral + G_shunt. Every
  // full step shares one; a shortened final step stamps its own.
  const auto system_matrix = [&](double h) {
    TripletList t = mesh_.laplacian();
    for (std::size_t i = 0; i < n; ++i)
      t.add(i, i, shunt_conductance_ + c_node / h);
    return CsrMatrix(t);
  };
  CsrMatrix a = system_matrix(dt.value);

  TransientTemperatures result;
  result.time_constant = c_node / shunt_conductance_;
  Vector temp(n, stack_.coolant_temperature);
  auto record = [&](double at) {
    result.times.push_back(at);
    result.max_temperature.push_back(max_temperature(temp));
    result.mean_temperature.push_back(mean_temperature(temp));
  };
  record(0.0);
  for (std::size_t step = 1; step <= schedule.steps(); ++step) {
    const double h = schedule.step_size(step);
    const double t_next = schedule.time(step);
    if (h != dt.value) a = system_matrix(h);
    const double g_h = c_node / h;
    Vector power = power_of_t(t_next);
    VPD_REQUIRE(power.size() == n, "power map size mismatch at t=", t_next);
    Vector rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
      VPD_REQUIRE(power[i] >= 0.0, "negative heat at node ", i);
      rhs[i] = power[i] + g_h * temp[i] +
               shunt_conductance_ * stack_.coolant_temperature;
    }
    const CgResult cg = solve_cg(a, rhs);
    VPD_CHECK_NUMERIC(cg.converged, "thermal transient CG failed at t=",
                      t_next);
    temp = cg.x;
    record(t_next);
  }
  result.final_field = std::move(temp);
  return result;
}

double ThermalSolver::max_temperature(const Vector& temperatures) {
  VPD_REQUIRE(!temperatures.empty(), "empty field");
  return *std::max_element(temperatures.begin(), temperatures.end());
}

double ThermalSolver::mean_temperature(const Vector& temperatures) {
  VPD_REQUIRE(!temperatures.empty(), "empty field");
  double s = 0.0;
  for (double t : temperatures) s += t;
  return s / static_cast<double>(temperatures.size());
}

ElectrothermalResult solve_electrothermal(
    const ThermalSolver& solver, const Vector& load_power_per_node,
    std::vector<ThermalVr> vrs, double tolerance,
    unsigned max_iterations) {
  VPD_REQUIRE(!vrs.empty(), "need at least one VR");
  VPD_REQUIRE(tolerance > 0.0, "tolerance must be positive");
  const std::size_t n = solver.mesh().node_count();
  VPD_REQUIRE(load_power_per_node.size() == n, "power map size mismatch");
  double base_total = 0.0;
  for (const ThermalVr& vr : vrs) {
    VPD_REQUIRE(vr.node < n, "VR node ", vr.node, " outside mesh");
    VPD_REQUIRE(vr.base_loss.value >= 0.0, "negative base loss");
    VPD_REQUIRE(vr.conduction_fraction >= 0.0 &&
                    vr.conduction_fraction <= 1.0,
                "conduction fraction outside [0,1]");
    base_total += vr.base_loss.value;
  }

  ElectrothermalResult result;
  Vector temperatures(n, solver.stack().coolant_temperature);
  std::vector<double> vr_losses(vrs.size());
  for (std::size_t k = 0; k < vrs.size(); ++k)
    vr_losses[k] = vrs[k].base_loss.value;

  for (unsigned iter = 0; iter < max_iterations; ++iter) {
    Vector heat = load_power_per_node;
    for (std::size_t k = 0; k < vrs.size(); ++k)
      heat[vrs[k].node] += vr_losses[k];
    Vector next = solver.solve(heat);

    // Update VR losses from their local temperatures.
    for (std::size_t k = 0; k < vrs.size(); ++k) {
      const ThermalVr& vr = vrs[k];
      const double dt = next[vr.node] - vr.reference_temperature;
      const double factor =
          1.0 + vr.conduction_fraction * vr.tempco_per_k * dt;
      vr_losses[k] = vr.base_loss.value * std::max(factor, 0.1);
    }

    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      delta = std::max(delta, std::fabs(next[i] - temperatures[i]));
    temperatures = std::move(next);
    result.iterations = iter + 1;
    if (delta < tolerance) {
      result.converged = true;
      break;
    }
  }

  result.temperatures = std::move(temperatures);
  result.max_temperature =
      ThermalSolver::max_temperature(result.temperatures);
  result.mean_temperature =
      ThermalSolver::mean_temperature(result.temperatures);
  double total = 0.0;
  for (double l : vr_losses) total += l;
  result.total_vr_loss = Power{total};
  result.loss_uplift = base_total > 0.0 ? total / base_total - 1.0 : 0.0;
  return result;
}

}  // namespace vpd
