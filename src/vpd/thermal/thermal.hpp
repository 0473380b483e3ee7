// Steady-state thermal analysis of the die/interposer stack, and the
// electrothermal coupling loop. High power density is the flip side of
// the paper's 2 A/mm^2 target: converting a kilowatt under the die adds
// the VR losses to the die's own heat flux, and conduction losses rise
// with temperature (Rds_on tempco), closing a feedback loop.
//
// Model: the familiar electrical-thermal analogy on the same 2-D grid the
// IR-drop solver uses — lateral spreading through the silicon/interposer
// (a thermal sheet resistance per square) and a per-node path to the
// coolant (an area-specific theta). Solved with the SPD CG solver.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "vpd/common/matrix.hpp"
#include "vpd/common/units.hpp"
#include "vpd/package/mesh.hpp"

namespace vpd {

struct ThermalStack {
  /// Lateral spreading: thermal resistance per square of the die +
  /// interposer conductive stack [K/W]. Silicon k ~ 150 W/(m K) at
  /// ~0.7 mm effective thickness gives ~9.5 K/W per square.
  double lateral_sheet_k_per_w{9.5};
  /// Area-specific junction-to-coolant resistance [K m^2 / W]. A
  /// cold-plate class solution at ~0.15 K cm^2/W is 1.5e-5.
  double theta_to_coolant{1.5e-5};
  /// Coolant / ambient temperature [deg C].
  double coolant_temperature{40.0};
};

class ThermalSolver {
 public:
  ThermalSolver(Length die_side, std::size_t nodes_per_edge,
                ThermalStack stack);

  const GridMesh& mesh() const { return mesh_; }
  const ThermalStack& stack() const { return stack_; }

  /// Node temperatures [deg C] for a per-node heat input [W]
  /// (size = mesh().node_count()).
  Vector solve(const Vector& power_per_node) const;

  /// Transient temperature response to a time-varying heat map, backward
  /// Euler on C dT/dt = P(t) - G T. `heat_capacity_per_area` is the
  /// stack's areal heat capacity [J/(K m^2)] (silicon + lid,
  /// ~1.7e6 J/(K m^3) x effective thickness). Starts at the coolant
  /// temperature. Steps on the MNA engine's schedule (schedule_steps in
  /// circuit/transient.hpp): samples at 0, dt, 2 dt, ..., and a shortened
  /// final step when dt does not divide t_stop, so the last sample lands
  /// exactly on t_stop. Throws InvalidArgument unless 0 < dt < t_stop and
  /// the step count is below 2^53.
  struct TransientTemperatures {
    std::vector<double> times;
    std::vector<double> max_temperature;   // per sample
    std::vector<double> mean_temperature;  // per sample
    Vector final_field;
    /// Thermal time constant of the coolant path [s]: C / G.
    double time_constant{0.0};
  };
  TransientTemperatures solve_transient(
      const std::function<Vector(double)>& power_of_t, Seconds t_stop,
      Seconds dt, double heat_capacity_per_area = 1700.0) const;

  /// Convenience: max/mean of a temperature field.
  static double max_temperature(const Vector& temperatures);
  static double mean_temperature(const Vector& temperatures);

 private:
  GridMesh mesh_;
  ThermalStack stack_;
  double shunt_conductance_;  // per node, to coolant [W/K]
};

/// A heat-dissipating VR attached at a mesh node whose conduction loss
/// rises with its local temperature.
struct ThermalVr {
  std::size_t node{0};
  Power base_loss{};            // loss at the reference temperature
  double conduction_fraction{0.65};  // share of loss that carries tempco
  double tempco_per_k{0.004};   // Rds_on tempco (Si ~0.4%/K, GaN ~0.6%/K)
  double reference_temperature{25.0};
};

struct ElectrothermalResult {
  Vector temperatures;        // final converged field [deg C]
  double max_temperature{0.0};
  double mean_temperature{0.0};
  Power total_vr_loss{};      // after thermal uplift
  double loss_uplift{0.0};    // total_vr_loss / sum(base_loss) - 1
  unsigned iterations{0};
  bool converged{false};
};

/// Fixed-point electrothermal iteration: VR losses heat the die, the
/// temperature raises the conduction share of each VR's loss, repeat
/// until the temperature field moves less than `tolerance` [K].
ElectrothermalResult solve_electrothermal(
    const ThermalSolver& solver, const Vector& load_power_per_node,
    std::vector<ThermalVr> vrs, double tolerance = 0.01,
    unsigned max_iterations = 50);

}  // namespace vpd
