#include "vpd/thermal/thermal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "vpd/common/error.hpp"
#include "vpd/workload/power_map.hpp"

namespace vpd {
namespace {

using namespace vpd::literals;

ThermalSolver paper_die(std::size_t n = 21) {
  ThermalStack stack;
  stack.lateral_sheet_k_per_w = 9.5;
  stack.theta_to_coolant = 1.5e-5;
  stack.coolant_temperature = 40.0;
  return ThermalSolver(22.36_mm, n, stack);
}

TEST(Thermal, ZeroPowerSitsAtCoolantTemperature) {
  const ThermalSolver solver = paper_die();
  const Vector t = solver.solve(Vector(solver.mesh().node_count(), 0.0));
  for (double temp : t) EXPECT_NEAR(temp, 40.0, 1e-6);
}

TEST(Thermal, UniformPowerGivesUniformRise) {
  // 1 kW over 500 mm^2 = 200 W/cm^2; with theta 0.15 K cm^2/W the rise
  // is 200 * 0.15 = 30 K everywhere (no lateral gradients to drive).
  const ThermalSolver solver = paper_die();
  const Vector heat =
      uniform_power_map(solver.mesh(), Current{1000.0});  // 1000 "W"
  const Vector t = solver.solve(heat);
  for (double temp : t) EXPECT_NEAR(temp, 70.0, 0.01);
}

TEST(Thermal, HotspotPeaksAtItsCenter) {
  const ThermalSolver solver = paper_die();
  const Vector heat = hotspot_power_map(solver.mesh(), Current{1000.0},
                                        0.5, 0.5, 0.12, 0.3);
  const Vector t = solver.solve(heat);
  const std::size_t center = solver.mesh().node(10, 10);
  const std::size_t corner = solver.mesh().node(0, 0);
  EXPECT_GT(t[center], t[corner] + 5.0);
  EXPECT_NEAR(ThermalSolver::max_temperature(t), t[center], 1e-9);
  // Lateral spreading keeps the hotspot below the no-spreading estimate.
  const double no_spreading =
      40.0 + heat[center] / (22.36e-3 * 22.36e-3 /
                             solver.mesh().node_count() / 1.5e-5);
  EXPECT_LT(t[center], no_spreading);
}

TEST(Thermal, LinearityInPower) {
  const ThermalSolver solver = paper_die(11);
  Vector heat(solver.mesh().node_count(), 0.0);
  heat[60] = 50.0;
  const Vector t1 = solver.solve(heat);
  for (double& h : heat) h *= 2.0;
  const Vector t2 = solver.solve(heat);
  // Rise doubles: t2 - 40 = 2 (t1 - 40).
  for (std::size_t i = 0; i < t1.size(); ++i)
    EXPECT_NEAR(t2[i] - 40.0, 2.0 * (t1[i] - 40.0), 1e-6);
}

TEST(Thermal, BetterCoolingLowersTemperature) {
  ThermalStack strong;
  strong.theta_to_coolant = 0.5e-5;
  ThermalStack weak;
  weak.theta_to_coolant = 3e-5;
  const ThermalSolver cold(22.36_mm, 15, strong);
  const ThermalSolver hot(22.36_mm, 15, weak);
  const Vector heat = uniform_power_map(cold.mesh(), Current{1000.0});
  EXPECT_LT(ThermalSolver::max_temperature(cold.solve(heat)),
            ThermalSolver::max_temperature(hot.solve(heat)));
}

TEST(Thermal, Validation) {
  ThermalStack bad;
  bad.theta_to_coolant = 0.0;
  EXPECT_THROW(ThermalSolver(22.36_mm, 11, bad), InvalidArgument);
  const ThermalSolver solver = paper_die(11);
  EXPECT_THROW(solver.solve(Vector(3, 0.0)), InvalidArgument);
  Vector negative(solver.mesh().node_count(), 0.0);
  negative[0] = -1.0;
  EXPECT_THROW(solver.solve(negative), InvalidArgument);
}

TEST(Electrothermal, ConvergesAndUpliftsLoss) {
  const ThermalSolver solver = paper_die();
  const Vector load = uniform_power_map(solver.mesh(), Current{1000.0});
  std::vector<ThermalVr> vrs;
  // 15 below-die VRs at ~9 W base loss each (DPMIH-ish).
  for (std::size_t k = 0; k < 15; ++k) {
    ThermalVr vr;
    vr.node = (k * 29) % solver.mesh().node_count();
    vr.base_loss = Power{9.0};
    vrs.push_back(vr);
  }
  const ElectrothermalResult r = solve_electrothermal(solver, load, vrs);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 1u);
  // Die sits ~30 K above coolant; VR conduction loss rises accordingly.
  EXPECT_GT(r.max_temperature, 70.0);
  EXPECT_LT(r.max_temperature, 135.0);  // VR node is a point source
  EXPECT_GT(r.loss_uplift, 0.05);   // > 5% loss uplift from heating
  EXPECT_LT(r.loss_uplift, 0.30);
  EXPECT_NEAR(r.total_vr_loss.value, 15.0 * 9.0 * (1.0 + r.loss_uplift),
              1e-6);
}

TEST(Electrothermal, ZeroTempcoMeansNoUplift) {
  const ThermalSolver solver = paper_die(11);
  const Vector load = uniform_power_map(solver.mesh(), Current{500.0});
  std::vector<ThermalVr> vrs(4);
  for (std::size_t k = 0; k < 4; ++k) {
    vrs[k].node = k * 25;
    vrs[k].base_loss = Power{5.0};
    vrs[k].tempco_per_k = 0.0;
  }
  const ElectrothermalResult r = solve_electrothermal(solver, load, vrs);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.loss_uplift, 0.0, 1e-12);
}

TEST(Electrothermal, Validation) {
  const ThermalSolver solver = paper_die(11);
  const Vector load(solver.mesh().node_count(), 0.0);
  EXPECT_THROW(solve_electrothermal(solver, load, {}), InvalidArgument);
  std::vector<ThermalVr> bad(1);
  bad[0].node = 99999;
  EXPECT_THROW(solve_electrothermal(solver, load, bad), InvalidArgument);
}


TEST(ThermalTransient, StepResponseApproachesSteadyState) {
  const ThermalSolver solver = paper_die(11);
  const Vector heat = uniform_power_map(solver.mesh(), Current{1000.0});
  const auto r = solver.solve_transient(
      [&](double) { return heat; }, Seconds{0.2}, Seconds{2e-3});
  // Starts at coolant, rises monotonically toward the 70 C steady state.
  EXPECT_NEAR(r.mean_temperature.front(), 40.0, 1e-6);
  for (std::size_t i = 1; i < r.mean_temperature.size(); ++i)
    EXPECT_GE(r.mean_temperature[i], r.mean_temperature[i - 1] - 1e-9);
  EXPECT_NEAR(r.mean_temperature.back(), 70.0, 1.0);
  // After one time constant: ~63% of the rise.
  const double tau = r.time_constant;
  EXPECT_NEAR(tau, 1700.0 * 1.5e-5, 1e-6);
  std::size_t idx = 0;
  while (idx + 1 < r.times.size() && r.times[idx] < tau) ++idx;
  const double rise = (r.mean_temperature[idx] - 40.0) / 30.0;
  EXPECT_NEAR(rise, 0.63, 0.08);
}

TEST(ThermalTransient, BurstPowerIsThermallyFiltered) {
  // 1 ms bursts at 50% duty: the junction never reaches the steady-state
  // temperature of the peak power, and ripples around the average's.
  const ThermalSolver solver = paper_die(11);
  const Vector peak = uniform_power_map(solver.mesh(), Current{2000.0});
  const Vector off(solver.mesh().node_count(), 0.0);
  const auto r = solver.solve_transient(
      [&](double t) {
        const double phase = std::fmod(t, 2e-3);
        return phase < 1e-3 ? peak : off;
      },
      Seconds{0.3}, Seconds{0.25e-3});
  const double t_max =
      *std::max_element(r.max_temperature.begin(), r.max_temperature.end());
  // Steady state of the peak power would be 40 + 60 = 100 C; the average
  // power (1 kW) settles at 70 C. The filtered response stays between.
  EXPECT_LT(t_max, 90.0);
  EXPECT_GT(t_max, 65.0);
}

TEST(ThermalTransient, RecordEndsExactlyOnStopTime) {
  // The MNA engine's end-time contract: samples at k * dt, never
  // accumulated, and a shortened final step that lands on t_stop. An
  // accumulating loop ended these windows at 1.0e-3, 0.99999999999999989
  // and 0.30000000000000004. The ASSERTs stop the test before the last
  // window should an accumulating loop ever come back: it would never end
  // there.
  const ThermalSolver solver = paper_die(11);
  const std::size_t n = solver.mesh().node_count();
  const Vector heat(n, 1000.0 / static_cast<double>(n));
  const auto power = [&](double) { return heat; };
  // A uniform heat map keeps the field uniform, so every node follows the
  // scalar backward-Euler recurrence of its own coolant path, step by step.
  const double node_area = solver.mesh().width().value *
                           solver.mesh().height().value /
                           static_cast<double>(n);
  const double g_shunt = node_area / solver.stack().theta_to_coolant;
  const double c_node = 1700.0 * node_area;

  struct Window {
    double t_stop;
    double dt;
    std::size_t samples;
  };
  for (const Window& w : {Window{1.05e-3, 1e-4, 12}, Window{1.0, 0.1, 11},
                          Window{0.3, 0.1, 4}}) {
    const auto r =
        solver.solve_transient(power, Seconds{w.t_stop}, Seconds{w.dt});
    ASSERT_EQ(r.times.size(), w.samples) << "t_stop " << w.t_stop;
    ASSERT_EQ(r.times.back(), w.t_stop) << "t_stop " << w.t_stop;
    double temperature = solver.stack().coolant_temperature;
    for (std::size_t k = 1; k < r.times.size(); ++k) {
      if (k + 1 < r.times.size()) {
        EXPECT_EQ(r.times[k], static_cast<double>(k) * w.dt)
            << "t_stop " << w.t_stop << " sample " << k;
      }
      // The shortened final step stamps its own C/h: a step of length dt
      // over the remainder would overshoot this recurrence.
      const double g_h = c_node / (r.times[k] - r.times[k - 1]);
      temperature = (heat[0] + g_h * temperature +
                     g_shunt * solver.stack().coolant_temperature) /
                    (g_h + g_shunt);
      EXPECT_NEAR(r.mean_temperature[k], temperature, 1e-8 * temperature)
          << "t_stop " << w.t_stop << " sample " << k;
    }
  }

  // 1e-3 / 1e-300 is 1e297 steps: beyond 2^53 the schedule is refused.
  EXPECT_THROW(
      solver.solve_transient(power, Seconds{1e-3}, Seconds{1e-300}),
      InvalidArgument);
}

TEST(ThermalTransient, Validation) {
  const ThermalSolver solver = paper_die(11);
  const Vector heat(solver.mesh().node_count(), 0.0);
  EXPECT_THROW(solver.solve_transient(nullptr, Seconds{1.0}, Seconds{0.1}),
               InvalidArgument);
  EXPECT_THROW(solver.solve_transient([&](double) { return heat; },
                                      Seconds{0.0}, Seconds{0.1}),
               InvalidArgument);
  EXPECT_THROW(solver.solve_transient([&](double) { return Vector(3); },
                                      Seconds{1.0}, Seconds{0.1}),
               InvalidArgument);
}

}  // namespace
}  // namespace vpd
