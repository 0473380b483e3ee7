#include "vpd/circuit/transient.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "vpd/circuit/pwm.hpp"
#include "vpd/common/error.hpp"

namespace vpd {
namespace {

using namespace vpd::literals;

TEST(Transient, OptionsValidation) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add_vsource("V1", a, kGround, 1.0_V);
  nl.add_resistor("R1", a, kGround, 1.0_Ohm);
  TransientOptions opts;
  opts.t_stop = Seconds{0.0};
  opts.dt = Seconds{1e-3};
  EXPECT_THROW(simulate(nl, opts), InvalidArgument);
  opts.t_stop = Seconds{1.0};
  opts.dt = Seconds{2.0};
  EXPECT_THROW(simulate(nl, opts), InvalidArgument);
}

TEST(Transient, RejectsUnrepresentableStepCount) {
  // Regression: floor(t_stop / dt) was cast to size_t unchecked, and
  // 1e-3 / 1e-300 = 1e297 steps has no size_t value (undefined behaviour;
  // x86-64 builds returned a 2-sample record claiming to reach t_stop).
  Netlist nl;
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", out, kGround, 1.0_V);
  nl.add_resistor("R1", out, kGround, 1.0_Ohm);
  TransientOptions opts;
  opts.t_stop = Seconds{1e-3};
  opts.dt = Seconds{1e-300};
  EXPECT_THROW(simulate(nl, opts), InvalidArgument);
  opts.t_stop = Seconds{1e300};  // the quotient overflows to infinity
  opts.dt = Seconds{1e-300};
  EXPECT_THROW(simulate(nl, opts), InvalidArgument);

  // The bound is 2^53 steps: from there on neither the count nor the
  // sample times step * dt are exact doubles.
  const double limit = 9007199254740992.0;  // 2^53
  EXPECT_EQ(transient_step_count(Seconds{limit - 1.0}, Seconds{1.0}),
            (std::size_t{1} << 53) - 1);
  EXPECT_THROW(transient_step_count(Seconds{limit}, Seconds{1.0}),
               InvalidArgument);
  EXPECT_EQ(transient_step_count(Seconds{1.05e-3}, Seconds{1e-4}), 11u);
}

TEST(Transient, RcChargeMatchesAnalytic) {
  // 1 V step into R = 1k, C = 1uF; tau = 1 ms.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", in, kGround, 1.0_V);
  nl.add_resistor("R1", in, out, Resistance{1000.0});
  nl.add_capacitor("C1", out, kGround, 1.0_uF);

  TransientOptions opts;
  opts.t_stop = Seconds{5e-3};
  opts.dt = Seconds{1e-6};
  opts.method = IntegrationMethod::kTrapezoidal;
  const TransientResult r = simulate(nl, opts);
  const Trace v = r.voltage("out");
  const double tau = 1e-3;
  for (double t : {0.5e-3, 1e-3, 2e-3, 4e-3}) {
    const double expected = 1.0 - std::exp(-t / tau);
    EXPECT_NEAR(v.at(t), expected, 2e-4) << "t=" << t;
  }
}

TEST(Transient, BackwardEulerAlsoConverges) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", in, kGround, 1.0_V);
  nl.add_resistor("R1", in, out, Resistance{1000.0});
  nl.add_capacitor("C1", out, kGround, 1.0_uF);
  TransientOptions opts;
  opts.t_stop = Seconds{3e-3};
  opts.dt = Seconds{5e-7};
  opts.method = IntegrationMethod::kBackwardEuler;
  const TransientResult r = simulate(nl, opts);
  EXPECT_NEAR(r.voltage("out").at(1e-3), 1.0 - std::exp(-1.0), 2e-3);
}

TEST(Transient, CapacitorInitialConditionHonored) {
  // C charged to 2 V discharging through R.
  Netlist nl;
  const NodeId out = nl.add_node("out");
  nl.add_capacitor("C1", out, kGround, 1.0_uF, 2.0_V);
  nl.add_resistor("R1", out, kGround, Resistance{1000.0});
  TransientOptions opts;
  opts.t_stop = Seconds{3e-3};
  opts.dt = Seconds{1e-6};
  const TransientResult r = simulate(nl, opts);
  const Trace v = r.voltage("out");
  EXPECT_NEAR(v.at(0.0), 2.0, 1e-6);
  EXPECT_NEAR(v.at(1e-3), 2.0 * std::exp(-1.0), 2e-3);
}

TEST(Transient, RlCurrentRiseMatchesAnalytic) {
  // 1 V into L = 1 mH + R = 1 Ohm: tau = 1 ms, i_final = 1 A.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  nl.add_vsource("V1", in, kGround, 1.0_V);
  nl.add_inductor("L1", in, mid, Inductance{1e-3});
  nl.add_resistor("R1", mid, kGround, 1.0_Ohm);
  TransientOptions opts;
  opts.t_stop = Seconds{5e-3};
  opts.dt = Seconds{1e-6};
  const TransientResult r = simulate(nl, opts);
  const Trace i = r.current("L1");
  for (double t : {1e-3, 2e-3, 4e-3}) {
    EXPECT_NEAR(i.at(t), 1.0 - std::exp(-t / 1e-3), 2e-4) << "t=" << t;
  }
}

TEST(Transient, InductorInitialConditionHonored) {
  Netlist nl;
  const NodeId out = nl.add_node("out");
  nl.add_inductor("L1", out, kGround, Inductance{1e-3}, Current{2.0});
  nl.add_resistor("R1", out, kGround, 1.0_Ohm);
  TransientOptions opts;
  opts.t_stop = Seconds{2e-3};
  opts.dt = Seconds{1e-6};
  const TransientResult r = simulate(nl, opts);
  EXPECT_NEAR(r.current("L1").at(0.0), 2.0, 1e-9);
  // L discharges through R... the loop current decays with tau = L/R = 1ms.
  EXPECT_NEAR(std::fabs(r.current("L1").at(1e-3)), 2.0 * std::exp(-1.0),
              5e-3);
}

TEST(Transient, LcOscillatorPeriodAndEnergy) {
  // C = 1 uF charged to 1 V ringing into L = 1 mH.
  // f = 1/(2 pi sqrt(LC)) ~ 5.03 kHz; trapezoidal preserves amplitude.
  Netlist nl;
  const NodeId out = nl.add_node("out");
  nl.add_capacitor("C1", out, kGround, 1.0_uF, 1.0_V);
  nl.add_inductor("L1", out, kGround, Inductance{1e-3});
  TransientOptions opts;
  opts.t_stop = Seconds{1e-3};
  opts.dt = Seconds{2e-7};
  opts.method = IntegrationMethod::kTrapezoidal;
  const TransientResult r = simulate(nl, opts);
  const Trace v = r.voltage("out");
  const double period = 2.0 * M_PI * std::sqrt(1e-3 * 1e-6);
  // After one full period the capacitor voltage returns to ~1 V.
  EXPECT_NEAR(v.at(period), 1.0, 0.01);
  // Amplitude preserved after 4 periods (no numerical damping for trap).
  EXPECT_NEAR(v.at(4.0 * period), 1.0, 0.02);
  // Backward Euler, by contrast, damps the oscillation measurably: the
  // amplitude over the last period is visibly below 1 and below trap's.
  opts.method = IntegrationMethod::kBackwardEuler;
  const TransientResult rbe = simulate(nl, opts);
  const double amp_be = rbe.voltage("out").tail(period).max();
  const double amp_trap = v.tail(period).max();
  EXPECT_LT(amp_be, 0.97);
  EXPECT_LT(amp_be, amp_trap - 0.02);
}

TEST(Transient, EnergyConservationAudit) {
  // Source energy = resistor dissipation + capacitor stored energy.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", in, kGround, 1.0_V);
  nl.add_resistor("R1", in, out, Resistance{100.0});
  nl.add_capacitor("C1", out, kGround, 1.0_uF);
  TransientOptions opts;
  opts.t_stop = Seconds{2e-3};
  opts.dt = Seconds{5e-7};
  const TransientResult r = simulate(nl, opts);
  const double e_source = -r.energy("V1").value;  // delivered
  const double e_r = r.energy("R1").value;
  const double e_c = r.energy("C1").value;
  EXPECT_GT(e_source, 0.0);
  EXPECT_NEAR(e_source, e_r + e_c, 1e-3 * e_source);
  // Stored energy approaches C V^2 / 2.
  const double v_end = r.voltage("out").back();
  EXPECT_NEAR(e_c, 0.5 * 1e-6 * v_end * v_end, 2e-9);
}

TEST(Transient, InitializeFromDcStartsSettled) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", in, kGround, 2.0_V);
  nl.add_resistor("R1", in, out, Resistance{100.0});
  nl.add_capacitor("C1", out, kGround, 1.0_uF);
  TransientOptions opts;
  opts.t_stop = Seconds{1e-3};
  opts.dt = Seconds{1e-6};
  opts.initialize_from_dc = true;
  const TransientResult r = simulate(nl, opts);
  const Trace v = r.voltage("out");
  EXPECT_NEAR(v.at(0.0), 2.0, 1e-3);
  EXPECT_NEAR(v.peak_to_peak(), 0.0, 1e-3);  // already at equilibrium
}

TEST(Transient, SwitchControllerTogglesCircuit) {
  // Switch connects a source to an RC at t >= 0.5 ms.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", in, kGround, 1.0_V);
  nl.add_switch("S1", in, out, Resistance{1e-3}, Resistance{1e9}, false);
  nl.add_resistor("R1", out, kGround, Resistance{100.0});
  TransientOptions opts;
  opts.t_stop = Seconds{1e-3};
  opts.dt = Seconds{1e-6};
  opts.controller = [](double t, SwitchStates& s) { s[0] = t >= 0.5e-3; };
  const TransientResult r = simulate(nl, opts);
  const Trace v = r.voltage("out");
  EXPECT_LT(v.at(0.4e-3), 1e-3);
  EXPECT_NEAR(v.at(0.9e-3), 1.0, 1e-3);
}

TEST(Transient, SynchronousBuckRegulatesToDutyRatio) {
  // Ideal synchronous buck: Vin = 12 V, duty 0.5, L = 10 uH, C = 100 uF,
  // load 1 Ohm, f = 500 kHz. Steady-state Vout ~ 6 V (minus switch drops).
  Netlist nl;
  const NodeId vin = nl.add_node("vin");
  const NodeId sw = nl.add_node("sw");
  const NodeId out = nl.add_node("out");
  nl.add_vsource("Vin", vin, kGround, 12.0_V);
  nl.add_switch("S_hi", vin, sw, Resistance{1e-3}, Resistance{1e8});
  nl.add_switch("S_lo", sw, kGround, Resistance{1e-3}, Resistance{1e8});
  // Start at the analytic steady state (v = 6 V, i_L = i_load = 6 A); the
  // output LC is underdamped with ~800 us settling, far longer than the
  // simulated span, so a cold start would still be ringing.
  nl.add_inductor("L1", sw, out, 10.0_uH, Current{6.0});
  nl.add_capacitor("Cout", out, kGround, 100.0_uF, 6.0_V);
  nl.add_resistor("Rload", out, kGround, 1.0_Ohm);

  // Exact complementary drive (no dead time): the switch model has no body
  // diode, so a both-off interval would leave the inductor without a
  // freewheel path.
  GateDrive drive(nl);
  const PwmSignal pwm(500.0_kHz, 0.5);
  drive.assign_pair("S_hi", "S_lo", pwm, 0.0_ns);

  TransientOptions opts;
  opts.t_stop = Seconds{200e-6};  // 100 cycles
  opts.dt = Seconds{4e-9};        // 500 points per cycle
  opts.controller = drive.controller();
  const TransientResult r = simulate(nl, opts);

  const Trace vout = r.voltage("out");
  const double avg = vout.tail(20e-6).average();
  EXPECT_NEAR(avg, 6.0, 0.1);

  // Inductor current ripple ~ Vout * (1-D) / (L * f) = 0.6 A.
  const Trace il = r.current("L1");
  EXPECT_NEAR(il.tail(2e-6).peak_to_peak(), 0.6, 0.12);

  // Average inductor current equals the load current (up to the residual
  // slow LC oscillation that is still decaying).
  EXPECT_NEAR(il.tail(20e-6).average(), avg / 1.0, 0.2);
}

TEST(Transient, CycleAveragesDetectSteadyState) {
  std::vector<double> ts, vs;
  // Exponential settling toward 5.0 with cycles of length 1.
  for (int i = 0; i <= 1000; ++i) {
    const double t = i * 0.01;
    ts.push_back(t);
    vs.push_back(5.0 * (1.0 - std::exp(-t / 1.5)));
  }
  const Trace trace("x", std::move(ts), std::move(vs));
  const auto averages = cycle_averages(trace, 1.0);
  EXPECT_EQ(averages.size(), 10u);
  EXPECT_LT(averages.front(), averages.back());
  const auto steady = first_steady_cycle(trace, 1.0, 0.05);
  ASSERT_TRUE(steady.has_value());
  EXPECT_GT(*steady, 0u);
  EXPECT_FALSE(first_steady_cycle(trace, 1.0, 1e-12).has_value());
}

TEST(Transient, FinalSampleLandsExactlyOnStopTime) {
  // Regression: dt does not divide t_stop. The engine must take one
  // shortened final step so the record ends exactly at t_stop, not at the
  // last full multiple of dt below it.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", in, kGround, 1.0_V);
  nl.add_resistor("R1", in, out, Resistance{1000.0});
  nl.add_capacitor("C1", out, kGround, 1.0_uF);

  TransientOptions opts;
  opts.t_stop = Seconds{1.05e-3};  // 10 full steps + a half step
  opts.dt = Seconds{1e-4};
  opts.method = IntegrationMethod::kTrapezoidal;
  const TransientResult r = simulate(nl, opts);
  ASSERT_EQ(r.sample_count(), 12u);
  EXPECT_EQ(r.times().front(), 0.0);
  EXPECT_EQ(r.times()[10], 10.0 * 1e-4);
  EXPECT_EQ(r.times().back(), 1.05e-3);  // exact, not approximate
  // The partial step is a real integration step, not padding: the final
  // sample tracks the analytic RC charge at t_stop.
  const double expected = 1.0 - std::exp(-1.05e-3 / 1e-3);
  EXPECT_NEAR(r.voltage("out").back(), expected, 5e-3);
}

TEST(Transient, StepScheduleAbsorbsFloatingPointSlop) {
  Netlist nl;
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", out, kGround, 1.0_V);
  nl.add_resistor("R1", out, kGround, 1.0_Ohm);

  TransientOptions opts;
  // 0.7e-6 / 1e-7 = 6.999... in floating point; floor() lands one step
  // short of the exact multiple. The schedule must recognize this as 7
  // full steps, not 6 plus a dt-sized "partial".
  opts.t_stop = Seconds{0.7e-6};
  opts.dt = Seconds{1e-7};
  const TransientResult slop = simulate(nl, opts);
  EXPECT_EQ(slop.sample_count(), 8u);
  EXPECT_EQ(slop.times().back(), 0.7e-6);

  // And a clean divide stays a clean divide.
  opts.t_stop = Seconds{0.5e-6};
  const TransientResult clean = simulate(nl, opts);
  EXPECT_EQ(clean.sample_count(), 6u);
  EXPECT_EQ(clean.times().back(), 0.5e-6);
}

TEST(Transient, CycleAveragesDoNotDriftOverThousandsOfCycles) {
  // Regression: the cycle windows are anchored at t0 + i * period, not
  // accumulated (t += period), so thousands of cycles cannot drift a
  // window boundary across a sample. A ramp makes any drift visible in
  // the per-window means.
  const double period = 1e-6;
  const std::size_t cycles = 4000;
  const std::size_t per_cycle = 50;
  std::vector<double> ts, vs;
  ts.reserve(cycles * per_cycle + 1);
  for (std::size_t i = 0; i <= cycles * per_cycle; ++i) {
    const double t = static_cast<double>(i) * (period / per_cycle);
    ts.push_back(t);
    vs.push_back(t);  // value == time: window i averages (i + 0.5) * period
  }
  const Trace trace("x", std::move(ts), std::move(vs));
  const auto averages = cycle_averages(trace, period);
  ASSERT_EQ(averages.size(), cycles);
  for (std::size_t i : {std::size_t{0}, cycles / 2, cycles - 1}) {
    // Time-weighted average of the ramp over [i*p, (i+1)*p) is exactly the
    // window midpoint; a drifted window boundary would shift it by a
    // sample spacing or drop the window entirely.
    const double expected = (static_cast<double>(i) + 0.5) * period;
    EXPECT_NEAR(averages[i], expected, 1e-12) << "cycle " << i;
  }
  // Consecutive window averages of the ramp differ by exactly one period,
  // so it never reads as steady.
  EXPECT_FALSE(first_steady_cycle(trace, period, 1e-12).has_value());
}

TEST(Transient, SharedFactorCacheIsBitIdenticalAndDeterministic) {
  // Two simulations of the same netlist under different load waveforms
  // share step matrices (sources enter the RHS only): the second run's
  // lookups all hit. Cached results are bit-identical to uncached ones.
  const auto make_netlist = [](SourceFn load) {
    Netlist nl;
    const NodeId in = nl.add_node("in");
    const NodeId out = nl.add_node("out");
    nl.add_vsource("V1", in, kGround, 1.0_V);
    nl.add_resistor("R1", in, out, Resistance{10.0});
    nl.add_capacitor("C1", out, kGround, 1.0_uF);
    nl.add_isource("Iload", out, kGround, std::move(load));
    return nl;
  };
  const Netlist quiet = make_netlist([](double) { return 0.01; });
  const Netlist stepping =
      make_netlist([](double t) { return t < 0.5e-3 ? 0.01 : 0.05; });

  TransientOptions opts;
  opts.t_stop = Seconds{1e-3};
  opts.dt = Seconds{1e-6};
  opts.method = IntegrationMethod::kTrapezoidal;
  const TransientResult baseline = simulate(quiet, opts);

  TransientFactorCache cache;
  opts.factor_cache = &cache;
  const TransientResult cached = simulate(quiet, opts);
  // First-step backward Euler + trapezoidal full steps: two distinct
  // matrices, each missed exactly once.
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 2u);

  const TransientResult other = simulate(stepping, opts);
  EXPECT_EQ(cache.stats().misses, 2u);  // same matrices, different RHS
  EXPECT_EQ(cache.stats().hits, 2u);

  ASSERT_EQ(cached.sample_count(), baseline.sample_count());
  const Trace vb = baseline.voltage("out");
  const Trace vc = cached.voltage("out");
  for (std::size_t i = 0; i < vb.sample_count(); ++i) {
    EXPECT_EQ(vc.values()[i], vb.values()[i]) << "sample " << i;
  }

  // A shortened final step stamps its own matrix: one more distinct key.
  opts.t_stop = Seconds{1.0005e-3};
  (void)simulate(quiet, opts);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);
}

/// Every recorded time, node voltage and element current, as bit patterns.
std::vector<std::uint64_t> record_bits(const Netlist& nl,
                                       const TransientResult& r) {
  std::vector<std::uint64_t> bits;
  for (double t : r.times()) bits.push_back(std::bit_cast<std::uint64_t>(t));
  for (NodeId n = 0; n < nl.node_count(); ++n) {
    const Trace v = r.voltage(n);
    for (double x : v.values()) bits.push_back(std::bit_cast<std::uint64_t>(x));
  }
  for (ElementId e = 0; e < nl.element_count(); ++e) {
    const Trace i = r.current(e);
    for (double x : i.values()) bits.push_back(std::bit_cast<std::uint64_t>(x));
  }
  return bits;
}

TEST(Transient, SwitchPatternChangesUseTheirOwnFactorization) {
  // A switched RC under backward Euler: S1 charges C1 from a 1 V source,
  // S2 discharges it to ground. The schedule flips on the first step, on
  // consecutive steps, returns to earlier patterns and flips on the
  // shortened final step. A step that solved with the previous pattern's
  // factorization would leave the scalar recurrence below.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", in, kGround, 1.0_V);
  const double r1_on = 1.0, r2_on = 2.0, r_off = 1e6;
  nl.add_switch("S1", in, out, Resistance{r1_on}, Resistance{r_off}, true);
  nl.add_switch("S2", out, kGround, Resistance{r2_on}, Resistance{r_off},
                false);
  const double cap = 1e-6, v0 = 0.3;
  nl.add_capacitor("C1", out, kGround, Capacitance{cap}, Voltage{v0});

  const SwitchStates a{true, false}, b{false, true}, c{false, false},
      d{true, true};
  // Step k (1-based) runs schedule[k - 1]; the initial states are `a`.
  const std::vector<SwitchStates> schedule{b, c, d, d, b, b, a, c, a, a, d};
  std::size_t calls = 0;
  TransientOptions opts;
  opts.t_stop = Seconds{10.5e-6};  // 10 full steps + a half step
  opts.dt = Seconds{1e-6};
  opts.method = IntegrationMethod::kBackwardEuler;
  opts.controller = [&](double, SwitchStates& states) {
    states = schedule.at(calls++);
  };

  const TransientResult plain = simulate(nl, opts);
  ASSERT_EQ(calls, schedule.size());
  ASSERT_EQ(plain.sample_count(), schedule.size() + 1);

  // Node `out` under backward Euler, gmin included:
  // v_k = (g1 * 1 V + (C/h) v_{k-1}) / (g1 + g2 + gmin + C/h).
  const Trace v = plain.voltage("out");
  double expected = v0;
  for (std::size_t k = 1; k <= schedule.size(); ++k) {
    const double h = k == schedule.size()
                         ? opts.t_stop.value - 10.0 * opts.dt.value
                         : opts.dt.value;
    const double g1 = 1.0 / (schedule[k - 1][0] ? r1_on : r_off);
    const double g2 = 1.0 / (schedule[k - 1][1] ? r2_on : r_off);
    expected = (g1 * 1.0 + cap / h * expected) /
               (g1 + g2 + opts.gmin + cap / h);
    EXPECT_NEAR(v.values()[k], expected, 1e-9 * std::fabs(expected))
        << "step " << k;
  }

  // Through a shared cache: the same bits. The first run misses once per
  // distinct (method, h, states) key — a, b, c and d at dt, d at the final
  // step's h — and the rerun hits every one.
  TransientFactorCache cache;
  opts.factor_cache = &cache;
  calls = 0;
  const TransientResult cached = simulate(nl, opts);
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(record_bits(nl, cached), record_bits(nl, plain));
  calls = 0;
  const TransientResult rerun = simulate(nl, opts);
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.stats().hits, 5u);
  EXPECT_EQ(record_bits(nl, rerun), record_bits(nl, plain));
}

TEST(Transient, CurrentSourceLoadDrawsFromNode) {
  Netlist nl;
  const NodeId out = nl.add_node("out");
  nl.add_vsource("V1", out, kGround, 1.0_V);
  nl.add_isource("Iload", out, kGround, 5.0_A);
  TransientOptions opts;
  opts.t_stop = Seconds{1e-4};
  opts.dt = Seconds{1e-6};
  const TransientResult r = simulate(nl, opts);
  // Load absorbs 5 W continuously.
  EXPECT_NEAR(r.power("Iload").back(), 5.0, 1e-9);
  EXPECT_NEAR(r.power("V1").back(), -5.0, 1e-9);
}

}  // namespace
}  // namespace vpd
