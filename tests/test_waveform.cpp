#include "vpd/circuit/waveform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "vpd/common/error.hpp"
#include "vpd/common/interpolation.hpp"

namespace vpd {
namespace {

Trace ramp() {
  // v(t) = t on [0, 1], 11 samples.
  std::vector<double> ts = linspace(0.0, 1.0, 11);
  std::vector<double> vs = ts;
  return Trace("ramp", std::move(ts), std::move(vs));
}

Trace sine(double cycles, std::size_t samples_per_cycle) {
  const std::size_t n = static_cast<std::size_t>(
      cycles * static_cast<double>(samples_per_cycle)) + 1;
  std::vector<double> ts(n), vs(n);
  for (std::size_t i = 0; i < n; ++i) {
    ts[i] = static_cast<double>(i) /
            static_cast<double>(samples_per_cycle);
    vs[i] = std::sin(2.0 * M_PI * ts[i]);
  }
  return Trace("sine", std::move(ts), std::move(vs));
}

TEST(Trace, ValidationRejectsBadInput) {
  EXPECT_THROW(Trace("t", {0.0, 1.0}, {1.0}), InvalidArgument);
  EXPECT_THROW(Trace("t", {}, {}), InvalidArgument);
  EXPECT_THROW(Trace("t", {0.0, 0.0}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(Trace("t", {1.0, 0.5}, {1.0, 2.0}), InvalidArgument);
}

TEST(Trace, InterpolatedLookup) {
  const Trace t = ramp();
  EXPECT_DOUBLE_EQ(t.at(0.55), 0.55);
  EXPECT_DOUBLE_EQ(t.at(-1.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(t.at(2.0), 1.0);    // clamped
  EXPECT_DOUBLE_EQ(t.front(), 0.0);
  EXPECT_DOUBLE_EQ(t.back(), 1.0);
}

TEST(Trace, AverageOfRamp) {
  const Trace t = ramp();
  EXPECT_NEAR(t.average(), 0.5, 1e-12);
  EXPECT_NEAR(t.average(0.0, 0.5), 0.25, 1e-12);
  EXPECT_NEAR(t.average(0.25, 0.75), 0.5, 1e-12);
}

TEST(Trace, RmsOfRamp) {
  // RMS of t on [0,1] = 1/sqrt(3); the quadrature is exact for
  // piecewise-linear signals.
  EXPECT_NEAR(ramp().rms(), 1.0 / std::sqrt(3.0), 1e-12);
}

TEST(Trace, RmsOfSineApproachesInvSqrt2) {
  const Trace s = sine(4.0, 200);
  EXPECT_NEAR(s.rms(), 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(s.average(), 0.0, 1e-9);
}

TEST(Trace, MinMaxPeakToPeak) {
  const Trace s = sine(2.0, 100);
  EXPECT_NEAR(s.max(), 1.0, 1e-3);
  EXPECT_NEAR(s.min(), -1.0, 1e-3);
  EXPECT_NEAR(s.peak_to_peak(), 2.0, 2e-3);
  EXPECT_NEAR(s.max(0.0, 0.5), 1.0, 1e-3);
  EXPECT_NEAR(s.min(0.0, 0.5), 0.0, 1e-9);  // first half-cycle nonnegative
}

TEST(Trace, WindowValidation) {
  const Trace t = ramp();
  EXPECT_THROW(t.average(0.5, 0.5), InvalidArgument);
  EXPECT_THROW(t.average(0.9, 2.0), InvalidArgument);
  EXPECT_THROW(t.rms(-0.5, 0.5), InvalidArgument);
}

TEST(Trace, TailExtractsSuffix) {
  const Trace t = ramp();
  const Trace tl = t.tail(0.3);
  EXPECT_NEAR(tl.times().front(), 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(tl.times().back(), 1.0);
  EXPECT_EQ(tl.name(), "ramp");
  EXPECT_THROW(t.tail(0.0), InvalidArgument);
  // Tail longer than the trace returns the whole trace.
  EXPECT_EQ(t.tail(100.0).sample_count(), t.sample_count());
}

TEST(Trace, SingleSampleBehaviour) {
  const Trace t("dc", {0.0}, {3.0});
  EXPECT_DOUBLE_EQ(t.average(), 3.0);
  EXPECT_DOUBLE_EQ(t.rms(), 3.0);
  EXPECT_DOUBLE_EQ(t.at(5.0), 3.0);
}

// Reference window scans that walk every sample from the first, as the
// window methods did before they started at the window.
double full_scan_average(const Trace& tr, double t0, double t1) {
  const std::vector<double>& ts = tr.times();
  const std::vector<double>& vs = tr.values();
  double integral = 0.0;
  double prev_t = t0;
  double prev_v = tr.at(t0);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i] <= t0) continue;
    if (ts[i] >= t1) break;
    integral += 0.5 * (prev_v + vs[i]) * (ts[i] - prev_t);
    prev_t = ts[i];
    prev_v = vs[i];
  }
  integral += 0.5 * (prev_v + tr.at(t1)) * (t1 - prev_t);
  return integral / (t1 - t0);
}

double full_scan_rms(const Trace& tr, double t0, double t1) {
  const std::vector<double>& ts = tr.times();
  const std::vector<double>& vs = tr.values();
  auto segment = [](double va, double vb, double dt_seg) {
    return (va * va + va * vb + vb * vb) / 3.0 * dt_seg;
  };
  double integral = 0.0;
  double prev_t = t0;
  double prev_v = tr.at(t0);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i] <= t0) continue;
    if (ts[i] >= t1) break;
    integral += segment(prev_v, vs[i], ts[i] - prev_t);
    prev_t = ts[i];
    prev_v = vs[i];
  }
  integral += segment(prev_v, tr.at(t1), t1 - prev_t);
  return std::sqrt(integral / (t1 - t0));
}

double full_scan_min(const Trace& tr, double t0, double t1) {
  double m = std::min(tr.at(t0), tr.at(t1));
  for (std::size_t i = 0; i < tr.times().size(); ++i)
    if (tr.times()[i] > t0 && tr.times()[i] < t1)
      m = std::min(m, tr.values()[i]);
  return m;
}

double full_scan_max(const Trace& tr, double t0, double t1) {
  double m = std::max(tr.at(t0), tr.at(t1));
  for (std::size_t i = 0; i < tr.times().size(); ++i)
    if (tr.times()[i] > t0 && tr.times()[i] < t1)
      m = std::max(m, tr.values()[i]);
  return m;
}

double full_scan_harmonic(const Trace& tr, double frequency, double t0,
                          double t1) {
  const double w = 2.0 * 3.141592653589793 * frequency;
  double re = 0.0, im = 0.0;
  double prev_t = t0;
  double prev_vc = tr.at(t0) * std::cos(w * t0);
  double prev_vs = tr.at(t0) * std::sin(w * t0);
  auto accumulate = [&](double t, double v) {
    const double vc = v * std::cos(w * t);
    const double vs = v * std::sin(w * t);
    re += 0.5 * (prev_vc + vc) * (t - prev_t);
    im += 0.5 * (prev_vs + vs) * (t - prev_t);
    prev_t = t;
    prev_vc = vc;
    prev_vs = vs;
  };
  for (std::size_t i = 0; i < tr.times().size(); ++i) {
    if (tr.times()[i] <= t0) continue;
    if (tr.times()[i] >= t1) break;
    accumulate(tr.times()[i], tr.values()[i]);
  }
  accumulate(t1, tr.at(t1));
  return 2.0 / (t1 - t0) * std::hypot(re, im);
}

TEST(Trace, WindowScansMatchFullScan) {
  // Irregular sample spacing and a non-polynomial signal, so every
  // sample a scan visits or skips changes the result's bits.
  const std::size_t n = 64;
  std::vector<double> ts(n), vs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double k = static_cast<double>(i);
    ts[i] = 0.1 * k + 0.013 * std::sin(1.7 * k);
    vs[i] = std::sin(3.0 * ts[i]) + 0.2 * ts[i] * ts[i];
  }
  const Trace tr("x", ts, vs);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  struct Window {
    const char* where;
    double t0;
    double t1;
  };
  const Window windows[] = {
      {"starts before the first sample", ts.front() - 5e-16, ts[7]},
      {"ends exactly on samples", ts[3], ts[9]},
      {"ends between samples", 0.3 * ts[4] + 0.7 * ts[5],
       0.5 * (ts[40] + ts[41])},
      {"inside one interval", 0.2 * ts[10] + 0.8 * ts[11],
       0.9 * ts[11] + 0.1 * ts[10]},
      {"ends on the last sample", 0.5 * (ts[50] + ts[51]), ts.back()},
      {"whole trace", ts.front(), ts.back()},
  };
  for (const Window& w : windows) {
    ASSERT_LT(w.t0, w.t1) << w.where;
    EXPECT_EQ(bits(tr.average(w.t0, w.t1)),
              bits(full_scan_average(tr, w.t0, w.t1)))
        << w.where;
    EXPECT_EQ(bits(tr.rms(w.t0, w.t1)), bits(full_scan_rms(tr, w.t0, w.t1)))
        << w.where;
    EXPECT_EQ(bits(tr.min(w.t0, w.t1)), bits(full_scan_min(tr, w.t0, w.t1)))
        << w.where;
    EXPECT_EQ(bits(tr.max(w.t0, w.t1)), bits(full_scan_max(tr, w.t0, w.t1)))
        << w.where;
    EXPECT_EQ(bits(tr.harmonic_magnitude(0.7, w.t0, w.t1)),
              bits(full_scan_harmonic(tr, 0.7, w.t0, w.t1)))
        << w.where;
  }
}

}  // namespace
}  // namespace vpd
