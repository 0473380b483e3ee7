#include "vpd/circuit/waveform.hpp"

#include <algorithm>
#include <cmath>

#include "vpd/common/error.hpp"

namespace vpd {

namespace {

/// Index of the first sample strictly after `t`: where a window scan over
/// (t, t1) starts.
std::size_t first_after(const std::vector<double>& times, double t) {
  return static_cast<std::size_t>(
      std::upper_bound(times.begin(), times.end(), t) - times.begin());
}

}  // namespace

Trace::Trace(std::string name, std::vector<double> times,
             std::vector<double> values)
    : name_(std::move(name)),
      times_(std::move(times)),
      values_(std::move(values)) {
  VPD_REQUIRE(times_.size() == values_.size(), "trace '", name_, "': ",
              times_.size(), " times vs ", values_.size(), " values");
  VPD_REQUIRE(!times_.empty(), "trace '", name_, "' is empty");
  for (std::size_t i = 1; i < times_.size(); ++i)
    VPD_REQUIRE(times_[i] > times_[i - 1], "trace '", name_,
                "': time not strictly increasing at sample ", i);
}

double Trace::front() const { return values_.front(); }
double Trace::back() const { return values_.back(); }

double Trace::at(double t) const {
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double frac = (t - times_[lo]) / (times_[hi] - times_[lo]);
  return values_[lo] + frac * (values_[hi] - values_[lo]);
}

void Trace::check_window(double t0, double t1) const {
  VPD_REQUIRE(t0 < t1, "window [", t0, ", ", t1, "] is empty");
  VPD_REQUIRE(t0 >= times_.front() - 1e-15 && t1 <= times_.back() + 1e-15,
              "window [", t0, ", ", t1, "] outside trace span [",
              times_.front(), ", ", times_.back(), "]");
}

double Trace::average(double t0, double t1) const {
  check_window(t0, t1);
  // Trapezoidal integral over the window using interpolated endpoints.
  double integral = 0.0;
  double prev_t = t0;
  double prev_v = at(t0);
  for (std::size_t i = first_after(times_, t0);
       i < times_.size() && times_[i] < t1; ++i) {
    integral += 0.5 * (prev_v + values_[i]) * (times_[i] - prev_t);
    prev_t = times_[i];
    prev_v = values_[i];
  }
  integral += 0.5 * (prev_v + at(t1)) * (t1 - prev_t);
  return integral / (t1 - t0);
}

double Trace::average() const {
  if (times_.size() == 1) return values_[0];
  return average(times_.front(), times_.back());
}

double Trace::rms(double t0, double t1) const {
  check_window(t0, t1);
  // Exact integral of the square of the piecewise-linear signal:
  // for v linear on a segment, the segment contributes
  // (va^2 + va*vb + vb^2)/3 * dt.
  auto segment = [](double va, double vb, double dt_seg) {
    return (va * va + va * vb + vb * vb) / 3.0 * dt_seg;
  };
  double integral = 0.0;
  double prev_t = t0;
  double prev_v = at(t0);
  for (std::size_t i = first_after(times_, t0);
       i < times_.size() && times_[i] < t1; ++i) {
    integral += segment(prev_v, values_[i], times_[i] - prev_t);
    prev_t = times_[i];
    prev_v = values_[i];
  }
  integral += segment(prev_v, at(t1), t1 - prev_t);
  return std::sqrt(integral / (t1 - t0));
}

double Trace::rms() const {
  if (times_.size() == 1) return std::fabs(values_[0]);
  return rms(times_.front(), times_.back());
}

double Trace::min(double t0, double t1) const {
  check_window(t0, t1);
  double m = std::min(at(t0), at(t1));
  for (std::size_t i = first_after(times_, t0);
       i < times_.size() && times_[i] < t1; ++i)
    m = std::min(m, values_[i]);
  return m;
}

double Trace::max(double t0, double t1) const {
  check_window(t0, t1);
  double m = std::max(at(t0), at(t1));
  for (std::size_t i = first_after(times_, t0);
       i < times_.size() && times_[i] < t1; ++i)
    m = std::max(m, values_[i]);
  return m;
}

double Trace::min() const {
  return *std::min_element(values_.begin(), values_.end());
}

double Trace::max() const {
  return *std::max_element(values_.begin(), values_.end());
}

double Trace::peak_to_peak(double t0, double t1) const {
  return max(t0, t1) - min(t0, t1);
}

double Trace::peak_to_peak() const { return max() - min(); }

double Trace::harmonic_magnitude(double frequency, double t0,
                                 double t1) const {
  check_window(t0, t1);
  VPD_REQUIRE(frequency > 0.0, "frequency must be positive");
  const double w = 2.0 * 3.141592653589793 * frequency;
  // Trapezoidal integration of v(t) cos(wt) and v(t) sin(wt) over the
  // window, using the trace samples plus interpolated endpoints.
  double re = 0.0, im = 0.0;
  double prev_t = t0;
  double prev_vc = at(t0) * std::cos(w * t0);
  double prev_vs = at(t0) * std::sin(w * t0);
  auto accumulate = [&](double t, double v) {
    const double vc = v * std::cos(w * t);
    const double vs = v * std::sin(w * t);
    re += 0.5 * (prev_vc + vc) * (t - prev_t);
    im += 0.5 * (prev_vs + vs) * (t - prev_t);
    prev_t = t;
    prev_vc = vc;
    prev_vs = vs;
  };
  for (std::size_t i = first_after(times_, t0);
       i < times_.size() && times_[i] < t1; ++i)
    accumulate(times_[i], values_[i]);
  accumulate(t1, at(t1));
  const double span = t1 - t0;
  return 2.0 / span * std::hypot(re, im);
}

double Trace::harmonic_magnitude(double frequency) const {
  VPD_REQUIRE(times_.size() >= 2, "trace too short");
  return harmonic_magnitude(frequency, times_.front(), times_.back());
}

Trace Trace::tail(double duration) const {
  VPD_REQUIRE(duration > 0.0, "duration must be positive, got ", duration);
  const double t0 = std::max(times_.front(), times_.back() - duration);
  std::vector<double> ts, vs;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (times_[i] >= t0) {
      ts.push_back(times_[i]);
      vs.push_back(values_[i]);
    }
  }
  return Trace(name_, std::move(ts), std::move(vs));
}

}  // namespace vpd
