// Fixed-step transient simulation with switch scheduling. Capacitors and
// inductors are replaced by their companion models each step (backward
// Euler for the first step, then the configured method); the resulting
// linear system is LU-solved. LU factorizations are cached per
// (step size, method, switch-state) pattern, so periodic PWM simulations
// re-factor only when a new switching configuration first appears; an
// optional shared TransientFactorCache extends that reuse across
// simulations of the same netlist (campaign runners revisit one reduced
// PDN with many source waveforms).
//
// Step loop: element rows are resolved once; each step stamps its RHS
// into one reused vector, keeps the previous step's factorization until
// (method, step size, switch states) change, solves in place and appends
// to a flat record reserved up front, so a step allocates nothing.
//
// End-time contract: the returned samples are t = 0, dt, 2 dt, ..., and
// the final sample lands exactly on t_stop. When dt does not divide
// t_stop the engine takes one shortened final step (companion models are
// re-stamped for the partial step size), so droop and settling metrics
// near the window end are never computed on a truncated record.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "vpd/circuit/mna.hpp"
#include "vpd/circuit/netlist.hpp"
#include "vpd/circuit/waveform.hpp"
#include "vpd/common/units.hpp"

namespace vpd {

enum class IntegrationMethod {
  kBackwardEuler,
  kTrapezoidal,
};

/// Called before each step with the step's end time; writes desired switch
/// states (indexed in netlist.switches() order).
using SwitchController = std::function<void(double, SwitchStates&)>;

/// Called after each accepted step with the step's end time and the node
/// voltages (indexed by NodeId). Feedback controllers use this to sample
/// the output rail. The vector is reused by the next step: it is valid only
/// during the call.
using StepObserver = std::function<void(double, const Vector&)>;

/// Shared cache of transient-step LU factorizations, keyed exactly on
/// everything that enters the stamped matrix (netlist topology and element
/// values, gmin, integration method, step size, switch states). The MNA
/// matrix is independent of sources and history — they enter through the
/// RHS — so simulations of one netlist under different waveforms share
/// factorizations, and a campaign of thousands of steps amortizes a
/// handful of factorizations. Thread-safe: concurrent simulations may
/// share one cache, and because a key determines the matrix bit for bit,
/// results are identical whichever thread populated an entry.
class TransientFactorCache {
 public:
  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
  };

  /// Returns the factorization for `key`, building it from `build_matrix`
  /// on first use. The reference stays valid for the cache's lifetime.
  const LuFactorization& get(const std::string& key,
                             const std::function<Matrix()>& build_matrix);

  Stats stats() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<LuFactorization>> entries_;
  Stats stats_;
};

struct TransientOptions {
  Seconds t_stop{0.0};
  Seconds dt{0.0};
  IntegrationMethod method{IntegrationMethod::kTrapezoidal};
  double gmin{1e-12};
  /// Optional switch schedule; absent means switches hold initial states.
  SwitchController controller;
  /// Optional per-step observer (runs after the step is solved).
  StepObserver observer;
  /// Start from the DC operating point (with initial switch states) instead
  /// of element initial conditions.
  bool initialize_from_dc{false};
  /// Optional shared factorization cache (see TransientFactorCache).
  /// nullptr keeps the per-simulation cache; the pointed-to cache must
  /// outlive the simulate() call. Results are bit-identical either way.
  TransientFactorCache* factor_cache{nullptr};
};

/// Full simulation record: node voltages and element currents at every
/// sample (t = 0, dt, 2 dt, ..., t_stop — the final sample lands exactly
/// on t_stop even when dt does not divide it; see the end-time contract
/// above).
class TransientResult {
 public:
  std::size_t sample_count() const { return times_.size(); }
  const std::vector<double>& times() const { return times_; }

  /// Voltage trace of a node.
  Trace voltage(NodeId node) const;
  Trace voltage(const std::string& node_name) const;

  /// Current trace of an element (a->b orientation).
  Trace current(ElementId element) const;
  Trace current(const std::string& element_name) const;

  /// Instantaneous absorbed power trace of an element (v_ab * i_ab).
  Trace power(ElementId element) const;
  Trace power(const std::string& element_name) const;

  /// Energy absorbed by an element over the whole run (trapezoidal
  /// integral of the power trace).
  Energy energy(const std::string& element_name) const;

  /// Average absorbed power over the final `window`.
  Power average_power(const std::string& element_name, Seconds window) const;

 private:
  friend TransientResult simulate(const Netlist& netlist,
                                  const TransientOptions& options);

  TransientResult(const Netlist& netlist, std::vector<double> times,
                  std::vector<double> node_voltages,
                  std::vector<double> element_currents);

  const Netlist* netlist_;
  std::size_t node_count_;
  std::size_t element_count_;
  std::vector<double> times_;
  // Flat and sample-major: sample i's values start at i * node_count_
  // (indexed by NodeId) and at i * element_count_ (indexed by ElementId).
  std::vector<double> node_voltages_;
  std::vector<double> element_currents_;
};

/// Runs the transient analysis. Throws InvalidArgument for bad options
/// (including a step count transient_step_count() refuses) and
/// NumericalError if a step's system is singular.
TransientResult simulate(const Netlist& netlist,
                         const TransientOptions& options);

/// The fixed-step schedule of a window (0, t_stop]: floor(t_stop / dt)
/// full steps, plus one shortened final step when dt does not divide
/// t_stop (see the end-time contract above). simulate() and
/// ThermalSolver::solve_transient both step by it.
struct StepSchedule {
  double t_stop{0.0};
  double dt{0.0};
  std::size_t full_steps{0};
  double remainder{0.0};  // length of the shortened final step; 0 if none

  std::size_t steps() const { return full_steps + (remainder > 0.0 ? 1 : 0); }
  /// End time of step k (1-based): k * dt, never accumulated; the last
  /// step ends exactly on t_stop.
  double time(std::size_t k) const {
    return k == steps() ? t_stop : static_cast<double>(k) * dt;
  }
  /// Length of step k: dt, or the remainder for a shortened final step.
  double step_size(std::size_t k) const {
    return remainder > 0.0 && k == steps() ? remainder : dt;
  }
};

/// Schedules the window. Throws InvalidArgument unless 0 < dt < t_stop
/// and the count is below 2^53, beyond which neither the count nor the
/// sample times k * dt are exact.
StepSchedule schedule_steps(double t_stop, double dt);

/// Steps simulate() takes for the window: schedule_steps(t_stop,
/// dt).steps(), with the same refusals.
std::size_t transient_step_count(Seconds t_stop, Seconds dt);

/// Per-cycle averages of a trace (cycle length `period`, anchored at the
/// trace start). Used for periodic-steady-state detection.
std::vector<double> cycle_averages(const Trace& trace, double period);

/// Index of the first cycle whose average differs from the next cycle's by
/// less than `tol` (absolute); nullopt if never converged.
std::optional<std::size_t> first_steady_cycle(const Trace& trace,
                                              double period, double tol);

}  // namespace vpd
