#include "vpd/core/batch.hpp"

#include <chrono>
#include <utility>

namespace vpd {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Groups smaller than this take the scalar path: a one-member group is
/// just a scalar solve.
constexpr std::size_t kMinGroupSize = 2;

}  // namespace

BatchStats& BatchStats::operator+=(const BatchStats& other) {
  points += other.points;
  groups += other.groups;
  grouped_points += other.grouped_points;
  scalar_points += other.scalar_points;
  panel_columns += other.panel_columns;
  deduped_solves += other.deduped_solves;
  return *this;
}

EvaluationBatch::EvaluationBatch(PowerDeliverySpec spec,
                                 std::vector<EvaluationPoint> points)
    : spec_(spec), points_(std::move(points)) {
  spec_.validate();
  prepared_.resize(points_.size());
  entries_.resize(points_.size());
  errors_.resize(points_.size());
  wall_seconds_.assign(points_.size(), 0.0);
}

void EvaluationBatch::prepare(std::size_t index) {
  const auto start = std::chrono::steady_clock::now();
  const EvaluationPoint& point = points_[index];
  try {
    // The point's one "vpd.evaluate" span covers its prepare half (and
    // parents its mesh assembly); the solve records under the caller's
    // context once the group runs.
    const EvaluationSpan span(point.architecture, point.options);
    prepared_[index] =
        prepare_with_exclusion(spec_, point.architecture, point.topology,
                               point.tech, span.options());
    if (prepared_[index].request() == nullptr) {
      finish(index, IrDropResult{});  // A0 or excluded: nothing to solve
    }
  } catch (...) {
    errors_[index] = std::current_exception();
  }
  wall_seconds_[index] += seconds_since(start);
}

const DistributionRequest& EvaluationBatch::request(std::size_t index) const {
  return *prepared_[index].request();
}

IrDropOptions EvaluationBatch::solve_options(std::size_t index) const {
  IrDropOptions options = request(index).options;
  options.trace = points_[index].options.trace;
  return options;
}

std::size_t EvaluationBatch::plan() {
  stats_ = BatchStats{};
  stats_.points = points_.size();
  groups_.clear();
  units_.clear();

  // Same stamped operator: identical solve options, identical VR legs,
  // identical mesh operator. Mesh identity is the shared-cache pointer
  // when available, falling back to a value comparison of the Laplacian so
  // grouping does not depend on cache wiring (cached and per-call
  // assemblies are bit-identical by construction).
  const auto same_operator = [this](std::size_t a, std::size_t b) {
    const DistributionRequest& ra = request(a);
    const DistributionRequest& rb = request(b);
    if (ra.options.relative_tolerance != rb.options.relative_tolerance ||
        ra.options.warm_start_voltage != rb.options.warm_start_voltage ||
        ra.options.preconditioner != rb.options.preconditioner) {
      return false;
    }
    if (ra.legs.size() != rb.legs.size()) return false;
    for (std::size_t k = 0; k < ra.legs.size(); ++k) {
      if (ra.legs[k].node != rb.legs[k].node ||
          ra.legs[k].source_voltage.value !=
              rb.legs[k].source_voltage.value ||
          ra.legs[k].series.value != rb.legs[k].series.value) {
        return false;
      }
    }
    if (ra.assembled.get() == rb.assembled.get()) return true;
    const CsrMatrix& la = ra.assembled->laplacian;
    const CsrMatrix& lb = rb.assembled->laplacian;
    return la.rows() == lb.rows() &&
           la.row_offsets() == lb.row_offsets() &&
           la.col_indices() == lb.col_indices() &&
           la.values() == lb.values();
  };

  // Group discovery in input order: a point joins the first group whose
  // lead member shares its operator. Deterministic in the input alone —
  // independent of thread count, execution order and cache state.
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (prepared_[i].request() == nullptr) continue;
    bool placed = false;
    for (Group& g : groups_) {
      if (same_operator(g.members.front(), i)) {
        g.members.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) {
      Group g;
      g.members.push_back(i);
      groups_.push_back(std::move(g));
    }
  }

  // Keep multi-member groups as group units; everything else (singleton
  // operators) takes the scalar path. Within a kept group, value-identical
  // sink vectors collapse onto one shared solve — the solver is
  // deterministic in its inputs, so sharing is bit-identical to solving
  // each copy separately.
  std::vector<Group> kept;
  std::vector<char> scalar(points_.size(), 0);
  for (Group& g : groups_) {
    if (g.members.size() < kMinGroupSize) {
      for (std::size_t m : g.members) scalar[m] = 1;
      continue;
    }
    for (std::size_t m : g.members) {
      const Vector& sinks = request(m).sinks;
      std::size_t d = 0;
      for (; d < g.distinct.size(); ++d) {
        if (request(g.distinct[d]).sinks == sinks) break;
      }
      if (d == g.distinct.size()) {
        g.distinct.push_back(m);
      } else {
        ++stats_.deduped_solves;
      }
      g.rhs_of_member.push_back(d);
    }
    ++stats_.groups;
    stats_.grouped_points += g.members.size();
    if (g.distinct.size() >= 2) stats_.panel_columns += g.distinct.size();
    kept.push_back(std::move(g));
  }
  groups_ = std::move(kept);

  units_.reserve(groups_.size() + points_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    units_.push_back(Unit{true, g});
  }
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (scalar[i]) units_.push_back(Unit{false, i});
  }
  stats_.scalar_points = stats_.points - stats_.grouped_points;
  return units_.size();
}

void EvaluationBatch::execute(std::size_t unit) {
  const Unit& u = units_[unit];
  if (u.is_group) {
    execute_group(groups_[u.index]);
  } else {
    execute_scalar(u.index);
  }
}

void EvaluationBatch::run() {
  for (std::size_t i = 0; i < size(); ++i) prepare(i);
  plan();
  for (std::size_t u = 0; u < unit_count(); ++u) execute(u);
}

void EvaluationBatch::finish(std::size_t index, const IrDropResult& result) {
  try {
    entries_[index] = prepared_[index].finish(result);
  } catch (...) {
    errors_[index] = std::current_exception();
  }
}

void EvaluationBatch::execute_scalar(std::size_t index) {
  const auto start = std::chrono::steady_clock::now();
  try {
    const DistributionRequest& r = request(index);
    finish(index, solve_irdrop(*r.assembled, r.legs, r.sinks,
                               solve_options(index)));
  } catch (...) {
    errors_[index] = std::current_exception();
  }
  wall_seconds_[index] += seconds_since(start);
}

void EvaluationBatch::execute_group(const Group& group) {
  const auto solve_start = std::chrono::steady_clock::now();
  const std::size_t lead = group.members.front();
  const DistributionRequest& lead_request = request(lead);
  std::vector<IrDropResult> solved;
  try {
    if (group.distinct.size() == 1) {
      // Every member drew the same right-hand side: one scalar solve,
      // shared bit-exactly.
      solved.push_back(solve_irdrop(*lead_request.assembled,
                                    lead_request.legs, lead_request.sinks,
                                    solve_options(lead)));
    } else {
      std::vector<Vector> sink_maps;
      sink_maps.reserve(group.distinct.size());
      for (std::size_t m : group.distinct) {
        sink_maps.push_back(request(m).sinks);
      }
      solved = solve_irdrop_batch(*lead_request.assembled, lead_request.legs,
                                  sink_maps, solve_options(lead));
    }
  } catch (...) {
    // Group solve failed: take the scalar path per member, which
    // reproduces the scalar evaluation's per-point errors exactly.
    for (std::size_t m : group.members) execute_scalar(m);
    return;
  }
  const double shared_seconds =
      seconds_since(solve_start) /
      static_cast<double>(group.members.size());
  for (std::size_t k = 0; k < group.members.size(); ++k) {
    const std::size_t m = group.members[k];
    const auto start = std::chrono::steady_clock::now();
    finish(m, solved[group.rhs_of_member[k]]);
    wall_seconds_[m] += shared_seconds + seconds_since(start);
  }
}

ExplorationEntry& EvaluationBatch::entry(std::size_t index) {
  return entries_[index];
}

std::exception_ptr EvaluationBatch::error(std::size_t index) const {
  return errors_[index];
}

double EvaluationBatch::wall_seconds(std::size_t index) const {
  return wall_seconds_[index];
}

void EvaluationBatch::rethrow_first_error() const {
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<ExplorationEntry> evaluate_batch_with_exclusion(
    const PowerDeliverySpec& spec, std::vector<EvaluationPoint> points,
    BatchStats* stats) {
  // A shared assembly cache makes same-operator detection cheap (pointer
  // identity) and mesh assembly once-per-geometry; wiring it here changes
  // no bits (cached assembly is identical to per-call assembly).
  MeshSolveCache cache;
  for (EvaluationPoint& point : points) {
    if (point.options.mesh_cache == nullptr) {
      point.options.mesh_cache = &cache;
    }
  }
  EvaluationBatch batch(spec, std::move(points));
  batch.run();
  batch.rethrow_first_error();
  if (stats != nullptr) *stats = batch.stats();
  std::vector<ExplorationEntry> entries;
  entries.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    entries.push_back(std::move(batch.entry(i)));
  }
  return entries;
}

}  // namespace vpd
