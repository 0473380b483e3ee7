#include "vpd/opt/optimizer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "vpd/common/error.hpp"
#include "vpd/converters/catalog.hpp"
#include "vpd/fault/campaign.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace vpd {
namespace opt {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// RNG stream plan. Streams are disjoint by construction: axis
// permutations, per-candidate init jitter and per-(generation, child)
// variation each live in their own block, so no draw ever depends on
// evaluation or completion order.
constexpr std::uint64_t kAxisStreamBase = 1ull << 32;
constexpr std::uint64_t kInitStreamBase = 1ull << 33;
constexpr std::uint64_t kChildStreamBase = 1ull << 34;
constexpr std::uint64_t kGenerationStride = 1ull << 20;

enum Axis : std::size_t {
  kAxisArchitecture = 0,
  kAxisTopology,
  kAxisTechnology,
  kAxisVrCount,
  kAxisRings,
  kAxisArea,
  kAxisAttach,
  kAxisSheet,
  kAxisCount,
};

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.next_below(static_cast<std::uint32_t>(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

/// Latin-hypercube generation-0 points: each numeric axis is cut into n
/// strata and every stratum is used exactly once (per-axis permutations
/// from dedicated streams); categorical axes cycle their permutation so
/// every category appears within any window of axis-size candidates.
std::vector<DesignPoint> latin_hypercube(const DesignSpace& space,
                                         std::size_t n,
                                         std::uint64_t seed) {
  std::vector<std::vector<std::size_t>> perms(kAxisCount);
  for (std::size_t axis = 0; axis < kAxisCount; ++axis) {
    Rng rng(seed, kAxisStreamBase + axis);
    perms[axis] = permutation(n, rng);
  }
  const auto stratified_count = [n](const CountRange& range,
                                    std::size_t stratum, double jitter) {
    const double cells = static_cast<double>(range.span()) + 1.0;
    const double offset =
        (static_cast<double>(stratum) + jitter) / static_cast<double>(n);
    return range.clamp(static_cast<long long>(range.lo) +
                       static_cast<long long>(std::floor(offset * cells)));
  };
  const auto stratified_param = [n](const ParamRange& range,
                                    std::size_t stratum, double jitter) {
    const double offset =
        (static_cast<double>(stratum) + jitter) / static_cast<double>(n);
    return range.clamp(range.lo + offset * range.span());
  };

  std::vector<DesignPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Rng jitter(seed, kInitStreamBase + i);
    DesignPoint p;
    p.architecture =
        space.architectures[perms[kAxisArchitecture][i] %
                            space.architectures.size()];
    p.topology =
        space.topologies[perms[kAxisTopology][i] % space.topologies.size()];
    p.tech = space.technologies[perms[kAxisTechnology][i] %
                                space.technologies.size()];
    p.vr_count = stratified_count(space.vr_count, perms[kAxisVrCount][i],
                                  jitter.next_double());
    p.periphery_rings = stratified_count(
        space.periphery_rings, perms[kAxisRings][i], jitter.next_double());
    p.below_die_area_fraction = stratified_param(
        space.below_die_area_fraction, perms[kAxisArea][i],
        jitter.next_double());
    p.vr_attach_series_ohms = stratified_param(
        space.vr_attach_series_ohms, perms[kAxisAttach][i],
        jitter.next_double());
    p.distribution_sheet_ohms = stratified_param(
        space.distribution_sheet_ohms, perms[kAxisSheet][i],
        jitter.next_double());
    points.push_back(p);
  }
  return points;
}

/// VR silicon area of the deployment as a fraction of the die footprint:
/// per-VR area is the Table II switch count over the published switch
/// density; two-stage architectures add their DPMIH-derived first stage.
double area_fraction_of(const DesignPoint& point,
                        const ArchitectureEvaluation& eval,
                        const PowerDeliverySpec& spec) {
  const auto per_vr_mm2 = [](TopologyKind kind) {
    const HybridConverterData data = topology_data(kind);
    VPD_REQUIRE(data.switches_per_mm2 > 0.0,
                "topology \"", data.name, "\" has no switch density");
    return static_cast<double>(data.switch_count) / data.switches_per_mm2;
  };
  double total_mm2 =
      static_cast<double>(eval.vr_count_stage2) * per_vr_mm2(point.topology);
  if (eval.vr_count_stage1 > 0) {
    total_mm2 += static_cast<double>(eval.vr_count_stage1) *
                 per_vr_mm2(TopologyKind::kDpmih);
  }
  const double die_mm2 = spec.die_area.value * 1e6;
  return total_mm2 / die_mm2;
}

double droop_fraction_of(const ArchitectureEvaluation& eval) {
  if (!eval.distribution_rail.has_value() ||
      !eval.min_distribution_voltage.has_value() ||
      eval.distribution_rail->value <= 0.0) {
    return 0.0;
  }
  return (eval.distribution_rail->value -
          eval.min_distribution_voltage->value) /
         eval.distribution_rail->value;
}

/// Non-dominated sorting over the candidates' cheap objectives,
/// restricted to `ids`. Returns fronts in rank order; each front keeps
/// ids ascending. Classic O(n^2 d) — population sizes are tens.
std::vector<std::vector<std::size_t>> nondominated_fronts(
    const std::vector<Candidate>& all, std::vector<std::size_t> ids) {
  std::sort(ids.begin(), ids.end());
  const std::size_t n = ids.size();
  std::vector<std::vector<double>> objectives(n);
  for (std::size_t i = 0; i < n; ++i) {
    objectives[i] = all[ids[i]].cheap_objectives();
  }
  std::vector<std::size_t> dominated_by(n, 0);
  std::vector<std::vector<std::size_t>> dominated(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dominates(objectives[i], objectives[j])) {
        dominated[i].push_back(j);
        ++dominated_by[j];
      } else if (dominates(objectives[j], objectives[i])) {
        dominated[j].push_back(i);
        ++dominated_by[i];
      }
    }
  }
  std::vector<std::vector<std::size_t>> fronts;
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    if (dominated_by[i] == 0) current.push_back(i);
  }
  while (!current.empty()) {
    std::vector<std::size_t> next;
    std::vector<std::size_t> front_ids;
    front_ids.reserve(current.size());
    for (std::size_t i : current) front_ids.push_back(ids[i]);
    for (std::size_t i : current) {
      for (std::size_t j : dominated[i]) {
        if (--dominated_by[j] == 0) next.push_back(j);
      }
    }
    std::sort(front_ids.begin(), front_ids.end());
    std::sort(next.begin(), next.end());
    fronts.push_back(std::move(front_ids));
    current = std::move(next);
  }
  return fronts;
}

/// NSGA-II crowding distance of one front (cheap objectives). Boundary
/// points get +inf; interior points the normalized neighbour gap sum.
std::unordered_map<std::size_t, double> crowding_distances(
    const std::vector<Candidate>& all, const std::vector<std::size_t>& front) {
  std::unordered_map<std::size_t, double> crowd;
  for (std::size_t id : front) crowd[id] = 0.0;
  if (front.empty()) return crowd;
  const std::size_t dims = all[front.front()].cheap_objectives().size();
  for (std::size_t axis = 0; axis < dims; ++axis) {
    std::vector<std::size_t> order = front;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const double fa = all[a].cheap_objectives()[axis];
                const double fb = all[b].cheap_objectives()[axis];
                if (fa != fb) return fa < fb;
                return a < b;
              });
    const double lo = all[order.front()].cheap_objectives()[axis];
    const double hi = all[order.back()].cheap_objectives()[axis];
    crowd[order.front()] = std::numeric_limits<double>::infinity();
    crowd[order.back()] = std::numeric_limits<double>::infinity();
    if (hi <= lo) continue;
    for (std::size_t i = 1; i + 1 < order.size(); ++i) {
      const double below = all[order[i - 1]].cheap_objectives()[axis];
      const double above = all[order[i + 1]].cheap_objectives()[axis];
      crowd[order[i]] += (above - below) / (hi - lo);
    }
  }
  return crowd;
}

}  // namespace

void OptimizerConfig::validate() const {
  VPD_REQUIRE(population >= 4, "population must be >= 4, got ", population);
  VPD_REQUIRE(generations >= 1, "generations must be >= 1");
  VPD_REQUIRE(std::isfinite(crossover_rate) && crossover_rate >= 0.0 &&
                  crossover_rate <= 1.0,
              "crossover_rate must be in [0, 1]");
  VPD_REQUIRE(std::isfinite(mutation_rate) && mutation_rate >= 0.0 &&
                  mutation_rate <= 1.0,
              "mutation_rate must be in [0, 1]");
  VPD_REQUIRE(std::isfinite(mutation_scale) && mutation_scale > 0.0,
              "mutation_scale must be positive");
  for (double e : epsilon) {
    VPD_REQUIRE(std::isfinite(e) && e >= 0.0,
                "epsilon sides must be finite and >= 0");
  }
  for (double r : reference) {
    VPD_REQUIRE(std::isfinite(r), "reference coordinates must be finite");
  }
  VPD_REQUIRE(base_options.faults.empty(),
              "optimizer base options must be fault-free (survivability "
              "scoring owns the injections)");
  VPD_REQUIRE(survivability.mesh_region_grid >= 1,
              "mesh_region_grid must be >= 1");
  survivability.severity.validate();
  survivability.resilience.validate();
}

std::vector<double> default_epsilon(std::size_t objective_count) {
  VPD_REQUIRE(objective_count == 3 || objective_count == 4,
              "the optimizer emits 3 or 4 objectives, got ",
              objective_count);
  std::vector<double> eps{2e-4, 2e-4, 1e-3};
  if (objective_count == 4) eps.push_back(1e-2);
  return eps;
}

std::vector<double> default_reference(std::size_t objective_count) {
  VPD_REQUIRE(objective_count == 3 || objective_count == 4,
              "the optimizer emits 3 or 4 objectives, got ",
              objective_count);
  // The area bound must clear the two-stage architectures, whose VR
  // silicon (stage 1 + stage 2) can approach the die footprint itself —
  // a 0.5 bound would clip every A3 point out of the hypervolume box.
  std::vector<double> ref{0.5, 0.2, 2.0};
  if (objective_count == 4) ref.push_back(1.0);
  return ref;
}

std::vector<double> Candidate::cheap_objectives() const {
  return {loss_fraction, droop_fraction, area_fraction};
}

std::vector<double> cheap_objectives_of(const PowerDeliverySpec& spec,
                                        const DesignPoint& point,
                                        const ArchitectureEvaluation& eval) {
  return {eval.loss_fraction(spec.total_power), droop_fraction_of(eval),
          area_fraction_of(point, eval, spec)};
}

obs::Snapshot OptimizeReport::snapshot() const {
  obs::Snapshot s;
  s.set_counter("opt.evaluations", evaluations);
  s.set_counter("opt.candidates", candidates);
  s.set_counter("opt.generations", generations_run);
  s.set_counter("opt.fault_campaigns", fault_campaigns);
  s.set_counter("opt.front_size", front.size());
  s.set_counter("mesh_cache.hits", cache_stats.hits);
  s.set_counter("mesh_cache.misses", cache_stats.misses);
  set_solver_counters(s, solver);
  s.set_counter("opt.batch_groups", batch.groups);
  s.set_counter("opt.batch_grouped_points", batch.grouped_points);
  s.set_counter("opt.batch_scalar_points", batch.scalar_points);
  s.set_counter("opt.batch_panel_columns", batch.panel_columns);
  s.set_counter("opt.batch_deduped_solves", batch.deduped_solves);
  s.set_gauge("opt.hypervolume", hypervolume, hypervolume);
  s.set_gauge("opt.wall_seconds", wall_seconds, wall_seconds);
  return s;
}

DesignOptimizer::DesignOptimizer(PowerDeliverySpec spec, DesignSpace space,
                                 OptimizerConfig config)
    : spec_(spec), space_(std::move(space)), config_(std::move(config)) {
  spec_.validate();
  space_.validate();
  config_.validate();
}

std::size_t DesignOptimizer::objective_count() const {
  return config_.survivability.max_elites == 0 ? 3 : 4;
}

OptimizeReport DesignOptimizer::run() const {
  const auto run_start = std::chrono::steady_clock::now();
  const OptimizerConfig& cfg = config_;
  const std::size_t nobj = objective_count();

  std::vector<double> eps =
      cfg.epsilon.empty() ? default_epsilon(nobj) : cfg.epsilon;
  VPD_REQUIRE(eps.size() == nobj, "epsilon carries ", eps.size(),
              " sides for ", nobj, " objectives");
  std::vector<double> reference =
      cfg.reference.empty() ? default_reference(nobj) : cfg.reference;
  VPD_REQUIRE(reference.size() == nobj, "reference carries ",
              reference.size(), " coordinates for ", nobj, " objectives");

  const std::size_t max_evaluations =
      cfg.max_evaluations != 0 ? cfg.max_evaluations
                               : cfg.population * (cfg.generations + 1);

  obs::Span run_span("opt.run", cfg.trace);
  // The run's own work; its sweeps and campaigns nest their accounts in it.
  obs::WorkAccount account;
  const obs::WorkAccount::Scope account_scope(&account);

  // One cache spans the whole run (every generation and every
  // survivability campaign), so each distinct mesh geometry is assembled
  // once no matter which generation rediscovers it.
  MeshSolveCache private_cache;
  SweepConfig sweep_config = cfg.sweep;
  if (sweep_config.use_mesh_cache && sweep_config.cache == nullptr) {
    sweep_config.cache = &private_cache;
  }
  SweepRunner runner(spec_, sweep_config);

  std::vector<Candidate> all;
  std::vector<bool> evaluated;
  std::unordered_map<std::string, std::size_t> index_by_key;
  std::size_t evaluations = 0;
  std::size_t fault_campaigns = 0;
  BatchStats batch_stats;

  // Dedup intern: a design point gets one candidate id forever; ids are
  // assigned in proposal order, which every tie-break leans on.
  const auto intern = [&](const DesignPoint& point, std::size_t generation) {
    std::string key = design_point_key(point);
    const auto it = index_by_key.find(key);
    if (it != index_by_key.end()) return it->second;
    const std::size_t id = all.size();
    Candidate c;
    c.id = id;
    c.generation = generation;
    c.point = point;
    all.push_back(std::move(c));
    evaluated.push_back(false);
    index_by_key.emplace(std::move(key), id);
    return id;
  };

  // Batch-evaluates not-yet-evaluated candidates through the sweep
  // runner (input-order results, parallel == serial bit-identical).
  // Returns the ids that actually ran; ids beyond the evaluation budget
  // are dropped in id order.
  const auto evaluate_batch = [&](std::vector<std::size_t> ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [&](std::size_t id) { return evaluated[id]; }),
              ids.end());
    if (evaluations + ids.size() > max_evaluations) {
      ids.resize(max_evaluations - evaluations);
    }
    if (ids.empty()) return ids;
    std::vector<SweepPoint> points;
    points.reserve(ids.size());
    for (std::size_t id : ids) {
      SweepPoint sp;
      sp.architecture = all[id].point.architecture;
      sp.topology = all[id].point.topology;
      sp.tech = all[id].point.tech;
      sp.options = lower(all[id].point, cfg.base_options);
      sp.options.trace = run_span.context();
      sp.label = design_point_key(all[id].point);
      points.push_back(std::move(sp));
    }
    const SweepReport batch = runner.run(points);
    batch_stats += batch.batch;
    evaluations += ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Candidate& c = all[ids[i]];
      const ExplorationEntry& entry = batch.outcomes[i].entry;
      c.feasible = !entry.excluded();
      c.exclusion_reason = entry.exclusion_reason;
      if (c.feasible) {
        const std::vector<double> objectives =
            cheap_objectives_of(spec_, c.point, *entry.evaluation);
        c.loss_fraction = objectives[kLossFraction];
        c.droop_fraction = objectives[kDroopFraction];
        c.area_fraction = objectives[kAreaFraction];
      }
      evaluated[ids[i]] = true;
    }
    return ids;
  };

  // NSGA-II environmental selection over an id pool: whole fronts while
  // they fit, the last front by crowding (descending, id ascending),
  // infeasible candidates only to pad out a short population.
  const auto select_population = [&](std::vector<std::size_t> pool) {
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    std::vector<std::size_t> feasible;
    std::vector<std::size_t> infeasible;
    for (std::size_t id : pool) {
      (all[id].feasible ? feasible : infeasible).push_back(id);
    }
    std::vector<std::size_t> next;
    for (auto& front : nondominated_fronts(all, feasible)) {
      if (next.size() >= cfg.population) break;
      if (next.size() + front.size() <= cfg.population) {
        next.insert(next.end(), front.begin(), front.end());
        continue;
      }
      const auto crowd = crowding_distances(all, front);
      std::sort(front.begin(), front.end(),
                [&](std::size_t a, std::size_t b) {
                  const double ca = crowd.at(a);
                  const double cb = crowd.at(b);
                  if (ca != cb) return ca > cb;
                  return a < b;
                });
      front.resize(cfg.population - next.size());
      next.insert(next.end(), front.begin(), front.end());
    }
    for (std::size_t id : infeasible) {
      if (next.size() >= cfg.population) break;
      next.push_back(id);
    }
    std::sort(next.begin(), next.end());
    return next;
  };

  // Scores up to max_elites unscored members of the current cheap front
  // with an exhaustive N-1 campaign each, in the front's stable order.
  const auto score_elites = [&]() {
    if (cfg.survivability.max_elites == 0) return;
    std::vector<std::size_t> feasible;
    for (std::size_t id = 0; id < all.size(); ++id) {
      if (evaluated[id] && all[id].feasible) feasible.push_back(id);
    }
    if (feasible.empty()) return;
    std::vector<std::size_t> front =
        nondominated_fronts(all, std::move(feasible)).front();
    std::sort(front.begin(), front.end(), [&](std::size_t a, std::size_t b) {
      const auto fa = all[a].cheap_objectives();
      const auto fb = all[b].cheap_objectives();
      if (fa != fb) return fa < fb;
      return a < b;
    });
    FaultCampaignConfig campaign;
    campaign.severity = cfg.survivability.severity;
    campaign.resilience = cfg.survivability.resilience;
    campaign.nk_samples = 0;  // exhaustive N-1 only
    campaign.include_dropouts = true;
    campaign.include_derates = true;
    campaign.include_attach_faults = cfg.survivability.include_attach_faults;
    campaign.include_mesh_regions = cfg.survivability.include_mesh_regions;
    campaign.mesh_region_grid = cfg.survivability.mesh_region_grid;
    campaign.sweep = sweep_config;
    const FaultCampaignRunner campaign_runner(spec_, campaign);
    std::size_t scored = 0;
    for (std::size_t id : front) {
      if (all[id].survivability.has_value()) continue;
      if (scored == cfg.survivability.max_elites) break;
      EvaluationOptions options = lower(all[id].point, cfg.base_options);
      options.trace = run_span.context();
      const FaultCampaignReport report = campaign_runner.run(
          all[id].point.architecture, all[id].point.topology,
          all[id].point.tech, options);
      all[id].survivability = report.survivability();
      batch_stats += report.batch;
      ++fault_campaigns;
      ++scored;
    }
  };

  // --- Generation 0: warm start + Latin hypercube -----------------------
  std::vector<std::size_t> generation_ids;
  for (const DesignPoint& point : cfg.warm_start) {
    VPD_REQUIRE(contains(space_, point), "warm-start point \"",
                design_point_key(point), "\" lies outside the design space");
    generation_ids.push_back(intern(point, 0));
  }
  for (const DesignPoint& point :
       latin_hypercube(space_, cfg.population, cfg.seed)) {
    generation_ids.push_back(intern(point, 0));
  }
  evaluate_batch(generation_ids);
  generation_ids.erase(
      std::remove_if(generation_ids.begin(), generation_ids.end(),
                     [&](std::size_t id) { return !evaluated[id]; }),
      generation_ids.end());
  std::vector<std::size_t> population = select_population(generation_ids);
  score_elites();

  // --- Generation loop --------------------------------------------------
  std::size_t generations_run = 0;
  for (std::size_t g = 1; g <= cfg.generations; ++g) {
    if (evaluations >= max_evaluations || population.empty()) break;

    // Parent ranks for the binary tournaments: (front, crowding, id).
    std::unordered_map<std::size_t, std::pair<std::size_t, double>> rank;
    {
      std::vector<std::size_t> feasible;
      for (std::size_t id : population) {
        if (all[id].feasible) feasible.push_back(id);
      }
      const auto fronts = nondominated_fronts(all, feasible);
      for (std::size_t f = 0; f < fronts.size(); ++f) {
        const auto crowd = crowding_distances(all, fronts[f]);
        for (std::size_t id : fronts[f]) rank[id] = {f, crowd.at(id)};
      }
      for (std::size_t id : population) {
        if (rank.find(id) == rank.end()) {
          rank[id] = {fronts.size() + 1, 0.0};  // infeasible: worst rank
        }
      }
    }
    const auto better = [&](std::size_t a, std::size_t b) {
      const auto& ra = rank.at(a);
      const auto& rb = rank.at(b);
      if (ra.first != rb.first) return ra.first < rb.first;
      if (ra.second != rb.second) return ra.second > rb.second;
      return a < b;
    };

    std::vector<std::size_t> children;
    for (std::size_t j = 0; j < cfg.population; ++j) {
      Rng rng(cfg.seed, kChildStreamBase + g * kGenerationStride + j);
      const auto tournament = [&]() {
        const std::size_t a = population[rng.next_below(
            static_cast<std::uint32_t>(population.size()))];
        const std::size_t b = population[rng.next_below(
            static_cast<std::uint32_t>(population.size()))];
        return better(a, b) ? a : b;
      };
      const DesignPoint& pa = all[tournament()].point;
      const DesignPoint& pb = all[tournament()].point;

      DesignPoint child = pa;
      if (rng.next_double() < cfg.crossover_rate) {
        // Uniform crossover on the discrete genes, arithmetic blend on
        // the continuous ones.
        if (rng.next_double() < 0.5) child.architecture = pb.architecture;
        if (rng.next_double() < 0.5) child.topology = pb.topology;
        if (rng.next_double() < 0.5) child.tech = pb.tech;
        if (rng.next_double() < 0.5) child.vr_count = pb.vr_count;
        if (rng.next_double() < 0.5) child.periphery_rings =
            pb.periphery_rings;
        child.below_die_area_fraction +=
            rng.next_double() *
            (pb.below_die_area_fraction - pa.below_die_area_fraction);
        child.vr_attach_series_ohms +=
            rng.next_double() *
            (pb.vr_attach_series_ohms - pa.vr_attach_series_ohms);
        child.distribution_sheet_ohms +=
            rng.next_double() *
            (pb.distribution_sheet_ohms - pa.distribution_sheet_ohms);
      }

      const auto mutate_count = [&](unsigned value, const CountRange& range) {
        if (rng.next_double() >= cfg.mutation_rate) return value;
        long long delta = std::llround(
            rng.normal() * cfg.mutation_scale *
            (static_cast<double>(range.span()) + 1.0));
        if (delta == 0) delta = rng.next_double() < 0.5 ? -1 : 1;
        return range.clamp(static_cast<long long>(value) + delta);
      };
      const auto mutate_param = [&](double value, const ParamRange& range) {
        if (rng.next_double() >= cfg.mutation_rate) return value;
        return range.clamp(value +
                           rng.normal() * cfg.mutation_scale * range.span());
      };
      if (rng.next_double() < cfg.mutation_rate) {
        child.architecture = space_.architectures[rng.next_below(
            static_cast<std::uint32_t>(space_.architectures.size()))];
      }
      if (rng.next_double() < cfg.mutation_rate) {
        child.topology = space_.topologies[rng.next_below(
            static_cast<std::uint32_t>(space_.topologies.size()))];
      }
      if (rng.next_double() < cfg.mutation_rate) {
        child.tech = space_.technologies[rng.next_below(
            static_cast<std::uint32_t>(space_.technologies.size()))];
      }
      child.vr_count = mutate_count(child.vr_count, space_.vr_count);
      child.periphery_rings =
          mutate_count(child.periphery_rings, space_.periphery_rings);
      child.below_die_area_fraction = mutate_param(
          child.below_die_area_fraction, space_.below_die_area_fraction);
      child.vr_attach_series_ohms = mutate_param(
          child.vr_attach_series_ohms, space_.vr_attach_series_ohms);
      child.distribution_sheet_ohms = mutate_param(
          child.distribution_sheet_ohms, space_.distribution_sheet_ohms);

      children.push_back(intern(repair(space_, child), g));
    }

    evaluate_batch(children);
    std::vector<std::size_t> pool = population;
    for (std::size_t id : children) {
      if (evaluated[id]) pool.push_back(id);
    }
    population = select_population(pool);
    score_elites();
    ++generations_run;
  }
  // One final pass so a budget-truncated last batch still gets its
  // cheap-front elites scored before the archive forms.
  score_elites();

  // --- Final ε-dominance archive ----------------------------------------
  ParetoArchive archive(eps);
  for (const Candidate& c : all) {
    if (!evaluated[c.id] || !c.feasible) continue;
    std::vector<double> objectives = c.cheap_objectives();
    if (nobj == 4) {
      if (!c.survivability.has_value()) continue;
      objectives.push_back(1.0 - *c.survivability);
    }
    archive.insert(c.id, std::move(objectives));
  }

  OptimizeReport report;
  for (const ArchiveEntry& entry : archive.entries()) {
    report.front.push_back(FrontEntry{all[entry.id], entry.objectives});
  }
  std::vector<std::vector<double>> front_objectives;
  front_objectives.reserve(report.front.size());
  for (const FrontEntry& entry : report.front) {
    front_objectives.push_back(entry.objectives);
  }
  report.evaluations = evaluations;
  report.candidates = all.size();
  report.generations_run = generations_run;
  report.fault_campaigns = fault_campaigns;
  report.batch = batch_stats;
  report.epsilon = std::move(eps);
  report.reference = std::move(reference);
  report.hypervolume = hypervolume(front_objectives, report.reference);
  report.cache_stats = mesh_cache_stats(account);
  report.solver = solver_counters(account);
  report.wall_seconds = seconds_since(run_start);
  run_span.set_arg("evaluations", static_cast<double>(report.evaluations));
  run_span.set_arg("front_size", static_cast<double>(report.front.size()));
  return report;
}

}  // namespace opt
}  // namespace vpd
