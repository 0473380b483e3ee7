#include "vpd/sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "vpd/common/error.hpp"
#include "vpd/sweep/thread_pool.hpp"

namespace vpd {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::size_t SweepReport::total_cg_iterations() const {
  std::size_t total = 0;
  for (const SweepOutcome& o : outcomes) total += o.stats.cg_iterations;
  return total;
}

obs::Snapshot SweepReport::snapshot() const {
  obs::Snapshot s;
  s.set_counter("sweep.points", outcomes.size());
  s.set_counter("sweep.threads", threads_used);
  s.set_counter("sweep.cg_iterations", total_cg_iterations());
  s.set_counter("mesh_cache.hits", cache_stats.hits);
  s.set_counter("mesh_cache.misses", cache_stats.misses);
  set_solver_counters(s, solver);
  s.set_counter("sweep.batch_groups", batch.groups);
  s.set_counter("sweep.batch_grouped_points", batch.grouped_points);
  s.set_counter("sweep.batch_scalar_points", batch.scalar_points);
  s.set_counter("sweep.batch_panel_columns", batch.panel_columns);
  s.set_counter("sweep.batch_deduped_solves", batch.deduped_solves);
  s.set_gauge("sweep.wall_seconds", wall_seconds, wall_seconds);
  obs::HistogramData point_seconds(obs::default_latency_bounds());
  for (const SweepOutcome& o : outcomes) {
    point_seconds.record(o.stats.wall_seconds);
  }
  s.set_histogram("sweep.point_seconds", std::move(point_seconds));
  return s;
}

SweepRunner::SweepRunner(PowerDeliverySpec spec, SweepConfig config)
    : spec_(spec), config_(config) {
  spec_.validate();
}

SweepReport SweepRunner::run(const std::vector<SweepPoint>& points) const {
  const auto run_start = std::chrono::steady_clock::now();
  // The run's own work, exact beside any concurrent run; the worker pools
  // below join before it ends.
  obs::WorkAccount account;
  const obs::WorkAccount::Scope account_scope(&account);

  // Whichever cache the run uses lives at least as long as the workers.
  MeshSolveCache private_cache;
  MeshSolveCache* const cache =
      config_.cache != nullptr ? config_.cache : &private_cache;

  SweepReport report;
  report.outcomes.resize(points.size());

  const auto harvest_cg = [](SweepOutcome& out) {
    const ArchitectureEvaluation* eval =
        out.entry.evaluation ? &*out.entry.evaluation
                             : (out.entry.extrapolated
                                    ? &*out.entry.extrapolated
                                    : nullptr);
    if (eval != nullptr) out.stats.cg_iterations = eval->cg_iterations;
  };

  std::size_t threads = config_.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }

  if (config_.batch) {
    std::vector<EvaluationPoint> batch_points;
    batch_points.reserve(points.size());
    for (const SweepPoint& point : points) {
      EvaluationPoint p{point.architecture, point.topology, point.tech,
                        point.options};
      p.options.mesh_cache = cache;
      batch_points.push_back(std::move(p));
    }
    EvaluationBatch batch(spec_, std::move(batch_points));
    if (threads == 1 || points.size() <= 1) {
      // Serial reference path: same phases, calling thread.
      batch.run();
      report.threads_used = 1;
    } else {
      // The phases parallelize without changing results: prepare and
      // execute tasks own disjoint slots, and the single-threaded plan()
      // groups in input order regardless of prepare completion order.
      ThreadPool pool(threads);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        pool.submit([&batch, i] { batch.prepare(i); });
      }
      pool.wait_idle();
      batch.plan();
      for (std::size_t u = 0; u < batch.unit_count(); ++u) {
        pool.submit([&batch, u] { batch.execute(u); });
      }
      pool.wait_idle();
      report.threads_used = pool.thread_count();
    }
    // Surface the first failure in input order (deterministic, unlike
    // completion order).
    batch.rethrow_first_error();
    report.batch = batch.stats();
    for (std::size_t i = 0; i < points.size(); ++i) {
      SweepOutcome& out = report.outcomes[i];
      out.point = points[i];
      out.entry = std::move(batch.entry(i));
      out.stats.wall_seconds = batch.wall_seconds(i);
      harvest_cg(out);
    }
  } else {
    std::vector<std::exception_ptr> errors(points.size());

    // Point-at-a-time scalar loop, kept as the bit-identity reference. Each
    // task owns exactly one pre-assigned slot, so no result
    // synchronization is needed beyond the pool's quiescence barrier;
    // slot order (== input order) is independent of completion order.
    const auto evaluate_point = [&](std::size_t index) {
      const SweepPoint& point = points[index];
      SweepOutcome& out = report.outcomes[index];
      out.point = point;
      const auto start = std::chrono::steady_clock::now();
      try {
        EvaluationOptions options = point.options;
        options.mesh_cache = cache;
        out.entry = evaluate_with_exclusion(spec_, point.architecture,
                                            point.topology, point.tech,
                                            options);
        harvest_cg(out);
      } catch (...) {
        errors[index] = std::current_exception();
      }
      out.stats.wall_seconds = seconds_since(start);
    };

    if (threads == 1 || points.size() <= 1) {
      // Serial reference path: same evaluation routine, calling thread.
      for (std::size_t i = 0; i < points.size(); ++i) evaluate_point(i);
      report.threads_used = 1;
    } else {
      ThreadPool pool(threads);
      for (std::size_t i = 0; i < points.size(); ++i) {
        pool.submit([&evaluate_point, i] { evaluate_point(i); });
      }
      pool.wait_idle();
      report.threads_used = pool.thread_count();
    }

    // Surface the first failure in input order (deterministic, unlike
    // completion order).
    for (std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  report.cache_stats = mesh_cache_stats(account);
  report.solver = solver_counters(account);
  report.wall_seconds = seconds_since(run_start);
  return report;
}

std::string sweep_point_label(ArchitectureKind arch,
                              std::optional<TopologyKind> topo,
                              DeviceTechnology tech,
                              const std::string& variant) {
  std::string label = to_string(arch);
  if (topo) label += std::string("/") + to_string(*topo);
  if (tech != DeviceTechnology::kGalliumNitride) {
    label += std::string("/") + to_string(tech);
  }
  if (!variant.empty()) label += "/" + variant;
  return label;
}

SweepGridBuilder::SweepGridBuilder(EvaluationOptions base_options)
    : base_options_(std::move(base_options)),
      architectures_(all_architectures()),
      topologies_(all_topologies()),
      technologies_{DeviceTechnology::kGalliumNitride} {}

SweepGridBuilder& SweepGridBuilder::architectures(
    std::vector<ArchitectureKind> archs) {
  architectures_ = std::move(archs);
  return *this;
}

SweepGridBuilder& SweepGridBuilder::topologies(
    std::vector<TopologyKind> topos) {
  topologies_ = std::move(topos);
  return *this;
}

SweepGridBuilder& SweepGridBuilder::technologies(
    std::vector<DeviceTechnology> techs) {
  technologies_ = std::move(techs);
  return *this;
}

SweepGridBuilder& SweepGridBuilder::add_option_variant(
    EvaluationOptions options, std::string label) {
  variants_.emplace_back(std::move(options), std::move(label));
  return *this;
}

std::vector<SweepPoint> SweepGridBuilder::build() const {
  VPD_REQUIRE(!architectures_.empty(), "no architectures selected");
  VPD_REQUIRE(!technologies_.empty(), "no technologies selected");
  const std::vector<std::pair<EvaluationOptions, std::string>> variants =
      variants_.empty()
          ? std::vector<std::pair<EvaluationOptions, std::string>>{
                {base_options_, std::string()}}
          : variants_;

  std::vector<SweepPoint> points;
  for (const auto& [options, variant] : variants) {
    for (DeviceTechnology tech : technologies_) {
      for (ArchitectureKind arch : architectures_) {
        if (arch == ArchitectureKind::kA0_PcbConversion) {
          SweepPoint p;
          p.architecture = arch;
          p.tech = tech;
          p.options = options;
          p.label = sweep_point_label(arch, std::nullopt, tech, variant);
          points.push_back(std::move(p));
          continue;
        }
        VPD_REQUIRE(!topologies_.empty(),
                    "no topologies selected for a VPD architecture");
        for (TopologyKind topo : topologies_) {
          SweepPoint p;
          p.architecture = arch;
          p.topology = topo;
          p.tech = tech;
          p.options = options;
          p.label = sweep_point_label(arch, topo, tech, variant);
          points.push_back(std::move(p));
        }
      }
    }
  }
  return points;
}

}  // namespace vpd
