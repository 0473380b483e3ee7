// Design-space sweep engine: enumerates architecture x topology x device
// technology x evaluation-option grids and evaluates every point on a
// worker pool, sharing one MeshSolveCache so each distinct mesh geometry
// is assembled exactly once per sweep. Points ride the batch evaluation
// engine (core/batch.hpp) by default: each point is prepared once up to
// its mesh solve, same-operator points — sink-map variants, fault load
// scalings — are grouped and solve against one stamped operator
// (value-identical sinks once), and every point then finishes from its
// result.
//
// Determinism contract: results come back in input order, and a parallel
// run is bit-identical to a serial run of the same points and to the
// scalar loop (batch=false). This holds because prepare and finish are
// the halves of evaluate_with_exclusion with no cross-point mutable state
// — the CG warm start is a flat rail-voltage vector derived from the
// point itself, cached mesh operators are immutable and numerically
// identical to a per-call assembly, the solver is deterministic in its
// inputs, and batch grouping happens single-threaded in input order,
// independent of prepare completion order. Only SweepStats timing fields
// vary run to run.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "vpd/arch/evaluator.hpp"
#include "vpd/core/batch.hpp"
#include "vpd/core/explorer.hpp"
#include "vpd/core/spec.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace vpd {

/// One evaluation point. `options.mesh_cache` is overwritten by the
/// runner (the sweep owns the cache); every other field is honoured.
struct SweepPoint {
  ArchitectureKind architecture{};
  std::optional<TopologyKind> topology;  // nullopt only for A0
  DeviceTechnology tech{DeviceTechnology::kGalliumNitride};
  EvaluationOptions options;
  std::string label;  // free-form; the grid builder fills "A1/DSCH/GaN"
};

/// Per-point measurements. `wall_seconds` is scheduling-dependent;
/// `cg_iterations` is deterministic (it mirrors the evaluation).
struct SweepStats {
  double wall_seconds{0.0};
  std::size_t cg_iterations{0};
};

struct SweepOutcome {
  SweepPoint point;
  ExplorationEntry entry;
  SweepStats stats;
};

struct SweepConfig {
  /// Worker threads; 0 picks std::thread::hardware_concurrency(). A
  /// value of 1 runs the points inline on the calling thread (the serial
  /// reference path — bit-identical to any parallel run).
  std::size_t threads{0};
  /// Mesh cache the points share assembled operators through, also across
  /// run() calls; nullptr makes the runner use one private cache per
  /// run(). Must outlive the runner's run() calls.
  MeshSolveCache* cache{nullptr};
  /// Route the points through the batch evaluation engine (core/batch.hpp):
  /// same-operator points solve their distinct sink vectors against one
  /// stamped operator instead of one scalar evaluation each. false runs
  /// the point-at-a-time scalar loop, the bit-identity reference.
  bool batch{true};
};

struct SweepReport {
  /// One outcome per input point, in input order.
  std::vector<SweepOutcome> outcomes;
  double wall_seconds{0.0};
  std::size_t threads_used{0};
  /// This run's own mesh lookups (its work account), exact even beside
  /// other runs on the same cache: hits + misses counts its points'
  /// lookups, misses the distinct geometries it found unassembled.
  MeshSolveCache::Stats cache_stats;
  /// This run's own solver work (its work account; other runs in the
  /// process never count here). cg_solves and cg_iterations are
  /// deterministic; the factorization/reuse split depends on how points
  /// land on the thread-local solver workspaces, i.e. on scheduling.
  SolverCounters solver;
  /// Batch-engine accounting (all zero when SweepConfig::batch is false).
  /// Deterministic in the point list alone.
  BatchStats batch;

  std::size_t total_cg_iterations() const;

  /// The report's metrics in the unified telemetry shape (sweep.* counters
  /// and gauges, mesh_cache.* and solver.* counters, and a
  /// sweep.point_seconds histogram over the per-point wall times); emitted
  /// via obs::Snapshot::to_json() by the --json benches.
  obs::Snapshot snapshot() const;
};

class SweepRunner {
 public:
  explicit SweepRunner(PowerDeliverySpec spec, SweepConfig config = {});

  const PowerDeliverySpec& spec() const { return spec_; }
  const SweepConfig& config() const { return config_; }

  /// Evaluates every point. Infeasible/over-rating points come back as
  /// excluded entries (the explorer's exclusion rule); any other error
  /// is rethrown on the calling thread — the first one in input order,
  /// after all workers have finished.
  SweepReport run(const std::vector<SweepPoint>& points) const;

 private:
  PowerDeliverySpec spec_;
  SweepConfig config_;
};

/// Builds the cross-product point list in the canonical exploration
/// order: for each technology, A0 once, then every architecture x
/// topology pair with architectures outermost. The default grid matches
/// ArchitectureExplorer::explore (all architectures, all topologies,
/// GaN).
class SweepGridBuilder {
 public:
  explicit SweepGridBuilder(EvaluationOptions base_options = {});

  SweepGridBuilder& architectures(std::vector<ArchitectureKind> archs);
  SweepGridBuilder& topologies(std::vector<TopologyKind> topos);
  SweepGridBuilder& technologies(std::vector<DeviceTechnology> techs);
  /// Appends option variants (each produces a full grid copy, in the
  /// order added). `label` tags the variant in the point labels. When no
  /// variant is added the base options form the single variant.
  SweepGridBuilder& add_option_variant(EvaluationOptions options,
                                       std::string label = "");

  std::vector<SweepPoint> build() const;

 private:
  EvaluationOptions base_options_;
  std::vector<ArchitectureKind> architectures_;
  std::vector<TopologyKind> topologies_;
  std::vector<DeviceTechnology> technologies_;
  std::vector<std::pair<EvaluationOptions, std::string>> variants_;
};

/// "A1" / "A1/DSCH" / "A1/DSCH/Si" / "A1/DSCH/Si/variant" label used by
/// the grid builder (tech omitted for GaN, the paper's default).
std::string sweep_point_label(ArchitectureKind arch,
                              std::optional<TopologyKind> topo,
                              DeviceTechnology tech,
                              const std::string& variant = "");

}  // namespace vpd
