// Shared --json emission for the bench harnesses. Every bench keeps its
// human-readable text output as the default and gains a machine-readable
// mode through this helper: tables serialize as arrays of header-keyed
// objects, scalar findings as top-level fields, and every document
// carries the MeshSolveCache statistics of the run (zero when the bench
// performed no mesh solves) so cache behaviour is visible from any
// bench's output. All JSON goes through vpd::io — no hand-rolled
// printf-JSON anywhere in the benches.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "vpd/common/table.hpp"
#include "vpd/io/json.hpp"
#include "vpd/obs/registry.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace vpd {
namespace benchio {

/// Parses argv for a sole optional --json flag. Returns false (and prints
/// usage) on any other argument.
inline bool parse_json_flag(int argc, char** argv, bool* json) {
  *json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      *json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json]\n", argv[0]);
      return false;
    }
  }
  return true;
}

/// Accumulates a bench's structured output; print() emits one indented
/// JSON document to stdout.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) {
    doc_.set("bench", std::move(bench_name));
  }

  /// Serializes a table as `key: [{header: cell, ...}, ...]`.
  void add_table(const std::string& key, const TextTable& table) {
    io::Value rows = io::Value::array();
    for (const auto& row : table.rows()) {
      io::Value obj = io::Value::object();
      for (std::size_t c = 0; c < table.headers().size(); ++c) {
        obj.set(table.headers()[c], row[c]);
      }
      rows.push_back(std::move(obj));
    }
    doc_.set(key, std::move(rows));
  }

  void add(const std::string& key, io::Value value) {
    doc_.set(key, std::move(value));
  }

  void set_mesh_cache(const MeshSolveCache::Stats& stats) {
    io::Value v = io::Value::object();
    v.set("hits", stats.hits);
    v.set("misses", stats.misses);
    doc_.set("mesh_cache", std::move(v));
    snapshot_.set_counter("mesh_cache.hits", stats.hits);
    snapshot_.set_counter("mesh_cache.misses", stats.misses);
  }

  /// Serializes the solver work of the timed section (read from an
  /// obs::WorkAccount opened around it) as `solver: {...}`.
  void set_solver(const SolverCounters& counters) {
    io::Value v = io::Value::object();
    v.set("cg_solves", counters.cg_solves);
    v.set("cg_iterations", counters.cg_iterations);
    v.set("precond_factorizations", counters.precond_factorizations);
    v.set("precond_reuses", counters.precond_reuses);
    doc_.set("solver", std::move(v));
    set_solver_counters(snapshot_, counters);
  }

  /// Merges a unified-telemetry snapshot (e.g. SweepReport::snapshot(),
  /// FaultCampaignReport::snapshot() or ServiceMetrics::observability)
  /// into the document's "observability" member.
  void set_observability(const obs::Snapshot& snapshot) {
    // Overlay, not merge: the report's own mesh_cache.*/solver.* counters
    // and the subsystem snapshot describe the same instruments, so
    // same-name entries replace rather than double-count.
    snapshot_.overlay(snapshot);
  }

  void print() const {
    io::Value doc = doc_;
    if (doc.find("mesh_cache") == nullptr) {
      // Every bench document reports cache stats, benches without mesh
      // solves included.
      io::Value v = io::Value::object();
      v.set("hits", 0);
      v.set("misses", 0);
      doc.set("mesh_cache", std::move(v));
    }
    // Every bench document carries the unified telemetry shape alongside
    // its bench-specific fields (see docs/observability.md).
    doc.set("observability", snapshot_.to_json());
    std::string out = io::dump_pretty(doc);
    std::fputs(out.c_str(), stdout);
    std::fputc('\n', stdout);
  }

 private:
  io::Value doc_ = io::Value::object();
  obs::Snapshot snapshot_;
};

}  // namespace benchio
}  // namespace vpd
