// vpd_perfbench — the repository benchmark's binary.
//
//   vpd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (sweep_fine, fault_campaign, droop_campaign,
// serve_mix) on inputs generated from the seed, checks its outputs, and
// prints one JSON document as its last stdout line: correct / attempted /
// failed, the metrics (end-to-end with --trace 0, per-layer with
// --trace 1), the deterministic work counts and any problems found.
// Exits 1 when a check failed, 2 on a usage error. run.py builds this
// binary and turns its document into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using perfbench::MetricSpec;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"mesh.assemblies", "count"},
    {"mesh.assemble_ms", "ms"},
    {"mesh.cache_hit_ratio", "ratio"},
    {"irdrop.solves", "count"},
    {"irdrop.overhead_us", "us"},
    {"probe.assemble_ms", "ms"},
    {"probe.irdrop_ms", "ms"},
    {"solver.cg_solves", "count"},
    {"solver.cg_iterations", "count"},
    {"solver.iterations_per_solve", "count"},
    {"solver.warm_solve_us", "us"},
    {"solver.cold_solve_us", "us"},
    {"solver.precond_factorizations", "count"},
    {"solver.precond_reuse_ratio", "ratio"},
    {"mg.solve_ms", "ms"},
    {"batch.groups", "count"},
    {"batch.dedup_ratio", "ratio"},
    {"batch.block_yield", "ratio"},
    {"evaluate.calls_per_point", "count"},
    {"evaluate.self_ms", "ms"},
    {"sweep.point_ms", "ms"},
    {"sweep.worker_busy_ratio", "ratio"},
    {"fault.scenarios", "count"},
    {"fault.scenario_ms", "ms"},
    {"transient.steps", "count"},
    {"transient.step_us", "us"},
    {"transient.lu_hit_ratio", "ratio"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.evaluated", "count"},
    {"serve.rejected", "count"},
    {"serve.queue_high_water", "count"},
    {"serve.latency_p99_ms", "ms"},
    {"io.parse_us", "us"},
    {"io.decode_us", "us"},
    {"io.key_us", "us"},
    {"io.encode_us", "us"},
    {"net.overhead_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"gen.late_p99_ms", "ms"},
    {"gen.backlog_max", "count"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || !(options.seconds > 0.0)) {
    return usage(argv[0]);
  }

  perfbench::RunRecord record;
  try {
    if (options.workload == "serve_mix") {
      perfbench::run_serve_mix(options, record);
    } else if (!perfbench::run_batch_workload(options, record)) {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    record.fail(std::string("run aborted: ") + e.what());
  }
  std::cout << vpd::io::dump(
                   record.to_json(options.trace ? kPerLayer : kEndToEnd))
            << std::endl;
  return record.failed() == 0 ? 0 : 1;
}
