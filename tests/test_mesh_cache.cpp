// MeshSolveCache: keying, hit/miss accounting, identity of shared
// operators, one symbolic analysis per grid, concurrent getters (each key
// built once, outside the lock; a failed build reaches every waiter), and
// equivalence with per-call assembly (the property the sweep engine's
// bit-identical guarantee rests on). Runs in the `solver` executable, so
// the sanitizer jobs cover the concurrent cases.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "vpd/common/error.hpp"
#include "vpd/package/irdrop.hpp"
#include "vpd/package/mesh_cache.hpp"

namespace vpd {
namespace {

using vpd::literals::operator""_mm;
using vpd::literals::operator""_V;

TEST(MeshSolveCache, HitsShareOneAssembly) {
  MeshSolveCache cache;
  const auto a = cache.get(10.0_mm, 10.0_mm, 11, 11, 2e-3);
  const auto b = cache.get(10.0_mm, 10.0_mm, 11, 11, 2e-3);
  EXPECT_EQ(a.get(), b.get());  // same immutable object
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MeshSolveCache, DistinctKeysAssembleSeparately) {
  MeshSolveCache cache;
  const auto base = cache.get(10.0_mm, 10.0_mm, 11, 11, 2e-3);
  EXPECT_NE(base.get(), cache.get(10.0_mm, 10.0_mm, 11, 11, 4e-3).get());
  EXPECT_NE(base.get(), cache.get(10.0_mm, 10.0_mm, 21, 11, 2e-3).get());
  EXPECT_NE(base.get(), cache.get(12.0_mm, 10.0_mm, 11, 11, 2e-3).get());
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MeshSolveCache, CachedAssemblyMatchesDirectAssembly) {
  MeshSolveCache cache;
  const auto cached = cache.get(22.36_mm, 22.36_mm, 21, 21, 2e-3);
  const auto direct = assemble_mesh(22.36_mm, 22.36_mm, 21, 21, 2e-3);
  ASSERT_EQ(cached->laplacian.nonzero_count(),
            direct->laplacian.nonzero_count());
  EXPECT_EQ(cached->laplacian.values(), direct->laplacian.values());
  EXPECT_EQ(cached->laplacian.col_indices(), direct->laplacian.col_indices());
}

TEST(MeshSolveCache, AssemblyCarriesTheMultigridHierarchy) {
  // Every assembled mesh ships a ready multigrid hierarchy sized to its
  // grid, so kMultigrid solves through the cache never rebuild it. A
  // 33x33 grid coarsens to at most 64 nodes in three steps, so the
  // hierarchy must have several levels, not a degenerate single one.
  MeshSolveCache cache;
  const auto assembled = cache.get(10.0_mm, 10.0_mm, 33, 33, 2e-3);
  ASSERT_FALSE(assembled->mg_symbolic.empty());
  EXPECT_EQ(assembled->mg_symbolic.rows(), assembled->mesh.node_count());
  EXPECT_GE(assembled->mg_symbolic.level_count(), 3u);
  // The hierarchy is usable as-is for a solve against the cached operator.
  std::vector<VrAttachment> vrs{
      {assembled->mesh.node(16, 0), 1.0_V, Resistance{1e-4}}};
  Vector sinks(assembled->mesh.node_count(),
               50.0 / assembled->mesh.node_count());
  IrDropOptions options;
  options.warm_start_voltage = 1.0;
  options.preconditioner = CgPreconditioner::kMultigrid;
  const IrDropResult result = solve_irdrop(*assembled, vrs, sinks, options);
  EXPECT_GT(result.cg_iterations, 0u);
  EXPECT_GT(result.min_node_voltage.value, 0.8);
}

TEST(MeshSolveCache, SolveThroughCacheIsBitIdenticalToDirectSolve) {
  MeshSolveCache cache;
  const auto assembled = cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3);
  const GridMesh direct(10.0_mm, 10.0_mm, 15, 15, 2e-3);

  std::vector<VrAttachment> vrs{
      {assembled->mesh.node(7, 0), 1.0_V, Resistance{1e-4}},
      {assembled->mesh.node(7, 14), 1.0_V, Resistance{1e-4}}};
  Vector sinks(assembled->mesh.node_count(),
               50.0 / assembled->mesh.node_count());
  const IrDropResult via_cache = solve_irdrop(*assembled, vrs, sinks);
  const IrDropResult via_mesh = solve_irdrop(direct, vrs, sinks);
  ASSERT_EQ(via_cache.node_voltages.size(), via_mesh.node_voltages.size());
  for (std::size_t i = 0; i < via_cache.node_voltages.size(); ++i) {
    EXPECT_EQ(via_cache.node_voltages[i], via_mesh.node_voltages[i]);
  }
  EXPECT_EQ(via_cache.vr_currents, via_mesh.vr_currents);
  EXPECT_EQ(via_cache.cg_iterations, via_mesh.cg_iterations);
}

// Regression for the latent aliasing defect: the cache key originally
// carried only (width, height, nx, ny, sheet), so a conductance-perturbed
// request would have returned the nominal operator. The key now includes
// a digest of the perturbation; a perturbed mesh must never hit the
// nominal entry.
TEST(MeshSolveCache, PerturbedRequestNeverHitsNominalEntry) {
  MeshSolveCache cache;
  const MeshPerturbation damage{
      EdgeScaleRegion{2.0_mm, 2.0_mm, 4.0_mm, 4.0_mm, 0.1}};
  const auto nominal = cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3);
  const auto perturbed = cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3, damage);
  EXPECT_NE(nominal.get(), perturbed.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_TRUE(perturbed->mesh.perturbed());
  EXPECT_FALSE(nominal->mesh.perturbed());
  // The perturbed operator really differs from the nominal one.
  EXPECT_NE(nominal->laplacian.values(), perturbed->laplacian.values());
  // Same perturbation hits its own entry; the nominal entry stays intact.
  EXPECT_EQ(perturbed.get(),
            cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3, damage).get());
  EXPECT_EQ(nominal.get(), cache.get(10.0_mm, 10.0_mm, 15, 15, 2e-3).get());
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(MeshSolveCache, PerturbationDigestSeparatesNominalAndVariants) {
  EXPECT_EQ(mesh_perturbation_digest(MeshPerturbation{}), 0u);
  const MeshPerturbation a{
      EdgeScaleRegion{2.0_mm, 2.0_mm, 4.0_mm, 4.0_mm, 0.1}};
  MeshPerturbation b = a;
  b.front().scale = 0.2;
  EXPECT_NE(mesh_perturbation_digest(a), 0u);  // non-empty never keys as 0
  EXPECT_EQ(mesh_perturbation_digest(a), mesh_perturbation_digest(a));
  EXPECT_NE(mesh_perturbation_digest(a), mesh_perturbation_digest(b));
}

TEST(MeshSolveCache, PerturbedCachedAssemblyMatchesDirectAssembly) {
  const MeshPerturbation damage{
      EdgeScaleRegion{1.0_mm, 1.0_mm, 5.0_mm, 3.0_mm, 0.25}};
  MeshSolveCache cache;
  // The nominal key comes first, so the perturbed key takes the grid
  // analysis built from the nominal Laplacian; the direct assembly builds
  // its own.
  const auto nominal = cache.get(10.0_mm, 10.0_mm, 21, 21, 2e-3);
  const auto cached = cache.get(10.0_mm, 10.0_mm, 21, 21, 2e-3, damage);
  EXPECT_EQ(cache.analyses(), 1u);
  const auto direct = assemble_mesh(10.0_mm, 10.0_mm, 21, 21, 2e-3, damage);
  ASSERT_EQ(cached->laplacian.nonzero_count(),
            direct->laplacian.nonzero_count());
  EXPECT_EQ(cached->laplacian.values(), direct->laplacian.values());
  EXPECT_EQ(cached->laplacian.col_indices(), direct->laplacian.col_indices());

  // Solves through the cache are bit-identical to solves on the direct
  // assembly, with both preconditioners that use a symbolic analysis. A
  // nominal solve between the two forces the direct solve to refactor
  // instead of reusing the cached solve's factorization.
  const std::vector<VrAttachment> vrs{
      {cached->mesh.node(10, 0), 1.0_V, Resistance{1e-4}},
      {cached->mesh.node(10, 20), 1.0_V, Resistance{1e-4}}};
  const Vector sinks(cached->mesh.node_count(),
                     50.0 / cached->mesh.node_count());
  for (CgPreconditioner preconditioner :
       {CgPreconditioner::kIncompleteCholesky, CgPreconditioner::kMultigrid}) {
    IrDropOptions options;
    options.warm_start_voltage = 1.0;
    options.preconditioner = preconditioner;
    const IrDropResult via_cache = solve_irdrop(*cached, vrs, sinks, options);
    (void)solve_irdrop(*nominal, vrs, sinks, options);
    const IrDropResult via_direct = solve_irdrop(*direct, vrs, sinks, options);
    EXPECT_EQ(via_cache.node_voltages, via_direct.node_voltages)
        << to_string(preconditioner);
    EXPECT_EQ(via_cache.vr_currents, via_direct.vr_currents)
        << to_string(preconditioner);
    EXPECT_EQ(via_cache.cg_iterations, via_direct.cg_iterations)
        << to_string(preconditioner);
  }
}

TEST(MeshSolveCache, ConcurrentGettersBuildEachKeyOnce) {
  // Three nominal keys (two on one grid) and three perturbations of that
  // grid, fetched by 8 threads in rotated orders: each key is built once
  // and every getter of a key sees that one object.
  struct Request {
    Length side;
    std::size_t nodes;
    double sheet;
    MeshPerturbation perturbation;
  };
  const std::vector<Request> requests{
      {10.0_mm, 21, 2e-3, {}},
      {10.0_mm, 21, 4e-3, {}},
      {12.0_mm, 15, 2e-3, {}},
      {10.0_mm, 21, 2e-3, {EdgeScaleRegion{1.0_mm, 1.0_mm, 5.0_mm, 3.0_mm,
                                           0.25}}},
      {10.0_mm, 21, 2e-3, {EdgeScaleRegion{4.0_mm, 4.0_mm, 6.0_mm, 6.0_mm,
                                           0.0}}},
      {10.0_mm, 21, 2e-3, {EdgeScaleRegion{0.0_mm, 0.0_mm, 10.0_mm,
                                           2.0_mm, 1.5}}}};
  const std::size_t keys = requests.size();
  MeshSolveCache cache;
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::shared_ptr<const AssembledMesh>>> seen(
      kThreads, std::vector<std::shared_ptr<const AssembledMesh>>(keys));
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < keys; ++i) {
          const std::size_t k = (i + t) % keys;
          const Request& r = requests[k];
          seen[t][k] = cache.get(r.side, r.side, r.nodes, r.nodes, r.sheet,
                                 r.perturbation);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (std::size_t k = 0; k < keys; ++k) {
    ASSERT_NE(seen[0][k], nullptr) << "key " << k;
    for (std::size_t t = 1; t < kThreads; ++t)
      EXPECT_EQ(seen[0][k].get(), seen[t][k].get()) << "key " << k;
    for (std::size_t other = 0; other < k; ++other)
      EXPECT_NE(seen[0][k].get(), seen[0][other].get());
  }
  EXPECT_EQ(cache.stats().misses, keys);
  EXPECT_EQ(cache.stats().hits, kThreads * keys - keys);
  EXPECT_EQ(cache.size(), keys);
  EXPECT_EQ(cache.analyses(), 2u);  // the 21x21 grid and the 15x15 grid
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.analyses(), 0u);
}

TEST(MeshSolveCache, FailedBuildReachesEveryWaiterAndLeavesNoEntry) {
  // A zero sheet resistance makes the build throw. Two getters released
  // together race on that key: the one that misses builds and throws, the
  // other either waits on that build and rethrows its error or, arriving
  // after the failed slot is gone, misses and throws itself. Either way
  // both throw, neither hangs, and nothing stays cached.
  MeshSolveCache cache;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ready{0};
    std::atomic<int> thrown{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        ++ready;
        while (ready.load() < 2) std::this_thread::yield();
        try {
          (void)cache.get(10.0_mm, 10.0_mm, 21, 21, 0.0);
        } catch (const InvalidArgument&) {
          ++thrown;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(thrown.load(), 2) << "round " << round;
    EXPECT_EQ(cache.size(), 0u) << "round " << round;
  }
  EXPECT_EQ(cache.analyses(), 0u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses,
            static_cast<std::size_t>(2 * kRounds));
  // The failure poisons nothing: a valid key still builds and hits.
  const auto mesh = cache.get(10.0_mm, 10.0_mm, 21, 21, 2e-3);
  EXPECT_EQ(mesh.get(), cache.get(10.0_mm, 10.0_mm, 21, 21, 2e-3).get());
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace vpd
