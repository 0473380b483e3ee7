// Preconditioned solver core: IC(0)-vs-dense-reference property tests on
// random SPD grid Laplacians, workspace/factorization reuse semantics,
// batched solves, the CG edge paths (zero RHS, warm start at the
// solution, max-iteration exit with certified acceptance), the SSOR
// fallback, and the zero-scale fault-severing regressions (a fully cut
// copper region must ground its floating nodes instead of handing CG a
// singular operator). Runs in its own ctest executable labelled `solver`.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "vpd/common/error.hpp"
#include "vpd/common/matrix.hpp"
#include "vpd/common/multigrid.hpp"
#include "vpd/common/rng.hpp"
#include "vpd/common/sparse.hpp"
#include "vpd/obs/trace.hpp"
#include "vpd/package/irdrop.hpp"
#include "vpd/package/mesh.hpp"

namespace vpd {
namespace {

// ---------------------------------------------------------------------------
// Helpers: random SPD grid Laplacians and a dense Cholesky reference
// ---------------------------------------------------------------------------

/// nx x ny grid Laplacian with random positive edge conductances plus
/// random shunts (to ground) on a few nodes — the exact structure of an
/// IR-drop operator, with none of its symmetry to hide bugs behind.
TripletList random_laplacian_triplets(Rng& rng, std::size_t nx,
                                      std::size_t ny,
                                      std::size_t shunt_count) {
  const std::size_t n = nx * ny;
  TripletList t(n, n);
  const auto node = [nx](std::size_t ix, std::size_t iy) {
    return iy * nx + ix;
  };
  const auto stamp = [&](std::size_t a, std::size_t b, double g) {
    t.add(a, a, g);
    t.add(b, b, g);
    t.add(a, b, -g);
    t.add(b, a, -g);
  };
  for (std::size_t iy = 0; iy < ny; ++iy)
    for (std::size_t ix = 0; ix + 1 < nx; ++ix)
      stamp(node(ix, iy), node(ix + 1, iy), rng.uniform(0.5, 2.0));
  for (std::size_t iy = 0; iy + 1 < ny; ++iy)
    for (std::size_t ix = 0; ix < nx; ++ix)
      stamp(node(ix, iy), node(ix, iy + 1), rng.uniform(0.5, 2.0));
  for (std::size_t s = 0; s < shunt_count; ++s) {
    const std::size_t shunted = rng.next_below(static_cast<std::uint32_t>(n));
    t.add(shunted, shunted, rng.uniform(0.1, 1.0));
  }
  return t;
}

CsrMatrix random_spd_laplacian(Rng& rng, std::size_t nx, std::size_t ny,
                               std::size_t shunt_count) {
  return CsrMatrix(random_laplacian_triplets(rng, nx, ny, shunt_count));
}

/// random_spd_laplacian's structure plus both diagonal couplings of every
/// grid cell: a 9-point Laplacian, the widest pattern multigrid accepts.
CsrMatrix random_nine_point_laplacian(Rng& rng, std::size_t nx,
                                      std::size_t ny,
                                      std::size_t shunt_count) {
  TripletList t = random_laplacian_triplets(rng, nx, ny, shunt_count);
  const auto stamp = [&](std::size_t a, std::size_t b, double g) {
    t.add(a, a, g);
    t.add(b, b, g);
    t.add(a, b, -g);
    t.add(b, a, -g);
  };
  for (std::size_t iy = 0; iy + 1 < ny; ++iy) {
    for (std::size_t ix = 0; ix + 1 < nx; ++ix) {
      const std::size_t i = iy * nx + ix;
      stamp(i, i + nx + 1, rng.uniform(0.25, 1.0));
      stamp(i + 1, i + nx, rng.uniform(0.25, 1.0));
    }
  }
  return CsrMatrix(t);
}

Vector random_vector(Rng& rng, std::size_t n) {
  Vector v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Dense Cholesky solve — the O(n^3) reference the sparse path is checked
/// against. Throws via ADD_FAILURE on a non-positive pivot.
Vector dense_cholesky_solve(const CsrMatrix& a, const Vector& b) {
  const std::size_t n = a.rows();
  std::vector<double> dense(n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = a.row_offsets()[r]; k < a.row_offsets()[r + 1]; ++k)
      dense[r * n + a.col_indices()[k]] = a.values()[k];
  // In-place lower Cholesky.
  for (std::size_t j = 0; j < n; ++j) {
    double d = dense[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= dense[j * n + k] * dense[j * n + k];
    EXPECT_GT(d, 0.0) << "dense reference lost positive definiteness";
    const double l_jj = std::sqrt(d);
    dense[j * n + j] = l_jj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = dense[i * n + j];
      for (std::size_t k = 0; k < j; ++k)
        s -= dense[i * n + k] * dense[j * n + k];
      dense[i * n + j] = s / l_jj;
    }
  }
  Vector x = b;
  for (std::size_t i = 0; i < n; ++i) {  // L y = b
    for (std::size_t k = 0; k < i; ++k) x[i] -= dense[i * n + k] * x[k];
    x[i] /= dense[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {  // L^T x = y
    for (std::size_t k = i + 1; k < n; ++k) x[i] -= dense[k * n + i] * x[k];
    x[i] /= dense[i * n + i];
  }
  return x;
}

// ---------------------------------------------------------------------------
// IC(0) vs dense reference
// ---------------------------------------------------------------------------

TEST(SolverCore, IcMatchesDenseReferenceOnRandomSpdLaplacians) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const std::size_t nx = 3 + seed;  // 4x5 up to 8x9 grids
    const std::size_t ny = nx + 1;
    const CsrMatrix a = random_spd_laplacian(rng, nx, ny, 4);
    ASSERT_TRUE(a.is_symmetric());
    const Vector b = random_vector(rng, a.rows());
    const Vector reference = dense_cholesky_solve(a, b);

    CgOptions options;
    options.relative_tolerance = 1e-13;
    options.preconditioner = CgPreconditioner::kIncompleteCholesky;
    const CgResult result = solve_cg(a, b, options);
    ASSERT_TRUE(result.converged) << "seed " << seed;
    ASSERT_EQ(result.x.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_NEAR(result.x[i], reference[i],
                  1e-8 * (1.0 + std::fabs(reference[i])))
          << "seed " << seed << " node " << i;
  }
}

TEST(SolverCore, JacobiAndIcConvergeToTheSameSolution) {
  Rng rng(42);
  const CsrMatrix a = random_spd_laplacian(rng, 7, 7, 5);
  const Vector b = random_vector(rng, a.rows());
  CgOptions jacobi;
  jacobi.relative_tolerance = 1e-13;
  jacobi.preconditioner = CgPreconditioner::kJacobi;
  CgOptions ic = jacobi;
  ic.preconditioner = CgPreconditioner::kIncompleteCholesky;
  const CgResult xj = solve_cg(a, b, jacobi);
  const CgResult xi = solve_cg(a, b, ic);
  ASSERT_TRUE(xj.converged);
  ASSERT_TRUE(xi.converged);
  for (std::size_t i = 0; i < a.rows(); ++i)
    EXPECT_NEAR(xj.x[i], xi.x[i], 1e-8 * (1.0 + std::fabs(xj.x[i])));
  // The whole point of the factorization: fewer iterations than Jacobi.
  EXPECT_LT(xi.iterations, xj.iterations);
}

TEST(SolverCore, AlternatingPatternsRebuildTheAnalysisBitIdentically) {
  // One workspace alternates matrix structures. Each preconditioner keeps
  // its symbolic analysis only while the pattern (IC) or the grid
  // (multigrid) stays the same: a kept analysis of the right size mapped
  // onto another structure would factor the wrong entries. So every solve
  // must be bit-identical to a fresh workspace's.
  const auto expect_fresh_bits = [](const CsrMatrix& a, const Vector& b,
                                    const CgOptions& options, CgWorkspace& ws,
                                    const std::string& what) {
    const CgResult kept = solve_cg(a, b, options, ws);
    CgWorkspace fresh;
    const CgResult own = solve_cg(a, b, options, fresh);
    ASSERT_TRUE(kept.converged) << what;
    EXPECT_EQ(kept.x, own.x) << what;
    EXPECT_EQ(kept.iterations, own.iterations) << what;
    EXPECT_EQ(kept.residual_norm, own.residual_norm) << what;
  };

  // IC: a 64x64 tridiagonal matrix and an 8x8 five-point Laplacian have
  // the same size but different patterns.
  TripletList tridiagonal(64, 64);
  for (std::size_t i = 0; i < 64; ++i) {
    tridiagonal.add(i, i, 4.0);
    if (i + 1 < 64) {
      tridiagonal.add(i, i + 1, -1.0);
      tridiagonal.add(i + 1, i, -1.0);
    }
  }
  const CsrMatrix tri(tridiagonal);
  Rng rng(79);
  const CsrMatrix lap = random_spd_laplacian(rng, 8, 8, 2);
  ASSERT_EQ(lap.rows(), tri.rows());
  ASSERT_NE(lap.structure_digest(), tri.structure_digest());
  CgOptions ic;
  ic.preconditioner = CgPreconditioner::kIncompleteCholesky;
  CgWorkspace ws;
  int step = 0;
  for (const CsrMatrix* a : {&tri, &lap, &tri}) {
    expect_fresh_bits(*a, random_vector(rng, a->rows()), ic, ws,
                      "IC step " + std::to_string(++step));
  }

  // Multigrid: grids of other shapes, two of them with the same node
  // count (16x15 and 15x16), then the first grid again.
  struct Grid {
    std::size_t nx;
    std::size_t ny;
  };
  for (const Grid g : {Grid{17, 17}, Grid{16, 15}, Grid{15, 16},
                       Grid{17, 17}}) {
    const CsrMatrix a = random_spd_laplacian(rng, g.nx, g.ny, 4);
    const MgSymbolic grid(g.nx, g.ny);
    CgOptions mg;
    mg.preconditioner = CgPreconditioner::kMultigrid;
    mg.mg_symbolic = &grid;
    expect_fresh_bits(a, random_vector(rng, a.rows()), mg, ws,
                      "multigrid " + std::to_string(g.nx) + "x" +
                          std::to_string(g.ny));
  }

  // Multigrid on one grid, alternating a 5-point and a 9-point operator:
  // the kept hierarchy serves both, the fine pattern follows the matrix.
  const MgSymbolic grid(9, 9);
  CgOptions mg;
  mg.preconditioner = CgPreconditioner::kMultigrid;
  mg.mg_symbolic = &grid;
  const CsrMatrix five = random_spd_laplacian(rng, 9, 9, 3);
  const CsrMatrix nine = random_nine_point_laplacian(rng, 9, 9, 3);
  step = 0;
  for (const CsrMatrix* a : {&five, &nine, &five}) {
    expect_fresh_bits(*a, random_vector(rng, a->rows()), mg, ws,
                      "9x9 step " + std::to_string(++step));
  }
}

// ---------------------------------------------------------------------------
// Workspace reuse and batched solves
// ---------------------------------------------------------------------------

TEST(SolverCore, StructureDigestFollowsThePatternOnly) {
  Rng rng(83);
  const CsrMatrix a = random_spd_laplacian(rng, 8, 8, 3);

  // Copies carry the digest, and value edits keep it.
  CsrMatrix edited = a;
  EXPECT_EQ(edited.structure_digest(), a.structure_digest());
  edited.add_to_entry(0, 0, 0.5);
  edited.values_mut()[1] *= 2.0;
  EXPECT_EQ(edited.structure_digest(), a.structure_digest());

  // Compiled separately from the same triplets: equal digests, and one
  // workspace reuses its factorization across the two objects — the key
  // names a pattern and its values, not an object.
  Rng twin_rng(83);
  const CsrMatrix twin = random_spd_laplacian(twin_rng, 8, 8, 3);
  ASSERT_EQ(twin.values(), a.values());
  EXPECT_EQ(twin.structure_digest(), a.structure_digest());
  const Vector b = random_vector(rng, a.rows());
  CgOptions options;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;
  CgWorkspace ws;
  obs::WorkAccount account;
  const obs::WorkAccount::Scope scope(&account);
  const CgResult first = solve_cg(a, b, options, ws);
  const CgResult second = solve_cg(twin, b, options, ws);
  EXPECT_EQ(solver_counters(account).precond_factorizations, 1u);
  EXPECT_EQ(solver_counters(account).precond_reuses, 1u);
  EXPECT_EQ(first.x, second.x);

  // A different pattern of the same size gets a different digest.
  TripletList tridiagonal(a.rows(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    tridiagonal.add(i, i, 4.0);
    if (i + 1 < a.rows()) {
      tridiagonal.add(i, i + 1, -1.0);
      tridiagonal.add(i + 1, i, -1.0);
    }
  }
  const CsrMatrix other(tridiagonal);
  ASSERT_EQ(other.rows(), a.rows());
  EXPECT_NE(other.structure_digest(), a.structure_digest());
}

TEST(SolverCore, WorkspaceReusesFactorizationOnIdenticalMatrix) {
  Rng rng(3);
  CsrMatrix a = random_spd_laplacian(rng, 8, 8, 4);
  const Vector b = random_vector(rng, a.rows());
  CgOptions options;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;

  CgWorkspace ws;
  obs::WorkAccount account;
  const obs::WorkAccount::Scope scope(&account);
  const CgResult first = solve_cg(a, b, options, ws);
  const CgResult second = solve_cg(a, b, options, ws);
  EXPECT_EQ(solver_counters(account).cg_solves, 2u);
  EXPECT_EQ(solver_counters(account).precond_factorizations, 1u);
  EXPECT_EQ(solver_counters(account).precond_reuses, 1u);
  // Reuse is keyed on an exact value match, so it can never change a bit.
  EXPECT_EQ(first.x, second.x);
  EXPECT_EQ(first.iterations, second.iterations);
  EXPECT_EQ(first.residual_norm, second.residual_norm);

  // Any value change (same pattern) forces a refactorization.
  a.add_to_entry(0, 0, 0.25);
  (void)solve_cg(a, b, options, ws);
  EXPECT_EQ(solver_counters(account).precond_factorizations, 2u);

  // invalidate() drops the cached key even though the values still match.
  ws.invalidate();
  (void)solve_cg(a, b, options, ws);
  EXPECT_EQ(solver_counters(account).precond_factorizations, 3u);
  EXPECT_EQ(solver_counters(account).precond_reuses, 1u);
}

TEST(SolverCore, BatchSolveSharesOneFactorizationBitIdentically) {
  Rng rng(11);
  const CsrMatrix a = random_spd_laplacian(rng, 9, 7, 5);
  std::vector<Vector> rhs;
  for (int k = 0; k < 3; ++k) rhs.push_back(random_vector(rng, a.rows()));
  CgOptions options;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;

  CgWorkspace ws;
  obs::WorkAccount account;
  const obs::WorkAccount::Scope scope(&account);
  std::vector<CgResult> batch;
  for (const Vector& b : rhs) batch.push_back(solve_cg(a, b, options, ws));
  const SolverCounters counted = solver_counters(account);
  EXPECT_EQ(counted.cg_solves, rhs.size());
  EXPECT_EQ(counted.precond_factorizations, 1u);
  EXPECT_EQ(counted.precond_reuses, rhs.size() - 1);
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    const CgResult standalone = solve_cg(a, rhs[k], options);
    EXPECT_EQ(batch[k].x, standalone.x) << "rhs " << k;
    EXPECT_EQ(batch[k].iterations, standalone.iterations) << "rhs " << k;
    EXPECT_EQ(batch[k].residual_norm, standalone.residual_norm) << "rhs " << k;
    EXPECT_TRUE(batch[k].converged) << "rhs " << k;
  }
}

TEST(SolverCore, MultiplyIntoMatchesMultiply) {
  Rng rng(23);
  const CsrMatrix a = random_spd_laplacian(rng, 6, 10, 3);
  const Vector x = random_vector(rng, a.rows());
  Vector y;
  a.multiply_into(x, y);
  EXPECT_EQ(y, a.multiply(x));
}

// ---------------------------------------------------------------------------
// CG edge paths
// ---------------------------------------------------------------------------

TEST(SolverCore, ZeroRhsConvergesInZeroIterations) {
  Rng rng(5);
  const CsrMatrix a = random_spd_laplacian(rng, 6, 6, 3);
  const Vector b(a.rows(), 0.0);
  for (CgPreconditioner p :
       {CgPreconditioner::kJacobi, CgPreconditioner::kIncompleteCholesky}) {
    CgOptions options;
    options.preconditioner = p;
    const CgResult result = solve_cg(a, b, options);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.iterations, 0u);
    EXPECT_EQ(result.residual_norm, 0.0);
    EXPECT_EQ(result.x, Vector(a.rows(), 0.0));
  }
}

TEST(SolverCore, WarmStartAtTheSolutionConvergesInZeroIterations) {
  Rng rng(9);
  const CsrMatrix a = random_spd_laplacian(rng, 8, 8, 4);
  const Vector b = random_vector(rng, a.rows());
  CgOptions options;
  options.relative_tolerance = 1e-12;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;
  const CgResult cold = solve_cg(a, b, options);
  ASSERT_TRUE(cold.converged);
  EXPECT_GT(cold.iterations, 0u);

  options.x0 = cold.x;
  const CgResult warm = solve_cg(a, b, options);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iterations, 0u);
  EXPECT_EQ(warm.x, cold.x);
}

TEST(SolverCore, MaxIterationExitHonoursTheCertifiedCriterion) {
  Rng rng(13);
  const CsrMatrix a = random_spd_laplacian(rng, 12, 12, 2);
  const Vector b = random_vector(rng, a.rows());

  // Tight tolerance, one iteration: the solve must report non-convergence
  // with the true residual, not silently accept the iterate.
  CgOptions tight;
  tight.relative_tolerance = 1e-12;
  tight.max_iterations = 1;
  tight.preconditioner = CgPreconditioner::kJacobi;
  const CgResult failed = solve_cg(a, b, tight);
  EXPECT_EQ(failed.iterations, 1u);
  EXPECT_FALSE(failed.converged);
  // residual_norm is the true ||b - A x||, recomputed at exit.
  Vector check = a.multiply(failed.x);
  for (std::size_t i = 0; i < check.size(); ++i) check[i] = b[i] - check[i];
  EXPECT_NEAR(failed.residual_norm, norm2(check),
              1e-12 * (1.0 + norm2(check)));

  // Loose tolerance, same single iteration: the certified normwise
  // backward-error criterion accepts the iterate at the cap.
  CgOptions loose = tight;
  loose.relative_tolerance = 0.5;
  const CgResult accepted = solve_cg(a, b, loose);
  EXPECT_EQ(accepted.iterations, 1u);
  EXPECT_TRUE(accepted.converged);
  EXPECT_LE(accepted.residual_norm,
            loose.relative_tolerance *
                (a.infinity_norm() * norm2(accepted.x) + norm2(b)));
}

TEST(SolverCore, RejectsShapeMismatchesAndIndefiniteMatrices) {
  TripletList rect(2, 3);
  rect.add(0, 0, 1.0);
  EXPECT_THROW(solve_cg(CsrMatrix(rect), Vector(2, 1.0)), InvalidArgument);

  TripletList square(2, 2);
  square.add(0, 0, 1.0);
  square.add(1, 1, 1.0);
  const CsrMatrix identity(square);
  EXPECT_THROW(solve_cg(identity, Vector(3, 1.0)), InvalidArgument);

  TripletList negative(2, 2);
  negative.add(0, 0, 1.0);
  negative.add(1, 1, -1.0);
  EXPECT_THROW(solve_cg(CsrMatrix(negative), Vector(2, 1.0)), NumericalError);
}

// ---------------------------------------------------------------------------
// SSOR fallback
// ---------------------------------------------------------------------------

TEST(SolverCore, FactorizationFallsBackToSsorWhenAPivotBreaksDown) {
  // Positive diagonal but indefinite: the IC pivot at row 1 is
  // 1 - 2^2 = -3, so factor() must fall back to SSOR,
  // M = (D + L) D^{-1} (D + L)^T = [[1, 2], [2, 5]].
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(0, 1, 2.0);
  t.add(1, 0, 2.0);
  const CsrMatrix a(t);

  IcPreconditioner precond;
  precond.factor(a);
  EXPECT_TRUE(precond.ssor_fallback());
  const Vector r{1.0, 1.0};
  Vector z;
  precond.apply(r, z);
  ASSERT_EQ(z.size(), 2u);
  EXPECT_NEAR(z[0], 3.0, 1e-12);   // M^{-1} [1 1]^T = [3 -1]^T
  EXPECT_NEAR(z[1], -1.0, 1e-12);

  // Positive control: a genuinely SPD operator factors without fallback.
  Rng rng(17);
  IcPreconditioner healthy;
  healthy.factor(random_spd_laplacian(rng, 5, 5, 2));
  EXPECT_FALSE(healthy.ssor_fallback());
}

// ---------------------------------------------------------------------------
// Zero-scale fault severing (the crash this PR fixes)
// ---------------------------------------------------------------------------

TEST(Severing, ZeroScaleRegionKeepsTheSparsityPattern) {
  const Length side{10e-3};
  const GridMesh nominal(side, side, 21, 21, 2e-3);
  const MeshPerturbation cut{
      EdgeScaleRegion{Length{0.0}, Length{0.0}, Length{3e-3}, Length{3e-3},
                      0.0}};
  const GridMesh damaged(side, side, 21, 21, 2e-3, cut);
  ASSERT_TRUE(damaged.perturbed());
  const CsrMatrix a_nominal(nominal.laplacian());
  const CsrMatrix a_damaged(damaged.laplacian());
  // Severed edges stay as stored zeros: identical pattern, so cached
  // symbolic factorizations and in-place stamping stay valid.
  EXPECT_EQ(a_damaged.nonzero_count(), a_nominal.nonzero_count());
  EXPECT_EQ(a_damaged.row_offsets(), a_nominal.row_offsets());
  EXPECT_EQ(a_damaged.col_indices(), a_nominal.col_indices());
}

TEST(Severing, FullyCutRegionGroundsFloatingNodesInsteadOfAborting) {
  const Length side{10e-3};
  const double rail = 1.0;
  const MeshPerturbation cut{
      EdgeScaleRegion{Length{0.0}, Length{0.0}, Length{3e-3}, Length{3e-3},
                      0.0}};
  const GridMesh mesh(side, side, 21, 21, 2e-3, cut);

  // One VR patch *inside* the dead region (its nodes survive through
  // their source shunts), one healthy patch far away.
  std::vector<VrAttachment> vrs;
  for (const auto& center :
       std::vector<std::pair<double, double>>{{1.5e-3, 1.5e-3},
                                              {8e-3, 8e-3}}) {
    const auto patch =
        patch_attachment(mesh, Length{center.first}, Length{center.second},
                         Length{1.5e-3}, Voltage{rail}, Resistance{100e-6});
    vrs.insert(vrs.end(), patch.begin(), patch.end());
  }
  const Vector sinks = uniform_sinks(mesh, Current{100.0});

  IrDropOptions options;
  options.warm_start_voltage = rail;
  IrDropResult result;
  // Before the fix this threw NumericalError: the severed nodes left a
  // zero diagonal (singular operator) in the CG solve.
  ASSERT_NO_THROW(result = solve_irdrop(mesh, vrs, sinks, options));

  // The 6x6 node block strictly inside the cut is severed; the 3x3 VR
  // patch within it keeps its shunts, the other 27 nodes float.
  EXPECT_EQ(result.floating_nodes, 27u);
  EXPECT_EQ(result.min_node_voltage.value, 0.0);  // dead rail reads 0 V
  EXPECT_GT(result.max_node_voltage.value, 0.9);
  ASSERT_EQ(result.node_voltages.size(), mesh.node_count());
  for (double v : result.node_voltages) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, rail + 1e-9);
  }
  EXPECT_TRUE(std::isfinite(result.grid_loss.value));
  EXPECT_TRUE(std::isfinite(result.series_loss.value));
  for (double i : result.vr_currents) EXPECT_TRUE(std::isfinite(i));

  // An intact mesh keeps reporting zero floating nodes.
  const GridMesh intact(side, side, 21, 21, 2e-3);
  std::vector<VrAttachment> intact_vrs;
  for (const auto& center :
       std::vector<std::pair<double, double>>{{1.5e-3, 1.5e-3},
                                              {8e-3, 8e-3}}) {
    const auto patch =
        patch_attachment(intact, Length{center.first}, Length{center.second},
                         Length{1.5e-3}, Voltage{rail}, Resistance{100e-6});
    intact_vrs.insert(intact_vrs.end(), patch.begin(), patch.end());
  }
  const IrDropResult healthy =
      solve_irdrop(intact, intact_vrs, uniform_sinks(intact, Current{100.0}),
                   options);
  EXPECT_EQ(healthy.floating_nodes, 0u);
  EXPECT_GT(healthy.min_node_voltage.value, 0.9);
}

// ---------------------------------------------------------------------------
// Geometric multigrid preconditioner
// ---------------------------------------------------------------------------

TEST(Multigrid, MatchesDenseReferenceOnRandomSpdLaplacians) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const std::size_t nx = 5 + seed;  // 6x7 up to 10x11 grids
    const std::size_t ny = nx + 1;
    const CsrMatrix a = random_spd_laplacian(rng, nx, ny, 4);
    const Vector b = random_vector(rng, a.rows());
    const Vector reference = dense_cholesky_solve(a, b);

    const MgSymbolic hierarchy(nx, ny);
    CgOptions options;
    options.relative_tolerance = 1e-13;
    options.preconditioner = CgPreconditioner::kMultigrid;
    options.mg_symbolic = &hierarchy;
    const CgResult result = solve_cg(a, b, options);
    ASSERT_TRUE(result.converged) << "seed " << seed;
    ASSERT_EQ(result.x.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_NEAR(result.x[i], reference[i],
                  1e-8 * (1.0 + std::fabs(reference[i])))
          << "seed " << seed << " node " << i;
  }
}

TEST(Multigrid, MatchesDenseReferenceOnNinePointLaplacians) {
  // The factor's pattern contract is the 3x3 grid neighbourhood: the
  // diagonal couplings of a 9-point operator factor and solve like the
  // 5-point stencil, on even and odd grid dimensions alike and through a
  // three-level hierarchy (17x17).
  struct Grid {
    std::size_t nx;
    std::size_t ny;
  };
  std::uint64_t seed = 0;
  for (const Grid g : {Grid{8, 9}, Grid{9, 9}, Grid{10, 7}, Grid{17, 17}}) {
    Rng rng(++seed);
    const CsrMatrix a = random_nine_point_laplacian(rng, g.nx, g.ny, 4);
    ASSERT_TRUE(a.is_symmetric());
    const Vector b = random_vector(rng, a.rows());
    const Vector reference = dense_cholesky_solve(a, b);

    const MgSymbolic grid(g.nx, g.ny);
    MgPreconditioner hierarchy;
    hierarchy.factor(a, grid);
    ASSERT_GE(hierarchy.level_count(), 2u);
    CgOptions options;
    options.relative_tolerance = 1e-13;
    options.preconditioner = CgPreconditioner::kMultigrid;
    options.mg_symbolic = &grid;
    const CgResult result = solve_cg(a, b, options);
    ASSERT_TRUE(result.converged) << g.nx << "x" << g.ny;
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_NEAR(result.x[i], reference[i],
                  1e-8 * (1.0 + std::fabs(reference[i])))
          << g.nx << "x" << g.ny << " node " << i;
  }
}

TEST(Multigrid, RejectsEntriesOutsideTheGridNeighbourhood) {
  // Each pair couples two nodes that are not 3x3 grid neighbours: two
  // columns apart on one row, from an even and an odd column, across the
  // end of a row (one offset by +1 and one landing on the next row), and
  // corner to corner. The operator stays SPD, so only the pattern check
  // can refuse it.
  constexpr std::size_t nx = 9;
  constexpr std::size_t ny = 9;
  constexpr std::size_t n = nx * ny;
  const MgSymbolic hierarchy(nx, ny);
  CgOptions options;
  options.preconditioner = CgPreconditioner::kMultigrid;
  options.mg_symbolic = &hierarchy;
  const std::pair<std::size_t, std::size_t> escapes[] = {
      {0, 2}, {1, 3}, {nx - 1, nx}, {nx - 1, nx + 1}, {0, n - 1}};
  for (const auto& [i, j] : escapes) {
    Rng rng(43);
    TripletList t = random_laplacian_triplets(rng, nx, ny, 3);
    t.add(i, i, 0.5);
    t.add(j, j, 0.5);
    t.add(i, j, -0.5);
    t.add(j, i, -0.5);
    const CsrMatrix a(t);
    const Vector b = random_vector(rng, n);
    EXPECT_THROW(solve_cg(a, b, options), InvalidArgument)
        << "entry (" << i << "," << j << ")";
  }

  // Positive control: the same operator without the extra coupling.
  Rng rng(43);
  const CsrMatrix a = random_spd_laplacian(rng, nx, ny, 3);
  EXPECT_TRUE(solve_cg(a, random_vector(rng, n), options).converged);
}

TEST(Multigrid, IterationCountStaysFlatAcrossRefinement) {
  // Mesh-size independence is the multigrid property: the same solve at
  // 17x17 through 65x65 must not grow its iteration count by more than
  // 2x (IC(0) roughly doubles per refinement step on this ladder).
  const Length side{10e-3};
  std::size_t min_iters = 0, max_iters = 0;
  for (std::size_t nodes : {17ul, 33ul, 65ul}) {
    const GridMesh mesh(side, side, nodes, nodes, 2e-3);
    const auto vrs =
        patch_attachment(mesh, Length{5e-3}, Length{0.0}, Length{1.5e-3},
                         Voltage{1.0}, Resistance{100e-6});
    IrDropOptions options;
    options.warm_start_voltage = 1.0;
    options.preconditioner = CgPreconditioner::kMultigrid;
    const IrDropResult result =
        solve_irdrop(mesh, vrs, uniform_sinks(mesh, Current{100.0}), options);
    if (min_iters == 0 || result.cg_iterations < min_iters)
      min_iters = result.cg_iterations;
    if (result.cg_iterations > max_iters) max_iters = result.cg_iterations;
  }
  EXPECT_GT(min_iters, 0u);
  EXPECT_LE(max_iters, 2 * min_iters)
      << "multigrid iterations grew from " << min_iters << " to "
      << max_iters << " across the refinement ladder";
}

TEST(Multigrid, WorkspaceReusesHierarchyBitIdentically) {
  Rng rng(29);
  CsrMatrix a = random_spd_laplacian(rng, 9, 9, 4);
  const Vector b = random_vector(rng, a.rows());
  const MgSymbolic hierarchy(9, 9);
  CgOptions options;
  options.preconditioner = CgPreconditioner::kMultigrid;
  options.mg_symbolic = &hierarchy;

  CgWorkspace ws;
  obs::WorkAccount account;
  const obs::WorkAccount::Scope scope(&account);
  const CgResult first = solve_cg(a, b, options, ws);
  const CgResult second = solve_cg(a, b, options, ws);
  EXPECT_EQ(solver_counters(account).precond_factorizations, 1u);
  EXPECT_EQ(solver_counters(account).precond_reuses, 1u);
  EXPECT_EQ(first.x, second.x);
  EXPECT_EQ(first.iterations, second.iterations);
  EXPECT_EQ(first.residual_norm, second.residual_norm);

  // A value change (same pattern) recomputes the Galerkin hierarchy.
  a.add_to_entry(0, 0, 0.25);
  (void)solve_cg(a, b, options, ws);
  EXPECT_EQ(solver_counters(account).precond_factorizations, 2u);
}

TEST(Multigrid, SwitchingPreconditionerKindsRefactors) {
  // One workspace alternating IC and multigrid on the same operator: each
  // switch is a fresh factorization (the cached kind no longer matches),
  // and both kinds keep returning certified results.
  Rng rng(31);
  const CsrMatrix a = random_spd_laplacian(rng, 8, 8, 3);
  const Vector b = random_vector(rng, a.rows());
  const MgSymbolic hierarchy(8, 8);
  CgWorkspace ws;

  CgOptions ic;
  ic.preconditioner = CgPreconditioner::kIncompleteCholesky;
  CgOptions mg;
  mg.preconditioner = CgPreconditioner::kMultigrid;
  mg.mg_symbolic = &hierarchy;

  obs::WorkAccount account;
  const obs::WorkAccount::Scope scope(&account);
  const CgResult r1 = solve_cg(a, b, ic, ws);
  const CgResult r2 = solve_cg(a, b, mg, ws);
  const CgResult r3 = solve_cg(a, b, ic, ws);
  EXPECT_EQ(solver_counters(account).precond_factorizations, 3u);
  EXPECT_EQ(solver_counters(account).precond_reuses, 0u);
  for (const CgResult* r : {&r1, &r2, &r3}) ASSERT_TRUE(r->converged);
  // Same certified solution through both kinds.
  for (std::size_t i = 0; i < a.rows(); ++i)
    EXPECT_NEAR(r2.x[i], r1.x[i], 1e-8 * (1.0 + std::fabs(r1.x[i])));
  EXPECT_EQ(r3.x, r1.x);  // same kind, same operator: bit-identical
}

TEST(Multigrid, RejectsMissingOrMismatchedHierarchy) {
  Rng rng(37);
  const CsrMatrix a = random_spd_laplacian(rng, 8, 8, 3);
  const Vector b = random_vector(rng, a.rows());
  CgOptions options;
  options.preconditioner = CgPreconditioner::kMultigrid;
  EXPECT_THROW(solve_cg(a, b, options), InvalidArgument);  // no hierarchy

  const MgSymbolic wrong(4, 4);  // 16 rows against a 64-row operator
  options.mg_symbolic = &wrong;
  EXPECT_THROW(solve_cg(a, b, options), InvalidArgument);
}

TEST(Multigrid, SolvesSeveredMeshLikeIc) {
  // Grounded floating nodes perturb the operator values but not its
  // pattern, so the grid-stencil hierarchy still applies.
  const Length side{10e-3};
  const MeshPerturbation cut{
      EdgeScaleRegion{Length{0.0}, Length{0.0}, Length{3e-3}, Length{3e-3},
                      0.0}};
  const GridMesh mesh(side, side, 21, 21, 2e-3, cut);
  std::vector<VrAttachment> vrs;
  for (const auto& center :
       std::vector<std::pair<double, double>>{{1.5e-3, 1.5e-3},
                                              {8e-3, 8e-3}}) {
    const auto patch =
        patch_attachment(mesh, Length{center.first}, Length{center.second},
                         Length{1.5e-3}, Voltage{1.0}, Resistance{100e-6});
    vrs.insert(vrs.end(), patch.begin(), patch.end());
  }
  const Vector sinks = uniform_sinks(mesh, Current{100.0});
  IrDropOptions ic;
  ic.warm_start_voltage = 1.0;
  IrDropOptions mg = ic;
  mg.preconditioner = CgPreconditioner::kMultigrid;
  const IrDropResult ic_result = solve_irdrop(mesh, vrs, sinks, ic);
  const IrDropResult mg_result = solve_irdrop(mesh, vrs, sinks, mg);
  EXPECT_EQ(mg_result.floating_nodes, ic_result.floating_nodes);
  ASSERT_EQ(mg_result.node_voltages.size(), ic_result.node_voltages.size());
  for (std::size_t i = 0; i < ic_result.node_voltages.size(); ++i)
    EXPECT_NEAR(mg_result.node_voltages[i], ic_result.node_voltages[i], 1e-6);
}

// ---------------------------------------------------------------------------
// Multigrid stencil form against the CSR reference it replaced
// ---------------------------------------------------------------------------

/// The CSR V(1,1)-cycle and Galerkin product MgPreconditioner ran before
/// its levels became grid stencils: prolongation and restriction as CSR
/// matrices, coarse operators on a symbolic Galerkin pattern scattered into
/// a dense row accumulator, every row summed in ascending column order.
/// The stencil form must reproduce it bit for bit.
class CsrMultigridReference {
 public:
  void factor(const CsrMatrix& a, std::size_t nx, std::size_t ny) {
    build(nx, ny);
    Level& fine = levels_.front();
    fine.a_offsets.assign(a.row_offsets().begin(), a.row_offsets().end());
    fine.a_cols.assign(a.col_indices().begin(), a.col_indices().end());
    fine.a_vals = a.values();
    std::vector<double> acc;
    for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
      const Level& level = levels_[l];
      Level& coarse = levels_[l + 1];
      coarse.a_vals.resize(coarse.a_cols.size());
      acc.assign(coarse.n, 0.0);
      for (std::size_t I = 0; I < coarse.n; ++I) {
        for (std::size_t t = level.r_offsets[I]; t < level.r_offsets[I + 1];
             ++t) {
          const std::size_t i = level.r_rows[t];
          const double w_i = level.r_vals[t];
          for (std::size_t k = level.a_offsets[i]; k < level.a_offsets[i + 1];
               ++k) {
            const double contrib = w_i * level.a_vals[k];
            const std::size_t j = level.a_cols[k];
            for (std::size_t q = level.p_offsets[j];
                 q < level.p_offsets[j + 1]; ++q)
              acc[level.p_cols[q]] += contrib * level.p_vals[q];
          }
        }
        for (std::size_t s = coarse.a_offsets[I];
             s < coarse.a_offsets[I + 1]; ++s) {
          coarse.a_vals[s] = acc[coarse.a_cols[s]];
          acc[coarse.a_cols[s]] = 0.0;
        }
      }
    }
    for (Level& level : levels_) {
      level.inv_diag.assign(level.n, 0.0);
      for (std::size_t r = 0; r < level.n; ++r)
        for (std::size_t k = level.a_offsets[r]; k < level.a_offsets[r + 1];
             ++k)
          if (level.a_cols[k] == r) level.inv_diag[r] = 1.0 / level.a_vals[k];
    }
    const Level& bottom = levels_.back();
    const std::size_t n = bottom.n;
    chol_.assign(n * n, 0.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t k = bottom.a_offsets[r]; k < bottom.a_offsets[r + 1];
           ++k)
        chol_[r * n + bottom.a_cols[k]] = bottom.a_vals[k];
    for (std::size_t j = 0; j < n; ++j) {
      double d = chol_[j * n + j];
      for (std::size_t k = 0; k < j; ++k) d -= chol_[j * n + k] * chol_[j * n + k];
      const double l_jj = std::sqrt(d);
      chol_[j * n + j] = l_jj;
      for (std::size_t i = j + 1; i < n; ++i) {
        double s = chol_[i * n + j];
        for (std::size_t k = 0; k < j; ++k)
          s -= chol_[i * n + k] * chol_[j * n + k];
        chol_[i * n + j] = s / l_jj;
      }
    }
  }

  Vector apply(const Vector& r) {
    levels_.front().rhs = r;
    cycle(0);
    return levels_.front().x;
  }

 private:
  struct Level {
    std::size_t n{0};
    std::vector<std::size_t> p_offsets, p_cols, r_offsets, r_rows;
    std::vector<double> p_vals, r_vals;
    std::vector<std::size_t> a_offsets, a_cols;
    std::vector<double> a_vals, inv_diag;
    Vector x, r, rhs;
  };

  void build(std::size_t nx, std::size_t ny) {
    levels_.assign(1, {});
    // Symbolic chain from the 5-point pattern; factor() then gives level 0
    // the matrix's own pattern.
    {
      Level& fine = levels_[0];
      fine.a_offsets.assign(nx * ny + 1, 0);
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const std::size_t i = iy * nx + ix;
          if (iy > 0) fine.a_cols.push_back(i - nx);
          if (ix > 0) fine.a_cols.push_back(i - 1);
          fine.a_cols.push_back(i);
          if (ix + 1 < nx) fine.a_cols.push_back(i + 1);
          if (iy + 1 < ny) fine.a_cols.push_back(i + nx);
          fine.a_offsets[i + 1] = fine.a_cols.size();
        }
      }
    }
    struct Dim {
      std::size_t idx[2];
      double w[2];
      std::size_t count;
    };
    const auto dim = [](std::size_t i, std::size_t coarse) {
      if (i % 2 == 1 && i / 2 + 1 < coarse) return Dim{{i / 2, i / 2 + 1}, {0.5, 0.5}, 2};
      return Dim{{i / 2, 0}, {1.0, 0.0}, 1};
    };
    for (std::size_t l = 0;; ++l) {
      const std::size_t n = nx * ny;
      levels_[l].n = n;
      if (n <= MgPreconditioner::kCoarsestNodes) break;
      const std::size_t cnx = (nx + 1) / 2;
      const std::size_t cny = (ny + 1) / 2;
      const std::size_t nc = cnx * cny;
      levels_.emplace_back();
      Level& level = levels_[l];
      Level& coarse = levels_[l + 1];
      level.p_offsets.assign(n + 1, 0);
      for (std::size_t iy = 0; iy < ny; ++iy) {
        const Dim sy = dim(iy, cny);
        for (std::size_t ix = 0; ix < nx; ++ix) {
          const Dim sx = dim(ix, cnx);
          for (std::size_t a = 0; a < sy.count; ++a) {
            for (std::size_t b = 0; b < sx.count; ++b) {
              level.p_cols.push_back(sy.idx[a] * cnx + sx.idx[b]);
              level.p_vals.push_back(sy.w[a] * sx.w[b]);
            }
          }
          level.p_offsets[iy * nx + ix + 1] = level.p_cols.size();
        }
      }
      level.r_offsets.assign(nc + 1, 0);
      for (std::size_t c : level.p_cols) ++level.r_offsets[c + 1];
      for (std::size_t c = 0; c < nc; ++c)
        level.r_offsets[c + 1] += level.r_offsets[c];
      level.r_rows.resize(level.p_cols.size());
      level.r_vals.resize(level.p_cols.size());
      std::vector<std::size_t> cursor(level.r_offsets.begin(),
                                      level.r_offsets.end() - 1);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = level.p_offsets[i]; k < level.p_offsets[i + 1];
             ++k) {
          const std::size_t c = level.p_cols[k];
          level.r_rows[cursor[c]] = i;
          level.r_vals[cursor[c]] = level.p_vals[k];
          ++cursor[c];
        }
      }
      coarse.a_offsets.assign(nc + 1, 0);
      std::vector<std::size_t> marker(nc, 0);
      std::vector<std::size_t> scratch;
      for (std::size_t I = 0; I < nc; ++I) {
        scratch.clear();
        for (std::size_t t = level.r_offsets[I]; t < level.r_offsets[I + 1];
             ++t) {
          const std::size_t i = level.r_rows[t];
          for (std::size_t k = level.a_offsets[i]; k < level.a_offsets[i + 1];
               ++k) {
            const std::size_t j = level.a_cols[k];
            for (std::size_t q = level.p_offsets[j];
                 q < level.p_offsets[j + 1]; ++q) {
              const std::size_t J = level.p_cols[q];
              if (marker[J] != I + 1) {
                marker[J] = I + 1;
                scratch.push_back(J);
              }
            }
          }
        }
        std::sort(scratch.begin(), scratch.end());
        coarse.a_cols.insert(coarse.a_cols.end(), scratch.begin(),
                             scratch.end());
        coarse.a_offsets[I + 1] = coarse.a_cols.size();
      }
      nx = cnx;
      ny = cny;
    }
  }

  void cycle(std::size_t l) {
    Level& level = levels_[l];
    const std::size_t n = level.n;
    if (l + 1 == levels_.size()) {
      level.x = level.rhs;
      for (std::size_t i = 0; i < n; ++i) {
        double s = level.x[i];
        for (std::size_t k = 0; k < i; ++k) s -= chol_[i * n + k] * level.x[k];
        level.x[i] = s / chol_[i * n + i];
      }
      for (std::size_t i = n; i-- > 0;) {
        double s = level.x[i];
        for (std::size_t k = i + 1; k < n; ++k)
          s -= chol_[k * n + i] * level.x[k];
        level.x[i] = s / chol_[i * n + i];
      }
      return;
    }
    const double omega = MgPreconditioner::kJacobiDamping;
    level.x.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      level.x[i] = omega * level.inv_diag[i] * level.rhs[i];
    const auto residual = [&] {
      level.r.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (std::size_t k = level.a_offsets[i]; k < level.a_offsets[i + 1];
             ++k)
          s += level.a_vals[k] * level.x[level.a_cols[k]];
        level.r[i] = level.rhs[i] - s;
      }
    };
    residual();
    Level& coarse = levels_[l + 1];
    coarse.rhs.resize(coarse.n);
    for (std::size_t I = 0; I < coarse.n; ++I) {
      double s = 0.0;
      for (std::size_t t = level.r_offsets[I]; t < level.r_offsets[I + 1]; ++t)
        s += level.r_vals[t] * level.r[level.r_rows[t]];
      coarse.rhs[I] = s;
    }
    cycle(l + 1);
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t k = level.p_offsets[i]; k < level.p_offsets[i + 1]; ++k)
        s += level.p_vals[k] * coarse.x[level.p_cols[k]];
      level.x[i] += s;
    }
    residual();
    for (std::size_t i = 0; i < n; ++i)
      level.x[i] += omega * level.inv_diag[i] * level.r[i];
  }

  std::vector<Level> levels_;
  std::vector<double> chol_;
};

/// The first entry whose bits differ, or -1 when a and b are bit-identical
/// (so -0.0 against +0.0 counts as a difference).
std::ptrdiff_t first_bit_difference(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return static_cast<std::ptrdiff_t>(i);
  return -1;
}

/// A mesh Laplacian with a severed region, the irdrop way: cut edges stay
/// in the pattern as stored zeros, a few nodes carry shunts to ground, and
/// every node cut off from all of them becomes an identity row.
CsrMatrix severed_mesh_operator(Rng& rng, std::size_t nx, std::size_t ny) {
  const Length side{10e-3};
  // From the corner, so that 1- and 2-node-wide strips of a thin grid
  // are cut off as well.
  const MeshPerturbation cut{EdgeScaleRegion{Length{0.0}, Length{0.0},
                                             Length{0.6 * side.value},
                                             Length{0.6 * side.value}, 0.0}};
  const GridMesh mesh(side, side, nx, ny, 2e-3, cut);
  CsrMatrix a(mesh.laplacian());
  const std::size_t n = a.rows();
  std::vector<std::size_t> stack;
  std::vector<char> reachable(n, 0);
  for (std::size_t node : {std::size_t{0}, n - 1}) {
    a.add_to_entry(node, node, rng.uniform(1.0, 10.0));
    reachable[node] = 1;
    stack.push_back(node);
  }
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const std::size_t v = cols[k];
      if (v != u && a.values()[k] != 0.0 && !reachable[v]) {
        reachable[v] = 1;
        stack.push_back(v);
      }
    }
  }
  std::size_t grounded = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (reachable[r]) continue;
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
      a.values_mut()[k] = cols[k] == r ? 1.0 : 0.0;
    ++grounded;
  }
  EXPECT_GT(grounded, 0u) << nx << "x" << ny << " grounds no node";
  return a;
}

TEST(Multigrid, StencilCycleIsBitIdenticalToTheCsrReference) {
  // 2x200 and 200x2 coarsen to 1-wide levels, 3x100 runs a 2-wide level
  // inside the cycle, and the even dimensions reach the boundary-clamped
  // transfers the 2^k+1 meshes never do. Each operator is checked on two
  // right-hand sides, then again after a value-only refactor.
  struct Grid {
    std::size_t nx;
    std::size_t ny;
  };
  const Grid grids[] = {{2, 200},  {200, 2},  {3, 100}, {8, 9},  {9, 9},
                        {10, 7},   {16, 15},  {15, 16}, {17, 17}, {65, 65}};
  enum class Kind { kFivePoint, kNinePoint, kSevered };
  std::uint64_t seed = 100;
  for (const Grid g : grids) {
    for (const Kind kind : {Kind::kFivePoint, Kind::kNinePoint, Kind::kSevered}) {
      Rng rng(++seed);
      CsrMatrix a = kind == Kind::kFivePoint
                        ? random_spd_laplacian(rng, g.nx, g.ny, 4)
                        : kind == Kind::kNinePoint
                              ? random_nine_point_laplacian(rng, g.nx, g.ny, 4)
                              : severed_mesh_operator(rng, g.nx, g.ny);
      const MgSymbolic grid(g.nx, g.ny);
      MgPreconditioner stencil;
      CsrMultigridReference reference;
      for (int refactor = 0; refactor < 2; ++refactor) {
        if (refactor == 1) {
          // Same pattern, new values: every stored entry of the diagonal
          // grows, so the operator stays SPD.
          for (std::size_t r = 0; r < a.rows(); ++r)
            a.add_to_entry(r, r, rng.uniform(0.0, 0.5));
        }
        stencil.factor(a, grid);
        reference.factor(a, g.nx, g.ny);
        for (int rhs = 0; rhs < 2; ++rhs) {
          const Vector r = random_vector(rng, a.rows());
          Vector z;
          stencil.apply(r, z);
          const Vector expected = reference.apply(r);
          EXPECT_EQ(first_bit_difference(z, expected), -1)
              << g.nx << "x" << g.ny << " operator " << static_cast<int>(kind)
              << " refactor " << refactor << " rhs " << rhs;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batch-loop semantics and counter deltas
// ---------------------------------------------------------------------------

TEST(SolverCore, BatchIsBitIdenticalToStandaloneLoopWithMatchingCounters) {
  // Right-hand sides solved in sequence through one workspace are
  // bit-identical to standalone solve_cg calls, and the work account
  // opened around the loop agrees with the per-result iteration counts.
  Rng rng(61);
  const CsrMatrix a = random_spd_laplacian(rng, 9, 10, 5);
  std::vector<Vector> rhs;
  for (int k = 0; k < 4; ++k) rhs.push_back(random_vector(rng, a.rows()));
  CgOptions options;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;

  obs::WorkAccount account;
  const obs::WorkAccount::Scope scope(&account);
  CgWorkspace ws;
  std::vector<CgResult> batch;
  for (const Vector& b : rhs) batch.push_back(solve_cg(a, b, options, ws));
  const SolverCounters delta = solver_counters(account);

  std::size_t total_iterations = 0;
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    const CgResult standalone = solve_cg(a, rhs[k], options);
    EXPECT_EQ(batch[k].x, standalone.x) << "rhs " << k;
    EXPECT_EQ(batch[k].iterations, standalone.iterations) << "rhs " << k;
    EXPECT_EQ(batch[k].residual_norm, standalone.residual_norm)
        << "rhs " << k;
    total_iterations += batch[k].iterations;
  }
  EXPECT_EQ(delta.cg_solves, rhs.size());
  EXPECT_EQ(delta.cg_iterations, total_iterations);
  EXPECT_EQ(delta.precond_factorizations, 1u);
  EXPECT_EQ(delta.precond_reuses, rhs.size() - 1);
  EXPECT_EQ(delta.cg_block_panels, 0u);  // retired counters: always 0
  EXPECT_EQ(delta.cg_block_columns, 0u);
}

TEST(SolverCore, WarmStartWithZeroRhsReturnsTheExactZeroSolution) {
  // b = 0 has the unique SPD solution x = 0; the early return must hold
  // even when a warm start is supplied (the x0 path would otherwise
  // compute a residual from a stale iterate).
  Rng rng(67);
  const CsrMatrix a = random_spd_laplacian(rng, 7, 7, 3);
  CgOptions options;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;
  options.x0 = random_vector(rng, a.rows());
  const CgResult result = solve_cg(a, Vector(a.rows(), 0.0), options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.residual_norm, 0.0);
  EXPECT_EQ(result.x, Vector(a.rows(), 0.0));
}

TEST(SolverCore, DefaultIterationCapIsTenNPlusOneHundred) {
  // The documented default (max_iterations = 0) resolves to 10 * n + 100.
  // An unreachable tolerance makes the solve run to the cap exactly.
  Rng rng(71);
  const CsrMatrix a = random_spd_laplacian(rng, 3, 3, 2);
  const Vector b = random_vector(rng, a.rows());
  CgOptions options;
  options.relative_tolerance = 1e-300;
  options.preconditioner = CgPreconditioner::kJacobi;
  const CgResult result = solve_cg(a, b, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 10 * a.rows() + 100);
}

TEST(SolverCore, WorkspaceKeyDistinguishesOperatorsAcrossAlternation) {
  // Alternating two same-pattern operators through one workspace: every
  // solve is a key miss (digest matches, values differ), each refactors,
  // and results stay bit-identical to fresh-workspace solves.
  Rng rng(73);
  const CsrMatrix a1 = random_spd_laplacian(rng, 8, 8, 3);
  CsrMatrix a2 = a1;
  a2.add_to_entry(0, 0, 0.5);
  const Vector b = random_vector(rng, a1.rows());
  CgOptions options;
  options.preconditioner = CgPreconditioner::kIncompleteCholesky;

  CgWorkspace ws;
  obs::WorkAccount account;
  const obs::WorkAccount::Scope scope(&account);
  const CgResult r1 = solve_cg(a1, b, options, ws);
  const CgResult r2 = solve_cg(a2, b, options, ws);
  const CgResult r3 = solve_cg(a1, b, options, ws);
  EXPECT_EQ(solver_counters(account).precond_factorizations, 3u);
  EXPECT_EQ(solver_counters(account).precond_reuses, 0u);
  EXPECT_EQ(r1.x, r3.x);
  EXPECT_EQ(r1.iterations, r3.iterations);
  EXPECT_EQ(r1.x, solve_cg(a1, b, options).x);
  EXPECT_EQ(r2.x, solve_cg(a2, b, options).x);
}

// ---------------------------------------------------------------------------
// IR-drop batch entry point
// ---------------------------------------------------------------------------

TEST(IrDropBatch, IsBitIdenticalToRepeatedSolves) {
  const Length side{10e-3};
  const auto assembled = assemble_mesh(side, side, 21, 21, 2e-3);
  const auto vrs =
      patch_attachment(assembled->mesh, Length{5e-3}, Length{0.0},
                       Length{1.5e-3}, Voltage{1.0}, Resistance{100e-6});
  std::vector<Vector> sink_maps;
  for (std::size_t j = 0; j < 3; ++j) {
    Vector sinks = uniform_sinks(assembled->mesh, Current{50.0});
    sinks[100 + 37 * j] += 5.0;
    sink_maps.push_back(std::move(sinks));
  }
  IrDropOptions options;
  options.warm_start_voltage = 1.0;

  const std::vector<IrDropResult> batch =
      solve_irdrop_batch(*assembled, vrs, sink_maps, options);
  ASSERT_EQ(batch.size(), sink_maps.size());
  for (std::size_t j = 0; j < sink_maps.size(); ++j) {
    const IrDropResult single =
        solve_irdrop(*assembled, vrs, sink_maps[j], options);
    EXPECT_EQ(batch[j].node_voltages, single.node_voltages) << "map " << j;
    EXPECT_EQ(batch[j].cg_iterations, single.cg_iterations) << "map " << j;
    EXPECT_EQ(batch[j].vr_currents, single.vr_currents) << "map " << j;
  }
}

TEST(IrDropBatch, AssembledMeshCachesTheHierarchy) {
  // The assembly carries its grid; the preconditioner builds a multi-level
  // hierarchy for it from the stamped operator.
  const auto assembled = assemble_mesh(Length{10e-3}, Length{10e-3}, 33, 33,
                                       2e-3);
  EXPECT_TRUE(assembled->ic_symbolic.empty());
  EXPECT_FALSE(assembled->mg_symbolic.empty());
  EXPECT_EQ(assembled->mg_symbolic.nx(), 33u);
  EXPECT_EQ(assembled->mg_symbolic.ny(), 33u);
  EXPECT_EQ(assembled->mg_symbolic.rows(), assembled->mesh.node_count());
  CsrMatrix stamped = assembled->laplacian;
  stamped.add_to_entry(0, 0, 1e4);
  MgPreconditioner hierarchy;
  hierarchy.factor(stamped, assembled->mg_symbolic);
  EXPECT_GT(hierarchy.level_count(), 1u);
}

}  // namespace
}  // namespace vpd
