// Geometric multigrid preconditioner for regular 2-D mesh Laplacians.
//
// The PDN distribution operators are grid Laplacians (plus diagonal VR
// shunt stamps) on a regular nx x ny lattice, so geometric multigrid is
// nearly free to build: standard coarsening halves each grid dimension,
// prolongation is bilinear interpolation with dyadic weights, restriction
// is its transpose, and coarse operators are Galerkin triple products
// P^T A P. One V(1,1)-cycle with damped-Jacobi smoothing and a dense
// Cholesky coarsest solve is an SPD preconditioner (the damped-Jacobi
// smoother is A-self-adjoint and its damped spectrum stays inside (0, 2)
// on diagonally dominant Laplacians), so CG iteration counts become
// near-independent of mesh size where IC(0) counts grow with refinement.
//
// MgSymbolic names the grid (nx, ny) of the operator a solve hands in; it
// is free to construct. MgPreconditioner builds the hierarchy (level
// dimensions, transfer operators, coarse sparsity patterns) the first time
// it factors on a grid, keeps it while the grid stays the same, and writes
// each factorization's numeric setup (Galerkin values, smoother diagonals,
// coarsest factor) into it. It lives in a CgWorkspace and is reused across
// value-identical solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vpd/common/sparse.hpp"

namespace vpd {

/// The grid of an operator that kMultigrid solves: nx x ny nodes,
/// row-major numbering ix + iy * nx (the GridMesh convention). A value,
/// free to construct; MgPreconditioner derives the hierarchy from it.
class MgSymbolic {
 public:
  MgSymbolic() = default;
  /// Throws InvalidArgument unless nx, ny >= 2.
  MgSymbolic(std::size_t nx, std::size_t ny);

  bool empty() const { return nx_ == 0; }
  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  /// Fine-grid unknowns (nx * ny); 0 when empty.
  std::size_t rows() const { return nx_ * ny_; }

  bool operator==(const MgSymbolic&) const = default;

 private:
  std::size_t nx_{0};
  std::size_t ny_{0};
};

/// Geometric multigrid preconditioner over a grid. factor() builds the
/// hierarchy when the grid differs from the last one it factored on, then
/// computes the Galerkin coarse values, the damped-Jacobi smoother
/// diagonals and the dense Cholesky factor of the coarsest operator;
/// apply() runs one V(1,1)-cycle, z = M^{-1} r, allocation-free after the
/// first call.
class MgPreconditioner {
 public:
  /// Coarsening stops once a level has at most this many nodes (the
  /// remaining system is solved by a direct dense factorization).
  static constexpr std::size_t kCoarsestNodes = 64;
  /// Damped-Jacobi relaxation weight (the classic 4/5 for 2-D 5-point
  /// stencils; keeps omega * lambda(D^{-1} A) < 2 on any diagonally
  /// dominant SPD operator, which is what makes the V-cycle SPD).
  static constexpr double kJacobiDamping = 0.8;

  /// Factors `a` on `grid` (grid.rows() == a.rows()). Every entry (i, j)
  /// of `a` must lie in node i's 3x3 grid neighbourhood — the 5-point
  /// stencil plus its diagonals, without wrapping across a row end; the
  /// pattern is checked once per structure and anything else throws
  /// InvalidArgument.
  void factor(const CsrMatrix& a, const MgSymbolic& grid);

  /// z = M^{-1} r: one V(1,1)-cycle. Requires a prior factor(); z is
  /// resized to fit.
  void apply(const Vector& r, Vector& z);

  bool empty() const { return levels_.empty(); }
  /// Grid levels of the current hierarchy, the fine grid included; 0
  /// before the first factor().
  std::size_t level_count() const { return levels_.size(); }

 private:
  /// One level of the hierarchy. Level 0 is the fine grid; the transfer
  /// members describe the step to level l+1 and are empty on the coarsest
  /// level.
  struct Level {
    std::size_t n{0};  // unknowns at this level
    // Prolongation P (rows = this level's nodes, cols = coarse nodes),
    // CSR with dyadic weights {1, 1/2, 1/4}: each row interpolates a fine
    // node from its <= 4 surrounding coarse nodes (clamped at the
    // boundary so rows always sum to 1).
    std::vector<std::uint32_t> p_offsets;  // nodes+1
    std::vector<std::uint32_t> p_cols;
    std::vector<double> p_vals;
    // Transpose view (restriction): coarse node I gathers the fine nodes
    // listed in [r_offsets[I], r_offsets[I+1]), fine rows ascending.
    std::vector<std::uint32_t> r_offsets;  // coarse nodes+1
    std::vector<std::uint32_t> r_rows;
    std::vector<double> r_vals;
    // Operator at this level, CSR with ascending columns: level 0 takes
    // the factored matrix's pattern; deeper levels hold the symbolic
    // Galerkin pattern of P^T A P (every diagonal present), built with
    // the hierarchy. The values are rewritten by every factor().
    std::vector<std::uint32_t> a_offsets;
    std::vector<std::uint32_t> a_cols;
    std::vector<double> a_vals;
    std::vector<double> inv_diag;  // 1 / diag(A_l), smoother scaling
    // V-cycle scratch (lazily sized): iterate, residual, restricted rhs.
    Vector x, r, rhs;
  };

  void build_hierarchy(const MgSymbolic& grid);
  void cycle(std::size_t level);

  MgSymbolic grid_;  // grid levels_ was built for
  // Structure digest of the matrix whose pattern level 0 holds (0 = none).
  std::uint64_t fine_digest_{0};
  std::vector<Level> levels_;
  // Dense lower-triangular Cholesky factor of the coarsest operator,
  // row-major n x n (strict upper ignored).
  std::vector<double> coarse_chol_;
  std::size_t coarse_n_{0};
};

}  // namespace vpd
