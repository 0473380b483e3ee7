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
// Every level's operator couples a node only to its 3x3 grid
// neighbourhood (the fine operator by contract, each coarse one because a
// bilinear Galerkin product keeps that footprint), so a level stores its
// operator as the coefficient arrays of a 3x3 stencil, and the transfers
// are per-dimension (index, weight) tables applied by grid index
// arithmetic: the V-cycle, the Galerkin product and the hierarchy build
// use no CSR index arrays. Every row adds its terms in ascending column
// order from +0.0, as a CSR row loop does; such a sum never becomes
// -0.0, so the zero a stencil slot holds where a CSR row has no entry
// adds +-0 and changes no bit.
//
// MgSymbolic names the grid (nx, ny) of the operator a solve hands in; it
// is free to construct. MgPreconditioner builds the hierarchy (level
// dimensions and transfer tables) the first time it factors on a grid,
// keeps it while the grid stays the same, and writes each factorization's
// numeric setup (stencil coefficients, smoother diagonals, coarsest
// factor) into it. It lives in a CgWorkspace and is reused across
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
/// computes the Galerkin coarse stencils, the damped-Jacobi smoother
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

  /// z = M^{-1} r: one V(1,1)-cycle, reading r and writing z in place (z
  /// is resized to fit and must not be r). Requires a prior factor().
  void apply(const Vector& r, Vector& z);

  bool empty() const { return levels_.empty(); }
  /// Grid levels of the current hierarchy, the fine grid included; 0
  /// before the first factor().
  std::size_t level_count() const { return levels_.size(); }

 private:
  /// Up to N (index, weight) taps of a one-dimensional transfer.
  template <std::size_t N>
  struct Taps {
    std::size_t count{0};
    std::size_t idx[N]{};
    double w[N]{};
  };

  /// One level of the hierarchy. Level 0 is the fine grid; the transfer
  /// tables describe the step to level l+1 and are empty on the coarsest
  /// level.
  struct Level {
    std::size_t nx{0};
    std::size_t ny{0};
    std::size_t n{0};  // unknowns at this level, nx * ny
    // Operator as a 3x3 stencil: slot s = 3 (dy + 1) + (dx + 1) couples
    // node (ix, iy) to node (ix + dx, iy + dy), so slots ascend with the
    // column. `slots` lists the stored slots in ascending order — level 0
    // those its pattern uses (five for a mesh operator; the diagonal
    // always), deeper levels all nine — and coef[k * n + i] is row i's
    // coefficient in slots[k]: 0 where the row holds no such entry or the
    // neighbour lies off the grid. Rewritten by every factor().
    std::vector<std::uint8_t> slots;
    std::vector<double> coef;
    std::vector<double> inv_diag;  // 1 / diag(A_l), smoother scaling
    // Prolongation P from level l+1, per dimension: interp_x[ix] lists the
    // coarse columns fine column ix interpolates from, with dyadic weights
    // {1, 1/2} (boundary-clamped so they sum to 1); P's entry for fine
    // node (ix, iy) and coarse node (IX, IY) is the y weight times the x
    // weight. Restriction is P^T: gather_x[IX] lists the fine columns
    // coarse column IX gathers, ascending, with the same weights.
    std::vector<Taps<2>> interp_x, interp_y;
    std::vector<Taps<3>> gather_x, gather_y;
    // V-cycle scratch (lazily sized): the residual (which also holds the
    // prolongated correction until the post-smoothing residual), and below
    // level 0 the iterate and restricted right-hand side (level 0 works in
    // apply()'s r and z).
    Vector x, r, rhs;
  };

  void build_hierarchy(const MgSymbolic& grid);
  void cycle(std::size_t level, const double* rhs, double* x);

  MgSymbolic grid_;  // grid levels_ was built for
  // Structure digest of the matrix whose slots level 0 holds (0 = none),
  // and the position of each of its entries (CSR order) among level 0's
  // stored slots: found by the pattern check, reused by every refactor.
  std::uint64_t fine_digest_{0};
  std::vector<std::uint8_t> fine_entry_slot_;
  std::vector<Level> levels_;
  // Dense lower-triangular Cholesky factor of the coarsest operator,
  // row-major n x n (strict upper ignored).
  std::vector<double> coarse_chol_;
  std::size_t coarse_n_{0};
};

}  // namespace vpd
