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
// Mirrors the IC(0) split in sparse.hpp: MgSymbolic is the geometry-only
// analysis (level dimensions, transfer operators, coarse sparsity
// patterns), one immutable block that copies share, cached alongside a
// mesh like IcSymbolic and shared by every mesh on the same grid;
// MgPreconditioner is the numeric setup (Galerkin values, smoother
// diagonals, coarsest factor) that lives in a CgWorkspace, holds its own
// share of the hierarchy, and is reused across value-identical solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "vpd/common/sparse.hpp"

namespace vpd {

/// Geometry-only multigrid hierarchy for an nx x ny grid operator:
/// per-level grid dimensions, bilinear prolongation stencils, restriction
/// adjacency (the transpose view), and the symbolic Galerkin coarse
/// patterns. Depends only on (nx, ny) — never on matrix values — so one
/// MgSymbolic serves every operator stamped on that grid and is cached
/// alongside the Laplacian exactly like IcSymbolic. The hierarchy is one
/// immutable block held by shared pointer: copies share it.
class MgSymbolic {
 public:
  /// Coarsening stops once a level has at most this many nodes (the
  /// remaining system is solved by a direct dense factorization).
  static constexpr std::size_t kCoarsestNodes = 64;

  MgSymbolic() = default;
  /// Builds the hierarchy for an nx x ny grid (nx, ny >= 2, row-major
  /// node numbering ix + iy * nx — the GridMesh convention).
  MgSymbolic(std::size_t nx, std::size_t ny);

  bool empty() const { return levels_ == nullptr; }
  /// Fine-grid unknowns (nx * ny); 0 when empty.
  std::size_t rows() const {
    return levels_ ? levels_->front().nx * levels_->front().ny : 0;
  }
  /// Number of grid levels, the fine grid included. At least 1 unless
  /// empty.
  std::size_t level_count() const { return levels_ ? levels_->size() : 0; }

 private:
  friend class MgPreconditioner;

  /// One level of the hierarchy. Level 0 is the fine grid; the coarse
  /// members describe the transfer to level l+1 and are empty on the
  /// coarsest level.
  struct Level {
    std::size_t nx{0};
    std::size_t ny{0};
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
    // Symbolic Galerkin pattern of the coarse operator P^T A P, CSR with
    // ascending columns and every diagonal structurally present.
    std::vector<std::uint32_t> c_offsets;  // coarse nodes+1
    std::vector<std::uint32_t> c_cols;
  };

  std::shared_ptr<const std::vector<Level>> levels_;
};

/// Numeric multigrid setup over an MgSymbolic hierarchy. factor()
/// computes the Galerkin coarse values, the damped-Jacobi smoother
/// diagonals and the dense Cholesky factor of the coarsest operator;
/// apply() runs one V(1,1)-cycle, z = M^{-1} r, allocation-free after the
/// first call. Self-contained after factor() like IcPreconditioner: it
/// holds its own share of the hierarchy, so a setup cached in a
/// CgWorkspace survives the shared MgSymbolic's owner.
class MgPreconditioner {
 public:
  /// Damped-Jacobi relaxation weight (the classic 4/5 for 2-D 5-point
  /// stencils; keeps omega * lambda(D^{-1} A) < 2 on any diagonally
  /// dominant SPD operator, which is what makes the V-cycle SPD).
  static constexpr double kJacobiDamping = 0.8;

  /// Factors `a` over the hierarchy `shared` (must describe a's grid:
  /// shared->rows() == a.rows()). Every entry (i, j) of `a` must lie in
  /// node i's 3x3 grid neighbourhood — the 5-point stencil plus its
  /// diagonals, without wrapping across a row end; the pattern is checked
  /// once up front and anything else throws InvalidArgument. Keeps a share
  /// of the hierarchy, so `shared` may be destroyed afterwards.
  void factor(const CsrMatrix& a, const MgSymbolic& shared);

  /// z = M^{-1} r: one V(1,1)-cycle. Requires a prior factor(); z is
  /// resized to fit.
  void apply(const Vector& r, Vector& z);

  bool empty() const { return levels_.empty(); }
  std::size_t level_count() const { return levels_.size(); }

 private:
  struct Level {
    std::size_t n{0};  // unknowns at this level
    // Operator at this level: level 0 aliases nothing (values copied from
    // A); deeper levels are Galerkin products. CSR with u32 indices.
    std::vector<std::uint32_t> a_offsets;
    std::vector<std::uint32_t> a_cols;
    std::vector<double> a_vals;
    std::vector<double> inv_diag;  // 1 / diag(A_l), smoother scaling
    // V-cycle scratch (lazily sized): iterate, residual, restricted rhs.
    Vector x, r, rhs;
  };

  void cycle(std::size_t level);

  MgSymbolic hierarchy_;  // transfer operators, read by cycle()
  std::vector<Level> levels_;
  // Dense lower-triangular Cholesky factor of the coarsest operator,
  // row-major n x n (strict upper ignored).
  std::vector<double> coarse_chol_;
  std::size_t coarse_n_{0};
};

}  // namespace vpd
