// Sparse linear algebra for PDN mesh solves: triplet assembly, CSR storage,
// in-place matrix-vector products, and a preconditioned conjugate-gradient
// solver for symmetric positive-definite systems. Power-grid IR-drop
// matrices (Laplacian + source shunts) are SPD, so CG is the natural solver
// and scales to meshes with 10^5+ nodes. Three preconditioners are offered:
// Jacobi (diagonal scaling), IC(0) (incomplete Cholesky with no fill,
// falling back to SSOR when the factorization breaks down), and geometric
// multigrid (multigrid.hpp; near-mesh-size-independent iteration counts),
// selectable via CgOptions. A CgWorkspace makes repeated solves
// allocation-free and reuses the factorization when the matrix values have
// not changed. A compiled matrix carries a digest of its sparsity pattern,
// computed once, so keying solver state to a pattern costs one word
// compare per solve. Each preconditioner builds its own symbolic analysis
// (the IC fill pattern, the multigrid hierarchy) the first time it factors
// a pattern or grid and keeps it while that stays the same. A solve given
// the operator's grid multiplies by it in 3x3-stencil form (multigrid.hpp),
// and every CG iteration fuses its reductions into the passes that
// produce their operands, in the same summation order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "vpd/common/matrix.hpp"  // for Vector
#include "vpd/obs/trace.hpp"

namespace vpd {
namespace obs {
class Snapshot;
}  // namespace obs

class MgSymbolic;        // multigrid.hpp (which includes this header)
class MgPreconditioner;  // multigrid.hpp
class GridStencil;       // multigrid.hpp

/// Coordinate-format accumulator. Duplicate (row, col) entries are summed
/// when compiled to CSR — exactly the stamping pattern MNA/mesh assembly
/// wants. Exact zeros are kept: a severed mesh edge (conductance scale 0)
/// must keep its slot in the compiled sparsity pattern so later shunt
/// stamps via CsrMatrix::add_to_entry still land on an existing entry.
class TripletList {
 public:
  TripletList(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void add(std::size_t row, std::size_t col, double value);
  /// Pre-size the entry storage (pure capacity hint).
  void reserve(std::size_t entries) { entries_.reserve(entries); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t entry_count() const { return entries_.size(); }

  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Entry> entries_;
};

/// Compressed sparse row matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  /// Compiles a triplet list, summing duplicates. Entries that sum to
  /// exactly zero are retained as structural (stored) zeros — the pattern
  /// of a damaged mesh must match the nominal one so in-place stamping and
  /// cached symbolic factorizations stay valid.
  explicit CsrMatrix(const TripletList& triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Number of stored entries (stored zeros included).
  std::size_t nonzero_count() const { return values_.size(); }

  /// 64-bit hash of the structure — shape, row offsets and column indices
  /// — computed once while compiling. The index arrays never change after
  /// that (add_to_entry and values_mut() edit values only), so copies
  /// carry the digest, and two matrices compiled from the same pattern
  /// get equal digests whatever their values. Keys solver state
  /// (CgWorkspace, the IC pattern) to a pattern in O(1). 0 for a
  /// default-constructed matrix.
  std::uint64_t structure_digest() const { return structure_digest_; }

  /// y = A x
  Vector multiply(const Vector& x) const;

  /// y = A x into caller storage (resized to rows()); x and y must be
  /// distinct objects. The allocation-free SpMV the CG iteration uses.
  void multiply_into(const Vector& x, Vector& y) const;

  /// Element lookup (O(log nnz_row)); returns 0 for structural zeros.
  double at(std::size_t row, std::size_t col) const;

  /// In-place update of an existing entry: values[(row, col)] += delta.
  /// Throws InvalidArgument if (row, col) is a structural zero — the
  /// sparsity pattern is fixed at construction. Lets callers reuse one
  /// assembled matrix (e.g. a cached mesh Laplacian) across solves that
  /// differ only in shunt stamps.
  void add_to_entry(std::size_t row, std::size_t col, double delta);

  /// Diagonal entries (0 where structurally absent).
  Vector diagonal() const;
  /// Same, into caller storage (resized to min(rows, cols)).
  void diagonal_into(Vector& d) const;

  /// ||A||_inf: maximum absolute row sum. Used by solve_cg to convert
  /// tolerances into attainable normwise-backward-error targets.
  double infinity_norm() const;

  /// True if A and A^T agree to within `tol` on every stored entry.
  bool is_symmetric(double tol = 1e-12) const;

  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

  /// Mutable value array for in-place operator surgery with the pattern
  /// fixed (e.g. grounding disconnected nodes out of a fault-severed
  /// solve). Same order as values().
  std::vector<double>& values_mut() { return values_; }

 private:
  std::size_t rows_{0};
  std::size_t cols_{0};
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
  std::uint64_t structure_digest_{0};
};

/// Preconditioner for solve_cg.
enum class CgPreconditioner {
  /// M = diag(A). Cheapest setup; the right choice for one-off solves on
  /// small or well-conditioned systems.
  kJacobi,
  /// M = L L^T from a modified incomplete Cholesky factorization with
  /// level-1 fill, MIC(1) (IcSymbolic's pattern: A's lower triangle plus
  /// the entries one eliminated neighbour away; dropped fill compensated
  /// into the diagonal, which improves the conditioning *order* on mesh
  /// Laplacians, not just the constant). The wire name stays "ic0". Cuts
  /// mesh-solve iteration counts by ~3-5x over Jacobi for ~1 extra
  /// SpMV-equivalent per application. Falls back to SSOR
  /// (M = (D+L) D^{-1} (D+L)^T, always SPD for SPD A) if a pivot loses
  /// positivity, so the preconditioned system stays SPD unconditionally.
  kIncompleteCholesky,
  /// One geometric-multigrid V(1,1)-cycle (multigrid.hpp): damped-Jacobi
  /// smoothing, Galerkin coarse grids, dense coarsest solve. Iteration
  /// counts become near-independent of mesh size, where IC(0) counts grow
  /// with refinement — the right choice for large meshes and for batch
  /// workloads that amortize the hierarchy setup. Requires
  /// CgOptions::mg_symbolic (the operator's grid; only the package layer
  /// knows the mesh dimensions, so the hierarchy cannot be derived from
  /// the matrix alone).
  kMultigrid,
};

const char* to_string(CgPreconditioner preconditioner);

/// Lower-triangle sparsity pattern of a square CSR matrix, precomputed for
/// IC(0)/SSOR factorizations: per-row column lists (diagonal last) plus the
/// mapping from each lower-triangle slot back to the source value index.
/// The pattern depends only on the matrix structure, so IcPreconditioner
/// builds one the first time it factors a structure and keeps it for every
/// later matrix with the same structure digest (e.g. a mesh Laplacian
/// whose VR shunt stamps only touch existing diagonal entries).
class IcSymbolic {
 public:
  /// Fill level of the pattern: level-1 fill (entries reachable through
  /// one eliminated neighbor join the pattern). On 5-point mesh stencils
  /// this costs ~2 extra entries per lower row and cuts CG iterations by
  /// another ~30-40% over the no-fill pattern.
  static constexpr unsigned kFillLevel = 1;

  IcSymbolic() = default;
  /// Builds the pattern from `a` (must be square with every diagonal entry
  /// structurally present): A's lower triangle plus fill entries up to
  /// kFillLevel.
  explicit IcSymbolic(const CsrMatrix& a);

  bool empty() const { return analysis_.offsets.empty(); }

 private:
  friend class IcPreconditioner;
  struct Analysis {
    std::uint64_t source_digest{0};  // CsrMatrix::structure_digest() of A
    // Row r = [offsets[r], offsets[r+1]) (rows+1 offsets): its columns
    // ascend and the last is the diagonal; source names each slot's index
    // into CsrMatrix::values().
    std::vector<std::size_t> offsets;
    std::vector<std::size_t> cols;
    std::vector<std::size_t> source;
    // Strict-lower entries regrouped by column for the right-looking
    // factorization: column k = [col_offsets[k], col_offsets[k+1]), each
    // entry naming its storage slot and row (rows ascending per column).
    std::vector<std::size_t> col_offsets;  // rows+1
    std::vector<std::size_t> col_slots;
    std::vector<std::size_t> col_rows;
    // The numeric sweep's update targets, one per Schur update in sweep
    // order (column k, its entries p, then the entries q before p): the
    // storage slot of entry (row of p, row of q), or kDropped when it lies
    // outside the pattern and the update is compensated into both
    // diagonals instead.
    std::vector<std::uint32_t> update_slot;
    // The apply sweeps' gather schedule: the forward sweep walks L by
    // rows, the backward sweep L^T by rows (L by columns), so both are
    // branch-free gathers. Rows are listed in wavefront (dependency-level)
    // order — *_row names the original row per position, [*_off[p],
    // *_off[p+1]) its entries, *_cols the column each entry reads and
    // *_src its storage slot, which a factorization gathers the values
    // from. 32-bit indices keep the hot arrays in L1.
    std::vector<std::uint32_t> fwd_off, fwd_cols, fwd_row, fwd_src;
    std::vector<std::uint32_t> bwd_off, bwd_cols, bwd_row, bwd_src;
  };
  static constexpr std::uint32_t kDropped = ~std::uint32_t{0};
  Analysis analysis_;
};

/// Numeric IC(0) factorization (with SSOR fallback) over an IcSymbolic
/// pattern. factor() computes L (or captures D+L for the fallback);
/// apply() evaluates z = M^{-1} r allocation-free.
class IcPreconditioner {
 public:
  /// Factors `a`. Builds the IC pattern of a's structure the first time
  /// it sees that structure and keeps it while a.structure_digest() stays
  /// the same, so refactoring the same pattern with new values costs no
  /// symbolic work: a value gather, the numeric sweep over the planned
  /// update targets, and a gather of the values into the apply schedule.
  /// A matrix of another structure (even one of the same size) gets its
  /// own pattern.
  void factor(const CsrMatrix& a);

  /// z = M^{-1} r. Requires a prior factor(); z is resized to fit.
  void apply(const Vector& r, Vector& z) const;

  bool empty() const { return !factored_; }
  /// True when the last factor() hit a non-positive (or relatively
  /// negligible) pivot and produced the SSOR preconditioner instead.
  bool ssor_fallback() const { return ssor_; }

 private:
  void setup_ssor(const CsrMatrix& a);
  void gather_apply_values();

  IcSymbolic symbolic_;  // pattern of the last factored structure
  std::vector<double> values_;  // L values (IC) or lower-triangle A (SSOR)
  Vector diag_;                 // L_rr (IC) or A_rr (SSOR)
  Vector inv_diag_;             // 1 / diag_
  bool ssor_{false};
  bool factored_{false};
  // The strict-lower values in the order of the pattern's apply schedule
  // (IcSymbolic::Analysis::fwd_src / bwd_src).
  std::vector<double> fwd_vals_, bwd_vals_;
};

/// Outcome of an iterative solve.
struct CgResult {
  Vector x;
  std::size_t iterations{0};
  double residual_norm{0.0};  // true ||b - A x||_2 at exit
  bool converged{false};
};

struct CgOptions {
  std::size_t max_iterations{0};  // 0 => 10 * n + 100
  double relative_tolerance{1e-10};
  /// Warm-start iterate; empty = start from zero. A good x0 (the previous
  /// solution on the same mesh, or the rail voltage for an IR-drop solve)
  /// cuts the iteration count dramatically because the residual starts at
  /// the perturbation scale instead of ||b||.
  Vector x0;
  CgPreconditioner preconditioner{CgPreconditioner::kJacobi};
  /// Ignored: the workspace's IcPreconditioner builds and keeps the IC
  /// pattern itself. Kept only because perfbench's layer probes assign it;
  /// remove it with their next change.
  const IcSymbolic* ic_symbolic{nullptr};
  /// The operator's grid (see AssembledMesh::mg_symbolic); the workspace's
  /// MgPreconditioner builds the hierarchy for it. Required when
  /// preconditioner == kMultigrid — must be non-null with rows() matching
  /// the matrix, or the solve throws InvalidArgument. Any solve given a
  /// grid multiplies by the operator as a GridStencil (bit-identical to the
  /// CSR product, and cheaper) unless its pattern leaves the grid's 3x3
  /// neighbourhood; IC and Jacobi solves then use the CSR product.
  const MgSymbolic* mg_symbolic{nullptr};
  /// Parent span for the solve's trace span. Process-local observability
  /// plumbing only — never serialized, never read by the numerics.
  obs::TraceContext trace{};
};

/// Reusable solver state: the iteration vectors, the
/// operator-derived scalars (||A||_inf, the SPD diagonal check, the Jacobi
/// inverse diagonal), the most recent IC(0)/SSOR or multigrid setup, and
/// the preconditioners' symbolic analyses (the IC pattern, the multigrid
/// hierarchy), which each preconditioner keeps while the pattern or grid
/// stays the same. The numeric state is keyed to the matrix it was
/// computed from. The key is the
/// matrix's structure digest (CsrMatrix::structure_digest(), computed once
/// when the pattern was compiled) plus an exact copy of the values — the
/// pattern check is one word compare instead of a pass over the index
/// arrays, while the exact value comparison still guarantees reuse can
/// never change a result bit. The key names a pattern, not an object: a
/// copy, or a matrix compiled separately from the same triplets, hits it.
/// A repeat solve on a value-identical matrix — the common case in fault
/// campaigns re-solving the same stamped operator and in warm-started
/// sweeps — skips the diagonal scan and norm recompute and reuses the
/// factorization when the preconditioner kind also matches. Not
/// thread-safe: use one workspace per thread.
class CgWorkspace {
 public:
  CgWorkspace();
  ~CgWorkspace();
  CgWorkspace(const CgWorkspace&) = delete;
  CgWorkspace& operator=(const CgWorkspace&) = delete;

  /// Forgets everything keyed to the cached operator (factorization,
  /// norm, diagonal); the next solve recomputes and refactors. The
  /// symbolic analyses stay: each factorization checks its own against
  /// the matrix's pattern or the requested grid.
  void invalidate() {
    key_valid_ = false;
    factored_ = FactorKind::kNone;
    stencil_state_ = StencilState::kStale;
  }

 private:
  friend CgResult solve_cg(const CsrMatrix&, const Vector&, const CgOptions&,
                           CgWorkspace&);

  enum class FactorKind { kNone, kIncompleteCholesky, kMultigrid };
  enum class StencilState { kStale, kCurrent, kUnfit };

  bool key_matches(const CsrMatrix& a) const;
  void capture_key(const CsrMatrix& a);
  /// Shared solve prologue: validates the options, runs the SPD diagonal
  /// pre-check, caches ||A||_inf and the Jacobi inverse diagonal (all
  /// skipped on an operator-key hit), and (re)factors or reuses the
  /// IC/multigrid setup as the requested preconditioner demands, counting
  /// the factorization or reuse into the current obs::WorkAccount, and
  /// picks the solve's operator form (op_).
  void prepare(const CsrMatrix& a, const CgOptions& options);

  Vector diag_;      // SPD pre-check scratch
  Vector inv_diag_;  // Jacobi inverse diagonal (valid while key_valid_)
  double a_inf_{0.0};  // ||A||_inf (valid while key_valid_)
  Vector r_, z_, p_, ap_;  // CG iteration vectors
  IcPreconditioner ic_;
  std::unique_ptr<MgPreconditioner> mg_;  // lazily constructed
  FactorKind factored_{FactorKind::kNone};  // kind the cached setup is for
  // The operator as a grid stencil for IC and Jacobi solves given a grid
  // (lazily constructed): scattered once per operator key and grid width
  // (stencil_nx_; the row count fixes the height), or kUnfit when the
  // pattern leaves the grid's 3x3 neighbourhood. Multigrid solves use the
  // hierarchy's fine level instead.
  std::unique_ptr<GridStencil> stencil_;
  StencilState stencil_state_{StencilState::kStale};
  std::size_t stencil_nx_{0};
  // The stencil the prepared solve multiplies by, or null for the CSR
  // product.
  const GridStencil* op_{nullptr};
  // Operator key: structure digest + exact value copy (see class doc).
  std::uint64_t key_digest_{0};
  std::vector<double> key_values_;
  bool key_valid_{false};
};

/// Solver activity counted into one obs::WorkAccount. cg_solves and
/// cg_iterations are deterministic for a deterministic workload; the
/// factorizations/reuses split depends on how work lands on per-thread
/// workspaces.
struct SolverCounters {
  std::uint64_t cg_solves{0};
  std::uint64_t cg_iterations{0};
  std::uint64_t precond_factorizations{0};
  std::uint64_t precond_reuses{0};
  /// Always 0: the block-CG solver these counted is gone (every
  /// right-hand side solves through solve_cg). Kept so existing readers
  /// of the struct still compile.
  std::uint64_t cg_block_panels{0};
  std::uint64_t cg_block_columns{0};
};

/// The solves, iterations, factorizations and reuses counted into
/// `account`: solve_cg and CgWorkspace count into the current account.
SolverCounters solver_counters(const obs::WorkAccount& account);
SolverCounters operator+(const SolverCounters& a, const SolverCounters& b);
/// Writes the solver.* counters every report's telemetry snapshot carries.
void set_solver_counters(obs::Snapshot& snapshot,
                         const SolverCounters& counters);

/// Preconditioned conjugate gradient for SPD systems.
/// Convergence is declared against the *true* residual b - A x: when the
/// recurrence residual reaches the target the solver recomputes the exact
/// residual (the two drift apart over many iterations) and keeps iterating
/// from the corrected value if the target is not genuinely met.
/// The certified criterion is
///   ||b - A x||_2 <= rtol * (||A||_inf ||x||_2 + ||b||_2),
/// the normwise backward error: x then solves a system perturbed by a
/// relative rtol. For well-scaled systems ||A|| ||x|| ~ ||b|| and this
/// matches the familiar rtol * ||b|| test; for stiff systems (mixing
/// conductances many orders apart) rtol * ||b|| can sit below the
/// floating-point rounding floor eps * ||A|| ||x|| of the residual
/// itself, where no iterate could ever pass a b-relative test.
/// The workspace overload performs no per-iteration allocations and reuses
/// a cached factorization when the matrix is value-identical to the
/// previous IC solve; the convenience overload uses a transient workspace.
/// Results are identical either way (the workspace only provides storage).
/// Throws InvalidArgument on shape mismatch and NumericalError if the
/// iteration breaks down (non-SPD matrix).
CgResult solve_cg(const CsrMatrix& a, const Vector& b,
                  const CgOptions& options, CgWorkspace& workspace);
CgResult solve_cg(const CsrMatrix& a, const Vector& b,
                  const CgOptions& options = {});

}  // namespace vpd
