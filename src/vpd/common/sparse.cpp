#include "vpd/common/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "vpd/common/error.hpp"
#include "vpd/common/multigrid.hpp"

namespace vpd {

void TripletList::add(std::size_t row, std::size_t col, double value) {
  VPD_REQUIRE(row < rows_ && col < cols_, "entry (", row, ",", col,
              ") outside ", rows_, "x", cols_);
  entries_.push_back({row, col, value});
}

CsrMatrix::CsrMatrix(const TripletList& triplets)
    : rows_(triplets.rows()), cols_(triplets.cols()) {
  // Counting sort by row (O(nnz), stable), small per-row sorts by column,
  // then a duplicate-summing merge. Mesh/MNA stamping produces a handful
  // of entries per row, so the per-row sort is effectively linear — the
  // comparison sort over all entries this replaces dominated assembly
  // time. Merged sums of exactly zero stay in the pattern: a severed edge
  // must occupy the same slot as its nominal counterpart (see header).
  const auto& entries = triplets.entries();
  std::vector<std::size_t> bucket_start(rows_ + 1, 0);
  for (const auto& e : entries) ++bucket_start[e.row + 1];
  std::partial_sum(bucket_start.begin(), bucket_start.end(),
                   bucket_start.begin());

  // Scatter into row buckets, preserving insertion order within a row so
  // duplicate summation is deterministic.
  std::vector<std::size_t> bucket_cols(entries.size());
  std::vector<double> bucket_values(entries.size());
  {
    std::vector<std::size_t> cursor(bucket_start.begin(),
                                    bucket_start.end() - 1);
    for (const auto& e : entries) {
      const std::size_t at = cursor[e.row]++;
      bucket_cols[at] = e.col;
      bucket_values[at] = e.value;
    }
  }

  row_offsets_.assign(rows_ + 1, 0);
  col_indices_.reserve(entries.size());
  values_.reserve(entries.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t begin = bucket_start[r];
    const std::size_t end = bucket_start[r + 1];
    // Stable insertion sort by column (rows are short; stability keeps
    // duplicate summation in insertion order).
    for (std::size_t i = begin + 1; i < end; ++i) {
      const std::size_t c = bucket_cols[i];
      const double v = bucket_values[i];
      std::size_t j = i;
      while (j > begin && bucket_cols[j - 1] > c) {
        bucket_cols[j] = bucket_cols[j - 1];
        bucket_values[j] = bucket_values[j - 1];
        --j;
      }
      bucket_cols[j] = c;
      bucket_values[j] = v;
    }
    std::size_t i = begin;
    while (i < end) {
      const std::size_t col = bucket_cols[i];
      double sum = 0.0;
      while (i < end && bucket_cols[i] == col) {
        sum += bucket_values[i];
        ++i;
      }
      col_indices_.push_back(col);
      values_.push_back(sum);
      ++row_offsets_[r + 1];
    }
  }
  std::partial_sum(row_offsets_.begin(), row_offsets_.end(),
                   row_offsets_.begin());
}

Vector CsrMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply_into(x, y);
  return y;
}

void CsrMatrix::multiply_into(const Vector& x, Vector& y) const {
  VPD_REQUIRE(x.size() == cols_, "SpMV: vector has ", x.size(),
              " entries, matrix has ", cols_, " columns");
  VPD_REQUIRE(&x != &y, "SpMV: input and output must be distinct vectors");
  y.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      s += values_[k] * x[col_indices_[k]];
    y[r] = s;
  }
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  VPD_REQUIRE(row < rows_ && col < cols_, "index (", row, ",", col,
              ") outside ", rows_, "x", cols_);
  const auto begin = col_indices_.begin() + static_cast<long>(row_offsets_[row]);
  const auto end = col_indices_.begin() + static_cast<long>(row_offsets_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_indices_.begin())];
}

void CsrMatrix::add_to_entry(std::size_t row, std::size_t col, double delta) {
  VPD_REQUIRE(row < rows_ && col < cols_, "index (", row, ",", col,
              ") outside ", rows_, "x", cols_);
  const auto begin =
      col_indices_.begin() + static_cast<long>(row_offsets_[row]);
  const auto end =
      col_indices_.begin() + static_cast<long>(row_offsets_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  VPD_REQUIRE(it != end && *it == col, "entry (", row, ",", col,
              ") is a structural zero; the sparsity pattern is fixed");
  values_[static_cast<std::size_t>(it - col_indices_.begin())] += delta;
}

Vector CsrMatrix::diagonal() const {
  Vector d;
  diagonal_into(d);
  return d;
}

void CsrMatrix::diagonal_into(Vector& d) const {
  d.assign(std::min(rows_, cols_), 0.0);
  for (std::size_t r = 0; r < d.size(); ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      if (col_indices_[k] == r) {
        d[r] = values_[k];
        break;
      }
      if (col_indices_[k] > r) break;  // columns ascend within a row
    }
  }
}

double CsrMatrix::infinity_norm() const {
  double result = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double row_sum = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      row_sum += std::fabs(values_[k]);
    }
    result = std::max(result, row_sum);
  }
  return result;
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const std::size_t c = col_indices_[k];
      if (std::fabs(values_[k] - at(c, r)) > tol) return false;
    }
  }
  return true;
}

const char* to_string(CgPreconditioner preconditioner) {
  switch (preconditioner) {
    case CgPreconditioner::kJacobi:
      return "jacobi";
    case CgPreconditioner::kIncompleteCholesky:
      return "ic0";
    case CgPreconditioner::kMultigrid:
      return "multigrid";
  }
  return "unknown";
}

namespace {
// source_ marker for fill entries, which have no counterpart in A.
constexpr std::size_t kNoSource = static_cast<std::size_t>(-1);
}  // namespace

IcSymbolic::IcSymbolic(const CsrMatrix& a, unsigned fill_level) {
  VPD_REQUIRE(a.rows() == a.cols(),
              "IC pattern requires a square matrix, got ", a.rows(), "x",
              a.cols());
  const std::size_t n = a.rows();
  const auto& aoff = a.row_offsets();
  const auto& acols = a.col_indices();

  // Level-based symbolic factorization (the symmetric IKJ form): row i
  // starts from A's lower pattern at level 0, then each eliminated column
  // k < i contributes candidate fill (i, j) for every known entry (j, k)
  // with k < j < i, at level lev(i,k) + lev(j,k) + 1; candidates within
  // fill_level join the pattern. Columns are processed in ascending order,
  // so a level is final by the time its column is eliminated.
  constexpr unsigned kInf = ~0u;
  std::vector<unsigned> level(n, kInf);
  // Strict-lower entries seen so far, grouped by column: (row, level),
  // rows ascending — exactly the "upper row" of each eliminated column.
  std::vector<std::vector<std::pair<std::size_t, unsigned>>> colup(n);
  std::vector<std::size_t> row;  // working column list, kept sorted

  offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row.clear();
    bool diag_present = false;
    for (std::size_t k = aoff[i]; k < aoff[i + 1]; ++k) {
      if (acols[k] > i) break;  // columns are ascending within a row
      level[acols[k]] = 0;
      row.push_back(acols[k]);
      diag_present = (acols[k] == i);
    }
    VPD_REQUIRE(diag_present,
                "IC requires a structurally present diagonal; row ", i,
                " has none");
    if (fill_level > 0) {
      for (std::size_t idx = 0; idx < row.size(); ++idx) {
        const std::size_t k = row[idx];
        if (k >= i) break;
        const unsigned lev_ik = level[k];
        for (const auto& [j, lev_jk] : colup[k]) {
          if (j >= i) break;
          const unsigned candidate = lev_ik + lev_jk + 1;
          if (candidate > fill_level || level[j] <= candidate) continue;
          if (level[j] == kInf)  // new fill; j > k so it lands after idx
            row.insert(std::lower_bound(row.begin(), row.end(), j), j);
          level[j] = candidate;
        }
      }
    }
    for (std::size_t c : row) {
      cols_.push_back(c);
      // Map the slot back to A's value array; fill entries start at 0.
      const auto begin = acols.begin() + static_cast<long>(aoff[i]);
      const auto end = acols.begin() + static_cast<long>(aoff[i + 1]);
      const auto it = std::lower_bound(begin, end, c);
      source_.push_back(it != end && *it == c
                            ? static_cast<std::size_t>(it - acols.begin())
                            : kNoSource);
      if (c < i) colup[c].push_back({i, level[c]});
      level[c] = kInf;
    }
    offsets_[i + 1] = cols_.size();
  }

  // Column view of the strict-lower entries for the right-looking factor.
  col_offsets_.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = offsets_[r]; k + 1 < offsets_[r + 1]; ++k)
      ++col_offsets_[cols_[k] + 1];
  }
  std::partial_sum(col_offsets_.begin(), col_offsets_.end(),
                   col_offsets_.begin());
  col_slots_.resize(col_offsets_[n]);
  col_rows_.resize(col_offsets_[n]);
  std::vector<std::size_t> cursor(col_offsets_.begin(),
                                  col_offsets_.end() - 1);
  // Row-major traversal with ascending rows fills each column in
  // ascending-row order.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = offsets_[r]; k + 1 < offsets_[r + 1]; ++k) {
      const std::size_t c = cols_[k];
      col_slots_[cursor[c]] = k;
      col_rows_[cursor[c]] = r;
      ++cursor[c];
    }
  }
}

void IcPreconditioner::factor(const CsrMatrix& a, const IcSymbolic* shared) {
  if (shared != nullptr) {
    VPD_REQUIRE(shared->rows() == a.rows(),
                "shared IC pattern is for a ", shared->rows(),
                "-row matrix, got ", a.rows());
    symbolic_ = shared;
  } else {
    owned_ = IcSymbolic(a);
    symbolic_ = &owned_;
  }
  const IcSymbolic& sym = *symbolic_;
  const std::size_t n = sym.rows();
  const auto& off = sym.offsets_;
  const auto& cols = sym.cols_;

  values_.resize(sym.entry_count());
  for (std::size_t k = 0; k < values_.size(); ++k)
    values_[k] =
        sym.source_[k] == kNoSource ? 0.0 : a.values()[sym.source_[k]];
  diag_.assign(n, 0.0);
  inv_diag_.assign(n, 0.0);
  ssor_ = false;

  // Right-looking modified IC(0): column k is scaled by 1/L_kk, then its
  // outer product updates the trailing submatrix. Updates landing outside
  // the pattern (dropped fill) are compensated into both touched
  // diagonals (Gustafsson), which preserves row sums of the remainder and
  // improves the conditioning *order* on mesh Laplacians. A relative
  // pivot floor guards near-singular operators (e.g. a Laplacian with no
  // ground shunt), where the exact last pivot is a rounding-level residue.
  constexpr double kPivotFloor = 1e-12;
  const auto diag_slot = [&off](std::size_t r) { return off[r + 1] - 1; };
  // Binary search row i's strict-lower columns for j; npos when (i, j) is
  // outside the pattern.
  const auto find_slot = [&](std::size_t i, std::size_t j) {
    const auto begin = cols.begin() + static_cast<long>(off[i]);
    const auto end = cols.begin() + static_cast<long>(diag_slot(i));
    const auto it = std::lower_bound(begin, end, j);
    if (it == end || *it != j) return std::size_t(-1);
    return static_cast<std::size_t>(it - cols.begin());
  };
  for (std::size_t k = 0; k < n; ++k) {
    const double d = values_[diag_slot(k)];
    const double a_kk = a.values()[sym.source_[diag_slot(k)]];
    if (!(d > kPivotFloor * std::fabs(a_kk))) {
      setup_ssor(a);
      return;
    }
    const double l_kk = std::sqrt(d);
    values_[diag_slot(k)] = l_kk;
    diag_[k] = l_kk;
    inv_diag_[k] = 1.0 / l_kk;
    const std::size_t col_begin = sym.col_offsets_[k];
    const std::size_t col_end = sym.col_offsets_[k + 1];
    for (std::size_t p = col_begin; p < col_end; ++p)
      values_[sym.col_slots_[p]] *= inv_diag_[k];
    for (std::size_t p = col_begin; p < col_end; ++p) {
      const std::size_t i = sym.col_rows_[p];
      const double l_ik = values_[sym.col_slots_[p]];
      values_[diag_slot(i)] -= l_ik * l_ik;
      for (std::size_t q = col_begin; q < p; ++q) {
        const std::size_t j = sym.col_rows_[q];  // j < i: rows ascend
        const double update = l_ik * values_[sym.col_slots_[q]];
        const std::size_t slot = find_slot(i, j);
        if (slot != std::size_t(-1)) {
          values_[slot] -= update;
        } else {
          values_[diag_slot(i)] -= update;
          values_[diag_slot(j)] -= update;
        }
      }
    }
  }
  finalize_apply_arrays();
}

void IcPreconditioner::finalize_apply_arrays() {
  const IcSymbolic& sym = *symbolic_;
  const std::size_t n = sym.rows();
  n_ = n;
  const std::size_t lower = sym.col_offsets_[n];
  VPD_REQUIRE(sym.entry_count() < std::size_t{1} << 32,
              "IC pattern too large for 32-bit apply indexing");

  // Rows are emitted in wavefront (topological level) order: a row's level
  // is one past the deepest row it reads, so consecutive loop iterations in
  // apply() are independent and the out-of-order core overlaps them
  // instead of serializing on the row-to-row dependency chain. Rows within
  // a level never read each other's output, so the schedule changes only
  // execution order, not a single arithmetic operation — results are
  // bit-identical to the natural-order sweep.
  std::vector<std::uint32_t> level(n, 0);
  std::vector<std::size_t> order(n);
  const auto order_by_level = [&] {
    std::vector<std::size_t> count;
    for (std::size_t r = 0; r < n; ++r) {
      if (level[r] >= count.size()) count.resize(level[r] + 1, 0);
      ++count[level[r]];
    }
    std::vector<std::size_t> start(count.size() + 1, 0);
    std::partial_sum(count.begin(), count.end(), start.begin() + 1);
    for (std::size_t r = 0; r < n; ++r) order[start[level[r]]++] = r;
  };

  // Forward sweep (L, by rows): row r reads columns < r.
  for (std::size_t r = 0; r < n; ++r) {
    std::uint32_t lv = 0;
    for (std::size_t k = sym.offsets_[r]; k + 1 < sym.offsets_[r + 1]; ++k)
      lv = std::max(lv, level[sym.cols_[k]] + 1);
    level[r] = lv;
  }
  order_by_level();
  fwd_off_.resize(n + 1);
  fwd_row_.resize(n);
  fwd_cols_.resize(lower);
  fwd_vals_.resize(lower);
  std::size_t at = 0;
  fwd_off_[0] = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::size_t r = order[idx];
    fwd_row_[idx] = static_cast<std::uint32_t>(r);
    for (std::size_t k = sym.offsets_[r]; k + 1 < sym.offsets_[r + 1]; ++k) {
      fwd_cols_[at] = static_cast<std::uint32_t>(sym.cols_[k]);
      fwd_vals_[at] = values_[k];
      ++at;
    }
    fwd_off_[idx + 1] = static_cast<std::uint32_t>(at);
  }

  // Backward sweep (L^T, by rows = L by columns): row r reads rows > r.
  level.assign(n, 0);
  for (std::size_t r = n; r-- > 0;) {
    std::uint32_t lv = 0;
    for (std::size_t p = sym.col_offsets_[r]; p < sym.col_offsets_[r + 1];
         ++p)
      lv = std::max(lv, level[sym.col_rows_[p]] + 1);
    level[r] = lv;
  }
  order_by_level();
  bwd_off_.resize(n + 1);
  bwd_row_.resize(n);
  bwd_cols_.resize(lower);
  bwd_vals_.resize(lower);
  at = 0;
  bwd_off_[0] = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::size_t r = order[idx];
    bwd_row_[idx] = static_cast<std::uint32_t>(r);
    for (std::size_t p = sym.col_offsets_[r]; p < sym.col_offsets_[r + 1];
         ++p) {
      bwd_cols_[at] = static_cast<std::uint32_t>(sym.col_rows_[p]);
      bwd_vals_[at] = values_[sym.col_slots_[p]];
      ++at;
    }
    bwd_off_[idx + 1] = static_cast<std::uint32_t>(at);
  }
}

void IcPreconditioner::setup_ssor(const CsrMatrix& a) {
  const IcSymbolic& sym = *symbolic_;
  const std::size_t n = sym.rows();
  for (std::size_t k = 0; k < values_.size(); ++k)
    values_[k] =
        sym.source_[k] == kNoSource ? 0.0 : a.values()[sym.source_[k]];
  for (std::size_t r = 0; r < n; ++r) {
    const double a_rr = values_[sym.offsets_[r + 1] - 1];
    VPD_CHECK_NUMERIC(a_rr > 0.0, "SSOR fallback: diagonal not positive at row ",
                      r, " (value ", a_rr, "); system is not SPD");
    diag_[r] = a_rr;
    inv_diag_[r] = 1.0 / a_rr;
  }
  ssor_ = true;
  finalize_apply_arrays();
}

void IcPreconditioner::apply(const Vector& r, Vector& z) const {
  VPD_REQUIRE(!empty(), "IcPreconditioner::apply before factor()");
  const std::size_t n = n_;
  VPD_REQUIRE(r.size() == n, "preconditioner apply: vector has ", r.size(),
              " entries, expected ", n);

  z = r;
  // Forward solve L y = r (IC) or (D + L) y = r (SSOR): gather over the
  // strict-lower rows, visited in wavefront order (see
  // finalize_apply_arrays — bit-identical to the natural-order sweep).
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::uint32_t i = fwd_row_[idx];
    double s = z[i];
    for (std::uint32_t k = fwd_off_[idx]; k < fwd_off_[idx + 1]; ++k)
      s -= fwd_vals_[k] * z[fwd_cols_[k]];
    z[i] = s * inv_diag_[i];
  }
  // SSOR: M = (D+L) D^{-1} (D+L)^T, so scale by D between the sweeps.
  if (ssor_) {
    for (std::size_t i = 0; i < n; ++i) z[i] *= diag_[i];
  }
  // Backward solve L^T z = y: row i of L^T is column i of L (rows j > i),
  // so this gathers over the transposed view — no scatter, no
  // store-to-load hazards on z.
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::uint32_t i = bwd_row_[idx];
    double s = z[i];
    for (std::uint32_t k = bwd_off_[idx]; k < bwd_off_[idx + 1]; ++k)
      s -= bwd_vals_[k] * z[bwd_cols_[k]];
    z[i] = s * inv_diag_[i];
  }
}

CgWorkspace::CgWorkspace() = default;
CgWorkspace::~CgWorkspace() = default;

namespace {

/// FNV-1a over the matrix shape and index arrays: the structural half of
/// the workspace's operator key. One 64-bit word instead of a second copy
/// of the pattern (~half the old key's footprint on large meshes); the
/// values half stays an exact copy so reuse never changes a result bit.
std::uint64_t structural_digest(const CsrMatrix& a) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(a.rows());
  mix(a.cols());
  for (std::size_t v : a.row_offsets()) mix(v);
  for (std::size_t v : a.col_indices()) mix(v);
  return h;
}

}  // namespace

bool CgWorkspace::key_matches(const CsrMatrix& a) const {
  return key_valid_ && key_digest_ == structural_digest(a) &&
         key_values_ == a.values();
}

void CgWorkspace::capture_key(const CsrMatrix& a) {
  key_digest_ = structural_digest(a);
  key_values_ = a.values();
  key_valid_ = true;
}

namespace {

struct AtomicSolverCounters {
  std::atomic<std::uint64_t> cg_solves{0};
  std::atomic<std::uint64_t> cg_iterations{0};
  std::atomic<std::uint64_t> precond_factorizations{0};
  std::atomic<std::uint64_t> precond_reuses{0};
};

AtomicSolverCounters& global_counters() {
  static AtomicSolverCounters counters;
  return counters;
}

}  // namespace

SolverCounters solver_counters() {
  const AtomicSolverCounters& g = global_counters();
  SolverCounters c;
  c.cg_solves = g.cg_solves.load(std::memory_order_relaxed);
  c.cg_iterations = g.cg_iterations.load(std::memory_order_relaxed);
  c.precond_factorizations =
      g.precond_factorizations.load(std::memory_order_relaxed);
  c.precond_reuses = g.precond_reuses.load(std::memory_order_relaxed);
  return c;
}

SolverCounters operator-(const SolverCounters& a, const SolverCounters& b) {
  SolverCounters c;
  c.cg_solves = a.cg_solves - b.cg_solves;
  c.cg_iterations = a.cg_iterations - b.cg_iterations;
  c.precond_factorizations =
      a.precond_factorizations - b.precond_factorizations;
  c.precond_reuses = a.precond_reuses - b.precond_reuses;
  return c;
}

SolverCounters operator+(const SolverCounters& a, const SolverCounters& b) {
  SolverCounters c;
  c.cg_solves = a.cg_solves + b.cg_solves;
  c.cg_iterations = a.cg_iterations + b.cg_iterations;
  c.precond_factorizations =
      a.precond_factorizations + b.precond_factorizations;
  c.precond_reuses = a.precond_reuses + b.precond_reuses;
  return c;
}

void CgWorkspace::prepare(const CsrMatrix& a, const CgOptions& options) {
  const std::size_t n = a.rows();
  if (options.preconditioner == CgPreconditioner::kMultigrid) {
    VPD_REQUIRE(options.mg_symbolic != nullptr,
                "kMultigrid requires CgOptions::mg_symbolic (the "
                "grid-derived hierarchy; see AssembledMesh::mg_symbolic)");
    VPD_REQUIRE(options.mg_symbolic->rows() == n,
                "multigrid hierarchy is for a ", options.mg_symbolic->rows(),
                "-row grid, got a ", n, "-row matrix");
  }
  if (!key_matches(a)) {
    invalidate();
    // Positive-diagonal pre-check for every preconditioner (an SPD matrix
    // has a strictly positive diagonal); its inverse doubles as the Jacobi
    // preconditioner. Hoisted here so repeat solves on a value-identical
    // operator (the batch case) skip the O(nnz) scan and norm recompute.
    a.diagonal_into(diag_);
    inv_diag_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      VPD_CHECK_NUMERIC(diag_[i] > 0.0,
                        "matrix diagonal not positive at row ", i,
                        " (value ", diag_[i], "); system is not SPD");
      inv_diag_[i] = 1.0 / diag_[i];
    }
    a_inf_ = a.infinity_norm();
    // Key captured only after the checks pass, so a rejected operator can
    // never register as reusable.
    capture_key(a);
  }
  FactorKind want = FactorKind::kNone;
  if (options.preconditioner == CgPreconditioner::kIncompleteCholesky)
    want = FactorKind::kIncompleteCholesky;
  else if (options.preconditioner == CgPreconditioner::kMultigrid)
    want = FactorKind::kMultigrid;
  if (want == FactorKind::kNone) return;
  if (factored_ == want) {
    // Value-identical operator and matching kind: reuse. Exact comparison
    // above, so reuse can never change a result bit.
    ++stats_.factorization_reuses;
    global_counters().precond_reuses.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (want == FactorKind::kIncompleteCholesky) {
    ic_.factor(a, options.ic_symbolic);
  } else {
    if (!mg_) mg_ = std::make_unique<MgPreconditioner>();
    mg_->factor(a, *options.mg_symbolic);
  }
  factored_ = want;
  ++stats_.factorizations;
  global_counters().precond_factorizations.fetch_add(1,
                                                     std::memory_order_relaxed);
}

CgResult solve_cg(const CsrMatrix& a, const Vector& b,
                  const CgOptions& options, CgWorkspace& ws) {
  VPD_REQUIRE(a.rows() == a.cols(), "CG requires a square matrix, got ",
              a.rows(), "x", a.cols());
  VPD_REQUIRE(b.size() == a.rows(), "rhs has ", b.size(),
              " entries, expected ", a.rows());

  obs::Span span("solve.cg", options.trace);

  const std::size_t n = a.rows();
  const std::size_t max_iterations =
      options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;
  const bool jacobi = options.preconditioner == CgPreconditioner::kJacobi;
  const bool mg = options.preconditioner == CgPreconditioner::kMultigrid;

  ws.prepare(a, options);

  const auto apply_precond = [&](const Vector& r, Vector& z) {
    if (jacobi) {
      z.resize(n);
      for (std::size_t i = 0; i < n; ++i) z[i] = ws.inv_diag_[i] * r[i];
    } else if (mg) {
      ws.mg_->apply(r, z);
    } else {
      ws.ic_.apply(r, z);
    }
  };
  const auto finish = [&](CgResult result) {
    ++ws.stats_.solves;
    ws.stats_.iterations += result.iterations;
    AtomicSolverCounters& g = global_counters();
    g.cg_solves.fetch_add(1, std::memory_order_relaxed);
    g.cg_iterations.fetch_add(result.iterations, std::memory_order_relaxed);
    if (span.active()) {
      span.set_arg("nodes", double(n));
      span.set_arg("iterations", double(result.iterations));
      span.set_arg("converged", result.converged ? 1.0 : 0.0);
    }
    return result;
  };

  CgResult result;
  const double b_norm = norm2(b);
  if (b_norm == 0.0) {
    result.x.assign(n, 0.0);  // the unique SPD solution
    result.converged = true;
    return finish(std::move(result));
  }
  const double target = options.relative_tolerance * b_norm;
  // Certified criterion: normwise backward error (see header). Always at
  // least `target`, and attainable even when rtol * ||b|| is below the
  // rounding floor eps * ||A|| ||x|| of the residual computation.
  // ||A||_inf comes from the workspace's operator cache (ws.prepare).
  const double a_inf = ws.a_inf_;
  const auto certified_target = [&](const Vector& x) {
    return options.relative_tolerance * (a_inf * norm2(x) + b_norm);
  };

  Vector& r = ws.r_;
  Vector& z = ws.z_;
  Vector& p = ws.p_;
  Vector& ap = ws.ap_;
  if (options.x0.empty()) {
    result.x.assign(n, 0.0);
    r = b;
  } else {
    VPD_REQUIRE(options.x0.size() == n, "warm start has ", options.x0.size(),
                " entries, expected ", n);
    result.x = options.x0;
    a.multiply_into(result.x, ap);
    r.resize(n);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
    const double r_norm = norm2(r);
    if (r_norm <= certified_target(result.x)) {
      result.converged = true;
      result.residual_norm = r_norm;
      return finish(std::move(result));
    }
  }

  apply_precond(r, z);
  p = z;
  double rz = dot(r, z);

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    a.multiply_into(p, ap);
    const double p_ap = dot(p, ap);
    VPD_CHECK_NUMERIC(p_ap > 0.0,
                      "CG breakdown: p^T A p = ", p_ap,
                      " <= 0; matrix is not positive definite");
    const double alpha = rz / p_ap;
    axpy(alpha, p, result.x);
    axpy(-alpha, ap, r);
    result.iterations = iter + 1;

    const double r_norm = norm2(r);
    if (r_norm <= target) {
      // The recurrence residual can drift from the true residual over many
      // iterations; only the true residual certifies convergence.
      a.multiply_into(result.x, ap);
      for (std::size_t i = 0; i < n; ++i) ap[i] = b[i] - ap[i];
      const double true_norm = norm2(ap);
      if (true_norm <= certified_target(result.x)) {
        result.converged = true;
        result.residual_norm = true_norm;
        return finish(std::move(result));
      }
      // Restart from the corrected residual and keep iterating.
      r = ap;
      apply_precond(r, z);
      p = z;
      rz = dot(r, z);
      continue;
    }
    apply_precond(r, z);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }

  // Out of iterations before the recurrence reached the b-relative
  // trigger; the iterate may still satisfy the certified criterion.
  a.multiply_into(result.x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  result.residual_norm = norm2(r);
  result.converged = result.residual_norm <= certified_target(result.x);
  return finish(std::move(result));
}

CgResult solve_cg(const CsrMatrix& a, const Vector& b,
                  const CgOptions& options) {
  CgWorkspace workspace;
  return solve_cg(a, b, options, workspace);
}

std::vector<CgResult> solve_cg_batch(const CsrMatrix& a,
                                     const std::vector<Vector>& rhs,
                                     const CgOptions& options,
                                     CgWorkspace& workspace) {
  std::vector<CgResult> results;
  results.reserve(rhs.size());
  for (const Vector& b : rhs)
    results.push_back(solve_cg(a, b, options, workspace));
  return results;
}

}  // namespace vpd
