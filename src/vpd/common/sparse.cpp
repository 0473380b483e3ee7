#include "vpd/common/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "vpd/common/error.hpp"
#include "vpd/common/multigrid.hpp"
#include "vpd/common/panel_width.hpp"

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

void CsrMatrix::multiply_panel(const double* x, double* y,
                               std::size_t width) const {
  VPD_REQUIRE(width > 0, "SpMM: panel width must be positive");
  VPD_REQUIRE(x != y, "SpMM: input and output panels must be distinct");
  detail::dispatch_panel_width(width, [&](auto wc) {
    constexpr std::size_t W = wc();
    for (std::size_t r = 0; r < rows_; ++r) {
      double acc[W] = {};
      for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
        const double v = values_[k];
        const double* in = x + col_indices_[k] * W;
        for (std::size_t j = 0; j < W; ++j) acc[j] += v * in[j];
      }
      double* out = y + r * W;
      for (std::size_t j = 0; j < W; ++j) out[j] = acc[j];
    }
  });
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

void IcPreconditioner::apply_panel(const double* r, double* z,
                                   std::size_t width) const {
  VPD_REQUIRE(!empty(), "IcPreconditioner::apply_panel before factor()");
  VPD_REQUIRE(width > 0 && width <= kMaxCgBlockWidth, "panel width ", width,
              " outside [1, ", kMaxCgBlockWidth, "]");
  const std::size_t n = n_;
  VPD_REQUIRE(r != z, "apply_panel: input and output panels must be "
              "distinct");
  // The same wavefront-ordered gather sweeps as apply(), with the panel
  // width as the innermost loop at a dispatched compile-time value so the
  // per-column accumulators live in registers; each column sees exactly a
  // standalone apply()'s arithmetic. The forward sweep reads its source
  // values straight from r (every row is visited exactly once, and the
  // gathers only touch already-written rows of z), skipping apply()'s
  // whole-vector copy — a full panel pass at large n.
  detail::dispatch_panel_width(width, [&](auto wc) {
    constexpr std::size_t W = wc();
    double s[W];
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::uint32_t i = fwd_row_[idx];
      double* zi = z + std::size_t{i} * W;
      const double* ri = r + std::size_t{i} * W;
      for (std::size_t j = 0; j < W; ++j) s[j] = ri[j];
      for (std::uint32_t k = fwd_off_[idx]; k < fwd_off_[idx + 1]; ++k) {
        const double v = fwd_vals_[k];
        const double* zc = z + std::size_t{fwd_cols_[k]} * W;
        for (std::size_t j = 0; j < W; ++j) s[j] -= v * zc[j];
      }
      const double inv = inv_diag_[i];
      for (std::size_t j = 0; j < W; ++j) zi[j] = s[j] * inv;
    }
    if (ssor_) {
      for (std::size_t i = 0; i < n; ++i) {
        const double d = diag_[i];
        double* zi = z + i * W;
        for (std::size_t j = 0; j < W; ++j) zi[j] *= d;
      }
    }
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::uint32_t i = bwd_row_[idx];
      double* zi = z + std::size_t{i} * W;
      for (std::size_t j = 0; j < W; ++j) s[j] = zi[j];
      for (std::uint32_t k = bwd_off_[idx]; k < bwd_off_[idx + 1]; ++k) {
        const double v = bwd_vals_[k];
        const double* zc = z + std::size_t{bwd_cols_[k]} * W;
        for (std::size_t j = 0; j < W; ++j) s[j] -= v * zc[j];
      }
      const double inv = inv_diag_[i];
      for (std::size_t j = 0; j < W; ++j) zi[j] = s[j] * inv;
    }
  });
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
  std::atomic<std::uint64_t> cg_block_panels{0};
  std::atomic<std::uint64_t> cg_block_columns{0};
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
  c.cg_block_panels = g.cg_block_panels.load(std::memory_order_relaxed);
  c.cg_block_columns = g.cg_block_columns.load(std::memory_order_relaxed);
  return c;
}

SolverCounters operator-(const SolverCounters& a, const SolverCounters& b) {
  return {a.cg_solves - b.cg_solves, a.cg_iterations - b.cg_iterations,
          a.precond_factorizations - b.precond_factorizations,
          a.precond_reuses - b.precond_reuses,
          a.cg_block_panels - b.cg_block_panels,
          a.cg_block_columns - b.cg_block_columns};
}

SolverCounters operator+(const SolverCounters& a, const SolverCounters& b) {
  return {a.cg_solves + b.cg_solves, a.cg_iterations + b.cg_iterations,
          a.precond_factorizations + b.precond_factorizations,
          a.precond_reuses + b.precond_reuses,
          a.cg_block_panels + b.cg_block_panels,
          a.cg_block_columns + b.cg_block_columns};
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

namespace {

/// Dense symmetric w x w Cholesky (row-major, lower triangle; strict
/// upper ignored). Returns false on a pivot at or below sqrt(eps) times
/// its diagonal entry — a numerically rank-deficient Gram matrix, which
/// in block CG means the panel's columns have become linearly dependent.
/// A merely positive pivot is not enough: a near-singular panel can keep
/// pivots around 1e-31 relative for tens of thousands of iterations
/// without converging, where the scalar fallback finishes in dozens.
/// Healthy panels keep relative pivots above 1e-4.
bool chol_factor_small(double* s, std::size_t w) {
  const double rank_tol = std::sqrt(std::numeric_limits<double>::epsilon());
  for (std::size_t j = 0; j < w; ++j) {
    const double diag = s[j * w + j];
    double d = diag;
    for (std::size_t k = 0; k < j; ++k) d -= s[j * w + k] * s[j * w + k];
    if (!(d > rank_tol * diag)) return false;
    const double l = std::sqrt(d);
    s[j * w + j] = l;
    for (std::size_t i = j + 1; i < w; ++i) {
      double v = s[i * w + j];
      for (std::size_t k = 0; k < j; ++k) v -= s[i * w + k] * s[j * w + k];
      s[i * w + j] = v / l;
    }
  }
  return true;
}

/// Solves (L L^T) X = B in place for a w x m row-major block.
void chol_solve_small(const double* l, std::size_t w, double* b,
                      std::size_t m) {
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t k = 0; k < i; ++k) {
      const double l_ik = l[i * w + k];
      for (std::size_t j = 0; j < m; ++j) b[i * m + j] -= l_ik * b[k * m + j];
    }
    const double inv = 1.0 / l[i * w + i];
    for (std::size_t j = 0; j < m; ++j) b[i * m + j] *= inv;
  }
  for (std::size_t i = w; i-- > 0;) {
    for (std::size_t k = i + 1; k < w; ++k) {
      const double l_ki = l[k * w + i];
      for (std::size_t j = 0; j < m; ++j) b[i * m + j] -= l_ki * b[k * m + j];
    }
    const double inv = 1.0 / l[i * w + i];
    for (std::size_t j = 0; j < m; ++j) b[i * m + j] *= inv;
  }
}

}  // namespace

std::vector<CgResult> solve_cg_block(const CsrMatrix& a,
                                     const std::vector<Vector>& rhs,
                                     const CgOptions& options,
                                     CgWorkspace& ws) {
  VPD_REQUIRE(a.rows() == a.cols(), "CG requires a square matrix, got ",
              a.rows(), "x", a.cols());
  const std::size_t n = a.rows();
  for (const Vector& b : rhs)
    VPD_REQUIRE(b.size() == n, "rhs has ", b.size(), " entries, expected ",
                n);
  if (!options.x0.empty())
    VPD_REQUIRE(options.x0.size() == n, "warm start has ", options.x0.size(),
                " entries, expected ", n);

  obs::Span span("solve.cg_block", options.trace);

  ws.prepare(a, options);

  const bool jacobi = options.preconditioner == CgPreconditioner::kJacobi;
  const bool mgp = options.preconditioner == CgPreconditioner::kMultigrid;
  const std::size_t max_iterations =
      options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;
  const double rtol = options.relative_tolerance;

  AtomicSolverCounters& g = global_counters();
  std::vector<CgResult> results(rhs.size());

  // Panel position metadata, parallel arrays over the active columns.
  std::vector<std::size_t> active;  // index into rhs/results
  std::vector<double> b_norms, targets;
  std::vector<std::size_t> col_iters;
  std::size_t w = 0;

  auto& B = ws.panel_b_;
  auto& X = ws.panel_x_;
  auto& R = ws.panel_r_;
  auto& Z = ws.panel_z_;
  auto& P = ws.panel_p_;
  auto& Q = ws.panel_q_;

  const auto apply_precond_panel = [&](const double* r, double* z) {
    if (jacobi) {
      for (std::size_t i = 0; i < n; ++i) {
        const double d = ws.inv_diag_[i];
        for (std::size_t j = 0; j < w; ++j) z[i * w + j] = d * r[i * w + j];
      }
    } else if (mgp) {
      ws.mg_->apply_panel(r, z, w);
    } else {
      ws.ic_.apply_panel(r, z, w);
    }
  };
  // All w column norms in one pass over the panel (a per-column loop
  // would re-read the whole panel w times; at large n the panels live in
  // DRAM and the traffic dominates the iteration). Per column the
  // accumulation order matches a standalone norm2 exactly.
  const auto col_norms = [&](const std::vector<double>& panel, double* out) {
    detail::dispatch_panel_width(w, [&](auto wc) {
      constexpr std::size_t W = wc();
      double s[W] = {};
      for (std::size_t i = 0; i < n; ++i) {
        const double* row = &panel[i * W];
        for (std::size_t j = 0; j < W; ++j) s[j] += row[j] * row[j];
      }
      for (std::size_t j = 0; j < W; ++j) out[j] = std::sqrt(s[j]);
    });
  };
  // out = A_^T B_ over the panel columns (w x w, row-major). Width
  // dispatched to a compile-time value (like every O(n w^2) kernel
  // below): with w constexpr the inner loops unroll and the accumulators
  // stay in registers, which is where the block path's wall-clock
  // advantage over the sequential loop comes from. The node loop is
  // tiled and the output rows processed in pairs: a full w x w
  // accumulator block spills to the stack (a store-forwarding round
  // trip per multiply-add), while two rows of it fit in registers and
  // the tile keeps the re-read panel chunks in L1.
  const auto gram = [&](const std::vector<double>& a_,
                        const std::vector<double>& b_, double* out) {
    detail::dispatch_panel_width(w, [&](auto wc) {
      constexpr std::size_t W = wc();
      constexpr std::size_t kTile = 256;
      double acc[W * W] = {};
      for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
        const std::size_t t1 = std::min(n, t0 + kTile);
        std::size_t c = 0;
        for (; c + 1 < W; c += 2) {
          double r0[W] = {}, r1[W] = {};
          for (std::size_t i = t0; i < t1; ++i) {
            const double* ra = &a_[i * W];
            const double* rb = &b_[i * W];
            const double v0 = ra[c];
            const double v1 = ra[c + 1];
            for (std::size_t j = 0; j < W; ++j) {
              r0[j] += v0 * rb[j];
              r1[j] += v1 * rb[j];
            }
          }
          for (std::size_t j = 0; j < W; ++j) {
            acc[c * W + j] += r0[j];
            acc[(c + 1) * W + j] += r1[j];
          }
        }
        if (c < W) {
          double r0[W] = {};
          for (std::size_t i = t0; i < t1; ++i) {
            const double v0 = a_[i * W + c];
            const double* rb = &b_[i * W];
            for (std::size_t j = 0; j < W; ++j) r0[j] += v0 * rb[j];
          }
          for (std::size_t j = 0; j < W; ++j) acc[c * W + j] += r0[j];
        }
      }
      std::copy(acc, acc + W * W, out);
    });
  };
  // R -= Q m (m is w x w row-major), accumulating the updated residual
  // panel's column norms in the same pass: the recurrence trigger needs
  // them every iteration, and a separate re-read of R is a full DRAM
  // pass at large n. Per column the arithmetic (update then ascending
  // sum of squares) matches the unfused update + col_norms exactly.
  const auto residual_madd = [&](const double* m, double* norms_out) {
    detail::dispatch_panel_width(w, [&](auto wc) {
      constexpr std::size_t W = wc();
      double t[W];
      double s[W] = {};
      for (std::size_t i = 0; i < n; ++i) {
        const double* rq = &Q[i * W];
        for (std::size_t j = 0; j < W; ++j) t[j] = 0.0;
        for (std::size_t k = 0; k < W; ++k) {
          const double v = rq[k];
          const double* mk = m + k * W;
          for (std::size_t j = 0; j < W; ++j) t[j] += v * mk[j];
        }
        double* rr = &R[i * W];
        for (std::size_t j = 0; j < W; ++j) {
          rr[j] -= t[j];
          s[j] += rr[j] * rr[j];
        }
      }
      for (std::size_t j = 0; j < W; ++j) norms_out[j] = std::sqrt(s[j]);
    });
  };
  // y += sign * (p_ m) over the panel (m is w x w row-major).
  const auto panel_madd = [&](std::vector<double>& y_,
                              const std::vector<double>& p_, const double* m,
                              double sign) {
    detail::dispatch_panel_width(w, [&](auto wc) {
      constexpr std::size_t W = wc();
      double t[W];
      for (std::size_t i = 0; i < n; ++i) {
        const double* rp = &p_[i * W];
        for (std::size_t j = 0; j < W; ++j) t[j] = 0.0;
        for (std::size_t k = 0; k < W; ++k) {
          const double v = rp[k];
          const double* mk = m + k * W;
          for (std::size_t j = 0; j < W; ++j) t[j] += v * mk[j];
        }
        double* ry = &y_[i * W];
        for (std::size_t j = 0; j < W; ++j) ry[j] += sign * t[j];
      }
    });
  };
  // P = Z + P beta (beta is w x w row-major).
  const auto dir_update = [&](const double* beta) {
    detail::dispatch_panel_width(w, [&](auto wc) {
      constexpr std::size_t W = wc();
      double t[W];
      for (std::size_t i = 0; i < n; ++i) {
        const double* rp = &P[i * W];
        const double* rz = &Z[i * W];
        for (std::size_t j = 0; j < W; ++j) t[j] = rz[j];
        for (std::size_t k = 0; k < W; ++k) {
          const double v = rp[k];
          const double* bk = beta + k * W;
          for (std::size_t j = 0; j < W; ++j) t[j] += v * bk[j];
        }
        double* out = &P[i * W];
        for (std::size_t j = 0; j < W; ++j) out[j] = t[j];
      }
    });
  };
  // Record panel position c's result (X still at the current width).
  const auto retire = [&](std::size_t c, bool converged, double residual) {
    CgResult& out = results[active[c]];
    out.x.resize(n);
    for (std::size_t i = 0; i < n; ++i) out.x[i] = X[i * w + c];
    out.iterations = col_iters[c];
    out.converged = converged;
    out.residual_norm = residual;
    ++ws.stats_.solves;
    ws.stats_.iterations += col_iters[c];
    g.cg_solves.fetch_add(1, std::memory_order_relaxed);
    g.cg_iterations.fetch_add(col_iters[c], std::memory_order_relaxed);
    g.cg_block_columns.fetch_add(1, std::memory_order_relaxed);
  };
  // Drop retired positions: in-place forward repack (every destination
  // index precedes its source, so ascending traversal never clobbers an
  // unread element) of the named panels plus the column metadata.
  const auto repack = [&](const std::vector<bool>& keep,
                          std::initializer_list<std::vector<double>*> panels) {
    std::size_t new_w = 0;
    for (bool k : keep)
      if (k) ++new_w;
    for (std::vector<double>* panel : panels) {
      auto& v = *panel;
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t out = 0;
        for (std::size_t c = 0; c < w; ++c)
          if (keep[c]) v[i * new_w + out++] = v[i * w + c];
      }
    }
    std::size_t out = 0;
    for (std::size_t c = 0; c < w; ++c) {
      if (!keep[c]) continue;
      active[out] = active[c];
      b_norms[out] = b_norms[c];
      targets[out] = targets[c];
      col_iters[out] = col_iters[c];
      ++out;
    }
    active.resize(out);
    b_norms.resize(out);
    targets.resize(out);
    col_iters.resize(out);
    w = out;
  };

  for (std::size_t chunk = 0; chunk < rhs.size();
       chunk += kMaxCgBlockWidth) {
    const std::size_t chunk_end =
        std::min(rhs.size(), chunk + kMaxCgBlockWidth);

    active.clear();
    b_norms.clear();
    targets.clear();
    col_iters.clear();
    for (std::size_t c = chunk; c < chunk_end; ++c) {
      const double b_norm = norm2(rhs[c]);
      if (b_norm == 0.0) {
        // The scalar path's shortcut: x = 0 is the unique SPD solution.
        results[c].x.assign(n, 0.0);
        results[c].converged = true;
        ++ws.stats_.solves;
        g.cg_solves.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      active.push_back(c);
      b_norms.push_back(b_norm);
      targets.push_back(rtol * b_norm);
      col_iters.push_back(0);
    }
    if (active.empty()) continue;
    g.cg_block_panels.fetch_add(1, std::memory_order_relaxed);

    w = active.size();
    B.resize(n * w);
    X.resize(n * w);
    R.resize(n * w);
    Z.resize(n * w);
    P.resize(n * w);
    Q.resize(n * w);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < w; ++j) B[i * w + j] = rhs[active[j]][i];

    if (options.x0.empty()) {
      std::fill(X.begin(), X.end(), 0.0);
      std::copy(B.begin(), B.end(), R.begin());
    } else {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < w; ++j) X[i * w + j] = options.x0[i];
      a.multiply_panel(X.data(), Q.data(), w);
      for (std::size_t k = 0; k < n * w; ++k) R[k] = B[k] - Q[k];
      // The scalar path's warm-start early exit, per column.
      const double x0_norm = norm2(options.x0);
      double r_norms[kMaxCgBlockWidth];
      col_norms(R, r_norms);
      std::vector<bool> keep(w, true);
      bool any = false;
      for (std::size_t c = 0; c < w; ++c) {
        if (r_norms[c] <= rtol * (ws.a_inf_ * x0_norm + b_norms[c])) {
          retire(c, true, r_norms[c]);
          keep[c] = false;
          any = true;
        }
      }
      if (any) repack(keep, {&B, &X, &R});
      if (w == 0) continue;
    }

    double rho[kMaxCgBlockWidth * kMaxCgBlockWidth];
    double scratch[kMaxCgBlockWidth * kMaxCgBlockWidth];
    double alpha[kMaxCgBlockWidth * kMaxCgBlockWidth];

    bool need_setup = true;
    bool fell_back = false;
    std::size_t iter = 0;
    while (w > 0 && iter < max_iterations) {
      if (need_setup) {
        apply_precond_panel(R.data(), Z.data());
        std::copy(Z.begin(), Z.begin() + n * w, P.begin());
        gram(R, Z, rho);
        need_setup = false;
      }
      a.multiply_panel(P.data(), Q.data(), w);
      gram(P, Q, scratch);  // P^T A P
      if (!chol_factor_small(scratch, w)) {
        fell_back = true;
        break;
      }
      std::copy(rho, rho + w * w, alpha);
      chol_solve_small(scratch, w, alpha, w);  // alpha = (P^T A P)^{-1} rho
      panel_madd(X, P, alpha, +1.0);
      double r_norms[kMaxCgBlockWidth];
      residual_madd(alpha, r_norms);
      ++iter;
      for (std::size_t c = 0; c < w; ++c) ++col_iters[c];

      // Same b-relative trigger as the scalar path; certification is
      // against the true residual (the recurrence drifts over many
      // iterations), and surviving columns restart from it.
      bool trigger = false;
      for (std::size_t c = 0; c < w && !trigger; ++c)
        trigger = r_norms[c] <= targets[c];
      if (trigger) {
        a.multiply_panel(X.data(), Q.data(), w);
        for (std::size_t k = 0; k < n * w; ++k) Q[k] = B[k] - Q[k];
        double t_norms[kMaxCgBlockWidth];
        double x_norms[kMaxCgBlockWidth];
        col_norms(Q, t_norms);
        col_norms(X, x_norms);
        std::vector<bool> keep(w, true);
        bool any = false;
        for (std::size_t c = 0; c < w; ++c) {
          if (t_norms[c] <= rtol * (ws.a_inf_ * x_norms[c] + b_norms[c])) {
            retire(c, true, t_norms[c]);
            keep[c] = false;
            any = true;
          }
        }
        std::copy(Q.begin(), Q.begin() + n * w, R.begin());
        if (any) repack(keep, {&B, &X, &R});
        need_setup = true;
        continue;
      }

      apply_precond_panel(R.data(), Z.data());
      gram(R, Z, scratch);  // rho_next
      double rho_chol[kMaxCgBlockWidth * kMaxCgBlockWidth];
      std::copy(rho, rho + w * w, rho_chol);
      if (!chol_factor_small(rho_chol, w)) {
        fell_back = true;
        break;
      }
      std::copy(scratch, scratch + w * w, alpha);
      chol_solve_small(rho_chol, w, alpha, w);  // beta = rho^{-1} rho_next
      dir_update(alpha);
      std::copy(scratch, scratch + w * w, rho);
    }

    if (fell_back) {
      // Rank-deficient panel (duplicate right-hand sides, or columns that
      // converged together): finish each remaining column with scalar CG
      // warm-started from its block iterate. The workspace key makes the
      // factorization reuse free, so only iterations are spent.
      std::vector<std::size_t> cols(active);
      std::vector<std::size_t> spent(col_iters);
      std::vector<Vector> warm(w);
      for (std::size_t c = 0; c < w; ++c) {
        warm[c].resize(n);
        for (std::size_t i = 0; i < n; ++i) warm[c][i] = X[i * w + c];
      }
      CgOptions fallback = options;
      for (std::size_t c = 0; c < w; ++c) {
        fallback.x0 = std::move(warm[c]);
        CgResult res = solve_cg(a, rhs[cols[c]], fallback, ws);
        res.iterations += spent[c];
        ws.stats_.iterations += spent[c];
        g.cg_iterations.fetch_add(spent[c], std::memory_order_relaxed);
        results[cols[c]] = std::move(res);
      }
      w = 0;
    } else if (w > 0) {
      // Out of iterations; the iterates may still satisfy the certified
      // criterion (the scalar path's exit semantics).
      a.multiply_panel(X.data(), Q.data(), w);
      for (std::size_t k = 0; k < n * w; ++k) Q[k] = B[k] - Q[k];
      double t_norms[kMaxCgBlockWidth];
      double x_norms[kMaxCgBlockWidth];
      col_norms(Q, t_norms);
      col_norms(X, x_norms);
      for (std::size_t c = 0; c < w; ++c) {
        retire(c,
               t_norms[c] <= rtol * (ws.a_inf_ * x_norms[c] + b_norms[c]),
               t_norms[c]);
      }
      w = 0;
    }
  }

  if (span.active()) {
    std::uint64_t total = 0;
    for (const CgResult& res : results) total += res.iterations;
    span.set_arg("nodes", double(n));
    span.set_arg("columns", double(rhs.size()));
    span.set_arg("iterations", double(total));
  }
  return results;
}

}  // namespace vpd
