#include "vpd/common/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "vpd/common/error.hpp"
#include "vpd/common/multigrid.hpp"
#include "vpd/obs/registry.hpp"

namespace vpd {

namespace {

std::uint64_t mix_word(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0xff51afd7ed558ccdull;
  return h ^ (h >> 32);
}

/// Folds `words` and their count into `h`, one mix per word. Word i goes
/// to lane i % 4; the four independent lanes let the multiplies overlap
/// (a single chain would wait on each one).
std::uint64_t mix_words(std::uint64_t h,
                        const std::vector<std::size_t>& words) {
  std::uint64_t lane[4] = {h, h + 1, h + 2, h + 3};
  std::size_t i = 0;
  for (; i + 4 <= words.size(); i += 4)
    for (std::size_t k = 0; k < 4; ++k)
      lane[k] = mix_word(lane[k], words[i + k]);
  for (; i < words.size(); ++i) lane[0] = mix_word(lane[0], words[i]);
  h = mix_word(h, words.size());
  for (std::uint64_t l : lane) h = mix_word(h, l);
  return h;
}

/// The structure digest CsrMatrix keeps: shape, row offsets, column
/// indices.
std::uint64_t hash_structure(std::size_t rows, std::size_t cols,
                             const std::vector<std::size_t>& row_offsets,
                             const std::vector<std::size_t>& col_indices) {
  std::uint64_t h = mix_word(mix_word(0x9e3779b97f4a7c15ull, rows), cols);
  return mix_words(mix_words(h, row_offsets), col_indices);
}

}  // namespace

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
  structure_digest_ = hash_structure(rows_, cols_, row_offsets_, col_indices_);
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
// Analysis::source marker for fill entries, which have no counterpart in A.
constexpr std::size_t kNoSource = static_cast<std::size_t>(-1);
}  // namespace

IcSymbolic::IcSymbolic(const CsrMatrix& a) {
  VPD_REQUIRE(a.rows() == a.cols(),
              "IC pattern requires a square matrix, got ", a.rows(), "x",
              a.cols());
  const std::size_t n = a.rows();
  const auto& aoff = a.row_offsets();
  const auto& acols = a.col_indices();
  Analysis& sym = analysis_;
  sym.source_digest = a.structure_digest();

  // Level-based symbolic factorization (the symmetric IKJ form): row i
  // starts from A's lower pattern at level 0, then each eliminated column
  // k < i contributes candidate fill (i, j) for every known entry (j, k)
  // with k < j < i, at level lev(i,k) + lev(j,k) + 1; candidates within
  // kFillLevel join the pattern. Columns are processed in ascending order,
  // so a level is final by the time its column is eliminated.
  constexpr unsigned kInf = ~0u;
  std::vector<unsigned> level(n, kInf);
  // Strict-lower entries seen so far, grouped by column: (row, level),
  // rows ascending — exactly the "upper row" of each eliminated column.
  // Each column's entries are a list threaded through one pool (`next`
  // indexes the pool, kEnd ends a list), so the pass allocates no
  // per-column storage.
  struct Upper {
    std::size_t row;
    unsigned level;
    std::size_t next;
  };
  constexpr std::size_t kEnd = static_cast<std::size_t>(-1);
  std::vector<Upper> upper;
  upper.reserve(aoff[n]);
  std::vector<std::size_t> head(n, kEnd), tail(n, kEnd);
  std::vector<std::size_t> row;  // working column list, kept sorted

  sym.offsets.assign(n + 1, 0);
  sym.cols.reserve(aoff[n]);
  sym.source.reserve(aoff[n]);
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
    for (std::size_t idx = 0; idx < row.size(); ++idx) {
      const std::size_t k = row[idx];
      if (k >= i) break;
      const unsigned lev_ik = level[k];
      for (std::size_t e = head[k]; e != kEnd; e = upper[e].next) {
        const std::size_t j = upper[e].row;
        if (j >= i) break;
        const unsigned candidate = lev_ik + upper[e].level + 1;
        if (candidate > kFillLevel || level[j] <= candidate) continue;
        if (level[j] == kInf)  // new fill; j > k so it lands after idx
          row.insert(std::lower_bound(row.begin(), row.end(), j), j);
        level[j] = candidate;
      }
    }
    for (std::size_t c : row) {
      sym.cols.push_back(c);
      // Map the slot back to A's value array; fill entries start at 0.
      const auto begin = acols.begin() + static_cast<long>(aoff[i]);
      const auto end = acols.begin() + static_cast<long>(aoff[i + 1]);
      const auto it = std::lower_bound(begin, end, c);
      sym.source.push_back(it != end && *it == c
                               ? static_cast<std::size_t>(it - acols.begin())
                               : kNoSource);
      if (c < i) {
        upper.push_back({i, level[c], kEnd});
        (tail[c] == kEnd ? head[c] : upper[tail[c]].next) = upper.size() - 1;
        tail[c] = upper.size() - 1;
      }
      level[c] = kInf;
    }
    sym.offsets[i + 1] = sym.cols.size();
  }

  // Column view of the strict-lower entries for the right-looking factor.
  sym.col_offsets.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = sym.offsets[r]; k + 1 < sym.offsets[r + 1]; ++k)
      ++sym.col_offsets[sym.cols[k] + 1];
  }
  std::partial_sum(sym.col_offsets.begin(), sym.col_offsets.end(),
                   sym.col_offsets.begin());
  sym.col_slots.resize(sym.col_offsets[n]);
  sym.col_rows.resize(sym.col_offsets[n]);
  std::vector<std::size_t> cursor(sym.col_offsets.begin(),
                                  sym.col_offsets.end() - 1);
  // Row-major traversal with ascending rows fills each column in
  // ascending-row order.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = sym.offsets[r]; k + 1 < sym.offsets[r + 1]; ++k) {
      const std::size_t c = sym.cols[k];
      sym.col_slots[cursor[c]] = k;
      sym.col_rows[cursor[c]] = r;
      ++cursor[c];
    }
  }
  VPD_REQUIRE(sym.cols.size() < std::size_t{kDropped},
              "IC pattern too large for 32-bit slot indexing");

  // Update targets of the numeric sweep (IcPreconditioner::factor), in the
  // order it applies them: a binary search of row i's strict-lower columns
  // for j, once per pattern instead of once per factorization. Column k
  // makes c (c - 1) / 2 updates for its c entries.
  std::size_t updates = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t c = sym.col_offsets[k + 1] - sym.col_offsets[k];
    if (c > 1) updates += c * (c - 1) / 2;
  }
  sym.update_slot.reserve(updates);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = sym.col_offsets[k]; p < sym.col_offsets[k + 1];
         ++p) {
      const std::size_t i = sym.col_rows[p];
      const auto begin = sym.cols.begin() + static_cast<long>(sym.offsets[i]);
      const auto end =
          sym.cols.begin() + static_cast<long>(sym.offsets[i + 1] - 1);
      for (std::size_t q = sym.col_offsets[k]; q < p; ++q) {
        const auto it = std::lower_bound(begin, end, sym.col_rows[q]);
        sym.update_slot.push_back(
            it != end && *it == sym.col_rows[q]
                ? static_cast<std::uint32_t>(it - sym.cols.begin())
                : kDropped);
      }
    }
  }

  // Apply schedule. Rows are emitted in wavefront (topological level)
  // order: a row's wave is one past the deepest row it reads, so
  // consecutive loop iterations in apply() are independent and the
  // out-of-order core overlaps them instead of serializing on the
  // row-to-row dependency chain. Rows within a wave never read each
  // other's output, so the schedule changes only execution order, not a
  // single arithmetic operation — results are bit-identical to the
  // natural-order sweep.
  std::vector<std::uint32_t> wave(n, 0);
  std::vector<std::size_t> order(n);
  const auto order_by_level = [&] {
    std::vector<std::size_t> count;
    for (std::size_t r = 0; r < n; ++r) {
      if (wave[r] >= count.size()) count.resize(wave[r] + 1, 0);
      ++count[wave[r]];
    }
    std::vector<std::size_t> start(count.size() + 1, 0);
    std::partial_sum(count.begin(), count.end(), start.begin() + 1);
    for (std::size_t r = 0; r < n; ++r) order[start[wave[r]]++] = r;
  };
  const auto u32 = [](std::size_t v) { return static_cast<std::uint32_t>(v); };

  // Forward sweep (L, by rows): row r reads columns < r.
  for (std::size_t r = 0; r < n; ++r) {
    std::uint32_t lv = 0;
    for (std::size_t k = sym.offsets[r]; k + 1 < sym.offsets[r + 1]; ++k)
      lv = std::max(lv, wave[sym.cols[k]] + 1);
    wave[r] = lv;
  }
  order_by_level();
  const std::size_t lower = sym.col_offsets[n];
  sym.fwd_off.reserve(n + 1);
  sym.fwd_row.reserve(n);
  sym.fwd_cols.reserve(lower);
  sym.fwd_src.reserve(lower);
  sym.fwd_off.assign(1, 0);
  for (std::size_t r : order) {
    sym.fwd_row.push_back(u32(r));
    for (std::size_t k = sym.offsets[r]; k + 1 < sym.offsets[r + 1]; ++k) {
      sym.fwd_cols.push_back(u32(sym.cols[k]));
      sym.fwd_src.push_back(u32(k));
    }
    sym.fwd_off.push_back(u32(sym.fwd_cols.size()));
  }

  // Backward sweep (L^T, by rows = L by columns): row r reads rows > r.
  wave.assign(n, 0);
  for (std::size_t r = n; r-- > 0;) {
    std::uint32_t lv = 0;
    for (std::size_t p = sym.col_offsets[r]; p < sym.col_offsets[r + 1]; ++p)
      lv = std::max(lv, wave[sym.col_rows[p]] + 1);
    wave[r] = lv;
  }
  order_by_level();
  sym.bwd_off.reserve(n + 1);
  sym.bwd_row.reserve(n);
  sym.bwd_cols.reserve(lower);
  sym.bwd_src.reserve(lower);
  sym.bwd_off.assign(1, 0);
  for (std::size_t r : order) {
    sym.bwd_row.push_back(u32(r));
    for (std::size_t p = sym.col_offsets[r]; p < sym.col_offsets[r + 1];
         ++p) {
      sym.bwd_cols.push_back(u32(sym.col_rows[p]));
      sym.bwd_src.push_back(u32(sym.col_slots[p]));
    }
    sym.bwd_off.push_back(u32(sym.bwd_cols.size()));
  }
}

void IcPreconditioner::factor(const CsrMatrix& a) {
  // The pattern is a pure function of the structure, so a kept pattern
  // serves every matrix with the same digest; another structure of the
  // same size would map the pattern's slots onto the wrong entries.
  factored_ = false;
  if (symbolic_.empty() ||
      symbolic_.analysis_.source_digest != a.structure_digest()) {
    symbolic_ = IcSymbolic(a);
  }
  const IcSymbolic::Analysis& sym = symbolic_.analysis_;
  const std::size_t n = sym.offsets.size() - 1;
  const auto& off = sym.offsets;

  values_.resize(sym.cols.size());
  for (std::size_t k = 0; k < values_.size(); ++k)
    values_[k] =
        sym.source[k] == kNoSource ? 0.0 : a.values()[sym.source[k]];
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
  // Each update's target slot comes from the pattern's plan.
  constexpr double kPivotFloor = 1e-12;
  const auto diag_slot = [&off](std::size_t r) { return off[r + 1] - 1; };
  const std::uint32_t* target = sym.update_slot.data();
  for (std::size_t k = 0; k < n; ++k) {
    const double d = values_[diag_slot(k)];
    const double a_kk = a.values()[sym.source[diag_slot(k)]];
    if (!(d > kPivotFloor * std::fabs(a_kk))) {
      setup_ssor(a);
      return;
    }
    const double l_kk = std::sqrt(d);
    values_[diag_slot(k)] = l_kk;
    diag_[k] = l_kk;
    inv_diag_[k] = 1.0 / l_kk;
    const std::size_t col_begin = sym.col_offsets[k];
    const std::size_t col_end = sym.col_offsets[k + 1];
    for (std::size_t p = col_begin; p < col_end; ++p)
      values_[sym.col_slots[p]] *= inv_diag_[k];
    for (std::size_t p = col_begin; p < col_end; ++p) {
      const std::size_t i = sym.col_rows[p];
      const double l_ik = values_[sym.col_slots[p]];
      values_[diag_slot(i)] -= l_ik * l_ik;
      for (std::size_t q = col_begin; q < p; ++q) {
        const double update = l_ik * values_[sym.col_slots[q]];
        const std::uint32_t slot = *target++;
        if (slot != IcSymbolic::kDropped) {
          values_[slot] -= update;
        } else {
          values_[diag_slot(i)] -= update;
          values_[diag_slot(sym.col_rows[q])] -= update;  // rows ascend
        }
      }
    }
  }
  gather_apply_values();
}

void IcPreconditioner::gather_apply_values() {
  const IcSymbolic::Analysis& sym = symbolic_.analysis_;
  fwd_vals_.resize(sym.fwd_src.size());
  for (std::size_t t = 0; t < fwd_vals_.size(); ++t)
    fwd_vals_[t] = values_[sym.fwd_src[t]];
  bwd_vals_.resize(sym.bwd_src.size());
  for (std::size_t t = 0; t < bwd_vals_.size(); ++t)
    bwd_vals_[t] = values_[sym.bwd_src[t]];
  factored_ = true;
}

void IcPreconditioner::setup_ssor(const CsrMatrix& a) {
  const IcSymbolic::Analysis& sym = symbolic_.analysis_;
  const std::size_t n = sym.offsets.size() - 1;
  for (std::size_t k = 0; k < values_.size(); ++k)
    values_[k] =
        sym.source[k] == kNoSource ? 0.0 : a.values()[sym.source[k]];
  for (std::size_t r = 0; r < n; ++r) {
    const double a_rr = values_[sym.offsets[r + 1] - 1];
    VPD_CHECK_NUMERIC(a_rr > 0.0, "SSOR fallback: diagonal not positive at row ",
                      r, " (value ", a_rr, "); system is not SPD");
    diag_[r] = a_rr;
    inv_diag_[r] = 1.0 / a_rr;
  }
  ssor_ = true;
  gather_apply_values();
}

void IcPreconditioner::apply(const Vector& r, Vector& z) const {
  VPD_REQUIRE(!empty(), "IcPreconditioner::apply before factor()");
  const IcSymbolic::Analysis& sym = symbolic_.analysis_;
  const std::size_t n = inv_diag_.size();
  VPD_REQUIRE(r.size() == n, "preconditioner apply: vector has ", r.size(),
              " entries, expected ", n);

  const double* inv_diag = inv_diag_.data();
  z = r;
  double* zv = z.data();
  // Forward solve L y = r (IC) or (D + L) y = r (SSOR): gather over the
  // strict-lower rows, visited in wavefront order (see IcSymbolic —
  // bit-identical to the natural-order sweep).
  {
    const std::uint32_t* off = sym.fwd_off.data();
    const std::uint32_t* cols = sym.fwd_cols.data();
    const std::uint32_t* rows = sym.fwd_row.data();
    const double* vals = fwd_vals_.data();
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::uint32_t i = rows[idx];
      double s = zv[i];
      for (std::uint32_t k = off[idx]; k < off[idx + 1]; ++k)
        s -= vals[k] * zv[cols[k]];
      zv[i] = s * inv_diag[i];
    }
  }
  // SSOR: M = (D+L) D^{-1} (D+L)^T, so scale by D between the sweeps.
  if (ssor_) {
    for (std::size_t i = 0; i < n; ++i) zv[i] *= diag_[i];
  }
  // Backward solve L^T z = y: row i of L^T is column i of L (rows j > i),
  // so this gathers over the transposed view — no scatter, no
  // store-to-load hazards on z.
  {
    const std::uint32_t* off = sym.bwd_off.data();
    const std::uint32_t* cols = sym.bwd_cols.data();
    const std::uint32_t* rows = sym.bwd_row.data();
    const double* vals = bwd_vals_.data();
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::uint32_t i = rows[idx];
      double s = zv[i];
      for (std::uint32_t k = off[idx]; k < off[idx + 1]; ++k)
        s -= vals[k] * zv[cols[k]];
      zv[i] = s * inv_diag[i];
    }
  }
}

CgWorkspace::CgWorkspace() = default;
CgWorkspace::~CgWorkspace() = default;

bool CgWorkspace::key_matches(const CsrMatrix& a) const {
  return key_valid_ && key_digest_ == a.structure_digest() &&
         key_values_ == a.values();
}

void CgWorkspace::capture_key(const CsrMatrix& a) {
  key_digest_ = a.structure_digest();
  key_values_ = a.values();
  key_valid_ = true;
}

SolverCounters solver_counters(const obs::WorkAccount& account) {
  SolverCounters c;
  c.cg_solves = account.count(obs::Work::kCgSolves);
  c.cg_iterations = account.count(obs::Work::kCgIterations);
  c.precond_factorizations = account.count(obs::Work::kPrecondFactorizations);
  c.precond_reuses = account.count(obs::Work::kPrecondReuses);
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

void set_solver_counters(obs::Snapshot& snapshot,
                         const SolverCounters& counters) {
  snapshot.set_counter("solver.cg_solves", counters.cg_solves);
  snapshot.set_counter("solver.cg_iterations", counters.cg_iterations);
  snapshot.set_counter("solver.precond_factorizations",
                       counters.precond_factorizations);
  snapshot.set_counter("solver.precond_reuses", counters.precond_reuses);
}

void CgWorkspace::prepare(const CsrMatrix& a, const CgOptions& options) {
  const std::size_t n = a.rows();
  const MgSymbolic* grid = options.mg_symbolic;
  if (options.preconditioner == CgPreconditioner::kMultigrid) {
    VPD_REQUIRE(grid != nullptr,
                "kMultigrid requires CgOptions::mg_symbolic (the "
                "operator's grid; see AssembledMesh::mg_symbolic)");
    VPD_REQUIRE(grid->rows() == n, "multigrid grid has ", grid->rows(),
                " nodes, got a ", n, "-row matrix");
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
  op_ = nullptr;
  if (want != FactorKind::kNone && factored_ == want) {
    // Value-identical operator and matching kind: reuse. Exact comparison
    // above, so reuse can never change a result bit.
    obs::count(obs::Work::kPrecondReuses);
  } else if (want != FactorKind::kNone) {
    if (want == FactorKind::kIncompleteCholesky) {
      ic_.factor(a);
    } else {
      if (!mg_) mg_ = std::make_unique<MgPreconditioner>();
      mg_->factor(a, *grid);
    }
    factored_ = want;
    obs::count(obs::Work::kPrecondFactorizations);
  }

  // The operator form CG multiplies by: multigrid's fine level, or for
  // the other kinds the workspace's own stencil on the given grid, which
  // is scattered once per operator key.
  if (want == FactorKind::kMultigrid) {
    op_ = &mg_->fine();
    return;
  }
  if (grid == nullptr || grid->rows() != n) return;
  if (stencil_state_ == StencilState::kStale || stencil_nx_ != grid->nx()) {
    if (!stencil_) stencil_ = std::make_unique<GridStencil>();
    stencil_state_ = stencil_->assign(a, *grid) ? StencilState::kCurrent
                                                : StencilState::kUnfit;
    stencil_nx_ = grid->nx();
  }
  if (stencil_state_ == StencilState::kCurrent) op_ = stencil_.get();
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
  // The operator products, from the grid stencil when prepare() chose one
  // (bit-identical to the CSR row loops). Every sum below runs in
  // ascending index order from +0.0, the order of vpd::dot and norm2, so
  // fusing a reduction into the pass that produces its operand changes no
  // bit.
  const GridStencil* op = ws.op_;
  const auto multiply_dot = [&](const Vector& x, Vector& y) {
    if (op != nullptr) return op->multiply_dot(x.data(), y.data());
    a.multiply_into(x, y);
    return dot(x, y);
  };
  const auto residual = [&](const Vector& x, Vector& out) {  // b - A x
    if (op != nullptr) {
      op->residual(b.data(), x.data(), out.data());
      return;
    }
    a.multiply_into(x, out);
    for (std::size_t i = 0; i < n; ++i) out[i] = b[i] - out[i];
  };
  const auto finish = [&](CgResult result) {
    obs::count(obs::Work::kCgSolves);
    obs::count(obs::Work::kCgIterations, result.iterations);
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
  r.resize(n);
  ap.resize(n);
  if (options.x0.empty()) {
    result.x.assign(n, 0.0);
    r = b;
  } else {
    VPD_REQUIRE(options.x0.size() == n, "warm start has ", options.x0.size(),
                " entries, expected ", n);
    result.x = options.x0;
    residual(result.x, r);
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

  double* x = result.x.data();
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    const double p_ap = multiply_dot(p, ap);
    VPD_CHECK_NUMERIC(p_ap > 0.0,
                      "CG breakdown: p^T A p = ", p_ap,
                      " <= 0; matrix is not positive definite");
    const double alpha = rz / p_ap;
    // x += alpha p and r -= alpha A p, with ||r||^2 in the same pass.
    double rr = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      rr += r[i] * r[i];
    }
    result.iterations = iter + 1;

    const double r_norm = std::sqrt(rr);
    if (r_norm <= target) {
      // The recurrence residual can drift from the true residual over many
      // iterations; only the true residual certifies convergence.
      residual(result.x, ap);
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
  residual(result.x, r);
  result.residual_norm = norm2(r);
  result.converged = result.residual_norm <= certified_target(result.x);
  return finish(std::move(result));
}

CgResult solve_cg(const CsrMatrix& a, const Vector& b,
                  const CgOptions& options) {
  CgWorkspace workspace;
  return solve_cg(a, b, options, workspace);
}

}  // namespace vpd
