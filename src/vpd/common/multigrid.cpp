#include "vpd/common/multigrid.hpp"

#include <algorithm>
#include <cmath>

#include "vpd/common/error.hpp"

namespace vpd {

namespace {

/// Coarsening keeps every node at even grid coordinates; a dimension of
/// size d shrinks to ceil(d / 2).
std::size_t coarse_dim(std::size_t d) { return (d + 1) / 2; }

/// Per-dimension bilinear interpolation stencil of a fine index: up to two
/// (coarse index, weight) pairs with dyadic weights. Boundary-clamped so
/// weights always sum to 1 (a fine node whose odd index has no right
/// coarse neighbour takes its left neighbour at full weight).
struct DimStencil {
  std::size_t idx[2];
  double w[2];
  std::size_t count;
};

DimStencil dim_stencil(std::size_t i, std::size_t coarse_count) {
  DimStencil s{};
  const std::size_t c = i / 2;
  if (i % 2 == 0) {
    s.idx[0] = c;
    s.w[0] = 1.0;
    s.count = 1;
  } else if (c + 1 < coarse_count) {
    s.idx[0] = c;
    s.w[0] = 0.5;
    s.idx[1] = c + 1;
    s.w[1] = 0.5;
    s.count = 2;
  } else {
    s.idx[0] = c;
    s.w[0] = 1.0;
    s.count = 1;
  }
  return s;
}

/// 5-point grid-Laplacian pattern of an nx x ny lattice (row-major
/// iy * nx + ix numbering — the GridMesh convention), ascending columns
/// per row. The finest operator a solve hands in is exactly this pattern
/// (VR shunt stamps only touch diagonals), and the symbolic Galerkin
/// chain below derives every coarse pattern from it.
void five_point_pattern(std::size_t nx, std::size_t ny,
                        std::vector<std::uint32_t>& offsets,
                        std::vector<std::uint32_t>& cols) {
  const std::size_t n = nx * ny;
  offsets.assign(n + 1, 0);
  cols.clear();
  cols.reserve(5 * n);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t i = iy * nx + ix;
      if (iy > 0) cols.push_back(static_cast<std::uint32_t>(i - nx));
      if (ix > 0) cols.push_back(static_cast<std::uint32_t>(i - 1));
      cols.push_back(static_cast<std::uint32_t>(i));
      if (ix + 1 < nx) cols.push_back(static_cast<std::uint32_t>(i + 1));
      if (iy + 1 < ny) cols.push_back(static_cast<std::uint32_t>(i + nx));
      offsets[i + 1] = static_cast<std::uint32_t>(cols.size());
    }
  }
}

}  // namespace

MgSymbolic::MgSymbolic(std::size_t nx, std::size_t ny) : nx_(nx), ny_(ny) {
  VPD_REQUIRE(nx >= 2 && ny >= 2, "multigrid grid needs nx, ny >= 2, got ",
              nx, "x", ny);
}

void MgPreconditioner::build_hierarchy(const MgSymbolic& grid) {
  // Cleared first, so a build that throws leaves no grid to match.
  grid_ = MgSymbolic{};
  fine_digest_ = 0;
  levels_.assign(1, {});
  std::size_t nx = grid.nx();
  std::size_t ny = grid.ny();
  // The symbolic Galerkin chain starts from the fine 5-point stencil;
  // factor() then gives level 0 the factored matrix's own pattern.
  five_point_pattern(nx, ny, levels_[0].a_offsets, levels_[0].a_cols);

  for (std::size_t l = 0;; ++l) {
    const std::size_t n = nx * ny;
    levels_[l].n = n;
    if (n <= kCoarsestNodes) break;  // coarsest level: solved directly

    const std::size_t cnx = coarse_dim(nx);
    const std::size_t cny = coarse_dim(ny);
    const std::size_t nc = cnx * cny;
    levels_.emplace_back();
    Level& level = levels_[l];
    Level& coarse = levels_[l + 1];

    // Prolongation: tensor product of the per-dimension stencils. The y
    // stencil's outer position dominates the coarse index, so entries come
    // out in ascending column order.
    level.p_offsets.assign(n + 1, 0);
    level.p_cols.reserve(2 * n);
    level.p_vals.reserve(2 * n);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const DimStencil sy = dim_stencil(iy, cny);
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const DimStencil sx = dim_stencil(ix, cnx);
        const std::size_t i = iy * nx + ix;
        for (std::size_t a = 0; a < sy.count; ++a) {
          for (std::size_t b = 0; b < sx.count; ++b) {
            level.p_cols.push_back(
                static_cast<std::uint32_t>(sy.idx[a] * cnx + sx.idx[b]));
            level.p_vals.push_back(sy.w[a] * sx.w[b]);
          }
        }
        level.p_offsets[i + 1] = static_cast<std::uint32_t>(level.p_cols.size());
      }
    }

    // Restriction = P^T: counting sort by coarse column; row-major fine
    // traversal keeps fine rows ascending within each coarse node.
    level.r_offsets.assign(nc + 1, 0);
    for (std::uint32_t c : level.p_cols) ++level.r_offsets[c + 1];
    for (std::size_t c = 0; c < nc; ++c)
      level.r_offsets[c + 1] += level.r_offsets[c];
    level.r_rows.resize(level.p_cols.size());
    level.r_vals.resize(level.p_cols.size());
    {
      std::vector<std::uint32_t> cursor(level.r_offsets.begin(),
                                        level.r_offsets.end() - 1);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::uint32_t k = level.p_offsets[i]; k < level.p_offsets[i + 1];
             ++k) {
          const std::uint32_t c = level.p_cols[k];
          level.r_rows[cursor[c]] = static_cast<std::uint32_t>(i);
          level.r_vals[cursor[c]] = level.p_vals[k];
          ++cursor[c];
        }
      }
    }

    // Symbolic Galerkin pattern of P^T A P, the coarse level's operator
    // pattern: coarse row I touches coarse column J whenever some fine
    // entry (i, j) has P(i, I) and P(j, J) nonzero. Marker-swept per
    // coarse row, columns emitted sorted.
    coarse.a_offsets.assign(nc + 1, 0);
    std::vector<std::uint32_t> marker(nc, 0);
    std::vector<std::uint32_t> scratch;
    for (std::size_t I = 0; I < nc; ++I) {
      scratch.clear();
      const std::uint32_t stamp = static_cast<std::uint32_t>(I) + 1;
      for (std::uint32_t t = level.r_offsets[I]; t < level.r_offsets[I + 1];
           ++t) {
        const std::uint32_t i = level.r_rows[t];
        for (std::uint32_t k = level.a_offsets[i];
             k < level.a_offsets[i + 1]; ++k) {
          const std::uint32_t j = level.a_cols[k];
          for (std::uint32_t q = level.p_offsets[j];
               q < level.p_offsets[j + 1]; ++q) {
            const std::uint32_t J = level.p_cols[q];
            if (marker[J] != stamp) {
              marker[J] = stamp;
              scratch.push_back(J);
            }
          }
        }
      }
      std::sort(scratch.begin(), scratch.end());
      coarse.a_cols.insert(coarse.a_cols.end(), scratch.begin(),
                           scratch.end());
      coarse.a_offsets[I + 1] =
          static_cast<std::uint32_t>(coarse.a_cols.size());
    }
    nx = cnx;
    ny = cny;
  }
  grid_ = grid;
}

void MgPreconditioner::factor(const CsrMatrix& a, const MgSymbolic& grid) {
  VPD_REQUIRE(!grid.empty(), "MgPreconditioner::factor with an empty grid");
  VPD_REQUIRE(grid.rows() == a.rows(), "multigrid grid has ", grid.rows(),
              " nodes, got ", a.rows(), " rows");
  VPD_REQUIRE(a.rows() == a.cols(), "multigrid requires a square matrix");
  if (grid != grid_) build_hierarchy(grid);
  const std::size_t depth = levels_.size();

  // Finest operator: the matrix itself, its pattern copied to u32 indices
  // and kept while the structure stays the same. Every entry must lie in
  // its row node's 3x3 grid neighbourhood: the level-1 pattern built from
  // the 5-point stencil holds the Galerkin image of any such entry, and
  // each coarser pattern is the symbolic image of the one above, so the
  // scatters below never reach a column outside their row's pattern.
  Level& fine = levels_.front();
  if (fine_digest_ == 0 || fine_digest_ != a.structure_digest()) {
    fine_digest_ = 0;  // recorded again once the new pattern has passed
    const std::size_t nx = grid.nx();
    const std::vector<std::size_t>& offsets = a.row_offsets();
    const std::vector<std::size_t>& cols = a.col_indices();
    fine.a_offsets.assign(offsets.begin(), offsets.end());
    fine.a_cols.resize(cols.size());
    std::size_t ix = 0;
    for (std::size_t i = 0; i < fine.n; ++i) {
      // Columns ix-1..ix+1 (clamped to the grid) of rows iy-1..iy+1, as
      // offsets from the window's first column i - nx - left: [0, width],
      // [nx, nx + width] and [2 nx, 2 nx + width]. Columns left of the
      // window wrap to huge unsigned offsets and fail all three bands.
      const std::size_t left = ix > 0 ? 1 : 0;
      const std::size_t width = left + (ix + 1 < nx ? 1 : 0);
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        const std::size_t off = cols[k] + nx + left - i;
        VPD_REQUIRE(off <= width || off - nx <= width ||
                        off - 2 * nx <= width,
                    "matrix entry (", i, ",", cols[k], ") lies outside the ",
                    "3x3 grid neighbourhood of the multigrid hierarchy's ",
                    nx, "-wide grid");
        fine.a_cols[k] = static_cast<std::uint32_t>(cols[k]);
      }
      if (++ix == nx) ix = 0;
    }
    fine_digest_ = a.structure_digest();
  }
  fine.a_vals = a.values();

  // Numeric Galerkin chain:
  // A_{l+1}(I, J) = sum_i R(I, i) sum_j A_l(i, j) P(j, J), scattered into
  // a dense per-row scratch and gathered (and cleared) in pattern order,
  // so the rounding order is a fixed function of the hierarchy —
  // deterministic.
  std::vector<double> acc;
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    const Level& level = levels_[l];
    Level& coarse = levels_[l + 1];
    const std::size_t nc = coarse.n;
    coarse.a_vals.resize(coarse.a_cols.size());

    acc.assign(nc, 0.0);
    for (std::size_t I = 0; I < nc; ++I) {
      for (std::uint32_t t = level.r_offsets[I]; t < level.r_offsets[I + 1];
           ++t) {
        const std::uint32_t i = level.r_rows[t];
        const double w_i = level.r_vals[t];
        for (std::uint32_t k = level.a_offsets[i]; k < level.a_offsets[i + 1];
             ++k) {
          const double contrib = w_i * level.a_vals[k];
          const std::uint32_t j = level.a_cols[k];
          for (std::uint32_t q = level.p_offsets[j];
               q < level.p_offsets[j + 1]; ++q) {
            acc[level.p_cols[q]] += contrib * level.p_vals[q];
          }
        }
      }
      for (std::uint32_t s = coarse.a_offsets[I]; s < coarse.a_offsets[I + 1];
           ++s) {
        double& sum = acc[coarse.a_cols[s]];
        coarse.a_vals[s] = sum;
        sum = 0.0;
      }
    }
  }

  // Smoother diagonals. An SPD operator has a strictly positive diagonal,
  // and Galerkin products of SPD operators through full-column-rank P stay
  // SPD, so a non-positive pivot here means the input was not SPD.
  for (Level& level : levels_) {
    level.inv_diag.assign(level.n, 0.0);
    for (std::size_t r = 0; r < level.n; ++r) {
      double d = 0.0;
      for (std::uint32_t k = level.a_offsets[r]; k < level.a_offsets[r + 1];
           ++k) {
        if (level.a_cols[k] == static_cast<std::uint32_t>(r)) {
          d = level.a_vals[k];
          break;
        }
      }
      VPD_CHECK_NUMERIC(d > 0.0, "multigrid level diagonal not positive at "
                        "row ", r, " (value ", d, "); system is not SPD");
      level.inv_diag[r] = 1.0 / d;
    }
  }

  // Dense Cholesky of the coarsest operator.
  {
    const Level& bottom = levels_.back();
    coarse_n_ = bottom.n;
    coarse_chol_.assign(coarse_n_ * coarse_n_, 0.0);
    for (std::size_t r = 0; r < coarse_n_; ++r)
      for (std::uint32_t k = bottom.a_offsets[r]; k < bottom.a_offsets[r + 1];
           ++k)
        coarse_chol_[r * coarse_n_ + bottom.a_cols[k]] = bottom.a_vals[k];
    for (std::size_t j = 0; j < coarse_n_; ++j) {
      double d = coarse_chol_[j * coarse_n_ + j];
      for (std::size_t k = 0; k < j; ++k) {
        const double l_jk = coarse_chol_[j * coarse_n_ + k];
        d -= l_jk * l_jk;
      }
      VPD_CHECK_NUMERIC(d > 0.0, "multigrid coarse solve: non-positive "
                        "Cholesky pivot at row ", j, " (value ", d,
                        "); system is not SPD");
      const double l_jj = std::sqrt(d);
      coarse_chol_[j * coarse_n_ + j] = l_jj;
      for (std::size_t i = j + 1; i < coarse_n_; ++i) {
        double s = coarse_chol_[i * coarse_n_ + j];
        for (std::size_t k = 0; k < j; ++k)
          s -= coarse_chol_[i * coarse_n_ + k] *
               coarse_chol_[j * coarse_n_ + k];
        coarse_chol_[i * coarse_n_ + j] = s / l_jj;
      }
    }
  }
}

void MgPreconditioner::cycle(std::size_t l) {
  Level& level = levels_[l];
  const std::size_t n = level.n;

  if (l + 1 == levels_.size()) {
    // Coarsest: direct dense Cholesky solve, x = (L L^T)^{-1} rhs.
    level.x = level.rhs;
    for (std::size_t i = 0; i < n; ++i) {
      double s = level.x[i];
      for (std::size_t k = 0; k < i; ++k)
        s -= coarse_chol_[i * n + k] * level.x[k];
      level.x[i] = s / coarse_chol_[i * n + i];
    }
    for (std::size_t i = n; i-- > 0;) {
      double s = level.x[i];
      for (std::size_t k = i + 1; k < n; ++k)
        s -= coarse_chol_[k * n + i] * level.x[k];
      level.x[i] = s / coarse_chol_[i * n + i];
    }
    return;
  }

  // Pre-smooth (one damped-Jacobi sweep from a zero initial iterate).
  level.x.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    level.x[i] = kJacobiDamping * level.inv_diag[i] * level.rhs[i];

  // Residual r = rhs - A x.
  level.r.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::uint32_t k = level.a_offsets[i]; k < level.a_offsets[i + 1];
         ++k)
      s += level.a_vals[k] * level.x[level.a_cols[k]];
    level.r[i] = level.rhs[i] - s;
  }

  // Restrict into the coarse right-hand side and recurse.
  Level& coarse = levels_[l + 1];
  coarse.rhs.resize(coarse.n);
  for (std::size_t I = 0; I < coarse.n; ++I) {
    double s = 0.0;
    for (std::uint32_t t = level.r_offsets[I]; t < level.r_offsets[I + 1];
         ++t)
      s += level.r_vals[t] * level.r[level.r_rows[t]];
    coarse.rhs[I] = s;
  }
  cycle(l + 1);

  // Prolongate the coarse correction.
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::uint32_t k = level.p_offsets[i]; k < level.p_offsets[i + 1];
         ++k)
      s += level.p_vals[k] * coarse.x[level.p_cols[k]];
    level.x[i] += s;
  }

  // Post-smooth (the adjoint sweep: x += omega D^{-1} (rhs - A x)).
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::uint32_t k = level.a_offsets[i]; k < level.a_offsets[i + 1];
         ++k)
      s += level.a_vals[k] * level.x[level.a_cols[k]];
    level.r[i] = level.rhs[i] - s;
  }
  for (std::size_t i = 0; i < n; ++i)
    level.x[i] += kJacobiDamping * level.inv_diag[i] * level.r[i];
}

void MgPreconditioner::apply(const Vector& r, Vector& z) {
  VPD_REQUIRE(!empty(), "MgPreconditioner::apply before factor()");
  VPD_REQUIRE(r.size() == levels_.front().n, "preconditioner apply: vector "
              "has ", r.size(), " entries, expected ", levels_.front().n);
  levels_.front().rhs = r;
  cycle(0);
  z = levels_.front().x;
}

}  // namespace vpd
