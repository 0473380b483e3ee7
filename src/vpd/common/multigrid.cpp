#include "vpd/common/multigrid.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>
#include <utility>

#include "vpd/common/error.hpp"

namespace vpd {

namespace {

/// Coarsening keeps every node at even grid coordinates; a dimension of
/// size d shrinks to ceil(d / 2).
std::size_t coarse_dim(std::size_t d) { return (d + 1) / 2; }

/// The stencil's diagonal slot, (dx, dy) = (0, 0).
constexpr std::size_t kCenterSlot = 4;

/// Stencil slot of column `col` in row i of an nx-wide grid, where node i
/// sits in grid column ix; 9 when the column lies outside the row's 3x3
/// grid neighbourhood. Columns ix-1..ix+1 (clamped to the grid) of rows
/// iy-1..iy+1 are offsets from the window's first column i - nx - left:
/// bands [0, width], [nx, nx + width] and [2 nx, 2 nx + width], disjoint
/// since width <= 2 < nx or width = 1 < nx = 2. Columns left of the window
/// wrap to huge unsigned offsets and fail the band-2 test.
std::size_t stencil_slot(std::size_t i, std::size_t ix, std::size_t nx,
                         std::size_t col) {
  const std::size_t left = ix > 0 ? 1 : 0;
  const std::size_t width = left + (ix + 1 < nx ? 1 : 0);
  const std::size_t off = col + nx + left - i;
  const std::size_t band = (off >= nx ? 1 : 0) + (off >= 2 * nx ? 1 : 0);
  const std::size_t pos = off - band * nx;
  return pos <= width ? 3 * band + pos + 1 - left : 9;
}

/// Galerkin row of coarse node (cx, cy) from the level's tables:
/// A_c(I, J) = sum_i R(I, i) sum_j A(i, j) P(j, J), accumulated in a 3x3
/// row in fine-row order (i ascending, then j ascending), the order of a
/// CSR triple product, so the rounding is a fixed function of the
/// hierarchy. A j off the fine grid is skipped; a zero coefficient adds
/// +-0 to a sum that started at +0.0, which changes no bit.
template <class Level>
void galerkin_node(const Level& f, Level& c, std::size_t cx, std::size_t cy) {
  double acc[9] = {};
  const auto& gy = f.gather_y[cy];
  const auto& gx = f.gather_x[cx];
  for (std::size_t a_y = 0; a_y < gy.count; ++a_y) {
    const std::size_t fy = gy.idx[a_y];
    for (std::size_t a_x = 0; a_x < gx.count; ++a_x) {
      const std::size_t fx = gx.idx[a_x];
      const double w_i = gy.w[a_y] * gx.w[a_x];
      const std::size_t i = fy * f.nx + fx;
      for (std::size_t k = 0; k < f.slots.size(); ++k) {
        const std::size_t slot = f.slots[k];
        const std::size_t jy = fy + slot / 3 - 1;
        const std::size_t jx = fx + slot % 3 - 1;
        if (jy >= f.ny || jx >= f.nx) continue;  // off the grid
        const double contrib = w_i * f.coef[k * f.n + i];
        const auto& py = f.interp_y[jy];
        const auto& px = f.interp_x[jx];
        for (std::size_t b_y = 0; b_y < py.count; ++b_y) {
          for (std::size_t b_x = 0; b_x < px.count; ++b_x) {
            acc[3 * (py.idx[b_y] + 1 - cy) + (px.idx[b_x] + 1 - cx)] +=
                contrib * (py.w[b_y] * px.w[b_x]);
          }
        }
      }
    }
  }
  for (std::size_t slot = 0; slot < 9; ++slot)
    c.coef[slot * c.n + cy * c.nx + cx] = acc[slot];
}

/// Calls f(std::integral_constant<std::size_t, k>{}) for k = 0..N-1.
template <std::size_t N, class F>
void unroll(F&& f) {
  [&]<std::size_t... k>(std::index_sequence<k...>) {
    (f(std::integral_constant<std::size_t, k>{}), ...);
  }(std::make_index_sequence<N>{});
}

/// The slot lists with unrolled interior kernels (residual and Galerkin
/// product): the 5-point cross of a mesh operator, and the full 3x3
/// neighbourhood of 9-point operators and of every coarse level.
constexpr std::array<std::uint8_t, 5> kFivePointSlots{1, 3, 4, 5, 7};
constexpr std::array<std::uint8_t, 9> kNinePointSlots{0, 1, 2, 3, 4,
                                                      5, 6, 7, 8};

/// Whether a level's stored slots are exactly `Slots`.
template <const auto& Slots, class Level>
bool stores(const Level& level) {
  return std::equal(level.slots.begin(), level.slots.end(), Slots.begin(),
                    Slots.end());
}

/// Interpolation taps of the fine node at offset e in [-2, 2] from a
/// coarse node's fine image 2c, away from the boundary: an even offset
/// copies coarse node c + e/2, an odd one averages its two neighbours.
/// tap_first is the first tap's coarse offset from c.
constexpr int tap_first(int e) { return (e + 2) / 2 - 1; }
constexpr std::size_t tap_count(int e) { return e % 2 == 0 ? 1 : 2; }
constexpr double tap_weight(int e) { return e % 2 == 0 ? 1.0 : 0.5; }

/// Coarse indices [1, end) whose Galerkin rows are interior along a fine
/// dimension of size d: 2c + 2 <= d - 1.
std::size_t interior_end(std::size_t d) { return d >= 3 ? (d - 3) / 2 + 1 : 1; }

/// galerkin_node for the interior coarse nodes (cx, cy), cx in [begin,
/// end), of a fine level whose stored slots are `Slots`: every fine node
/// such a row gathers (offsets -1..1 from its image) and every neighbour j
/// of those lies on the grid and interpolates unclamped, so the row's
/// terms are fixed. They are unrolled here in the same order, with the
/// weights as constants.
template <const auto& Slots, class Level>
void galerkin_interior(const Level& f, Level& c, std::size_t cy,
                       std::size_t begin, std::size_t end) {
  for (std::size_t cx = begin; cx < end; ++cx) {
    double acc[9] = {};
    const std::size_t corner = (2 * cy - 1) * f.nx + (2 * cx - 1);
    unroll<3>([&](auto ay) {
      unroll<3>([&](auto ax) {
        constexpr std::size_t kAy = decltype(ay)::value;
        constexpr std::size_t kAx = decltype(ax)::value;
        constexpr double w_i =
            (kAy == 1 ? 1.0 : 0.5) * (kAx == 1 ? 1.0 : 0.5);
        const std::size_t i = corner + kAy * f.nx + kAx;
        unroll<Slots.size()>([&](auto k) {
          constexpr std::size_t kK = decltype(k)::value;
          constexpr int ey = static_cast<int>(kAy + Slots[kK] / 3) - 2;
          constexpr int ex = static_cast<int>(kAx + Slots[kK] % 3) - 2;
          const double contrib = w_i * f.coef[kK * f.n + i];
          unroll<tap_count(ey)>([&](auto by) {
            unroll<tap_count(ex)>([&](auto bx) {
              constexpr int jy = tap_first(ey) + int{decltype(by)::value};
              constexpr int jx = tap_first(ex) + int{decltype(bx)::value};
              acc[3 * (jy + 1) + (jx + 1)] +=
                  contrib * (tap_weight(ey) * tap_weight(ex));
            });
          });
        });
      });
    });
    for (std::size_t slot = 0; slot < 9; ++slot)
      c.coef[slot * c.n + cy * c.nx + cx] = acc[slot];
  }
}

/// out[i] = rhs[i] - (A x)[i] for node i = (ix, iy) from the level's
/// stored slots: the sum starts at +0.0 and adds them in ascending order
/// (ascending column order), skipping neighbours off the grid.
template <class Level>
void residual_node(const Level& level, const double* rhs, const double* x,
                   double* out, std::size_t ix, std::size_t iy) {
  const std::size_t i = iy * level.nx + ix;
  double s = 0.0;
  for (std::size_t k = 0; k < level.slots.size(); ++k) {
    const std::size_t slot = level.slots[k];
    const std::size_t jy = iy + slot / 3 - 1;
    const std::size_t jx = ix + slot % 3 - 1;
    if (jy >= level.ny || jx >= level.nx) continue;  // off the grid
    s += level.coef[k * level.n + i] * x[jy * level.nx + jx];
  }
  out[i] = rhs[i] - s;
}

/// residual_node for the interior nodes [begin, end) of a level whose
/// stored slots are `Slots`, where every neighbour lies on the grid: the
/// same sum, unrolled.
template <const auto& Slots, class Level>
void residual_interior(const Level& level, const double* rhs, const double* x,
                       double* out, std::size_t begin, std::size_t end) {
  const double* coef = level.coef.data();
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(level.nx);
  for (std::size_t i = begin; i < end; ++i) {
    const double* xi = x + i;
    double s = 0.0;
    unroll<Slots.size()>([&](auto k) {
      constexpr std::size_t kK = decltype(k)::value;
      constexpr std::ptrdiff_t dy = Slots[kK] / 3 - 1;
      constexpr std::ptrdiff_t dx = Slots[kK] % 3 - 1;
      s += coef[kK * level.n + i] * xi[dy * nx + dx];
    });
    out[i] = rhs[i] - s;
  }
}

/// out = rhs - A x over a level's stencil: the interior rows of a 5- or
/// 9-slot level run residual_interior between their two end nodes, every
/// other node residual_node.
template <class Level>
void residual(const Level& level, const double* rhs, const double* x,
              double* out) {
  const std::size_t nx = level.nx;
  const std::size_t ny = level.ny;
  const bool five = stores<kFivePointSlots>(level);
  const bool nine = stores<kNinePointSlots>(level);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    if (iy == 0 || iy + 1 == ny || nx < 3 || !(five || nine)) {
      for (std::size_t ix = 0; ix < nx; ++ix)
        residual_node(level, rhs, x, out, ix, iy);
      continue;
    }
    const std::size_t row = iy * nx;
    residual_node(level, rhs, x, out, 0, iy);
    if (five)
      residual_interior<kFivePointSlots>(level, rhs, x, out, row + 1,
                                         row + nx - 1);
    else
      residual_interior<kNinePointSlots>(level, rhs, x, out, row + 1,
                                         row + nx - 1);
    residual_node(level, rhs, x, out, nx - 1, iy);
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
  levels_.clear();

  // Per-dimension bilinear interpolation of a fine index range onto a
  // coarse one: an even fine index copies its coarse node, an odd one
  // averages its two neighbours, or copies its left one at full weight
  // where the right one is missing (even dimensions).
  const auto interp = [](std::size_t fine, std::size_t coarse) {
    std::vector<Taps<2>> taps(fine);
    for (std::size_t i = 0; i < fine; ++i) {
      Taps<2>& t = taps[i];
      t.idx[0] = i / 2;
      if (i % 2 == 1 && i / 2 + 1 < coarse) {
        t.count = 2;
        t.idx[1] = i / 2 + 1;
        t.w[0] = t.w[1] = 0.5;
      } else {
        t.count = 1;
        t.w[0] = 1.0;
      }
    }
    return taps;
  };
  // Its transpose: fine indices visited in ascending order, so each
  // coarse index gathers its fine taps ascending.
  const auto gather = [](const std::vector<Taps<2>>& taps,
                         std::size_t coarse) {
    std::vector<Taps<3>> out(coarse);
    for (std::size_t i = 0; i < taps.size(); ++i) {
      for (std::size_t k = 0; k < taps[i].count; ++k) {
        Taps<3>& t = out[taps[i].idx[k]];
        t.idx[t.count] = i;
        t.w[t.count] = taps[i].w[k];
        ++t.count;
      }
    }
    return out;
  };

  std::size_t nx = grid.nx();
  std::size_t ny = grid.ny();
  for (;;) {
    Level& level = levels_.emplace_back();
    level.nx = nx;
    level.ny = ny;
    level.n = nx * ny;
    if (levels_.size() > 1)
      for (std::uint8_t s = 0; s < 9; ++s) level.slots.push_back(s);
    if (level.n <= kCoarsestNodes) break;  // coarsest level: solved directly
    nx = coarse_dim(nx);
    ny = coarse_dim(ny);
    level.interp_x = interp(level.nx, nx);
    level.interp_y = interp(level.ny, ny);
    level.gather_x = gather(level.interp_x, nx);
    level.gather_y = gather(level.interp_y, ny);
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
  const std::vector<std::size_t>& offsets = a.row_offsets();
  const std::vector<std::size_t>& cols = a.col_indices();
  const std::vector<double>& vals = a.values();

  // Finest operator: the matrix itself. Its pattern is checked once per
  // structure: every entry must lie in its row node's 3x3 grid
  // neighbourhood. Level 0 keeps the slots the pattern uses, and each
  // entry's position among them is kept for the refactors that follow.
  Level& fine = levels_.front();
  if (fine_digest_ == 0 || fine_digest_ != a.structure_digest()) {
    fine_digest_ = 0;  // recorded again once the new pattern has passed
    const std::size_t nx = fine.nx;
    fine_entry_slot_.resize(vals.size());
    unsigned used = 1u << kCenterSlot;
    std::size_t ix = 0;
    for (std::size_t i = 0; i < fine.n; ++i) {
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        const std::size_t slot = stencil_slot(i, ix, nx, cols[k]);
        VPD_REQUIRE(slot < 9, "matrix entry (", i, ",", cols[k],
                    ") lies outside the 3x3 grid neighbourhood of the ",
                    "multigrid hierarchy's ", nx, "-wide grid");
        fine_entry_slot_[k] = static_cast<std::uint8_t>(slot);
        used |= 1u << slot;
      }
      if (++ix == nx) ix = 0;
    }
    std::uint8_t index_of[9] = {};
    fine.slots.clear();
    for (std::uint8_t slot = 0; slot < 9; ++slot) {
      if (!(used >> slot & 1u)) continue;
      index_of[slot] = static_cast<std::uint8_t>(fine.slots.size());
      fine.slots.push_back(slot);
    }
    for (std::uint8_t& slot : fine_entry_slot_) slot = index_of[slot];
    // Slots a row lacks stay 0 while the structure holds.
    fine.coef.assign(fine.slots.size() * fine.n, 0.0);
    fine_digest_ = a.structure_digest();
  }
  // Scatter the values into the stencil.
  for (std::size_t i = 0, k = 0; i < fine.n; ++i)
    for (const std::size_t end = offsets[i + 1]; k < end; ++k)
      fine.coef[fine_entry_slot_[k] * fine.n + i] = vals[k];

  // Numeric Galerkin chain, one coarse stencil row per coarse node, with
  // no symbolic pattern: a 3x3 fine neighbourhood maps into a 3x3 coarse
  // one. Interior rows of a 5- or 9-slot level run the unrolled kernel,
  // the rest (the boundary ring, other slot sets) the table-driven one.
  for (std::size_t l = 0; l + 1 < depth; ++l) {
    const Level& f = levels_[l];
    Level& c = levels_[l + 1];
    c.coef.resize(9 * c.n);
    const bool five = stores<kFivePointSlots>(f);
    const bool nine = stores<kNinePointSlots>(f);
    const std::size_t x_end = interior_end(f.nx);
    const std::size_t y_end = interior_end(f.ny);
    for (std::size_t cy = 0; cy < c.ny; ++cy) {
      std::size_t cx = 0;
      if (cy >= 1 && cy < y_end && x_end > 1 && (five || nine)) {
        galerkin_node(f, c, 0, cy);
        if (five)
          galerkin_interior<kFivePointSlots>(f, c, cy, 1, x_end);
        else
          galerkin_interior<kNinePointSlots>(f, c, cy, 1, x_end);
        cx = x_end;
      }
      for (; cx < c.nx; ++cx) galerkin_node(f, c, cx, cy);
    }
  }

  // Smoother diagonals. An SPD operator has a strictly positive diagonal,
  // and Galerkin products of SPD operators through full-column-rank P stay
  // SPD, so a non-positive pivot here means the input was not SPD.
  for (Level& level : levels_) {
    const std::size_t center = static_cast<std::size_t>(
        std::find(level.slots.begin(), level.slots.end(), kCenterSlot) -
        level.slots.begin());
    const double* diag = level.coef.data() + center * level.n;
    const double* bad = std::find_if(diag, diag + level.n,
                                     [](double d) { return !(d > 0.0); });
    VPD_CHECK_NUMERIC(bad == diag + level.n, "multigrid level diagonal not "
                      "positive at row ", bad - diag, " (value ", *bad,
                      "); system is not SPD");
    level.inv_diag.resize(level.n);
    for (std::size_t r = 0; r < level.n; ++r) level.inv_diag[r] = 1.0 / diag[r];
  }

  // Dense Cholesky of the coarsest operator.
  {
    const Level& bottom = levels_.back();
    coarse_n_ = bottom.n;
    coarse_chol_.assign(coarse_n_ * coarse_n_, 0.0);
    for (std::size_t r = 0; r < coarse_n_; ++r) {
      const std::size_t ix = r % bottom.nx;
      const std::size_t iy = r / bottom.nx;
      for (std::size_t k = 0; k < bottom.slots.size(); ++k) {
        const std::size_t slot = bottom.slots[k];
        const std::size_t jy = iy + slot / 3 - 1;
        const std::size_t jx = ix + slot % 3 - 1;
        if (jy >= bottom.ny || jx >= bottom.nx) continue;
        coarse_chol_[r * coarse_n_ + jy * bottom.nx + jx] =
            bottom.coef[k * bottom.n + r];
      }
    }
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

void MgPreconditioner::cycle(std::size_t l, const double* rhs, double* x) {
  Level& level = levels_[l];
  const std::size_t n = level.n;

  if (l + 1 == levels_.size()) {
    // Coarsest: direct dense Cholesky solve, x = (L L^T)^{-1} rhs.
    std::copy(rhs, rhs + n, x);
    for (std::size_t i = 0; i < n; ++i) {
      double s = x[i];
      for (std::size_t k = 0; k < i; ++k) s -= coarse_chol_[i * n + k] * x[k];
      x[i] = s / coarse_chol_[i * n + i];
    }
    for (std::size_t i = n; i-- > 0;) {
      double s = x[i];
      for (std::size_t k = i + 1; k < n; ++k)
        s -= coarse_chol_[k * n + i] * x[k];
      x[i] = s / coarse_chol_[i * n + i];
    }
    return;
  }

  // Pre-smooth (one damped-Jacobi sweep from a zero initial iterate).
  for (std::size_t i = 0; i < n; ++i)
    x[i] = kJacobiDamping * level.inv_diag[i] * rhs[i];

  // Residual r = rhs - A x.
  level.r.resize(n);
  residual(level, rhs, x, level.r.data());

  // Restrict into the coarse right-hand side, rhs_c = R r: coarse node
  // (cx, cy) sums its fine nodes (fy, fx) in ascending order from +0.0,
  // each fine row of the gather as one pass over the coarse row. Interior
  // coarse columns gather fine columns 2cx-1..2cx+1 with weights 1/2, 1,
  // 1/2; the two end columns use the table.
  Level& coarse = levels_[l + 1];
  coarse.rhs.resize(coarse.n);
  coarse.x.resize(coarse.n);
  const std::size_t cnx = coarse.nx;
  for (std::size_t cy = 0; cy < coarse.ny; ++cy) {
    double* out = coarse.rhs.data() + cy * cnx;
    std::fill(out, out + cnx, 0.0);
    const Taps<3>& gy = level.gather_y[cy];
    for (std::size_t a = 0; a < gy.count; ++a) {
      const double* row = level.r.data() + gy.idx[a] * level.nx;
      const double w = gy.w[a];
      const auto end_column = [&](std::size_t cx) {
        const Taps<3>& gx = level.gather_x[cx];
        for (std::size_t b = 0; b < gx.count; ++b)
          out[cx] += (w * gx.w[b]) * row[gx.idx[b]];
      };
      end_column(0);
      if (cnx == 1) continue;
      const double half = w * 0.5;
      const double full = w * 1.0;
      for (std::size_t cx = 1; cx + 1 < cnx; ++cx) {
        out[cx] += half * row[2 * cx - 1];
        out[cx] += full * row[2 * cx];
        out[cx] += half * row[2 * cx + 1];
      }
      end_column(cnx - 1);
    }
  }
  cycle(l + 1, coarse.rhs.data(), coarse.x.data());

  // Prolongate the coarse correction, x += P x_c. Each fine node sums its
  // coarse taps (y outer, x inner) from +0.0 before it is added, so each
  // fine row's sums are formed in that row of r (free until the
  // post-smoothing residual), each y tap as one pass over the row: fine
  // column 2cx copies coarse column cx, 2cx+1 averages cx and cx+1, or
  // copies cx at full weight at the clamped end of an even dimension.
  for (std::size_t iy = 0; iy < level.ny; ++iy) {
    double* sums = level.r.data() + iy * level.nx;
    std::fill(sums, sums + level.nx, 0.0);
    const Taps<2>& py = level.interp_y[iy];
    for (std::size_t a = 0; a < py.count; ++a) {
      const double* row = coarse.x.data() + py.idx[a] * cnx;
      const double half = py.w[a] * 0.5;
      const double full = py.w[a] * 1.0;
      for (std::size_t cx = 0; cx + 1 < cnx; ++cx) {
        sums[2 * cx] += full * row[cx];
        sums[2 * cx + 1] += half * row[cx];
        sums[2 * cx + 1] += half * row[cx + 1];
      }
      const std::size_t last = cnx - 1;
      sums[2 * last] += full * row[last];
      if (2 * last + 1 < level.nx) sums[2 * last + 1] += full * row[last];
    }
    double* xrow = x + iy * level.nx;
    for (std::size_t ix = 0; ix < level.nx; ++ix) xrow[ix] += sums[ix];
  }

  // Post-smooth (the adjoint sweep: x += omega D^{-1} (rhs - A x)).
  residual(level, rhs, x, level.r.data());
  for (std::size_t i = 0; i < n; ++i)
    x[i] += kJacobiDamping * level.inv_diag[i] * level.r[i];
}

void MgPreconditioner::apply(const Vector& r, Vector& z) {
  VPD_REQUIRE(!empty(), "MgPreconditioner::apply before factor()");
  VPD_REQUIRE(r.size() == levels_.front().n, "preconditioner apply: vector "
              "has ", r.size(), " entries, expected ", levels_.front().n);
  VPD_REQUIRE(&r != &z, "MgPreconditioner::apply: z must not alias r");
  z.resize(r.size());
  cycle(0, r.data(), z.data());
}

}  // namespace vpd
