#include "vpd/common/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "vpd/common/error.hpp"
#include "vpd/common/rng.hpp"

namespace vpd {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, InitializerListConstruction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), InvalidArgument);
}

TEST(Matrix, IdentityHasOnesOnDiagonal) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, AddSubtractScale) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{4.0, 3.0}, {2.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), -3.0);
  const Matrix scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  Matrix b(3, 3);
  EXPECT_THROW(a += b, InvalidArgument);
  EXPECT_THROW(a * b, InvalidArgument);
}

TEST(Matrix, MatrixProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector x{1.0, -1.0};
  const Vector y = a * x;
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Matrix, Transpose) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Lu, SolvesSmallSystemExactly) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector b{3.0, 5.0};
  const Vector x = solve_dense(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SolvesSystemRequiringPivoting) {
  // Zero leading pivot forces a row swap.
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector b{2.0, 3.0};
  const Vector x = solve_dense(a, b);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuFactorization{a}, NumericalError);
}

TEST(Lu, NonSquareThrows) {
  EXPECT_THROW(LuFactorization{Matrix(2, 3)}, InvalidArgument);
}

TEST(Lu, DeterminantMatchesClosedForm) {
  const Matrix a{{3.0, 8.0}, {4.0, 6.0}};
  EXPECT_NEAR(LuFactorization{a}.determinant(), -14.0, 1e-12);
}

TEST(Lu, DeterminantSignSurvivesPivoting) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(LuFactorization{a}.determinant(), -1.0, 1e-12);
}

TEST(Lu, FactorOnceSolveManyRhs) {
  const Matrix a{{4.0, 1.0, 0.0}, {1.0, 4.0, 1.0}, {0.0, 1.0, 4.0}};
  const LuFactorization lu{a};
  for (double scale : {1.0, -2.0, 10.0}) {
    const Vector b{scale, 2.0 * scale, 3.0 * scale};
    const Vector x = lu.solve(b);
    const Vector residual = a * x - b;
    EXPECT_LT(norm_inf(residual), 1e-12) << "scale=" << scale;
  }
}

TEST(Lu, RcondDetectsIllConditioning) {
  const Matrix good = Matrix::identity(3);
  EXPECT_GT(LuFactorization{good}.rcond_estimate(), 0.5);
  const Matrix bad{{1.0, 0.0}, {0.0, 1e-14}};
  EXPECT_LT(LuFactorization{bad}.rcond_estimate(), 1e-10);
}

TEST(Lu, RandomSystemsHaveSmallResidual) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5 + rng.next_below(20);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    // Diagonal boost keeps the random matrices comfortably nonsingular.
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 2.0;
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
    const Vector x = solve_dense(a, b);
    EXPECT_LT(norm_inf(a * x - b), 1e-9) << "trial " << trial << " n=" << n;
  }
}

TEST(Matrix, LuSolveIntoMatchesSolve) {
  Rng rng(7);
  Vector x(3, 1.0);  // wrong size on purpose: solve_into resizes it
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4 + rng.next_below(12);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
    const LuFactorization lu{a};
    const Vector expected = lu.solve(b);
    lu.solve_into(b, x);
    ASSERT_EQ(x.size(), n) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "trial " << trial << " entry " << i;
    }
  }
  const LuFactorization lu{Matrix{{2.0, 1.0}, {1.0, 3.0}}};
  Vector b{3.0, 5.0};
  EXPECT_THROW(lu.solve_into(b, b), InvalidArgument);
  EXPECT_THROW(lu.solve_into(Vector{1.0}, x), InvalidArgument);
}

TEST(VectorOps, DotNormAxpy) {
  const Vector a{1.0, 2.0, 2.0};
  const Vector b{2.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 2.0);
  Vector y = b;
  axpy(2.0, a, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  const Vector a{1.0};
  const Vector b{1.0, 2.0};
  EXPECT_THROW(dot(a, b), InvalidArgument);
  Vector y{0.0};
  EXPECT_THROW(axpy(1.0, b, y), InvalidArgument);
  EXPECT_THROW(a + b, InvalidArgument);
  EXPECT_THROW(a - b, InvalidArgument);
}

TEST(Matrix, MaxAbs) {
  const Matrix a{{1.0, -7.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.max_abs(), 7.0);
  EXPECT_DOUBLE_EQ(Matrix().max_abs(), 0.0);
}

}  // namespace
}  // namespace vpd
