// Dense linear algebra: row-major Matrix over double, LU factorization with
// partial pivoting, and solve routines. Circuit MNA systems are small and
// dense-ish (tens to a few hundred unknowns); dense LU is the right tool.
// Large sparse SPD systems (PDN meshes) use vpd/common/sparse.hpp instead.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace vpd {

using Vector = std::vector<double>;

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Construct from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Raw storage (row-major), useful for tests.
  const std::vector<double>& data() const { return data_; }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  Matrix transposed() const;

  /// Matrix-matrix product. Throws InvalidArgument on shape mismatch.
  friend Matrix operator*(const Matrix& a, const Matrix& b);
  /// Matrix-vector product.
  friend Vector operator*(const Matrix& a, const Vector& x);

  /// Max-abs element; 0 for empty.
  double max_abs() const;

 private:
  std::size_t rows_{0};
  std::size_t cols_{0};
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a square matrix.
/// Factor once, solve many right-hand sides.
class LuFactorization {
 public:
  /// Factors `a`. Throws NumericalError if the matrix is singular to
  /// working precision.
  explicit LuFactorization(Matrix a);

  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  /// Solves A x = b into `x`, resizing it to size(). Reuses x's storage,
  /// so a caller that keeps `x` across solves allocates nothing. Throws
  /// InvalidArgument when `b` and `x` are the same object.
  void solve_into(const Vector& b, Vector& x) const;

  /// Determinant of the factored matrix (sign-adjusted for pivoting).
  double determinant() const;

  /// Reciprocal condition estimate from pivot magnitudes (cheap heuristic:
  /// min|U_ii| / max|U_ii|). Good enough for detecting near-singularity.
  double rcond_estimate() const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_{1};
};

/// One-shot solve of A x = b via LU with partial pivoting.
Vector solve_dense(Matrix a, const Vector& b);

// ---- Vector helpers --------------------------------------------------------

double dot(const Vector& a, const Vector& b);
double norm2(const Vector& v);
double norm_inf(const Vector& v);
/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y);
Vector operator+(const Vector& a, const Vector& b);
Vector operator-(const Vector& a, const Vector& b);
Vector operator*(double s, const Vector& v);

}  // namespace vpd
