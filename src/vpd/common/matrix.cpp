#include "vpd/common/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "vpd/common/error.hpp"

namespace vpd {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    VPD_REQUIRE(r.size() == cols_, "ragged initializer: row has ", r.size(),
                " columns, expected ", cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  VPD_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch: ",
              rows_, "x", cols_, " vs ", rhs.rows_, "x", rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  VPD_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch: ",
              rows_, "x", cols_, " vs ", rhs.rows_, "x", rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  VPD_REQUIRE(a.cols() == b.rows(), "inner dimension mismatch: ", a.cols(),
              " vs ", b.rows());
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  VPD_REQUIRE(a.cols() == x.size(), "dimension mismatch: matrix has ",
              a.cols(), " columns, vector has ", x.size());
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    y[i] = s;
  }
  return y;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  VPD_REQUIRE(lu_.rows() == lu_.cols(), "LU requires a square matrix, got ",
              lu_.rows(), "x", lu_.cols());
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |value| in column k at or below the diagonal.
    std::size_t pivot = k;
    double best = std::fabs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu_(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    VPD_CHECK_NUMERIC(best > std::numeric_limits<double>::min() * 16,
                      "matrix is singular at column ", k);
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(lu_(k, j), lu_(pivot, j));
      std::swap(perm_[k], perm_[pivot]);
      perm_sign_ = -perm_sign_;
    }
    const double pivot_value = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = lu_(i, k) / pivot_value;
      lu_(i, k) = m;
      if (m == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= m * lu_(k, j);
    }
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  Vector x;
  solve_into(b, x);
  return x;
}

void LuFactorization::solve_into(const Vector& b, Vector& x) const {
  const std::size_t n = size();
  VPD_REQUIRE(&b != &x, "solve_into needs distinct rhs and solution vectors");
  VPD_REQUIRE(b.size() == n, "rhs has ", b.size(), " entries, expected ", n);
  x.resize(n);
  // Apply permutation, forward-substitute L (unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
    x[i] = s;
  }
  // Back-substitute U.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= lu_(ii, j) * x[j];
    x[ii] = s / lu_(ii, ii);
  }
}

double LuFactorization::determinant() const {
  double d = perm_sign_;
  for (std::size_t i = 0; i < size(); ++i) d *= lu_(i, i);
  return d;
}

double LuFactorization::rcond_estimate() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    const double v = std::fabs(lu_(i, i));
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi == 0.0 ? 0.0 : lo / hi;
}

Vector solve_dense(Matrix a, const Vector& b) {
  return LuFactorization(std::move(a)).solve(b);
}

double dot(const Vector& a, const Vector& b) {
  VPD_REQUIRE(a.size() == b.size(), "dot: size mismatch ", a.size(), " vs ",
              b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

void axpy(double alpha, const Vector& x, Vector& y) {
  VPD_REQUIRE(x.size() == y.size(), "axpy: size mismatch ", x.size(), " vs ",
              y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vector operator+(const Vector& a, const Vector& b) {
  VPD_REQUIRE(a.size() == b.size(), "vector +: size mismatch");
  Vector c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] + b[i];
  return c;
}

Vector operator-(const Vector& a, const Vector& b) {
  VPD_REQUIRE(a.size() == b.size(), "vector -: size mismatch");
  Vector c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

Vector operator*(double s, const Vector& v) {
  Vector c(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) c[i] = s * v[i];
  return c;
}

}  // namespace vpd
