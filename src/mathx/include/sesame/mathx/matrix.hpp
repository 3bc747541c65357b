// Dense dynamic-size matrix for the small linear-algebra needs of the
// SESAME stack (Markov generators, Bayesian CPT manipulation, MLP layers).
//
// The matrices involved are tiny (Markov propulsion models have < 100
// states), so the implementation favours clarity and numerical robustness
// over blocking/vectorization tricks.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace sesame::mathx {

/// Row-major dense matrix of doubles.
///
/// Invariants: rows() * cols() == data().size(); both dimensions may be 0
/// only for a default-constructed empty matrix.
class Matrix {
 public:
  Matrix() = default;

  /// Creates an r x c matrix with every entry set to `fill`.
  Matrix(std::size_t r, std::size_t c, double fill = 0.0)
      : rows_(r), cols_(c), data_(r * c, fill) {}

  /// Creates a matrix from nested initializer lists; all rows must have the
  /// same length. Throws std::invalid_argument on ragged input.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }
  bool is_square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const noexcept { return data_; }
  std::vector<double>& data() noexcept { return data_; }

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product; dimensions must agree (throws std::invalid_argument).
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Matrix-vector product (length must equal cols()).
  std::vector<double> apply(const std::vector<double>& v) const;

  /// Left multiplication of a row vector: returns v^T * this.
  std::vector<double> apply_transposed(const std::vector<double>& v) const;

  /// Maximum absolute row sum (the induced infinity norm).
  double norm_inf() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A*x = b with partial-pivot Gaussian elimination.
/// Throws std::invalid_argument on dimension mismatch and
/// std::runtime_error when A is (numerically) singular.
std::vector<double> solve_linear(Matrix a, std::vector<double> b);

/// Matrix exponential e^A via scaling-and-squaring with a 6th-order Pade
/// approximant. Suitable for the small generator matrices used by the
/// Markov reliability models.
Matrix expm(const Matrix& a);

}  // namespace sesame::mathx
