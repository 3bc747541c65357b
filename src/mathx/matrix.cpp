#include "sesame/mathx/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace sesame::mathx {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  if (rows_ != o.rows_ || cols_ != o.cols_) {
    throw std::invalid_argument("Matrix+=: dimension mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  if (rows_ != o.rows_ || cols_ != o.cols_) {
    throw std::invalid_argument("Matrix-=: dimension mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("Matrix*: dimension mismatch");
  }
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::apply(const std::vector<double>& v) const {
  if (v.size() != cols_) {
    throw std::invalid_argument("Matrix::apply: dimension mismatch");
  }
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

std::vector<double> Matrix::apply_transposed(const std::vector<double>& v) const {
  if (v.size() != rows_) {
    throw std::invalid_argument("Matrix::apply_transposed: dimension mismatch");
  }
  std::vector<double> out(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    for (std::size_t j = 0; j < cols_; ++j) out[j] += vi * (*this)(i, j);
  }
  return out;
}

double Matrix::norm_inf() const {
  double best = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) row += std::abs((*this)(i, j));
    best = std::max(best, row);
  }
  return best;
}

std::vector<double> solve_linear(Matrix a, std::vector<double> b) {
  if (!a.is_square() || a.rows() != b.size()) {
    throw std::invalid_argument("solve_linear: dimension mismatch");
  }
  const std::size_t n = a.rows();
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-14) {
      throw std::runtime_error("solve_linear: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(col, j), a(pivot, j));
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) * inv;
      if (f == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) a(r, j) -= f * a(col, j);
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a(i, j) * x[j];
    x[i] = acc / a(i, i);
  }
  return x;
}

namespace {

// Solves A * X = B column by column (shared pivoting would be faster but the
// matrices here are tiny).
Matrix solve_matrix(const Matrix& a, const Matrix& b) {
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    std::vector<double> col(b.rows());
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    std::vector<double> sol = solve_linear(a, std::move(col));
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = sol[i];
  }
  return x;
}

}  // namespace

Matrix expm(const Matrix& a) {
  if (!a.is_square()) throw std::invalid_argument("expm: non-square matrix");
  const std::size_t n = a.rows();
  if (n == 0) return a;

  // Scale so that ||A/2^s||_inf <= 0.5, apply the (6,6) Pade approximant,
  // then square s times.
  const double norm = a.norm_inf();
  int s = 0;
  if (norm > 0.5) {
    s = static_cast<int>(std::ceil(std::log2(norm / 0.5)));
  }
  Matrix as = a * std::pow(2.0, -s);

  // Pade(6,6): N = sum c_k A^k, D = sum (-1)^k c_k A^k.
  static constexpr double kCoef[7] = {
      1.0, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840, 1.0 / 665280};
  Matrix power = Matrix::identity(n);
  Matrix num = Matrix::identity(n);  // will be overwritten term by term
  Matrix den = Matrix::identity(n);
  num *= kCoef[0];
  den *= kCoef[0];
  for (int k = 1; k <= 6; ++k) {
    power = power * as;
    Matrix term = power * kCoef[k];
    num += term;
    if (k % 2 == 0) {
      den += term;
    } else {
      den -= term;
    }
  }
  Matrix result = solve_matrix(den, num);
  for (int i = 0; i < s; ++i) result = result * result;
  return result;
}

}  // namespace sesame::mathx
