#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels.h"

namespace sam {

Matrix Matrix::Multiply(const Matrix& a, const Matrix& b) {
  SAM_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  kernels::Active().matmul(a.data(), a.rows(), a.cols(), a.cols(), b.data(),
                           b.cols(), c.data());
  return c;
}

Matrix Matrix::TransposeMultiply(const Matrix& a, const Matrix& b) {
  SAM_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  kernels::Active().matmul_ta(a.data(), a.rows(), a.cols(), a.cols(),
                              b.data(), b.cols(), c.data());
  return c;
}

Matrix Matrix::MultiplyTranspose(const Matrix& a, const Matrix& b) {
  SAM_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  kernels::Active().matmul_tb(a.data(), a.rows(), a.cols(), b.data(), b.rows(),
                              c.data());
  return c;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i)
    for (size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

std::vector<double> Matrix::Apply(const std::vector<double>& x) const {
  SAM_CHECK_EQ(x.size(), cols_);
  std::vector<double> y(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* ri = row(i);
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += ri[j] * x[j];
    y[i] = acc;
  }
  return y;
}

std::vector<double> Matrix::ApplyTranspose(const std::vector<double>& x) const {
  SAM_CHECK_EQ(x.size(), rows_);
  std::vector<double> y(cols_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* ri = row(i);
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t j = 0; j < cols_; ++j) y[j] += ri[j] * xi;
  }
  return y;
}

bool CholeskyFactor(const Matrix& a, Matrix* l) {
  SAM_CHECK_EQ(a.rows(), a.cols());
  const size_t n = a.rows();
  *l = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= (*l)(i, k) * (*l)(j, k);
      if (i == j) {
        if (sum <= 0.0) return false;
        (*l)(i, j) = std::sqrt(sum);
      } else {
        (*l)(i, j) = sum / (*l)(j, j);
      }
    }
  }
  return true;
}

std::vector<double> CholeskySolve(const Matrix& l, const std::vector<double>& b) {
  const size_t n = l.rows();
  SAM_CHECK_EQ(b.size(), n);
  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

std::vector<double> LeastSquares(const Matrix& a, const std::vector<double>& b,
                                 double ridge) {
  Matrix ata = Matrix::TransposeMultiply(a, a);
  for (size_t i = 0; i < ata.rows(); ++i) ata(i, i) += ridge;
  std::vector<double> atb = a.ApplyTranspose(b);
  Matrix l;
  // Escalate damping until the normal equations factor; rank-deficient
  // systems are routine for under-constrained PGM cliques.
  double damp = ridge;
  while (!CholeskyFactor(ata, &l)) {
    for (size_t i = 0; i < ata.rows(); ++i) ata(i, i) += damp;
    damp *= 10.0;
    SAM_CHECK_LT(damp, 1e6) << "LeastSquares: matrix cannot be regularised";
  }
  return CholeskySolve(l, atb);
}

std::vector<double> NonNegativeLeastSquares(const Matrix& a,
                                            const std::vector<double>& b,
                                            int max_iters, double tol) {
  const size_t n = a.cols();
  // Warm start from the damped unconstrained solution, clipped at zero.
  std::vector<double> x = LeastSquares(a, b, 1e-6);
  for (double& v : x) v = std::max(v, 0.0);

  // Lipschitz constant of the gradient = largest eigenvalue of A^T A,
  // upper-bounded by its trace for a cheap, always-valid step size.
  double trace = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* ri = a.row(i);
    for (size_t j = 0; j < n; ++j) trace += ri[j] * ri[j];
  }
  const double step = trace > 0.0 ? 1.0 / trace : 1.0;

  std::vector<double> grad(n);
  double prev_obj = std::numeric_limits<double>::infinity();
  for (int it = 0; it < max_iters; ++it) {
    std::vector<double> r = a.Apply(x);
    double obj = 0.0;
    for (size_t i = 0; i < r.size(); ++i) {
      r[i] -= b[i];
      obj += r[i] * r[i];
    }
    if (prev_obj - obj < tol * (1.0 + prev_obj)) break;
    prev_obj = obj;
    grad = a.ApplyTranspose(r);
    for (size_t j = 0; j < n; ++j) {
      x[j] = std::max(0.0, x[j] - step * grad[j]);
    }
  }
  return x;
}

}  // namespace sam
