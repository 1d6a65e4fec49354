// Gaussian elimination over an abstract field.
//
// This is the paper's sequential baseline ("Gaussian elimination is a
// sequential method for all these computational problems over abstract
// fields", Bunch & Hopcroft 1974): determinant, linear solve, inverse, rank,
// and nullspace, all by PLU elimination with nonzero pivoting (over an
// abstract field any nonzero pivot is as good as any other).  The benches
// compare the randomized parallel pipeline against these routines for
// correctness and for work counts.
#pragma once

#include <cassert>
#include <optional>
#include <vector>

#include "matrix/dense.h"

namespace kp::matrix {

/// PLU factorization: perm applied to rows of A gives L*U, with L unit lower
/// triangular.  rank is the number of nonzero pivots found.
template <kp::field::Field F>
struct Plu {
  Matrix<F> lu;                   ///< packed L (below diag) and U (on/above)
  std::vector<std::size_t> perm;  ///< row i of L*U is row perm[i] of A
  std::size_t rank = 0;
  typename F::Element det;        ///< determinant of square A (zero if singular)
  int perm_sign = 1;
};

/// Computes a PLU factorization with nonzero pivoting; works for any shape.
template <kp::field::Field F>
Plu<F> plu_decompose(const F& f, Matrix<F> a) {
  const std::size_t m = a.rows(), n = a.cols();
  Plu<F> out{std::move(a), {}, 0, f.one(), 1};
  out.perm.resize(m);
  for (std::size_t i = 0; i < m; ++i) out.perm[i] = i;

  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < n && pivot_row < m; ++col) {
    // Find any row with a nonzero entry in this column.
    std::size_t sel = pivot_row;
    while (sel < m && f.is_zero(out.lu.at(sel, col))) ++sel;
    if (sel == m) continue;  // entire column is zero below the pivot row
    if (sel != pivot_row) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(out.lu.at(sel, j), out.lu.at(pivot_row, j));
      }
      std::swap(out.perm[sel], out.perm[pivot_row]);
      out.perm_sign = -out.perm_sign;
    }
    const auto pivot_inv = f.inv(out.lu.at(pivot_row, col));
    for (std::size_t i = pivot_row + 1; i < m; ++i) {
      if (f.eq(out.lu.at(i, col), f.zero())) continue;
      const auto factor = f.mul(out.lu.at(i, col), pivot_inv);
      out.lu.at(i, col) = factor;  // store the L entry in place
      for (std::size_t j = col + 1; j < n; ++j) {
        out.lu.at(i, j) =
            f.sub(out.lu.at(i, j), f.mul(factor, out.lu.at(pivot_row, j)));
      }
    }
    ++pivot_row;
    ++out.rank;
  }

  // Determinant of a square matrix: product of pivots times the sign.
  if (m == n) {
    if (out.rank < n) {
      out.det = f.zero();
    } else {
      auto det = f.one();
      for (std::size_t i = 0; i < n; ++i) det = f.mul(det, out.lu.at(i, i));
      out.det = out.perm_sign < 0 ? f.neg(det) : det;
    }
  } else {
    out.det = f.zero();
  }
  return out;
}

template <kp::field::Field F>
typename F::Element det_gauss(const F& f, const Matrix<F>& a) {
  assert(a.is_square());
  return plu_decompose(f, a).det;
}

template <kp::field::Field F>
std::size_t rank_gauss(const F& f, const Matrix<F>& a) {
  return plu_decompose(f, a).rank;
}

/// Solves A x = b by substitution through the factorization `fac` of a
/// non-singular square A (fac.rank == n), so one elimination can yield both
/// det A and x.
template <kp::field::Field F>
std::vector<typename F::Element> solve_plu(
    const F& f, const Plu<F>& fac, const std::vector<typename F::Element>& b) {
  const std::size_t n = fac.lu.rows();
  assert(fac.lu.is_square() && fac.rank == n && n == b.size());
  // Forward substitution L y = P b.
  std::vector<typename F::Element> y(n, f.zero());
  for (std::size_t i = 0; i < n; ++i) {
    auto acc = b[fac.perm[i]];
    for (std::size_t j = 0; j < i; ++j) {
      acc = f.sub(acc, f.mul(fac.lu.at(i, j), y[j]));
    }
    y[i] = std::move(acc);
  }
  // Back substitution U x = y.
  std::vector<typename F::Element> x(n, f.zero());
  for (std::size_t i = n; i-- > 0;) {
    auto acc = y[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      acc = f.sub(acc, f.mul(fac.lu.at(i, j), x[j]));
    }
    x[i] = f.div(acc, fac.lu.at(i, i));
  }
  return x;
}

/// Solves A x = b for square A; nullopt when A is singular (this baseline is
/// deterministic, unlike the paper's pipeline which reports failure).
template <kp::field::Field F>
std::optional<std::vector<typename F::Element>> solve_gauss(
    const F& f, const Matrix<F>& a, const std::vector<typename F::Element>& b) {
  assert(a.is_square() && a.rows() == b.size());
  const Plu<F> fac = plu_decompose(f, a);
  if (fac.rank < a.rows()) return std::nullopt;
  return solve_plu(f, fac, b);
}

/// Inverse of a square matrix; nullopt when singular.
template <kp::field::Field F>
std::optional<Matrix<F>> inverse_gauss(const F& f, const Matrix<F>& a) {
  assert(a.is_square());
  const std::size_t n = a.rows();
  // Gauss-Jordan on [A | I].
  Matrix<F> w(n, 2 * n, f.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) w.at(i, j) = a.at(i, j);
    w.at(i, n + i) = f.one();
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t sel = col;
    while (sel < n && f.is_zero(w.at(sel, col))) ++sel;
    if (sel == n) return std::nullopt;
    if (sel != col) {
      for (std::size_t j = 0; j < 2 * n; ++j) std::swap(w.at(sel, j), w.at(col, j));
    }
    const auto inv = f.inv(w.at(col, col));
    for (std::size_t j = col; j < 2 * n; ++j) w.at(col, j) = f.mul(w.at(col, j), inv);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == col || f.eq(w.at(i, col), f.zero())) continue;
      const auto factor = w.at(i, col);
      for (std::size_t j = col; j < 2 * n; ++j) {
        w.at(i, j) = f.sub(w.at(i, j), f.mul(factor, w.at(col, j)));
      }
    }
  }
  Matrix<F> out(n, n, f.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) out.at(i, j) = w.at(i, n + j);
  }
  return out;
}

/// Reduced row echelon form; returns the pivot column indices.
template <kp::field::Field F>
std::vector<std::size_t> rref_inplace(const F& f, Matrix<F>& a) {
  std::vector<std::size_t> pivots;
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < a.cols() && pivot_row < a.rows(); ++col) {
    std::size_t sel = pivot_row;
    while (sel < a.rows() && f.is_zero(a.at(sel, col))) ++sel;
    if (sel == a.rows()) continue;
    if (sel != pivot_row) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        std::swap(a.at(sel, j), a.at(pivot_row, j));
      }
    }
    const auto inv = f.inv(a.at(pivot_row, col));
    for (std::size_t j = col; j < a.cols(); ++j) {
      a.at(pivot_row, j) = f.mul(a.at(pivot_row, j), inv);
    }
    for (std::size_t i = 0; i < a.rows(); ++i) {
      if (i == pivot_row || f.eq(a.at(i, col), f.zero())) continue;
      const auto factor = a.at(i, col);
      for (std::size_t j = col; j < a.cols(); ++j) {
        a.at(i, j) = f.sub(a.at(i, j), f.mul(factor, a.at(pivot_row, j)));
      }
    }
    pivots.push_back(col);
    ++pivot_row;
  }
  return pivots;
}

/// Basis of the right nullspace as matrix columns (n x (n - rank)).
template <kp::field::Field F>
Matrix<F> nullspace_gauss(const F& f, Matrix<F> a) {
  const std::size_t n = a.cols();
  const std::vector<std::size_t> pivots = rref_inplace(f, a);
  std::vector<bool> is_pivot(n, false);
  for (std::size_t c : pivots) is_pivot[c] = true;

  Matrix<F> basis(n, n - pivots.size(), f.zero());
  std::size_t out_col = 0;
  for (std::size_t free_col = 0; free_col < n; ++free_col) {
    if (is_pivot[free_col]) continue;
    basis.at(free_col, out_col) = f.one();
    for (std::size_t pr = 0; pr < pivots.size(); ++pr) {
      basis.at(pivots[pr], out_col) = f.neg(a.at(pr, free_col));
    }
    ++out_col;
  }
  return basis;
}

}  // namespace kp::matrix
