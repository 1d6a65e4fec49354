// Matrix multiplication kernels: classical O(n^3) and Strassen O(n^2.81).
//
// The paper treats matrix multiplication as a black box and notes that "the
// processor count ... is directly related to the particular matrix
// multiplication algorithm used, and for the classical method may yield a
// practical algorithm".  Both kernels are provided behind a strategy enum;
// every higher-level cost (Krylov doubling, Theorem 4/6 totals) inherits the
// chosen exponent, which the comparison benches measure empirically.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "matrix/dense.h"

namespace kp::matrix {

enum class MatMulStrategy {
  kClassical,  ///< triple loop, O(n^3)
  kStrassen,   ///< Strassen-Winograd style 7-multiplication recursion
};

namespace detail {

/// Classical kernel; each output entry is a balanced-tree inner product so
/// the corresponding circuit has depth O(log n), as the paper's model needs.
/// Output rows are independent, so large products fan out onto the pooled
/// ExecutionContext with identical per-row arithmetic (results are
/// bit-identical for every worker count).
template <kp::field::CommutativeRing R>
Matrix<R> mul_classical(const R& r, const Matrix<R>& a, const Matrix<R>& b) {
  Matrix<R> out(a.rows(), b.cols(), r.zero());
  if constexpr (kp::field::kernels::FastField<R>) {
    // Register-tiled kernel over panels of kGemmPanelRows output rows.  It
    // charges what the generic loop below does: per row of A with nnz
    // nonzero entries, nnz multiplications and nnz - 1 additions for each
    // output column (zeros add nothing to the canonical sums, so the
    // kernel need not skip them).
    constexpr std::size_t kPanel = kp::field::simd::kGemmPanelRows;
    const std::size_t k = a.cols(), cols = b.cols();
    auto panel = [&](std::size_t q) {
      const std::size_t i0 = q * kPanel;
      const std::size_t rows = std::min(kPanel, a.rows() - i0);
      for (std::size_t i = i0; i < i0 + rows; ++i) {
        const auto* arow = a.row(i);
        const auto nnz = static_cast<std::uint64_t>(
            k - std::count(arow, arow + k, std::uint64_t{0}));
        if (nnz > 0) {
          kp::util::count_muls(nnz * cols);
          kp::util::count_adds((nnz - 1) * cols);
        }
      }
      kp::field::kernels::gemm_rows(r, a.row(i0), k, b.data().data(), cols,
                                    out.row(i0), cols, rows, k, cols);
    };
    const std::size_t panels = (a.rows() + kPanel - 1) / kPanel;
    if (kp::field::concurrent_ops_v<R> &&
        a.rows() * k * cols >= kParallelGrain) {
      kp::pram::parallel_for(0, panels, panel);
    } else {
      for (std::size_t q = 0; q < panels; ++q) panel(q);
    }
    return out;
  }
  auto out_row = [&](std::size_t i, std::vector<typename R::Element>& terms) {
    const auto* arow = a.row(i);
    auto* orow = out.row(i);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      terms.clear();
      for (std::size_t k = 0; k < a.cols(); ++k) {
        if (r.eq(arow[k], r.zero())) continue;
        terms.push_back(r.mul(arow[k], b.at(k, j)));
      }
      orow[j] = balanced_sum(r, terms);
    }
  };
  if (kp::field::concurrent_ops_v<R> &&
      a.rows() * a.cols() * b.cols() >= kParallelGrain) {
    kp::pram::parallel_for(0, a.rows(), [&](std::size_t i) {
      std::vector<typename R::Element> terms;
      terms.reserve(a.cols());
      out_row(i, terms);
    });
  } else {
    std::vector<typename R::Element> terms;
    terms.reserve(a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) out_row(i, terms);
  }
  return out;
}

template <kp::field::CommutativeRing R>
Matrix<R> submatrix(const R& r, const Matrix<R>& a, std::size_t i0, std::size_t j0,
                    std::size_t rows, std::size_t cols) {
  Matrix<R> out(rows, cols, r.zero());
  for (std::size_t i = 0; i < rows && i0 + i < a.rows(); ++i) {
    for (std::size_t j = 0; j < cols && j0 + j < a.cols(); ++j) {
      out.at(i, j) = a.at(i0 + i, j0 + j);
    }
  }
  return out;
}

template <kp::field::CommutativeRing R>
void paste(Matrix<R>& dst, const Matrix<R>& src, std::size_t i0, std::size_t j0) {
  for (std::size_t i = 0; i < src.rows() && i0 + i < dst.rows(); ++i) {
    for (std::size_t j = 0; j < src.cols() && j0 + j < dst.cols(); ++j) {
      dst.at(i0 + i, j0 + j) = src.at(i, j);
    }
  }
}

/// Strassen recursion on square matrices padded to a power-of-two size.
template <kp::field::CommutativeRing R>
Matrix<R> mul_strassen_pow2(const R& r, const Matrix<R>& a, const Matrix<R>& b,
                            std::size_t threshold) {
  const std::size_t n = a.rows();
  if (n <= threshold) return mul_classical(r, a, b);
  const std::size_t h = n / 2;
  const Matrix<R> a11 = submatrix(r, a, 0, 0, h, h), a12 = submatrix(r, a, 0, h, h, h);
  const Matrix<R> a21 = submatrix(r, a, h, 0, h, h), a22 = submatrix(r, a, h, h, h, h);
  const Matrix<R> b11 = submatrix(r, b, 0, 0, h, h), b12 = submatrix(r, b, 0, h, h, h);
  const Matrix<R> b21 = submatrix(r, b, h, 0, h, h), b22 = submatrix(r, b, h, h, h, h);

  const Matrix<R> m1 =
      mul_strassen_pow2(r, mat_add(r, a11, a22), mat_add(r, b11, b22), threshold);
  const Matrix<R> m2 = mul_strassen_pow2(r, mat_add(r, a21, a22), b11, threshold);
  const Matrix<R> m3 = mul_strassen_pow2(r, a11, mat_sub(r, b12, b22), threshold);
  const Matrix<R> m4 = mul_strassen_pow2(r, a22, mat_sub(r, b21, b11), threshold);
  const Matrix<R> m5 = mul_strassen_pow2(r, mat_add(r, a11, a12), b22, threshold);
  const Matrix<R> m6 =
      mul_strassen_pow2(r, mat_sub(r, a21, a11), mat_add(r, b11, b12), threshold);
  const Matrix<R> m7 =
      mul_strassen_pow2(r, mat_sub(r, a12, a22), mat_add(r, b21, b22), threshold);

  Matrix<R> out(n, n, r.zero());
  paste(out, mat_add(r, mat_sub(r, mat_add(r, m1, m4), m5), m7), 0, 0);
  paste(out, mat_add(r, m3, m5), 0, h);
  paste(out, mat_add(r, m2, m4), h, 0);
  paste(out, mat_add(r, mat_add(r, mat_sub(r, m1, m2), m3), m6), h, h);
  return out;
}

}  // namespace detail

/// General matrix product with the requested kernel.  Strassen handles
/// rectangular/odd shapes by zero-padding up to the enclosing power of two.
template <kp::field::CommutativeRing R>
Matrix<R> mat_mul(const R& r, const Matrix<R>& a, const Matrix<R>& b,
                  MatMulStrategy strategy = MatMulStrategy::kClassical,
                  std::size_t strassen_threshold = 32) {
  assert(a.cols() == b.rows());
  if (strategy == MatMulStrategy::kClassical) {
    return detail::mul_classical(r, a, b);
  }
  std::size_t n = 1;
  while (n < a.rows() || n < a.cols() || n < b.cols()) n <<= 1;
  if (n <= strassen_threshold) return detail::mul_classical(r, a, b);
  // Already-square power-of-two inputs need no pad copies (and the product
  // is already the requested shape, so no final trim either).
  if (a.rows() == n && a.cols() == n && b.rows() == n && b.cols() == n) {
    return detail::mul_strassen_pow2(r, a, b, strassen_threshold);
  }
  const Matrix<R> pa = detail::submatrix(r, a, 0, 0, n, n);
  const Matrix<R> pb = detail::submatrix(r, b, 0, 0, n, n);
  const Matrix<R> prod = detail::mul_strassen_pow2(r, pa, pb, strassen_threshold);
  return detail::submatrix(r, prod, 0, 0, a.rows(), b.cols());
}

}  // namespace kp::matrix
