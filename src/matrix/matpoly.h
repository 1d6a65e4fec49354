// Evaluation of a polynomial at a matrix argument.
//
// The Theorem-4 solver finishes with the Cayley-Hamilton step
//   x = -(1/c_n) (A^{n-1} b + c_1 A^{n-2} b + ... + c_{n-1} b),
// which only needs matrix-VECTOR products (Horner on the vector).  The
// practical inverse (core/inverse.h) however evaluates the full matrix
// polynomial q(A); Paterson-Stockmeyer does that with O(sqrt(n)) matrix
// products instead of n.
#pragma once

#include <cassert>
#include <cmath>
#include <vector>

#include "matrix/dense.h"
#include "matrix/matmul.h"
#include "poly/poly.h"
#include "poly/transform_cache.h"
#include "pram/parallel_for.h"

namespace kp::matrix {

/// Evaluates p(A) * b with deg(p) matrix-vector products (Horner).
template <kp::field::CommutativeRing R>
std::vector<typename R::Element> matrix_poly_apply(
    const R& r, const Matrix<R>& a, const std::vector<typename R::Element>& coeffs,
    const std::vector<typename R::Element>& b) {
  assert(a.is_square() && a.rows() == b.size());
  std::vector<typename R::Element> acc(b.size(), r.zero());
  for (std::size_t k = coeffs.size(); k-- > 0;) {
    acc = mat_vec(r, a, acc);
    for (std::size_t i = 0; i < b.size(); ++i) {
      acc[i] = r.add(acc[i], r.mul(coeffs[k], b[i]));
    }
  }
  return acc;
}

/// Multiplies two matrices of POLYNOMIALS entirely in the transform domain.
///
/// Every operand entry is forward-transformed once at one common padded
/// size -- all (rows*m + m*cols) transforms batched over the pool with
/// ntt_many -- each output entry C_ij = sum_k A_ik * B_kj is accumulated
/// POINTWISE in the transform domain (the NTT is linear, so the inverse of
/// the pointwise sum is exactly the coefficient-domain sum), and only
/// rows*cols inverse transforms run.  Values are identical to
/// mat_mul over PolyRing<R>; the operation count is genuinely smaller (an
/// algorithmic change, unlike the op-neutral TransformedPoly caching):
/// rm + mc + rc transforms instead of the 3rmc of entrywise products.
/// Coefficient rings without a usable NTT (or too-small operands) fall back
/// to mat_mul.  Works for base fields and, via Kronecker packing, for
/// TruncSeriesRing coefficients.
template <kp::field::CommutativeRing R>
Matrix<kp::poly::PolyRing<R>> matpoly_mul(
    const kp::poly::PolyRing<R>& ring, const Matrix<kp::poly::PolyRing<R>>& a,
    const Matrix<kp::poly::PolyRing<R>>& b) {
  using S = kp::poly::SplitMul<R>;
  using PR = kp::poly::PolyRing<R>;
  assert(a.cols() == b.rows());
  if constexpr (!S::kSupported) {
    return mat_mul(ring, a, b);
  } else {
    using F = typename S::Field;
    using FE = typename F::Element;
    const R& r = ring.base();
    const F& f = S::base(r);
    const std::size_t rows = a.rows(), m = a.cols(), cols = b.cols();

    // Pack every entry and size the single shared transform.
    std::vector<std::vector<FE>> pa(rows * m), pb(m * cols);
    std::size_t max_a = 0, max_b = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t k = 0; k < m; ++k) {
        pa[i * m + k] = S::pack(r, a.at(i, k));
        max_a = std::max(max_a, pa[i * m + k].size());
      }
    }
    for (std::size_t k = 0; k < m; ++k) {
      for (std::size_t j = 0; j < cols; ++j) {
        pb[k * cols + j] = S::pack(r, b.at(k, j));
        max_b = std::max(max_b, pb[k * cols + j].size());
      }
    }
    Matrix<PR> out(rows, cols, ring.zero());
    if (max_a == 0 || max_b == 0) return out;  // a zero factor
    const std::size_t out_len_packed = max_a + max_b - 1;
    std::size_t n = 1;
    while (n < out_len_packed) n <<= 1;
    if (out_len_packed < 16 ||
        !kp::poly::NttTraits<F>::available(f, out_len_packed)) {
      return mat_mul(ring, a, b);
    }
    const auto tables = kp::poly::detail::ntt_tables(f.characteristic(), n);

    // One batched forward pass over every operand entry.
    std::vector<std::vector<FE>*> batch;
    batch.reserve(pa.size() + pb.size());
    for (auto& v : pa) {
      v.resize(n, f.zero());
      batch.push_back(&v);
    }
    for (auto& v : pb) {
      v.resize(n, f.zero());
      batch.push_back(&v);
    }
    kp::poly::ntt_many(f, batch, tables->forward);
    kp::poly::detail::transform_counters().forward.fetch_add(
        batch.size(), std::memory_order_relaxed);

    // Accumulate + inverse-transform + unpack each output entry; entries
    // are independent, so they form one pool region.
    const auto compute = [&](std::size_t idx) {
      const std::size_t i = idx / cols, j = idx % cols;
      std::size_t out_len = 0;  // ring-level product length for unpacking
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t la = a.at(i, k).size(), lb = b.at(k, j).size();
        if (la && lb) out_len = std::max(out_len, la + lb - 1);
      }
      if (out_len == 0) return;  // whole row-by-column is zero
      std::vector<FE> acc(n, f.zero());
      for (std::size_t k = 0; k < m; ++k) {
        const auto& fa = pa[i * m + k];
        const auto& fb = pb[k * cols + j];
        for (std::size_t t = 0; t < n; ++t) {
          acc[t] = f.add(acc[t], f.mul(fa[t], fb[t]));
        }
      }
      kp::poly::detail::ntt_inplace(f, acc, tables->inverse);
      const auto n_inv = f.inv(f.from_int(static_cast<std::int64_t>(n)));
      for (auto& c : acc) c = f.mul(c, n_inv);
      auto entry = S::unpack(r, std::move(acc), out_len);
      ring.strip(entry);
      out.at(i, j) = std::move(entry);
    };
    if (kp::field::concurrent_ops_v<F> && rows * cols > 1) {
      kp::pram::parallel_for(0, rows * cols, compute);
    } else {
      for (std::size_t idx = 0; idx < rows * cols; ++idx) compute(idx);
    }
    kp::poly::detail::transform_counters().inverse.fetch_add(
        rows * cols, std::memory_order_relaxed);
    return out;
  }
}

/// Paterson-Stockmeyer evaluation of p(A) using ~2*sqrt(deg) matrix
/// multiplications: split p into blocks of size s, precompute A^0..A^s,
/// and Horner over A^s with matrix coefficients.
template <kp::field::CommutativeRing R>
Matrix<R> matrix_poly_eval(const R& r, const Matrix<R>& a,
                           const std::vector<typename R::Element>& coeffs,
                           MatMulStrategy strategy = MatMulStrategy::kClassical) {
  assert(a.is_square());
  const std::size_t n = a.rows();
  if (coeffs.empty()) return zero_matrix(r, n, n);

  const std::size_t deg = coeffs.size() - 1;
  const std::size_t s =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(deg + 1)))));

  // Powers A^0 .. A^s.
  std::vector<Matrix<R>> pw;
  pw.reserve(s + 1);
  pw.push_back(identity_matrix(r, n));
  for (std::size_t i = 1; i <= s; ++i) {
    pw.push_back(mat_mul(r, pw.back(), a, strategy));
  }

  // Horner over A^s: result = sum_k Block_k(A) * (A^s)^k.
  const std::size_t blocks = (coeffs.size() + s - 1) / s;
  Matrix<R> acc = zero_matrix(r, n, n);
  for (std::size_t blk = blocks; blk-- > 0;) {
    if (blk + 1 < blocks) acc = mat_mul(r, acc, pw[s], strategy);
    for (std::size_t j = 0; j < s; ++j) {
      const std::size_t idx = blk * s + j;
      if (idx >= coeffs.size() || r.eq(coeffs[idx], r.zero())) continue;
      // acc += coeffs[idx] * A^j
      for (std::size_t e = 0; e < acc.data().size(); ++e) {
        acc.data()[e] = r.add(acc.data()[e], r.mul(coeffs[idx], pw[j].data()[e]));
      }
    }
  }
  return acc;
}

}  // namespace kp::matrix
