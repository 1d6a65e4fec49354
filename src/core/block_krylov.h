// Block Krylov projections for the block-Wiedemann route.
//
// The scalar iterative route drives 2n sequential black-box products
// u A^i v one vector at a time; at sparse sizes below the parallel grain
// every one of them runs serial and the pool sits idle.  Blocking by b
// (Coppersmith's block Wiedemann; Kaltofen's analysis and
// Eberly-Giesbrecht-Giorgi-Storjohann-Villard's block projections,
// PAPERS.md) replaces them with ~2n/b block steps
//
//   S_i = Ut . A^i . V          (S_i is b x b, Ut is b x n, V is n x b)
//
// where each step is one apply_many over the right block -- one SpMM pass
// over a CSR product's rows, one batched mul_many against a cached
// Toeplitz/Hankel spectrum -- plus a b x b batch
// of SIMD dot products for the left projection.  Total apply work is
// unchanged; the win is that every step saturates the ExecutionContext pool
// and traverses the operator's data once per block instead of once per
// vector.  All chunk boundaries depend only on (n, b), never on the worker
// count: results are bit-identical for 1..N workers.
//
// The b x b sequence feeds seq::matrix_berlekamp_massey; the solve on top
// of its generator is block_wiedemann_solve_status (core/wiedemann.h).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "field/concepts.h"
#include "field/kernels.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "pram/parallel_for.h"
#include "seq/matrix_berlekamp_massey.h"
#include "util/op_count.h"
#include "util/prng.h"

namespace kp::core {

namespace detail {

/// dst[i] += coef * src[i]; fused bulk-counted loop for word-sized prime
/// fields, element-identical generic loop otherwise (see field/kernels.h
/// contract).
template <kp::field::Field F>
void axpy_add(const F& f, typename F::Element* dst,
              const typename F::Element* src, std::size_t len,
              const typename F::Element& coef) {
  if (len == 0) return;
  if constexpr (kp::field::kernels::FastField<F>) {
    kp::util::count_muls(len);
    kp::util::count_adds(len);
    const std::uint64_t p = kp::field::FieldKernels<F>::barrett(f).p;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t t = kp::field::kernels::mul_uncounted(f, coef, src[i]);
      const std::uint64_t s = dst[i] + t;
      dst[i] = s >= p ? s - p : s;
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] = f.add(dst[i], f.mul(coef, src[i]));
    }
  }
}

/// Contiguous inner product of length n (the left-projection kernel): the
/// SIMD dot for word-sized prime fields, the linear chain otherwise.  The
/// chain starts from the first product, so both paths charge n
/// multiplications and n - 1 additions.
template <kp::field::Field F>
typename F::Element row_dot(const F& f, const typename F::Element* a,
                            const typename F::Element* b, std::size_t n) {
  if constexpr (kp::field::kernels::FastField<F>) {
    return kp::field::kernels::dot(f, a, b, n);
  } else {
    if (n == 0) return f.zero();
    auto acc = f.mul(a[0], b[0]);
    for (std::size_t i = 1; i < n; ++i) acc = f.add(acc, f.mul(a[i], b[i]));
    return acc;
  }
}

}  // namespace detail

/// Draws a b x n block of left-projection rows with entries from the sample
/// set S (the rows are the b left vectors, stored contiguously so the
/// projection dots are stride-1 on both sides).
template <kp::field::Field F>
matrix::Matrix<F> random_block_rows(const F& f, std::size_t b, std::size_t n,
                                    kp::util::Prng& prng, std::uint64_t s) {
  matrix::Matrix<F> ut(b, n, f.zero());
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < n; ++j) ut.at(i, j) = f.sample(prng, s);
  }
  return ut;
}

/// Draws b random n-vectors with entries from the sample set S.
template <kp::field::Field F>
std::vector<std::vector<typename F::Element>> random_block_columns(
    const F& f, std::size_t b, std::size_t n, kp::util::Prng& prng,
    std::uint64_t s) {
  std::vector<std::vector<typename F::Element>> v(b);
  for (auto& col : v) {
    col.resize(n);
    for (auto& e : col) e = f.sample(prng, s);
  }
  return v;
}

/// The b x b left projection Ut . X of a block X of columns.  The b^2 dots
/// are independent; above the parallel grain they are chunked over the pool
/// with boundaries that depend only on (b, n).
template <kp::field::Field F>
matrix::Matrix<F> block_project(
    const F& f, const matrix::Matrix<F>& ut,
    const std::vector<std::vector<typename F::Element>>& x) {
  const std::size_t b = ut.rows();
  const std::size_t n = ut.cols();
  matrix::Matrix<F> s(b, x.size(), f.zero());
  auto cell = [&](std::size_t idx) {
    const std::size_t r = idx / x.size();
    const std::size_t c = idx % x.size();
    assert(x[c].size() == n);
    s.at(r, c) = detail::row_dot(f, ut.row(r), x[c].data(), n);
  };
  if (kp::field::concurrent_ops_v<F> && b * x.size() > 1 &&
      b * x.size() * n >= matrix::kParallelGrain) {
    kp::pram::parallel_for(0, b * x.size(), cell);
  } else {
    for (std::size_t idx = 0; idx < b * x.size(); ++idx) cell(idx);
  }
  return s;
}

/// Computes the block Krylov sequence {S_i = Ut . A^i . V : 0 <= i < count}
/// iteratively: (count - 1) block applies (each one apply_many through the
/// operator's batch path) and count b x b projection batches.
template <kp::field::Field F, matrix::LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
std::vector<matrix::Matrix<F>> block_krylov_sequence(
    const F& f, const B& box,
    const matrix::Matrix<F>& ut,
    const std::vector<std::vector<typename F::Element>>& v,
    std::size_t count) {
  std::vector<matrix::Matrix<F>> seq;
  seq.reserve(count);
  auto x = v;
  for (std::size_t i = 0; i < count; ++i) {
    if (i) x = matrix::apply_columns(box, x);
    seq.push_back(block_project(f, ut, x));
  }
  return seq;
}

/// V . c: the n-vector sum_k c[k] v_k of a block against a K^b coefficient.
template <kp::field::Field F>
std::vector<typename F::Element> block_combine(
    const F& f, const std::vector<std::vector<typename F::Element>>& v,
    const std::vector<typename F::Element>& coeff) {
  assert(!v.empty() && coeff.size() == v.size());
  std::vector<typename F::Element> out(v[0].size(), f.zero());
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (f.eq(coeff[k], f.zero())) continue;
    detail::axpy_add(f, out.data(), v[k].data(), out.size(), coeff[k]);
  }
  return out;
}

}  // namespace kp::core
