// Section 3: characteristic polynomial of a Toeplitz matrix (Theorem 3).
//
// The pipeline, exactly as in the paper:
//
//   1. Run Newton's iteration (3)  X <- X (2I - B X)  on B = T(lambda) =
//      I - lambda*T, over truncated power series, maintaining only the FIRST
//      and LAST columns of X_i through the Gohberg-Semencul formula (5)/(6).
//      After ceil(log2(n+1)) steps X = (I - lambda T)^{-1} mod lambda^{n+1}
//      = sum_i T^i lambda^i.
//   2. Read off Trace(X) mod lambda^{n+1} = sum_i Trace(T^i) lambda^i with
//      the O(n) Gohberg-Semencul trace formula: the power sums s_i.
//   3. Solve the Newton-identity system (Leverrier/Csanky step) for the
//      characteristic polynomial; this divides by 2..n, hence the
//      characteristic restriction.
//
// Work is O(n^2 polylog n) field operations -- quadratic in n, versus the
// O(n^3) of Gaussian elimination on a dense copy and the O(n^4) of
// division-free methods; bench_toeplitz_charpoly measures the exponent.
//
// From the characteristic polynomial p, T^{-1} b is one Cayley-Hamilton
// combination of Toeplitz-vector products (detail::charpoly_inverse_apply):
// toeplitz_solve_charpoly applies it to b, gs_from_toeplitz to e_1 and e_n.
#pragma once

#include <vector>

#include "field/concepts.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "seq/gohberg_semencul.h"
#include "seq/newton_identities.h"
#include "util/fault.h"

namespace kp::seq {

/// First and last columns of (I - lambda T)^{-1} mod lambda^prec, as vectors
/// of truncated power series, plus the unit inverse of the (1,1) entry.
/// This is the engine behind Theorem 3 and the Chistov extension.
template <kp::field::Field F>
struct ToeplitzSeriesInverse {
  using SR = kp::poly::TruncSeriesRing<F>;
  std::vector<typename SR::Element> first_col;
  std::vector<typename SR::Element> last_col;
  typename SR::Element u1_inv;
};

/// Runs the section-3 Newton iteration.  `t` is n x n; `prec` is the series
/// truncation (n+1 for the characteristic polynomial).
template <kp::field::Field F>
ToeplitzSeriesInverse<F> toeplitz_series_inverse(const F& f,
                                                 const matrix::Toeplitz<F>& t,
                                                 std::size_t prec) {
  using SR = kp::poly::TruncSeriesRing<F>;
  using SE = typename SR::Element;
  const std::size_t n = t.dim();

  // X_0 = I: first column e_1, last column e_n (constant series).
  std::vector<SE> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = SE{};
    y[i] = SE{};
  }
  x[0] = SE{f.one()};
  y[n - 1] = SE{f.one()};

  // Running inverse of u_1 = x[0], maintained INCREMENTALLY: the paper notes
  // that the expansion of 1/u_1 to the doubled order "can be obtained from
  // the first 2^i terms of this expansion ... with 2 Newton iteration
  // steps".  Recomputing it from scratch each round would put an
  // O(log^2 n)-deep sub-iteration inside every round and break the overall
  // O(log^2 n) circuit depth.
  kp::poly::PolyRing<F> fring(f);
  SE u1_inv{f.one()};
  // Refines u1_inv to accuracy `target` against the current x[0].  x0 is
  // the fixed factor of both Newton steps, so its forward transform is
  // cached across them (op counts charged as if recomputed).
  auto refine_u1_inv = [&](std::size_t target) {
    const kp::poly::TransformedPoly<F> x0(fring, fring.truncate(x[0], target));
    for (int step = 0; step < 2; ++step) {
      auto prod = fring.truncate(x0.mul(fring, u1_inv), target);
      auto corr = fring.sub(fring.from_int(2), prod);
      u1_inv = fring.truncate(fring.mul(u1_inv, corr), target);
    }
  };

  for (std::size_t p = 1; p < prec;) {
    p = std::min(2 * p, prec);
    SR sr(f, p);
    kp::poly::PolyRing<SR> biv(sr);
    // u1_inv must satisfy u1_inv * x[0] = 1 mod lambda^p EXACTLY (not just
    // to the columns' accuracy): the Gohberg-Semencul reconstruction's
    // first column is (y_n * u1_inv) * x, and the Newton step only gains
    // precision when that prefactor is 1 mod lambda^p.
    refine_u1_inv(p);

    // B = I - lambda*T as a Toeplitz matrix over the series ring.
    std::vector<SE> b(2 * n - 1);
    for (std::size_t k = 0; k < 2 * n - 1; ++k) {
      SE e;
      if (!f.eq(t.diagonals()[k], f.zero())) {
        e = SE{f.zero(), f.neg(t.diagonals()[k])};  // -lambda * t_k
      }
      if (k == n - 1) e = sr.add(e, sr.one());  // + identity diagonal
      b[k] = std::move(e);
    }
    const matrix::Toeplitz<SR> bt(n, std::move(b));

    // Gohberg-Semencul view of the previous iterate (valid mod lambda^{p/2};
    // u1_inv is accurate to the previous precision, which suffices).
    GohbergSemencul<SR> gs{x, y, u1_inv};

    // col_1(X_new) = 2x - X (B x);   col_n(X_new) = 2y - X (B y).
    // Both columns advance through the SAME fixed operators, so the round
    // is batched: bt's symbol and the four Gohberg-Semencul generator
    // transforms are each forward-transformed once and shared across the
    // pair, and the varying-side transforms of the batch run in parallel.
    const CachedGsApplier<SR> xinv(biv, gs);
    auto bcols = bt.apply_many(biv, {&x, &y});
    auto xbcols = xinv.apply_many(biv, {&bcols[0], &bcols[1]});
    const SE two = sr.from_int(2);
    auto combine = [&](const std::vector<SE>& col,
                       const std::vector<SE>& xbcol) {
      std::vector<SE> out(n);
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = sr.sub(sr.mul(two, col[i]), xbcol[i]);
      }
      return out;
    };
    auto nx = combine(x, xbcols[0]);
    auto ny = combine(y, xbcols[1]);
    x = std::move(nx);
    y = std::move(ny);
  }
  // Final catch-up against the final first column.
  refine_u1_inv(prec);

  return {std::move(x), std::move(y), std::move(u1_inv)};
}

/// Power sums s_0..s_{prec-1}, s_i = Trace(T^i), via the series inverse and
/// the Gohberg-Semencul trace formula.
template <kp::field::Field F>
std::vector<typename F::Element> toeplitz_power_sums(const F& f,
                                                     const matrix::Toeplitz<F>& t,
                                                     std::size_t prec) {
  using SR = kp::poly::TruncSeriesRing<F>;
  auto inv = toeplitz_series_inverse(f, t, prec);
  SR sr(f, prec);
  GohbergSemencul<SR> gs{std::move(inv.first_col), std::move(inv.last_col),
                         std::move(inv.u1_inv)};
  const auto trace_series = gs.trace(sr);
  std::vector<typename F::Element> s(prec, f.zero());
  for (std::size_t i = 0; i < prec; ++i) s[i] = sr.coeff(trace_series, i);
  return s;
}

/// Theorem 3: the monic characteristic polynomial det(lambda I - T),
/// little-endian, length n+1.  Requires char(K) = 0 or > n.
template <kp::field::Field F>
std::vector<typename F::Element> toeplitz_charpoly(
    const F& f, const matrix::Toeplitz<F>& t,
    NewtonIdentityMethod method = NewtonIdentityMethod::kTriangularSolve) {
  const std::size_t n = t.dim();
  auto s = toeplitz_power_sums(f, t, n + 1);
  // charpoly_from_power_sums wants s_1..s_n.
  std::vector<typename F::Element> s1(s.begin() + 1, s.end());
  return charpoly_from_power_sums(f, s1, method);
}

/// Determinant of a Toeplitz matrix from its characteristic polynomial:
/// det(T) = (-1)^n * p(0).
template <kp::field::Field F>
typename F::Element toeplitz_det(
    const F& f, const matrix::Toeplitz<F>& t,
    NewtonIdentityMethod method = NewtonIdentityMethod::kTriangularSolve) {
  const auto p = toeplitz_charpoly(f, t, method);
  const auto p0 = p[0];
  return (t.dim() % 2 == 0) ? p0 : f.neg(p0);
}

namespace detail {

/// The Cayley-Hamilton apply of T^{-1}: with p(T) = 0 and scale = -1/p_0,
/// T^{-1} b = scale * sum_{k>=1} p_k T^{k-1} b -- n - 1 Toeplitz-vector
/// products (O(n M(n)) work).  `p` is T's characteristic polynomial.
template <kp::field::Field F>
std::vector<typename F::Element> charpoly_inverse_apply(
    const F& f, const matrix::Toeplitz<F>& t, const kp::poly::PolyRing<F>& ring,
    const std::vector<typename F::Element>& p, const typename F::Element& scale,
    std::vector<typename F::Element> b) {
  const std::size_t n = t.dim();
  std::vector<typename F::Element> acc(n, f.zero());
  for (std::size_t k = 1; k <= n; ++k) {
    if (k > 1) b = t.apply(ring, b);
    if (f.eq(p[k], f.zero())) continue;
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = f.add(acc[i], f.mul(p[k], b[i]));
    }
  }
  for (auto& e : acc) e = f.mul(e, scale);
  return acc;
}

}  // namespace detail

/// Solves T x = b for a non-singular Toeplitz matrix via Cayley-Hamilton
/// (detail::charpoly_inverse_apply on Theorem 3's characteristic
/// polynomial).  Returns an empty vector when the characteristic polynomial
/// reports det(T) = 0, or when dim(b) != dim(T).
template <kp::field::Field F>
std::vector<typename F::Element> toeplitz_solve_charpoly(
    const F& f, const matrix::Toeplitz<F>& t,
    const std::vector<typename F::Element>& b,
    const kp::poly::PolyRing<F>& ring,
    NewtonIdentityMethod method = NewtonIdentityMethod::kTriangularSolve) {
  if (b.size() != t.dim()) return {};
  const auto p = toeplitz_charpoly(f, t, method);
  if (KP_FAULT_POINT(kp::util::Stage::kNewtonToeplitz) || f.is_zero(p[0])) {
    return {};
  }
  return detail::charpoly_inverse_apply(f, t, ring, p, f.neg(f.inv(p[0])), b);
}

/// Gohberg-Semencul representation through the section-3 machinery: ONE
/// characteristic-polynomial computation, then both defining columns by the
/// Cayley-Hamilton combination -- O(n^2 polylog) work total, against the
/// O(n^3) of the Gaussian reference constructor (gs_from_toeplitz_gauss).
/// Returns nullopt when T is singular or (T^{-1})_{1,1} = 0.
template <kp::field::Field F>
std::optional<GohbergSemencul<F>> gs_from_toeplitz(
    const F& f, const matrix::Toeplitz<F>& t, const kp::poly::PolyRing<F>& ring,
    NewtonIdentityMethod method = NewtonIdentityMethod::kTriangularSolve) {
  const std::size_t n = t.dim();
  const auto p = toeplitz_charpoly(f, t, method);
  if (KP_FAULT_POINT(kp::util::Stage::kGohbergSemencul) ||
      f.is_zero(p[0])) {
    return std::nullopt;  // singular
  }
  const auto scale = f.neg(f.inv(p[0]));

  std::vector<typename F::Element> e1(n, f.zero()), en(n, f.zero());
  e1[0] = f.one();
  en[n - 1] = f.one();
  auto u = detail::charpoly_inverse_apply(f, t, ring, p, scale, std::move(e1));
  if (KP_FAULT_POINT(kp::util::Stage::kGohbergSemencul) ||
      f.is_zero(u[0])) {
    return std::nullopt;  // (T^{-1})_{1,1} = 0
  }
  auto y = detail::charpoly_inverse_apply(f, t, ring, p, scale, std::move(en));
  auto u1_inv = f.inv(u[0]);
  return GohbergSemencul<F>{std::move(u), std::move(y), std::move(u1_inv)};
}

}  // namespace kp::seq
