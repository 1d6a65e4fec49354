// The commutative ring K[[lambda]] / lambda^prec of truncated power series.
//
// Section 3 of the paper runs Newton's iteration on the Toeplitz matrix
// T(lambda) = I - lambda*T "viewed as a Toeplitz matrix with entries in the
// field of extended power series".  Truncation to the working precision
// makes the entries a plain commutative ring, so the library's generic
// polynomial and matrix code applies unchanged: a Toeplitz matrix of series
// is just a PolyRing<TruncSeriesRing<F>> element, and the bivariate
// multiplication cost the paper cites falls out of composing the two layers.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "field/concepts.h"
#include "poly/ntt.h"
#include "poly/poly_ring.h"
#include "poly/series.h"
#include "poly/transform_cache.h"
#include "util/prng.h"

namespace kp::poly {

/// Truncated power series over a field F, with ring-element precision fixed
/// at construction.  Elements are stripped coefficient vectors of length
/// <= prec (the zero series is the empty vector).
template <kp::field::Field F>
class TruncSeriesRing {
 public:
  using Element = std::vector<typename F::Element>;

  TruncSeriesRing(F base, std::size_t prec)
      : ring_(std::move(base)), prec_(prec) {
    assert(prec_ >= 1);
  }

  const F& base() const { return ring_.base(); }
  const PolyRing<F>& poly_ring() const { return ring_; }
  std::size_t precision() const { return prec_; }

  Element zero() const { return {}; }
  Element one() const { return ring_.one(); }
  Element add(const Element& a, const Element& b) const { return ring_.add(a, b); }
  Element sub(const Element& a, const Element& b) const { return ring_.sub(a, b); }
  Element neg(const Element& a) const { return ring_.neg(a); }
  Element mul(const Element& a, const Element& b) const {
    return ring_.truncate(ring_.mul(a, b), prec_);
  }
  bool is_zero(const Element& a) const { return a.empty(); }
  bool eq(const Element& a, const Element& b) const { return ring_.eq(a, b); }
  Element from_int(std::int64_t v) const { return ring_.from_int(v); }
  Element random(kp::util::Prng& prng) const {
    return ring_.random_degree(prng, static_cast<std::int64_t>(prec_) - 1);
  }
  std::string to_string(const Element& a) const { return ring_.to_string(a); }

  /// True when a is a unit of the ring (non-zero constant term).
  bool is_unit(const Element& a) const {
    return !a.empty() && !base().eq(a[0], base().zero());
  }
  /// Inverse of a unit (Newton iteration to the ring precision).
  Element inv_unit(const Element& a) const {
    assert(is_unit(a));
    return series_inverse(ring_, a, prec_);
  }
  /// The monomial lambda (zero if the precision is 1).
  Element lambda() const {
    if (prec_ < 2) return {};
    return Element{base().zero(), base().one()};
  }
  /// Coefficient of lambda^i.
  typename F::Element coeff(const Element& a, std::size_t i) const {
    return i < a.size() ? a[i] : base().zero();
  }
  /// Embeds a field element as a constant series.
  Element embed(const typename F::Element& c) const {
    Element out{c};
    ring_.strip(out);
    return out;
  }

 private:
  PolyRing<F> ring_;
  std::size_t prec_;
};

/// Fast bivariate multiplication: a polynomial over TruncSeriesRing<F> is
/// multiplied by KRONECKER SUBSTITUTION lambda-degree blocks of width
/// L = 2*prec (product series never overflow a block), reducing the job to
/// ONE univariate product over F -- which uses the base field's NTT when
/// available.  This is the library's stand-in for the Cantor-Kaltofen
/// bivariate multiplication the paper cites: it is what makes the
/// section-3 Newton iteration cost O(n * prec * polylog) instead of the
/// O((n * prec)^1.58) of nested Karatsuba.
template <kp::field::Field F>
struct NttTraits<TruncSeriesRing<F>> {
  using SR = TruncSeriesRing<F>;
  static constexpr bool kSupported = NttTraits<F>::kSupported;

  static std::size_t block(const SR& sr) { return 2 * sr.precision(); }

  static bool available(const SR& sr, std::size_t out_len) {
    if (!NttTraits<F>::kSupported) return false;
    return NttTraits<F>::available(sr.base(), out_len * block(sr));
  }

  /// Kronecker packing into one base-field vector (lambda-degree blocks of
  /// width L); performs no counted field ops, so SplitMul may cache it.
  static std::vector<typename F::Element> pack(
      const SR& sr, const std::vector<typename SR::Element>& v) {
    const F& f = sr.base();
    const std::size_t L = block(sr);
    std::vector<typename F::Element> out(v.size() * L, f.zero());
    for (std::size_t i = 0; i < v.size(); ++i) {
      for (std::size_t k = 0; k < v[i].size(); ++k) out[i * L + k] = v[i][k];
    }
    while (!out.empty() && f.eq(out.back(), f.zero())) out.pop_back();
    return out;
  }

  /// Splits the univariate product back into out_len series of the ring
  /// precision (product blocks never overflow L = 2*prec).
  static std::vector<typename SR::Element> unpack(
      const SR& sr, const std::vector<typename F::Element>& prod,
      std::size_t out_len) {
    const F& f = sr.base();
    const std::size_t L = block(sr);
    std::vector<typename SR::Element> out(out_len);
    for (std::size_t i = 0; i < out_len; ++i) {
      typename SR::Element chunk;
      const std::size_t base = i * L;
      const std::size_t hi = std::min(base + sr.precision(), prod.size());
      for (std::size_t k = base; k < hi; ++k) chunk.push_back(prod[k]);
      while (!chunk.empty() && f.eq(chunk.back(), f.zero())) chunk.pop_back();
      out[i] = std::move(chunk);
    }
    return out;
  }

  static std::vector<typename SR::Element> mul(
      const SR& sr, const std::vector<typename SR::Element>& a,
      const std::vector<typename SR::Element>& b) {
    const auto pa = pack(sr, a);
    const auto pb = pack(sr, b);
    const std::size_t out_len = a.size() + b.size() - 1;
    if (pa.empty() || pb.empty()) {
      return std::vector<typename SR::Element>(out_len);
    }
    return unpack(sr, NttTraits<F>::mul(sr.base(), pa, pb), out_len);
  }
};

/// Transform caching for polynomials of truncated series: the packed
/// (Kronecker) form lives in the base field, so a fixed bivariate operand's
/// spectrum is cached exactly like a univariate one.  Enabled under the same
/// conditions the bivariate NTT is.
template <kp::field::Field F>
struct SplitMul<TruncSeriesRing<F>> {
  using SR = TruncSeriesRing<F>;
  using Field = F;
  static constexpr bool kSupported =
      ntt_direct_v<F> && kp::field::concurrent_ops_v<F>;
  static const F& base(const SR& sr) { return sr.base(); }
  static bool available(const SR& sr, std::size_t out_len) {
    return NttTraits<SR>::available(sr, out_len);
  }
  static std::vector<typename F::Element> pack(
      const SR& sr, const std::vector<typename SR::Element>& v) {
    return NttTraits<SR>::pack(sr, v);
  }
  static std::vector<typename SR::Element> unpack(
      const SR& sr, std::vector<typename F::Element>&& prod,
      std::size_t out_len) {
    return NttTraits<SR>::unpack(sr, prod, out_len);
  }
  /// Packed coefficients are series coefficients of Kronecker blocks, so a
  /// middle product takes the whole packed product and slices it.
  static constexpr bool kIdentityPacking = false;
};

}  // namespace kp::poly
