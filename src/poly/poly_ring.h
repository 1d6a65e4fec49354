// Dense univariate polynomials over an arbitrary commutative ring.
//
// PolyRing<R> is itself a CommutativeRing domain whose elements are
// coefficient vectors over R, so the library's generic code composes:
// polynomials over a field, polynomials over truncated power series (the
// bivariate arithmetic of section 3), and so on.
//
// Multiplication is a pluggable strategy: schoolbook for small operands,
// Karatsuba above a threshold, and -- when the coefficient ring advertises
// NTT capability via NttTraits (see poly/ntt.h) -- a number-theoretic
// transform.  This mirrors the paper's use of Cantor-Kaltofen polynomial
// multiplication as a black box.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "field/concepts.h"
#include "util/prng.h"

namespace kp::poly {

/// Which multiplication kernel PolyRing::mul dispatches to.
enum class MulStrategy {
  kAuto,        ///< schoolbook below threshold, else NTT if available, else Karatsuba
  kSchoolbook,  ///< always O(n^2)
  kKaratsuba,   ///< always O(n^1.585)
  kNtt,         ///< always NTT (asserts the ring supports it)
};

/// Customization point: rings that support a radix-2 NTT specialize this.
/// The primary template reports "unavailable".
template <class R>
struct NttTraits {
  static constexpr bool kSupported = false;
  static bool available(const R&, std::size_t) { return false; }
  static std::vector<typename R::Element> mul(
      const R&, const std::vector<typename R::Element>&,
      const std::vector<typename R::Element>&) {
    return {};
  }
};

/// The polynomial ring R[x].  Elements are little-endian coefficient vectors
/// with no trailing zeros (the zero polynomial is the empty vector).
template <kp::field::CommutativeRing R>
class PolyRing {
 public:
  using Coeff = typename R::Element;
  using Element = std::vector<Coeff>;

  explicit PolyRing(R base, MulStrategy strategy = MulStrategy::kAuto,
                    std::size_t karatsuba_threshold = 24)
      : base_(std::move(base)),
        strategy_(strategy),
        karatsuba_threshold_(karatsuba_threshold) {}

  const R& base() const { return base_; }
  MulStrategy strategy() const { return strategy_; }
  std::size_t karatsuba_threshold() const { return karatsuba_threshold_; }

  // --- ring interface -------------------------------------------------------

  Element zero() const { return {}; }
  Element one() const { return {base_.one()}; }

  Element add(const Element& a, const Element& b) const {
    Element out(std::max(a.size(), b.size()), base_.zero());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const Coeff& av = i < a.size() ? a[i] : out[i];  // out[i] is zero here
      out[i] = i < b.size() ? base_.add(av, b[i]) : av;
    }
    strip(out);
    return out;
  }
  Element sub(const Element& a, const Element& b) const {
    Element out(std::max(a.size(), b.size()), base_.zero());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const Coeff av = i < a.size() ? a[i] : base_.zero();
      out[i] = i < b.size() ? base_.sub(av, b[i]) : av;
    }
    strip(out);
    return out;
  }
  Element neg(const Element& a) const {
    Element out(a.size(), base_.zero());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = base_.neg(a[i]);
    return out;
  }
  Element mul(const Element& a, const Element& b) const {
    if (a.empty() || b.empty()) return {};
    Element out;
    switch (strategy_) {
      case MulStrategy::kSchoolbook:
        out = mul_schoolbook(a, b);
        break;
      case MulStrategy::kKaratsuba:
        out = std::min(a.size(), b.size()) <= 2 ? mul_schoolbook(a, b)
                                                : mul_karatsuba(a, b);
        break;
      case MulStrategy::kNtt:
        assert(NttTraits<R>::available(base_, a.size() + b.size() - 1));
        out = NttTraits<R>::mul(base_, a, b);
        break;
      case MulStrategy::kAuto:
        // NTT from size 8 up whenever the ring supports it (it is op-count
        // competitive well below the Karatsuba threshold, and it keeps the
        // recorded circuits at the quasi-linear sizes the paper assumes);
        // otherwise schoolbook below the threshold and Karatsuba above.
        if (std::min(a.size(), b.size()) >= 8 &&
            NttTraits<R>::available(base_, a.size() + b.size() - 1)) {
          out = NttTraits<R>::mul(base_, a, b);
        } else if (std::min(a.size(), b.size()) < karatsuba_threshold_) {
          out = mul_schoolbook(a, b);
        } else {
          out = mul_karatsuba(a, b);
        }
        break;
    }
    strip(out);
    return out;
  }
  bool is_zero(const Element& a) const { return a.empty(); }
  bool eq(const Element& a, const Element& b) const {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!base_.eq(a[i], b[i])) return false;
    }
    return true;
  }
  Element from_int(std::int64_t v) const {
    Element out{base_.from_int(v)};
    strip(out);
    return out;
  }
  /// Random polynomial of degree < 8 (for the generic-concept contract).
  Element random(kp::util::Prng& prng) const { return random_degree(prng, 7); }
  std::string to_string(const Element& a) const {
    if (a.empty()) return "0";
    std::string out;
    for (std::size_t i = a.size(); i-- > 0;) {
      if (!out.empty()) out += " + ";
      out += base_.to_string(a[i]);
      if (i) out += "*x^" + std::to_string(i);
    }
    return out;
  }

  // --- polynomial-specific utilities ---------------------------------------

  /// deg(a); -1 for the zero polynomial.
  static std::int64_t degree(const Element& a) {
    return static_cast<std::int64_t>(a.size()) - 1;
  }
  /// Leading coefficient; a must be non-zero.
  const Coeff& lead(const Element& a) const {
    assert(!a.empty());
    return a.back();
  }
  /// Coefficient of x^i (zero beyond the degree).
  Coeff coeff(const Element& a, std::size_t i) const {
    return i < a.size() ? a[i] : base_.zero();
  }

  /// Uniformly random polynomial of degree exactly <= max_degree.
  Element random_degree(kp::util::Prng& prng, std::int64_t max_degree) const {
    if (max_degree < 0) return {};
    Element out(static_cast<std::size_t>(max_degree) + 1, base_.zero());
    for (auto& c : out) c = base_.random(prng);
    strip(out);
    return out;
  }

  /// Monic version of a non-zero polynomial (requires R to be a field).
  Element monic(const Element& a) const
    requires kp::field::Field<R>
  {
    assert(!a.empty());
    const Coeff inv_lead = base_.inv(a.back());
    Element out(a.size(), base_.zero());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = base_.mul(a[i], inv_lead);
    return out;
  }

  /// a * x^k.
  Element shift_up(const Element& a, std::size_t k) const {
    if (a.empty()) return {};
    Element out(a.size() + k, base_.zero());
    std::copy(a.begin(), a.end(), out.begin() + static_cast<std::ptrdiff_t>(k));
    return out;
  }
  /// a div x^k (drops the low k coefficients).
  Element shift_down(const Element& a, std::size_t k) const {
    if (a.size() <= k) return {};
    return Element(a.begin() + static_cast<std::ptrdiff_t>(k), a.end());
  }
  /// a mod x^k.
  Element truncate(const Element& a, std::size_t k) const {
    Element out(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(std::min(a.size(), k)));
    strip(out);
    return out;
  }
  /// Reversal x^n * a(1/x) with respect to length n+1 (degree bound n).
  Element reverse(const Element& a, std::size_t n) const {
    Element out(n + 1, base_.zero());
    for (std::size_t i = 0; i < a.size() && i <= n; ++i) out[n - i] = a[i];
    strip(out);
    return out;
  }

  /// Horner evaluation.
  Coeff eval(const Element& a, const Coeff& x) const {
    Coeff acc = base_.zero();
    for (std::size_t i = a.size(); i-- > 0;) {
      acc = base_.add(base_.mul(acc, x), a[i]);
    }
    return acc;
  }

  /// Formal derivative.
  Element derivative(const Element& a) const {
    if (a.size() <= 1) return {};
    Element out(a.size() - 1, base_.zero());
    for (std::size_t i = 1; i < a.size(); ++i) {
      out[i - 1] = base_.mul(a[i], base_.from_int(static_cast<std::int64_t>(i)));
    }
    strip(out);
    return out;
  }

  /// Quotient and remainder; denominator's leading coefficient must be
  /// invertible (R a field, or den monic over a ring).
  std::pair<Element, Element> divmod(const Element& num, const Element& den) const
    requires kp::field::Field<R>
  {
    assert(!den.empty() && "polynomial division by zero");
    if (num.size() < den.size()) return {{}, num};
    Element rem = num;
    Element quot(num.size() - den.size() + 1, base_.zero());
    const Coeff lead_inv = base_.inv(den.back());
    for (std::size_t d = num.size() - 1; d + 1 >= den.size(); --d) {
      const Coeff c = base_.mul(rem[d], lead_inv);
      if (!base_.eq(c, base_.zero())) {
        const std::size_t shift = d - (den.size() - 1);
        quot[shift] = c;
        for (std::size_t i = 0; i < den.size(); ++i) {
          rem[shift + i] = base_.sub(rem[shift + i], base_.mul(c, den[i]));
        }
      }
      if (d == 0) break;
    }
    strip(quot);
    strip(rem);
    return {std::move(quot), std::move(rem)};
  }

  /// Monic greatest common divisor.
  Element gcd(Element a, Element b) const
    requires kp::field::Field<R>
  {
    while (!b.empty()) {
      Element r = divmod(a, b).second;
      a = std::move(b);
      b = std::move(r);
    }
    return a.empty() ? a : monic(a);
  }

  /// Extended Euclid: returns (g, s, t) with s*a + t*b = g = monic gcd(a,b).
  struct Xgcd {
    Element g, s, t;
  };
  Xgcd xgcd(Element a, Element b) const
    requires kp::field::Field<R>
  {
    Element s0 = one(), s1 = zero();
    Element t0 = zero(), t1 = one();
    while (!b.empty()) {
      auto [q, r] = divmod(a, b);
      a = std::move(b);
      b = std::move(r);
      Element s2 = sub(s0, mul(q, s1));
      s0 = std::move(s1);
      s1 = std::move(s2);
      Element t2 = sub(t0, mul(q, t1));
      t0 = std::move(t1);
      t1 = std::move(t2);
    }
    if (a.empty()) return {a, s0, t0};
    const Coeff scale = base_.inv(a.back());
    auto rescale = [&](Element& e) {
      for (auto& c : e) c = base_.mul(c, scale);
    };
    rescale(a);
    rescale(s0);
    rescale(t0);
    return {std::move(a), std::move(s0), std::move(t0)};
  }

  void strip(Element& a) const {
    while (!a.empty() && base_.eq(a.back(), base_.zero())) a.pop_back();
  }

  /// Balanced binary-tree sum of a term buffer (consumes it); see
  /// matrix::balanced_sum for why accumulation is tree-shaped everywhere.
  Coeff balanced_sum_coeffs(std::vector<Coeff>& terms) const {
    if (terms.empty()) return base_.zero();
    std::size_t count = terms.size();
    while (count > 1) {
      std::size_t out = 0;
      for (std::size_t i = 0; i + 1 < count; i += 2) {
        terms[out++] = base_.add(terms[i], terms[i + 1]);
      }
      if (count % 2) terms[out++] = std::move(terms[count - 1]);
      count = out;
    }
    return std::move(terms[0]);
  }

  Element mul_schoolbook(const Element& a, const Element& b) const {
    // Per-coefficient balanced-tree accumulation: identical operation count
    // to the classical double loop, but the induced circuit has depth
    // O(log n) per coefficient rather than O(n).
    Element out(a.size() + b.size() - 1, base_.zero());
    std::vector<Coeff> terms;
    for (std::size_t k = 0; k < out.size(); ++k) {
      terms.clear();
      const std::size_t i_lo = k >= b.size() ? k - b.size() + 1 : 0;
      const std::size_t i_hi = std::min(k, a.size() - 1);
      for (std::size_t i = i_lo; i <= i_hi; ++i) {
        if (base_.eq(a[i], base_.zero())) continue;
        terms.push_back(base_.mul(a[i], b[k - i]));
      }
      out[k] = balanced_sum_coeffs(terms);
    }
    return out;
  }

  Element mul_karatsuba(const Element& a, const Element& b) const {
    if (std::min(a.size(), b.size()) < karatsuba_threshold_) {
      return mul_schoolbook(a, b);
    }
    const std::size_t half = std::max(a.size(), b.size()) / 2;
    auto lo_part = [&](const Element& v) {
      Element out(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(std::min(half, v.size())));
      strip(out);
      return out;
    };
    auto hi_part = [&](const Element& v) {
      if (v.size() <= half) return Element{};
      return Element(v.begin() + static_cast<std::ptrdiff_t>(half), v.end());
    };
    const Element a0 = lo_part(a), a1 = hi_part(a);
    const Element b0 = lo_part(b), b1 = hi_part(b);
    const Element z0 = a0.empty() || b0.empty() ? Element{} : mul_karatsuba(a0, b0);
    const Element z2 = a1.empty() || b1.empty() ? Element{} : mul_karatsuba(a1, b1);
    const Element sa = add(a0, a1), sb = add(b0, b1);
    Element z1 = sa.empty() || sb.empty() ? Element{} : mul_karatsuba(sa, sb);
    z1 = sub(z1, add(z0, z2));

    Element out(a.size() + b.size() - 1, base_.zero());
    auto accumulate = [&](const Element& v, std::size_t shift) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        out[shift + i] = base_.add(out[shift + i], v[i]);
      }
    };
    accumulate(z0, 0);
    accumulate(z1, half);
    accumulate(z2, 2 * half);
    return out;
  }

 private:
  R base_;
  MulStrategy strategy_;
  std::size_t karatsuba_threshold_;
};

}  // namespace kp::poly
