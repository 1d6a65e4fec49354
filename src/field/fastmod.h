// Reduction-free word-sized modular arithmetic kernels.
//
// Every `mul` of the seed implementation paid a 128-by-64-bit hardware
// division (`unsigned __int128 % p`, a libgcc __umodti3 call even when the
// modulus is a compile-time constant).  This header provides the classic
// division-free alternatives used by exact-linear-algebra engines
// (NTL/FLINT/LinBox style):
//
//   * Barrett    -- Möller-Granlund "division by invariant integers":
//                   a precomputed 64-bit reciprocal of the normalized
//                   modulus turns a 128-bit reduction into ~3 multiplies.
//                   Works for ANY modulus 2 <= p < 2^63, runtime or
//                   compile time (the constructor is constexpr).
//   * Montgomery -- REDC residue arithmetic for odd p; used for the
//                   single-element `mul` hot path of the compile-time
//                   field Zp<P>, where both REDC passes inline to
//                   straight-line mulx/add code.
//   * Shoup      -- multiplication by a constant with a precomputed
//                   quotient (w' = floor(w * 2^64 / p)): 2 multiplies and
//                   one conditional subtract.  This is the NTT butterfly
//                   workhorse, since twiddle factors are fixed per table.
//
// All routines return CANONICAL representatives in [0, p) and are therefore
// bit-identical to the reference `%` path -- the contract the fast-kernel
// layer (field/kernels.h) is tested against.  Nothing here touches the
// op counters: callers charge the model's logical operation counts.
#pragma once

#include <cassert>
#include <cstdint>

namespace kp::field::fastmod {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// Möller-Granlund reduction context for a fixed modulus 2 <= p < 2^63.
/// Precomputes the normalized divisor d = p << shift (top bit set) and the
/// reciprocal v = floor((2^128 - 1) / d) - 2^64; `reduce` is then the GMP
/// udiv_qrnnd_preinv remainder step (exact for any dividend < p * 2^64).
struct Barrett {
  u64 p = 0;
  unsigned shift = 0;  ///< leading zeros of p
  u64 d = 0;           ///< p << shift, normalized
  u64 v = 0;           ///< reciprocal of d
  u64 dcap = 0;        ///< delayed_dot_capacity(p), cached: computing it
                       ///< needs a 128-bit division, too slow per kernel call
  u64 c104 = 0;        ///< 2^104 mod p: the top limb's weight in the
                       ///< 52-bit-split (IFMA) folds, cached the same way

  constexpr Barrett() = default;
  constexpr explicit Barrett(u64 p_) : p(p_) {
    assert(p_ >= 2 && p_ < (1ULL << 63));
    u64 t = p_;
    while (!(t & (1ULL << 63))) {
      t <<= 1;
      ++shift;
    }
    d = p_ << shift;
    v = static_cast<u64>(~static_cast<u128>(0) / d - (static_cast<u128>(1) << 64));
    const u128 sq = static_cast<u128>(p_ - 1) * (p_ - 1);
    const u128 cap = (~static_cast<u128>(0) - (p_ - 1)) / (sq > 0 ? sq : 1);
    dcap = cap > ~static_cast<u64>(0) ? ~static_cast<u64>(0)
                                      : static_cast<u64>(cap);
    c104 = static_cast<u64>((static_cast<u128>(1) << 104) % p_);
  }

  /// x mod p, exact, for x < p * 2^64 (covers every product of canonical
  /// operands).  ~3 multiplies, no division.
  constexpr u64 reduce(u128 x) const {
    x <<= shift;
    const u64 nh = static_cast<u64>(x >> 64), nl = static_cast<u64>(x);
    u128 q = static_cast<u128>(v) * nh;
    q += (static_cast<u128>(nh + 1) << 64) + nl;
    const u64 qh = static_cast<u64>(q >> 64), ql = static_cast<u64>(q);
    u64 r = nl - qh * d;
    if (r > ql) r += d;
    if (r >= d) r -= d;
    return r >> shift;
  }

  /// x mod p for ANY 128-bit x, used to drain delayed-reduction
  /// accumulators.  A high limb below p means x < p * 2^64, `reduce`'s own
  /// domain, so one reduction does; otherwise reduce the high limb first,
  /// and the recombined (hi mod p):lo value is < p * 2^64.
  constexpr u64 reduce_full(u128 x) const {
    const u64 hi = static_cast<u64>(x >> 64), lo = static_cast<u64>(x);
    if (hi < p) return reduce(x);
    return reduce((static_cast<u128>(reduce(hi)) << 64) | lo);
  }

  constexpr u64 mul(u64 a, u64 b) const {
    return reduce(static_cast<u128>(a) * b);
  }
};

/// Montgomery (REDC) context for an ODD modulus p < 2^63.  Elements stay in
/// canonical form at the API boundary: `mul` chains two REDC passes
/// (a*b -> a*b*R^{-1} -> a*b), trading the 128-bit division for four
/// word multiplies of pure straight-line code.
struct Montgomery {
  u64 p = 0;
  u64 np = 0;  ///< -p^{-1} mod 2^64
  u64 r2 = 0;  ///< 2^128 mod p ("R^2", the canonicalizing factor)

  constexpr Montgomery() = default;
  constexpr explicit Montgomery(u64 p_) : p(p_) {
    assert((p_ & 1) != 0 && p_ < (1ULL << 63));
    u64 x = p_;  // Newton: x <- x(2 - p x) doubles the correct low bits
    for (int i = 0; i < 6; ++i) x *= 2 - p_ * x;
    np = ~x + 1;
    const u64 r1 = static_cast<u64>((static_cast<u128>(1) << 64) % p_);
    r2 = static_cast<u64>(static_cast<u128>(r1) * r1 % p_);
  }

  /// t * R^{-1} mod p for t < p * 2^64, canonical.
  constexpr u64 redc(u128 t) const {
    const u64 m = static_cast<u64>(t) * np;
    const u64 r = static_cast<u64>((t + static_cast<u128>(m) * p) >> 64);
    return r >= p ? r - p : r;
  }

  constexpr u64 to_mont(u64 a) const { return redc(static_cast<u128>(a) * r2); }
  constexpr u64 from_mont(u64 a) const { return redc(a); }
  /// Product of Montgomery-form operands, in Montgomery form.
  constexpr u64 mul_mont(u64 a, u64 b) const {
    return redc(static_cast<u128>(a) * b);
  }
  /// Canonical a * b mod p for canonical operands.
  constexpr u64 mul(u64 a, u64 b) const {
    return redc(static_cast<u128>(redc(static_cast<u128>(a) * b)) * r2);
  }
};

/// Shoup precomputed quotient floor(w * 2^64 / p) for a fixed multiplier w.
constexpr u64 shoup_precompute(u64 w, u64 p) {
  return static_cast<u64>((static_cast<u128>(w) << 64) / p);
}

/// a * w mod p with the quotient wq = shoup_precompute(w, p): one mulhi, one
/// low product, one conditional subtract.  Requires p < 2^63, a < p.
constexpr u64 shoup_mul(u64 a, u64 w, u64 wq, u64 p) {
  const u64 q = static_cast<u64>((static_cast<u128>(a) * wq) >> 64);
  const u64 r = a * w - q * p;  // in [0, 2p), wraparound-exact
  return r >= p ? r - p : r;
}

/// The lazy variant: congruent to a * w and < 2p, without the final
/// correction.  The estimated quotient is off by at most one for ANY a < 2^64
/// (not just a < p), which is what lets Harvey-style NTT butterflies keep
/// residues in [0, 4p) and normalize once at the end.
constexpr u64 shoup_mul_lazy(u64 a, u64 w, u64 wq, u64 p) {
  const u64 q = static_cast<u64>((static_cast<u128>(a) * wq) >> 64);
  return a * w - q * p;
}

/// How many products of canonical operands can be summed into an unsigned
/// 128-bit accumulator that already holds a value < p without overflow;
/// always >= 3 for p < 2^63, so delayed-reduction dots spill at worst every
/// third term and once per output in the common prime range.
constexpr u64 delayed_dot_capacity(u64 p) {
  const u128 sq = static_cast<u128>(p - 1) * (p - 1);
  const u128 cap = (~static_cast<u128>(0) - (p - 1)) / sq;
  return cap > ~static_cast<u64>(0) ? ~static_cast<u64>(0) : static_cast<u64>(cap);
}

}  // namespace kp::field::fastmod
