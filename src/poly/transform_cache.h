// Transform-domain caching of fixed multiplication operands.
//
// Every structured-matrix apply in the library is "multiply a FIXED
// polynomial by a varying one": the Toeplitz/Hankel symbol against the
// current vector (2n products per Krylov run), the Gohberg-Semencul
// generator columns against each right-hand side, the Newton-iteration
// factor against both update terms of its level.  The plain ring.mul path
// forward-transforms both operands every time, so the fixed side pays
// O(n log n) work per product for a spectrum that never changes.
//
// TransformedPoly pins the fixed operand and memoizes its forward NTT per
// padded transform size (the size depends on BOTH operands' lengths, so one
// fixed operand can need spectra at a few neighboring powers of two).  A
// product then costs one forward transform (the varying side) + pointwise +
// inverse instead of two forwards.
//
// Most of those products are read only in part: a Toeplitz or Hankel
// matrix-vector product needs coefficients n-1 .. 2n-2 of a product of
// length 3n-2.  middle / middle_many return such a window, and over a ring
// whose packing is the identity they transform at the smallest power of two
// that keeps it exact (>= 2n-1 there, not >= 3n-2): the product's top
// coefficients wrap onto indices below the window.
//
// Contract (matches the PR-2 kernel convention: physical work cached,
// logical charge preserved):
//   * values are exactly ring.mul(fixed, x), or its window -- the NTT path
//     is taken under exactly the conditions PolyRing::mul would take it
//     (see NttPlan), and the pointwise product is commutative, so operand
//     order cannot matter;
//   * logical op counts of mul / mul_many are exactly ring.mul's, and those
//     of a middle product are those of its transforms (fewer when it wraps):
//     a cache hit re-charges the recorded cost of the forward transform it
//     skipped, so OpScope measurements are independent of cache state, and
//     a batched call charges what the loop of single calls does.  The cache's
//     saving is visible only in wall-clock time and in
//     transform_stats().forward_avoided;
//   * thread-safe: the spectrum table is mutex-guarded and entries are
//     immutable once published, so pooled workers may share one
//     TransformedPoly.
//
// The cache applies to concrete value-semantic coefficient rings whose
// SplitMul trait is enabled: prime fields with NTT support here, and
// TruncSeriesRing<F> via its Kronecker packing (specialization in
// poly/trunc_series.h), whose middle products take the whole packed product.
// Domains that record their operations (the circuit builder) fall back to
// plain ring.mul and a slice of it -- replaying a cached spectrum or
// wrapping the transform would silently change the recorded circuit.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "field/concepts.h"
#include "poly/ntt.h"
#include "poly/poly_ring.h"
#include "pram/parallel_for.h"
#include "util/op_count.h"

namespace kp::poly {

/// Global kill switch, used by the benches to measure cached vs uncached
/// forward-transform counts on the same build.  Off = every TransformedPoly
/// degrades to plain ring.mul (sliced, for a middle product).
inline std::atomic<bool>& transform_cache_enabled() {
  static std::atomic<bool> on{true};
  return on;
}

/// How a coefficient ring exposes its NTT as separable pack / forward /
/// pointwise-finish / unpack stages.  The primary template covers base
/// fields (packing is the identity); TruncSeriesRing<F> specializes it in
/// poly/trunc_series.h with its Kronecker-substitution packing.
/// `pack`/`unpack` must perform no counted field operations (they move
/// coefficients; eq used for stripping is uncounted by convention), so a
/// cached packed form needs no op-count replay -- only the forward
/// transform's cost is recorded.
/// True when NttTraits<R> declares kDirect: its transform runs over R
/// itself, so the split forward / pointwise / inverse stages of this header
/// apply.  Indirect kernels (GFpk's Z/qZ packing, the circuit field) report
/// false and fall back to whole ring.mul calls.
template <class R>
inline constexpr bool ntt_direct_v = requires { requires NttTraits<R>::kDirect; };

template <class R>
struct SplitMul {
  /// Field the packed representation lives in.
  using Field = R;
  /// Caching is worthwhile and sound: the ring has a same-field NTT and is a
  /// plain value domain (no shared-state op recording).
  static constexpr bool kSupported = ntt_direct_v<R> &&
                                     kp::field::concurrent_ops_v<R> &&
                                     kp::field::Field<R>;
  static const Field& base(const R& r) { return r; }
  static bool available(const R& r, std::size_t out_len) {
    return NttTraits<R>::available(r, out_len);
  }
  static std::vector<typename R::Element> pack(
      const R&, const std::vector<typename R::Element>& v) {
    return v;
  }
  static std::vector<typename R::Element> unpack(
      const R&, std::vector<typename R::Element>&& prod, std::size_t) {
    return std::move(prod);
  }
  /// Packed coefficient k is the product's coefficient k, so a window of
  /// the product may be read off a cyclic transform shorter than the whole
  /// product (TransformedPoly::middle).
  static constexpr bool kIdentityPacking = true;
};

/// The dispatch decision TransformedPoly mirrors from PolyRing::mul for a
/// given pair of operand lengths: whether the NTT kernel runs, and at which
/// padded transform size.
struct NttPlan {
  bool use_ntt = false;
  std::size_t n = 0;  ///< padded base-field transform size when use_ntt
};

/// A fixed polynomial operand with memoized forward transforms.
///
/// Construct once from the invariant operand, then call mul(ring, x) in
/// place of ring.mul(fixed, x), or middle(ring, x, lo, count) for a window
/// of that product.  Copying keeps the operand (and its packed form) but
/// drops the spectrum cache -- copies are cheap to make and rebuild their
/// spectra on first use.
template <class R>
class TransformedPoly {
 public:
  using Ring = PolyRing<R>;
  using Poly = typename Ring::Element;
  using S = SplitMul<R>;
  using FieldElem = typename S::Field::Element;

  TransformedPoly() = default;
  TransformedPoly(const Ring& ring, Poly fixed) : fixed_(std::move(fixed)) {
    if constexpr (S::kSupported) {
      packed_ = S::pack(ring.base(), fixed_);
    }
  }

  TransformedPoly(const TransformedPoly& o)
      : fixed_(o.fixed_), packed_(o.packed_) {}
  TransformedPoly& operator=(const TransformedPoly& o) {
    if (this != &o) {
      fixed_ = o.fixed_;
      packed_ = o.packed_;
      std::lock_guard<std::mutex> lk(mu_);
      spectra_.clear();
    }
    return *this;
  }
  TransformedPoly(TransformedPoly&& o) noexcept
      : fixed_(std::move(o.fixed_)), packed_(std::move(o.packed_)) {
    std::lock_guard<std::mutex> lk(o.mu_);
    spectra_ = std::move(o.spectra_);
  }
  TransformedPoly& operator=(TransformedPoly&& o) {
    if (this != &o) {
      fixed_ = std::move(o.fixed_);
      packed_ = std::move(o.packed_);
      std::scoped_lock lk(mu_, o.mu_);
      spectra_ = std::move(o.spectra_);
    }
    return *this;
  }

  const Poly& poly() const { return fixed_; }

  /// Mirrors PolyRing::mul's kernel dispatch for (fixed, x): the NTT kernel
  /// runs for kNtt always and for kAuto from min-size 8 when the ring
  /// supports the required root of unity; other strategies (and disabled
  /// caching) take the plain path.
  NttPlan plan(const Ring& ring, const Poly& x) const {
    if constexpr (!S::kSupported) {
      return {};
    } else {
      if (fixed_.empty() || x.empty() ||
          !transform_cache_enabled().load(std::memory_order_relaxed)) {
        return {};
      }
      const std::size_t out_len = fixed_.size() + x.size() - 1;
      const MulStrategy st = ring.strategy();
      const bool ntt =
          st == MulStrategy::kNtt ||
          (st == MulStrategy::kAuto &&
           std::min(fixed_.size(), x.size()) >= 8 &&
           NttTraits<R>::available(ring.base(), out_len));
      return {ntt, 0};
    }
  }

  /// ring.mul(fixed, x): identical values, identical logical op counts, one
  /// forward transform saved per call once the spectrum is cached.
  /// `fixed_first` records the operand order of the call site being
  /// replaced: the NTT kernel is order-insensitive in both values and op
  /// counts, but the schoolbook/Karatsuba fallback skips zeros of its FIRST
  /// operand, so the fallback must preserve the original order to keep op
  /// counts bit-identical.
  Poly mul(const Ring& ring, const Poly& x, bool fixed_first = true) const {
    Poly out = std::move(products(ring, {&x}, 0, kWhole, fixed_first).front());
    ring.strip(out);
    return out;
  }

  /// Batched ring.mul(fixed, x_i) for every x_i: the varying-side forward
  /// transforms are grouped by padded size and dispatched over the pool via
  /// ntt_many, and the pointwise+inverse stages run as one parallel region.
  /// Values and op-count totals are identical to calling mul in a loop.
  std::vector<Poly> mul_many(const Ring& ring,
                             const std::vector<const Poly*>& xs) const {
    auto out = products(ring, xs, 0, kWhole, true);
    for (auto& p : out) ring.strip(p);
    return out;
  }

  /// Coefficients [lo, lo + count) of fixed * x, zeros past the product's
  /// end: the middle product (Hanrot-Quercia-Zimmermann), which is what a
  /// Toeplitz or Hankel matrix-vector product reads.  When the packing is
  /// the identity and the NTT runs, the cyclic transform is the smallest
  /// power of two L that keeps the window exact (transform_size), so
  /// L >= max(lo + count, len(fixed) + len(x) - 1 - lo) at most: the
  /// product's top coefficients wrap onto indices below lo, which are never
  /// read.  For a Toeplitz product (lo = n - 1, count = n) that is
  /// L >= 2n - 1 instead of the whole product's 3n - 2, so L = 512 at
  /// n = 256 where ring.mul pads to 1024; the logical op count is that of
  /// the shorter transforms.  Every other case -- Kronecker-packed rings,
  /// the circuit builder, fields without the NTT, operands too short for
  /// it -- computes the whole product exactly as mul does and slices it.
  std::vector<typename R::Element> middle(const Ring& ring, const Poly& x,
                                          std::size_t lo,
                                          std::size_t count) const {
    return std::move(products(ring, {&x}, lo, count, true).front());
  }

  /// middle for every x_i, batched as mul_many is; values and op-count
  /// totals are identical to calling middle in a loop.
  std::vector<std::vector<typename R::Element>> middle_many(
      const Ring& ring, const std::vector<const Poly*>& xs, std::size_t lo,
      std::size_t count) const {
    return products(ring, xs, lo, count, true);
  }

 private:
  struct CachedSpectrum {
    NttSpectrum<typename S::Field> spec;
    kp::util::OpCounts cost;  ///< logical ops of the forward transform
  };

  /// `count` value asking products for the whole product.
  static constexpr std::size_t kWhole = static_cast<std::size_t>(-1);

  /// The one product path under mul, mul_many, middle and middle_many: for
  /// every x_i, the coefficients [lo, lo + count) of fixed * x_i (count =
  /// kWhole: all of them).  NTT-eligible items forward-transform their
  /// varying side in ntt_many batches grouped by transform size, then run
  /// pointwise + inverse + unpack + window as one parallel region (nested
  /// transform chunking degrades to serial inside it); the rest take plain
  /// ring.mul.
  std::vector<Poly> products(const Ring& ring,
                             const std::vector<const Poly*>& xs,
                             std::size_t lo, std::size_t count,
                             bool fixed_first) const {
    const auto full_len = [&](const Poly& x) {
      return fixed_.empty() || x.empty() ? std::size_t{0}
                                         : fixed_.size() + x.size() - 1;
    };
    // The window of a product buffer that is exact at [lo, lo + count)
    // below full_len(x); coefficients from full_len(x) on are zero.
    const auto window = [&](const Poly& prod, const Poly& x) {
      const std::size_t full = full_len(x);
      Poly y(count == kWhole ? full : count, ring.base().zero());
      for (std::size_t j = 0; j < y.size() && lo + j < full; ++j) {
        y[j] = ring.coeff(prod, lo + j);
      }
      return y;
    };
    std::vector<Poly> out(xs.size());
    const auto plain = [&](std::size_t i) {
      const Poly& x = *xs[i];
      out[i] = window(fixed_first ? ring.mul(fixed_, x) : ring.mul(x, fixed_),
                      x);
    };
    if constexpr (!S::kSupported) {
      for (std::size_t i = 0; i < xs.size(); ++i) plain(i);
    } else {
      const R& r = ring.base();
      const auto& f = S::base(r);
      std::vector<std::size_t> idx;              // eligible item -> xs index
      std::vector<std::vector<FieldElem>> bufs;  // padded varying operands
      std::vector<std::size_t> size;             // transform size
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (!plan(ring, *xs[i]).use_ntt) {
          plain(i);
          continue;
        }
        auto px = S::pack(r, *xs[i]);
        if (packed_.empty() || px.empty()) {
          plain(i);
          continue;
        }
        const std::size_t n = transform_size(px.size(), lo, count);
        // Charge/compute the fixed side per use, exactly as a loop of single
        // products would (hits replay the recorded cost).
        spectrum(f, n);
        idx.push_back(i);
        size.push_back(n);
        px.resize(n, f.zero());
        bufs.push_back(std::move(px));
      }
      std::map<std::size_t, std::vector<std::size_t>> groups;
      for (std::size_t k = 0; k < idx.size(); ++k) groups[size[k]].push_back(k);
      for (const auto& [n, members] : groups) {
        std::vector<std::vector<FieldElem>*> ptrs;
        ptrs.reserve(members.size());
        for (const std::size_t k : members) ptrs.push_back(&bufs[k]);
        ntt_many(f, ptrs, detail::ntt_tables(f.characteristic(), n)->forward);
        detail::transform_counters().forward.fetch_add(
            members.size(), std::memory_order_relaxed);
      }
      const auto finish_one = [&](std::size_t k) {
        const CachedSpectrum* cs = nullptr;
        {
          std::lock_guard<std::mutex> lk(mu_);
          cs = &spectra_.at(size[k]);
        }
        const Poly& x = *xs[idx[k]];
        auto cyclic = ntt_pointwise_finish(
            f, NttSpectrum<typename S::Field>{size[k], std::move(bufs[k])},
            cs->spec);
        out[idx[k]] = window(S::unpack(r, std::move(cyclic), full_len(x)), x);
      };
      if (kp::field::concurrent_ops_v<typename S::Field> && idx.size() > 1) {
        kp::pram::parallel_for(0, idx.size(), finish_one);
      } else {
        for (std::size_t k = 0; k < idx.size(); ++k) finish_one(k);
      }
    }
    return out;
  }

  /// Transform size for coefficients [lo, lo + count) of the product of the
  /// packed operands (lengths packed_.size() and px_len, full product
  /// length `full`).  The cyclic product of length L holds coefficient k of
  /// the product plus those at k + L, k + 2L, ...; so for lo <= k < hi =
  /// min(lo + count, full) it is exact once L >= hi and L >= full - lo.
  /// Only identity packing may wrap: a Kronecker-packed window is in series
  /// coefficients, not packed ones, so those rings take the whole product.
  std::size_t transform_size(std::size_t px_len, std::size_t lo,
                             std::size_t count) const {
    const std::size_t full = packed_.size() + px_len - 1;
    std::size_t need = full;
    if constexpr (S::kIdentityPacking) {
      const std::size_t above_lo = full - std::min(lo, full);
      const std::size_t hi =
          count == kWhole || count >= above_lo ? full : lo + count;
      need = std::max({hi, above_lo, packed_.size(), px_len});
    }
    std::size_t n = 1;
    while (n < need) n <<= 1;
    return n;
  }

  /// Spectrum of the fixed operand at padded size n.  First use computes
  /// and records its logical cost; every later use re-charges that cost so
  /// measurements cannot tell the cache was there.
  const CachedSpectrum& spectrum(const typename S::Field& f,
                                 std::size_t n) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = spectra_.find(n);
    if (it != spectra_.end()) {
      kp::util::tl_op_counts += it->second.cost;
      detail::transform_counters().forward_avoided.fetch_add(
          1, std::memory_order_relaxed);
      return it->second;
    }
    CachedSpectrum cs;
    const kp::util::OpCounts before = kp::util::tl_op_counts;
    cs.spec = ntt_forward(f, packed_, n);
    cs.cost = kp::util::tl_op_counts - before;
    return spectra_.emplace(n, std::move(cs)).first->second;
  }

  Poly fixed_;
  std::vector<FieldElem> packed_;
  mutable std::mutex mu_;
  mutable std::map<std::size_t, CachedSpectrum> spectra_;
};

}  // namespace kp::poly
