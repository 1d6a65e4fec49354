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
// Contract (matches the PR-2 kernel convention: physical work cached,
// logical charge preserved):
//   * values are exactly ring.mul(fixed, x) -- the NTT path is taken under
//     exactly the conditions PolyRing::mul would take it (see NttPlan), and
//     the pointwise product is commutative, so operand order cannot matter;
//   * logical op counts are exactly ring.mul's: a cache hit re-charges the
//     recorded cost of the forward transform it skipped, so OpScope
//     measurements are independent of cache state.  The saving is visible
//     only in wall-clock time and in transform_stats().forward_avoided;
//   * thread-safe: the spectrum table is mutex-guarded and entries are
//     immutable once published, so pooled workers may share one
//     TransformedPoly.
//
// The cache applies to concrete value-semantic coefficient rings whose
// SplitMul trait is enabled: prime fields with NTT support here, and
// TruncSeriesRing<F> via its Kronecker packing (specialization in
// poly/trunc_series.h).  Domains that record their operations (the circuit
// builder) fall back to plain ring.mul -- replaying a cached spectrum would
// silently change the recorded circuit.
#pragma once

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
/// degrades to plain ring.mul.
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
/// place of ring.mul(fixed, x).  Copying keeps the operand (and its packed
/// form) but drops the spectrum cache -- copies are cheap to make and
/// rebuild their spectra on first use.
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
    if constexpr (S::kSupported) {
      if (plan(ring, x).use_ntt) return mul_ntt(ring, x, fixed_first);
    }
    return fixed_first ? ring.mul(fixed_, x) : ring.mul(x, fixed_);
  }

  /// Batched ring.mul(fixed, x_i) for every x_i: the varying-side forward
  /// transforms are grouped by padded size and dispatched over the pool via
  /// ntt_many, and the pointwise+inverse stages run as one parallel region.
  /// Values and op-count totals are identical to calling mul in a loop.
  std::vector<Poly> mul_many(const Ring& ring,
                             const std::vector<const Poly*>& xs) const {
    std::vector<Poly> out(xs.size());
    if constexpr (S::kSupported) {
      const R& r = ring.base();
      const auto& f = S::base(r);
      // Partition: NTT-eligible items batch, the rest take plain ring.mul.
      std::vector<std::size_t> idx;              // eligible item -> xs index
      std::vector<std::vector<FieldElem>> bufs;  // padded varying operands
      std::vector<std::size_t> xlen;             // packed length pre-padding
      std::vector<std::size_t> size;             // padded transform size
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (!plan(ring, *xs[i]).use_ntt) {
          out[i] = ring.mul(fixed_, *xs[i]);
          continue;
        }
        auto px = S::pack(r, *xs[i]);
        if (packed_.empty() || px.empty()) {
          out[i] = ring.mul(fixed_, *xs[i]);
          continue;
        }
        const std::size_t out_len = packed_.size() + px.size() - 1;
        std::size_t n = 1;
        while (n < out_len) n <<= 1;
        // Charge/compute the fixed side per use, exactly as a mul loop
        // would (hits replay the recorded cost).
        spectrum(f, n);
        idx.push_back(i);
        xlen.push_back(px.size());
        size.push_back(n);
        px.resize(n, f.zero());
        bufs.push_back(std::move(px));
      }
      // Forward transforms of the varying sides, grouped by size.
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
      // Pointwise + inverse + unpack per item: independent, so one pool
      // region (nested transform chunking degrades to serial inside it).
      const auto finish_one = [&](std::size_t k) {
        const std::size_t n = size[k];
        NttSpectrum<typename S::Field> fx{n, xlen[k], std::move(bufs[k])};
        const CachedSpectrum* cs = nullptr;
        {
          std::lock_guard<std::mutex> lk(mu_);
          cs = &spectra_.at(n);
        }
        auto prod = ntt_pointwise_finish(f, std::move(fx), cs->spec);
        Poly res = S::unpack(r, std::move(prod),
                             fixed_.size() + xs[idx[k]]->size() - 1);
        ring.strip(res);
        out[idx[k]] = std::move(res);
      };
      if (kp::field::concurrent_ops_v<typename S::Field> && idx.size() > 1) {
        kp::pram::parallel_for(0, idx.size(), finish_one);
      } else {
        for (std::size_t k = 0; k < idx.size(); ++k) finish_one(k);
      }
    } else {
      for (std::size_t i = 0; i < xs.size(); ++i) {
        out[i] = ring.mul(fixed_, *xs[i]);
      }
    }
    return out;
  }

 private:
  struct CachedSpectrum {
    NttSpectrum<typename S::Field> spec;
    kp::util::OpCounts cost;  ///< logical ops of the forward transform
  };

  Poly mul_ntt(const Ring& ring, const Poly& x, bool fixed_first) const {
    const R& r = ring.base();
    const auto& f = S::base(r);
    auto px = S::pack(r, x);
    if (packed_.empty() || px.empty()) {
      return fixed_first ? ring.mul(fixed_, x) : ring.mul(x, fixed_);
    }
    const std::size_t out_len = packed_.size() + px.size() - 1;
    std::size_t n = 1;
    while (n < out_len) n <<= 1;
    const CachedSpectrum& cs = spectrum(f, n);
    NttSpectrum<typename S::Field> fx = ntt_forward(f, px, n);
    auto prod = ntt_pointwise_finish(f, std::move(fx), cs.spec);
    Poly out = S::unpack(r, std::move(prod), fixed_.size() + x.size() - 1);
    ring.strip(out);
    return out;
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
