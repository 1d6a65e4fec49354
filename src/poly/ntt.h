// Number-theoretic transform over prime fields with 2-adic roots of unity.
//
// Plays the role of the Cantor-Kaltofen fast polynomial multiplication black
// box of the paper for the common case K = Z/pZ with 2^k | p-1.  All
// butterflies go through the field domain, so NTT work is measured in the
// same unit cost model as everything else.
//
// Everything a size-n transform over Z/pZ needs beyond the data -- the
// twiddles of both directions and 1/n -- is built once per (modulus, size)
// pair and kept in one process-wide table cache shared by every thread: a
// mutex-guarded map, so pooled workers issuing their own transforms share
// both the setup work and the table memory.  A byte budget (KP_CACHE_BUDGET
// / set_cache_budget) bounds the cache with LRU eviction for long-running
// services; evicted tables stay alive as long as an in-flight transform
// holds their shared_ptr.  Each twiddle table also carries Shoup
// precomputed quotients in a per-level streamed layout, so word-sized prime
// fields (FieldKernels, field/kernels.h) run Harvey-style lazy butterflies
// -- three word multiplies each, residues in [0, 4p), one normalization pass
// at the end, no 128-bit division anywhere -- while producing exactly the
// canonical values and charging exactly the logical op counts of the
// generic path.  Symbolic domains (CircuitBuilderField) keep the generic
// path: cached INTEGER powers injected with from_int, preserving the
// O(log n)-depth circuits.
//
// Two parallel axes sit on top (both bit-identical for every worker count):
//   * ntt_many runs B independent transforms with whole transforms per
//     pooled worker (op counts fold back to the submitter per the
//     ExecutionContext contract);
//   * single large fast-path transforms split each butterfly level into
//     fixed-size chunks dispatched over the pool.  Butterflies within a
//     level are data-independent, and the chunk boundaries depend only on
//     the transform size, so the values never depend on the schedule.
//
// The transform is also exposed split into ntt_forward / ntt_pointwise_
// finish so callers that multiply by a FIXED operand many times
// (poly/transform_cache.h) can reuse its spectrum and skip one of the two
// forward transforms per product.  transform_stats() counts forward and
// inverse transforms executed and forwards avoided by such caches.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "field/kernels.h"
#include "field/primes.h"
#include "field/simd.h"
#include "field/reference.h"
#include "field/zp.h"
#include "poly/poly_ring.h"
#include "pram/parallel_for.h"
#include "util/op_count.h"

namespace kp::poly {

/// Running totals of transform work (process-wide, all threads).  `forward`
/// and `inverse` count transforms actually executed through the split API;
/// `forward_avoided` counts forward transforms that a cached spectrum
/// (poly/transform_cache.h) made unnecessary.  The counters are bench/
/// diagnostic instrumentation only -- they are NOT part of the logical
/// op-count contract, which charges cached transforms exactly as if they had
/// been recomputed.
struct TransformStats {
  std::uint64_t forward = 0;
  std::uint64_t inverse = 0;
  std::uint64_t forward_avoided = 0;
};

namespace detail {

struct TransformCounters {
  std::atomic<std::uint64_t> forward{0};
  std::atomic<std::uint64_t> inverse{0};
  std::atomic<std::uint64_t> forward_avoided{0};
};

/// Shared (not thread-local): pooled workers run transforms on behalf of one
/// logical computation, so their stats must land in one place.  Relaxed
/// atomics -- the counters are read only between runs.
inline TransformCounters& transform_counters() {
  static TransformCounters c;
  return c;
}

}  // namespace detail

inline TransformStats transform_stats() {
  auto& c = detail::transform_counters();
  return {c.forward.load(std::memory_order_relaxed),
          c.inverse.load(std::memory_order_relaxed),
          c.forward_avoided.load(std::memory_order_relaxed)};
}

inline void reset_transform_stats() {
  auto& c = detail::transform_counters();
  c.forward.store(0, std::memory_order_relaxed);
  c.inverse.store(0, std::memory_order_relaxed);
  c.forward_avoided.store(0, std::memory_order_relaxed);
}

/// Observable state of the process-wide NTT table cache.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< entries built (includes rebuilds)
  std::uint64_t evictions = 0;   ///< entries dropped by the byte budget
  std::size_t bytes = 0;         ///< live payload bytes currently cached
  std::size_t entries = 0;       ///< live entries currently cached
};

namespace detail {

/// Largest k with 2^k | p - 1.
inline int two_adicity(std::uint64_t p) {
  std::uint64_t m = p - 1;
  int k = 0;
  while ((m & 1) == 0) {
    m >>= 1;
    ++k;
  }
  return k;
}

/// Twiddle powers w^k, k < n/2, of one root w of order n.
/// `pow` holds them in power order as raw integers (the generic path injects
/// them with from_int; they are constants of the computation, so recorded
/// circuits keep O(log n) depth).  `level_pow` / `level_shoup` hold the same
/// values re-ordered per butterfly level -- level len contributes its len/2
/// twiddles contiguously -- so the fast path streams them with a bumped
/// pointer instead of a strided gather, alongside their Shoup quotients.
struct TwiddleTable {
  std::vector<std::uint64_t> pow;
  std::vector<std::uint64_t> level_pow;
  std::vector<std::uint64_t> level_shoup;
};

inline TwiddleTable make_twiddle_table(std::uint64_t w, std::uint64_t p,
                                       std::size_t n) {
  TwiddleTable t;
  const std::size_t half = std::max<std::size_t>(n / 2, 1);
  t.pow.reserve(half);
  std::uint64_t acc = 1;
  for (std::size_t k = 0; k < half; ++k) {
    t.pow.push_back(acc);
    acc = kp::field::detail::mulmod(acc, w, p);
  }
  t.level_pow.reserve(n ? n - 1 : 0);
  t.level_shoup.reserve(n ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t step = n / len;
    for (std::size_t j = 0; j < len / 2; ++j) {
      const std::uint64_t tw = t.pow[j * step];
      t.level_pow.push_back(tw);
      t.level_shoup.push_back(kp::field::fastmod::shoup_precompute(tw, p));
    }
  }
  return t;
}

/// Everything a size-n transform pair over Z/pZ needs: the twiddles of the
/// canonical root w = g^((p-1)/n) (g the least primitive root) and of
/// w^-1, plus the inverse-transform scale 1/n and its Shoup quotient.
struct NttTables {
  TwiddleTable forward;
  TwiddleTable inverse;
  std::uint64_t n_inv = 0;
  std::uint64_t n_inv_shoup = 0;

  /// Payload bytes charged against the cache budget.
  std::size_t bytes() const {
    std::size_t words = 0;
    for (const TwiddleTable* t : {&forward, &inverse}) {
      words += t->pow.capacity() + t->level_pow.capacity() +
               t->level_shoup.capacity();
    }
    return sizeof(NttTables) + sizeof(std::uint64_t) * words;
  }
};

/// The only place the transform layer computes roots and inverses.
inline NttTables make_ntt_tables(std::uint64_t p, std::size_t n) {
  using kp::field::detail::invmod;
  const std::uint64_t w =
      kp::field::detail::powmod(kp::field::primitive_root(p), (p - 1) / n, p);
  NttTables t;
  t.forward = make_twiddle_table(w, p, n);
  t.inverse = make_twiddle_table(invmod(w, p), p, n);
  t.n_inv = invmod(static_cast<std::uint64_t>(n % p), p);
  t.n_inv_shoup = kp::field::fastmod::shoup_precompute(t.n_inv, p);
  return t;
}

/// The process-wide table cache, shared by every thread and bounded by the
/// byte budget.  One mutex guards everything; a hit is a map lookup.
struct NttTableCache {
  struct Entry {
    std::shared_ptr<const NttTables> tables;
    std::uint64_t last_use = 0;
  };
  using Key = std::pair<std::uint64_t, std::size_t>;

  std::mutex mu;
  std::map<Key, Entry> entries;
  /// Bytes, 0 = unlimited; starts from the KP_CACHE_BUDGET environment
  /// variable so a long-running service can bound its footprint.
  std::size_t budget = [] {
    const char* env = std::getenv("KP_CACHE_BUDGET");
    return env != nullptr
               ? static_cast<std::size_t>(std::strtoull(env, nullptr, 10))
               : std::size_t{0};
  }();
  std::uint64_t tick = 0;
  CacheStats stats;  ///< `entries` is filled in on read

  /// Called with mu held.  Drops least-recently-used entries until the
  /// cache fits the budget; `keep` (a fresh entry) is exempt so a budget
  /// smaller than one entry still makes progress.
  void evict_over_budget(const Key* keep) {
    if (budget == 0) return;
    while (stats.bytes > budget) {
      auto victim = entries.end();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (keep != nullptr && it->first == *keep) continue;
        if (victim == entries.end() ||
            it->second.last_use < victim->second.last_use) {
          victim = it;
        }
      }
      if (victim == entries.end()) break;
      stats.bytes -= victim->second.tables->bytes();
      ++stats.evictions;
      entries.erase(victim);
    }
  }
};

inline NttTableCache& ntt_table_cache() {
  static NttTableCache cache;
  return cache;
}

/// Returns the pinned (p, n) tables, building them on first use.  The caller
/// holds the pointer for the duration of its transforms: under a budget the
/// entry may be evicted concurrently, and the shared_ptr is what keeps the
/// butterfly loops' raw twiddle pointers alive.
inline std::shared_ptr<const NttTables> ntt_tables(std::uint64_t p,
                                                   std::size_t n) {
  auto& c = ntt_table_cache();
  const NttTableCache::Key key{p, n};
  const auto hit = [&c](NttTableCache::Entry& e) {
    ++c.stats.hits;
    e.last_use = ++c.tick;
    return e.tables;
  };
  {
    std::lock_guard<std::mutex> lk(c.mu);
    if (auto it = c.entries.find(key); it != c.entries.end()) {
      return hit(it->second);
    }
  }
  // Build outside the lock: a large table takes milliseconds, and lookups
  // of other sizes and moduli (parallel CRT shards) must not wait for it.
  auto tables = std::make_shared<const NttTables>(make_ntt_tables(p, n));
  std::lock_guard<std::mutex> lk(c.mu);
  const auto [it, fresh] = c.entries.try_emplace(key, tables, ++c.tick);
  if (!fresh) return hit(it->second);  // another thread built it first
  ++c.stats.misses;
  c.stats.bytes += tables->bytes();
  c.evict_over_budget(&key);
  return tables;
}

}  // namespace detail

/// Sets the table cache's byte budget (0 = unlimited) and trims the cache
/// to it at once, least recently used first, so a warm cache does not wait
/// for its next miss to shrink.
inline void set_cache_budget(std::size_t bytes) {
  auto& c = detail::ntt_table_cache();
  std::lock_guard<std::mutex> lk(c.mu);
  c.budget = bytes;
  c.evict_over_budget(nullptr);
}

/// Hit/miss/eviction counters and live footprint of the table cache.
inline CacheStats twiddle_cache_stats() {
  auto& c = detail::ntt_table_cache();
  std::lock_guard<std::mutex> lk(c.mu);
  CacheStats s = c.stats;
  s.entries = c.entries.size();
  return s;
}

namespace detail {

/// Bit-reversal permutation shared by both butterfly paths.
template <class E>
void bitrev_permute(std::vector<E>& a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

/// Butterflies per pool task when a single fast-path transform is spread
/// over workers.  One level of a size-n transform has n/2 data-independent
/// butterflies; below 2 tasks' worth the dispatch overhead wins and the
/// level runs inline.
inline constexpr std::size_t kLevelParallelGrain = std::size_t{1} << 14;

/// Runs body(b0, b1) over [0, total) split into kLevelParallelGrain-sized
/// chunks on the pool.  The chunk boundaries depend only on `total`, never
/// on the worker count, and the chunks write disjoint indices, so results
/// are bit-identical for any schedule (the pool runs nested regions
/// serially, so this is also safe from inside ntt_many workers).
template <class Body>
void dispatch_chunks(std::size_t total, const Body& body) {
  if (total >= 2 * kLevelParallelGrain) {
    const std::size_t tasks =
        (total + kLevelParallelGrain - 1) / kLevelParallelGrain;
    kp::pram::parallel_for(0, tasks, [&](std::size_t t) {
      const std::size_t b0 = t * kLevelParallelGrain;
      body(b0, std::min(total, b0 + kLevelParallelGrain));
    });
  } else {
    body(0, total);
  }
}

/// In-place iterative radix-2 NTT with the twiddles `table` of one
/// direction of ntt_tables(p, n), p = f.characteristic(), n = a.size() a
/// power of two.  The caller keeps the tables pinned for the call.
/// Word-sized prime fields run cached Shoup butterflies directly on the
/// residues and bulk-charge the identical logical op counts (one
/// multiplication and two additions per butterfly); other domains evaluate
/// the same butterflies through the field interface with the cached integer
/// twiddles.
template <class F>
void ntt_inplace(const F& f, std::vector<typename F::Element>& a,
                 const TwiddleTable& table) {
  const std::size_t n = a.size();
  assert((n & (n - 1)) == 0 && "NTT size must be a power of two");
  assert(table.pow.size() == std::max<std::size_t>(n / 2, 1));
  bitrev_permute(a);
  if constexpr (kp::field::kernels::FastField<F>) {
    const std::uint64_t p = f.characteristic();
    const std::uint64_t* tw = table.level_pow.data();
    const std::uint64_t* twq = table.level_shoup.data();
    std::uint64_t* const d = a.data();
    if (p < (1ULL << 62)) {
      // Harvey's lazy butterflies: residues ride in [0, 4p) (4p < 2^64),
      // the multiplicand correction happens inside shoup_mul_lazy's slack,
      // and one normalization pass restores canonical [0, p) -- ~4x fewer
      // data-dependent corrections than the eager loop below.  Each level's
      // butterflies are independent, so large levels are chunked over the
      // pool; a flat butterfly index b maps to block b/half, lane b%half.
      const std::uint64_t p2 = 2 * p;
      for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        const std::uint64_t* const tw_l = tw;
        const std::uint64_t* const twq_l = twq;
        dispatch_chunks(n / 2, [=](std::size_t b0, std::size_t b1) {
          // Lane-parallel butterflies within this chunk: the chunk bounds
          // are worker-count independent (dispatch_chunks), so the vector
          // path preserves bit-identity across 1..N workers just like the
          // scalar one (and IS the scalar arithmetic, lane by lane).
          if (kp::field::simd::ntt_level_lazy(d, tw_l, twq_l, half, b0, b1,
                                              p)) {
            return;
          }
          std::size_t b = b0;
          while (b < b1) {
            const std::size_t block = b / half;
            const std::size_t j0 = b - block * half;
            const std::size_t j1 = std::min(half, j0 + (b1 - b));
            std::uint64_t* __restrict lo = d + block * len;
            std::uint64_t* __restrict hi = lo + half;
            for (std::size_t j = j0; j < j1; ++j) {
              std::uint64_t u = lo[j];
              if (u >= p2) u -= p2;
              const std::uint64_t v = kp::field::fastmod::shoup_mul_lazy(
                  hi[j], tw_l[j], twq_l[j], p);
              lo[j] = u + v;       // < 4p
              hi[j] = u + p2 - v;  // < 4p
            }
            b += j1 - j0;
          }
        });
        tw += half;
        twq += half;
      }
      dispatch_chunks(n, [=](std::size_t i0, std::size_t i1) {
        if (kp::field::simd::ntt_normalize4p(d + i0, i1 - i0, p)) return;
        for (std::size_t i = i0; i < i1; ++i) {
          std::uint64_t x = d[i];
          if (x >= p2) x -= p2;
          if (x >= p) x -= p;
          d[i] = x;
        }
      });
    } else {
      // p in [2^62, 2^63): no headroom for lazy residues; eager canonical
      // butterflies with the same streamed twiddle layout and chunking.
      for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        const std::uint64_t* const tw_l = tw;
        const std::uint64_t* const twq_l = twq;
        dispatch_chunks(n / 2, [=](std::size_t b0, std::size_t b1) {
          std::size_t b = b0;
          while (b < b1) {
            const std::size_t block = b / half;
            const std::size_t j0 = b - block * half;
            const std::size_t j1 = std::min(half, j0 + (b1 - b));
            std::uint64_t* __restrict lo = d + block * len;
            std::uint64_t* __restrict hi = lo + half;
            for (std::size_t j = j0; j < j1; ++j) {
              const std::uint64_t u = lo[j];
              const std::uint64_t v =
                  kp::field::fastmod::shoup_mul(hi[j], tw_l[j], twq_l[j], p);
              std::uint64_t s = u + v;
              if (s >= p) s -= p;
              lo[j] = s;
              hi[j] = u >= v ? u - v : u + p - v;
            }
            b += j1 - j0;
          }
        });
        tw += half;
        twq += half;
      }
    }
    if (n > 1) {
      // log2(n) levels of n/2 butterflies: 1 mul + 2 adds each, exactly as
      // the generic path charges per butterfly.  Charged on the submitting
      // thread regardless of how the levels were chunked.
      std::uint64_t levels = 0;
      for (std::size_t m = n; m > 1; m >>= 1) ++levels;
      kp::util::count_muls(levels * (n / 2));
      kp::util::count_adds(levels * n);
    }
    return;
  } else {
    // Twiddle table as field constants, from the cached integer powers.
    std::vector<typename F::Element> tw;
    tw.reserve(table.pow.size());
    for (const std::uint64_t w : table.pow) {
      tw.push_back(f.from_int(static_cast<std::int64_t>(w)));
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t step = n / len;
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t j = 0; j < len / 2; ++j) {
          const auto u = a[i + j];
          const auto v = f.mul(a[i + j + len / 2], tw[j * step]);
          a[i + j] = f.add(u, v);
          a[i + j + len / 2] = f.sub(u, v);
        }
      }
    }
  }
}

}  // namespace detail

/// Runs B independent equal-size transforms, whole transforms per pooled
/// worker, all with the one twiddle table `table` (a direction of
/// detail::ntt_tables(p, n), pinned by the caller).  Each entry must already
/// be padded to that size n.  Safe for any domain: domains that record ops
/// into shared state (kSequentialOnly) run the batch serially.  Workers'
/// field-op counts fold back to the submitter per the ExecutionContext
/// contract and every transform is independent of the others, so values and
/// totals are bit-identical for 1..N workers.
template <class F>
void ntt_many(const F& f,
              const std::vector<std::vector<typename F::Element>*>& batch,
              const detail::TwiddleTable& table) {
  if (batch.empty()) return;
  for ([[maybe_unused]] const auto* v : batch) {
    assert(v != nullptr && v->size() == batch.front()->size() &&
           "ntt_many: mixed transform sizes");
  }
  if (kp::field::concurrent_ops_v<F> && batch.size() > 1) {
    kp::pram::parallel_for(0, batch.size(), [&](std::size_t i) {
      detail::ntt_inplace(f, *batch[i], table);
    });
  } else {
    for (auto* v : batch) detail::ntt_inplace(f, *v, table);
  }
}

/// Forward transform of one multiplication operand, padded to size n.  The
/// split ntt_forward / ntt_pointwise_finish pair computes exactly what
/// ntt_mul_prime_field computes before its truncation to the product length
/// (same values, same logical op counts), but
/// lets a caller with a FIXED operand keep its spectrum across products
/// (poly/transform_cache.h).
template <class F>
struct NttSpectrum {
  std::size_t n = 0;  ///< padded transform size (power of two)
  std::vector<typename F::Element> data;  ///< forward NTT, size n
};

template <class F>
NttSpectrum<F> ntt_forward(const F& f,
                           const std::vector<typename F::Element>& a,
                           std::size_t n) {
  const std::uint64_t p = f.characteristic();
  assert(n >= a.size() && (n & (n - 1)) == 0);
  assert(p != 0 && (p - 1) % n == 0 &&
         "field lacks a root of unity of required order");
  NttSpectrum<F> s;
  s.n = n;
  s.data = a;
  s.data.resize(n, f.zero());
  detail::ntt_inplace(f, s.data, detail::ntt_tables(p, n)->forward);
  detail::transform_counters().forward.fetch_add(1, std::memory_order_relaxed);
  return s;
}

/// Pointwise product of two spectra followed by the inverse transform and
/// 1/n scale; returns all n coefficients of the cyclic convolution.  When n
/// covers the whole product these are its coefficients followed by zeros; a
/// shorter n wraps the product's top coefficients onto its bottom
/// ones, which a middle product (poly/transform_cache.h) never reads.
/// Consumes fa's buffer.
template <class F>
std::vector<typename F::Element> ntt_pointwise_finish(const F& f,
                                                      NttSpectrum<F>&& fa,
                                                      const NttSpectrum<F>& fb) {
  assert(fa.n == fb.n && fa.n > 0 && "ntt_pointwise_finish: size mismatch");
  const std::size_t n = fa.n;
  const std::uint64_t p = f.characteristic();
  const std::shared_ptr<const detail::NttTables> t = detail::ntt_tables(p, n);
  std::vector<typename F::Element> c = std::move(fa.data);
  if constexpr (kp::field::kernels::FastField<F>) {
    const auto& bar = kp::field::FieldKernels<F>::barrett(f);
    if (!kp::field::simd::ntt_pointwise_mul(bar, c.data(), fb.data.data(),
                                            n)) {
      for (std::size_t i = 0; i < n; ++i) c[i] = bar.mul(c[i], fb.data[i]);
    }
    kp::util::count_muls(n);
    detail::ntt_inplace(f, c, t->inverse);
    // One logical division for 1/n (the tables hold it, so no extended
    // Euclid runs), then the Shoup constant-multiplier scale.
    kp::util::count_div();
    if (!kp::field::simd::ntt_shoup_scale(c.data(), n, t->n_inv,
                                          t->n_inv_shoup, p)) {
      for (auto& x : c) {
        x = kp::field::fastmod::shoup_mul(x, t->n_inv, t->n_inv_shoup, p);
      }
    }
    kp::util::count_muls(n);
  } else {
    for (std::size_t i = 0; i < n; ++i) c[i] = f.mul(c[i], fb.data[i]);
    detail::ntt_inplace(f, c, t->inverse);
    const auto n_inv = f.inv(f.from_int(static_cast<std::int64_t>(n)));
    for (auto& x : c) x = f.mul(x, n_inv);
  }
  detail::transform_counters().inverse.fetch_add(1, std::memory_order_relaxed);
  return c;
}

/// NTT-based multiplication over any domain whose characteristic() is a
/// word-sized prime p with 2^ceil(log2(out_len)) | p - 1.  The roots of
/// unity are computed as integers and injected with from_int, so this works
/// for concrete prime fields AND for the symbolic CircuitBuilderField
/// (producing NTT-structured circuits over a fixed target field).
template <class F>
std::vector<typename F::Element> ntt_mul_prime_field(
    const F& f, const std::vector<typename F::Element>& a,
    const std::vector<typename F::Element>& b) {
  const std::size_t out_len = a.size() + b.size() - 1;
  std::size_t n = 1;
  while (n < out_len) n <<= 1;
  NttSpectrum<F> fa = ntt_forward(f, a, n);
  const NttSpectrum<F> fb = ntt_forward(f, b, n);
  auto c = ntt_pointwise_finish(f, std::move(fa), fb);
  c.resize(out_len);
  return c;
}

namespace detail {

template <class F>
struct PrimeFieldNttTraits {
  static constexpr bool kSupported = true;
  /// The transform runs directly over F itself (same-field ntt_forward /
  /// ntt_pointwise_finish are valid).  Traits that route through ANOTHER
  /// domain -- GFpk's integer-packed Z/qZ kernel, the circuit field -- leave
  /// this flag unset, which keeps them off the split (cached) transform path.
  static constexpr bool kDirect = true;
  static bool available(const F& f, std::size_t out_len) {
    std::size_t n = 1;
    int log_n = 0;
    while (n < out_len) {
      n <<= 1;
      ++log_n;
    }
    return log_n <= two_adicity(f.characteristic());
  }
  static std::vector<typename F::Element> mul(
      const F& f, const std::vector<typename F::Element>& a,
      const std::vector<typename F::Element>& b) {
    return ntt_mul_prime_field(f, a, b);
  }
};

}  // namespace detail

template <std::uint64_t P>
struct NttTraits<kp::field::Zp<P>>
    : detail::PrimeFieldNttTraits<kp::field::Zp<P>> {};

template <>
struct NttTraits<kp::field::GFp> : detail::PrimeFieldNttTraits<kp::field::GFp> {};

/// The frozen seed field keeps the generic butterfly path (its FieldKernels
/// trait stays non-fast), giving the equivalence tests and bench_kernels an
/// end-to-end reference transform.
template <>
struct NttTraits<kp::field::GFpReference>
    : detail::PrimeFieldNttTraits<kp::field::GFpReference> {};

}  // namespace kp::poly
