// Lane-parallel field-kernel backend with runtime CPU dispatch.
//
// This header sits BENEATH field/kernels.h: each entry point here is a
// vectorized rendition of one delayed-reduction kernel (dot, sum, the
// batched CSR row product spmm_row, Montgomery batched inversion, the
// sigma-basis axpy), of one NTT hot loop (Harvey lazy
// butterfly level, [0,4p) normalization, pointwise Barrett product, Shoup
// scale), or the register-tiled matrix product gemm_rows.  Every function
// but gemm_rows returns `true` only when it fully handled the request with
// BIT-IDENTICAL results to the scalar path; callers keep their scalar loop
// as the fallback, so a `false` return (unsupported CPU, forced-scalar
// build, small n) costs one branch.  gemm_rows always handles the request:
// its scalar tile body lives here too, in the same tile shape as the vector
// bodies.
//
// WHY BIT-IDENTITY IS FREE HERE: every kernel's contract is a canonical
// residue in [0, p) (or, for the lazy butterflies, the exact same
// representative in [0, 4p) the scalar wraparound arithmetic produces).
// Canonical residues mod p are unique, so ANY accumulation order or limb
// decomposition that is exact over the integers yields the same bytes; the
// lazy butterfly is computed lane-by-lane with literally the same formula
// (same mod-2^64 wraparounds) as the scalar loop.  Op accounting is owned by
// the callers in field/kernels.h / poly/ntt.h and is untouched: SIMD is
// invisible except in wall clock and the simd_stats() diagnostic.
//
// Dispatch levels (runtime, overridable):
//   kScalar -- always available; every entry point returns false.
//   kAvx2   -- x86-64: 4x64 lanes via _mm256_mul_epu32 odd/even splitting
//              for dot and sum, plus the lane ops (vec_add/sub/neg).  For
//              ~64-bit moduli AVX2 has no 64x64 multiplier, so the 4-limb
//              scheme roughly ties the scalar mulx loop; it wins clearly for
//              p <= 2^29.  gemm_rows runs the scalar tile at this level.
//   kAvx512 -- x86-64: 8x64 lanes (F+DQ for vpmullq); all entry points.
//              With AVX-512 IFMA the dot, gemm and spmm_row kernels use
//              52-bit-split vpmadd52 accumulation, the fastest path for any
//              p < 2^63; spmm_row has no body without IFMA.  The gathered
//              dot has no vector body at any level: hardware gathers lost
//              to the scalar loop on the sparse operators' rows.
//
// The level is detected once (cpuid via __builtin_cpu_supports), can be
// capped by the KP_SIMD environment variable (off|scalar|avx2|avx512),
// and can be changed at runtime with set_simd_level() (the equivalence tests
// sweep it).  A -DKP_SIMD=OFF CMake build defines KP_SIMD_DISABLED and folds
// everything here to the `return false` stubs at compile time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "field/fastmod.h"

#if !defined(KP_SIMD_DISABLED) && (defined(__GNUC__) || defined(__clang__))
#if defined(__x86_64__)
#define KP_SIMD_X86 1
#include <immintrin.h>
#endif
#endif

namespace kp::field::simd {

using fastmod::u128;
using fastmod::u64;

/// Dispatch levels, ordered so that "walk down until available" degrades
/// an unavailable request sensibly (avx512 -> avx2 -> scalar on x86).
enum class SimdLevel : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline const char* to_string(SimdLevel l) {
  switch (l) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

/// Below this many elements the dispatch branch + tail handling cost more
/// than the lanes recover; callers fall back to the scalar loop.
inline constexpr std::size_t kMinSimdN = 32;

namespace detail {

inline bool level_supported(SimdLevel l) {
  switch (l) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(KP_SIMD_X86)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(KP_SIMD_X86)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

inline bool hw_ifma() {
#if defined(KP_SIMD_X86)
  return __builtin_cpu_supports("avx512ifma");
#else
  return false;
#endif
}

/// Highest level this binary + CPU can run, before any override.
inline SimdLevel detect_max_level() {
  for (int l = static_cast<int>(SimdLevel::kAvx512); l > 0; --l) {
    if (level_supported(static_cast<SimdLevel>(l))) {
      return static_cast<SimdLevel>(l);
    }
  }
  return SimdLevel::kScalar;
}

/// Walks the request down to the nearest supported level (never up).
inline SimdLevel clamp_level(SimdLevel want) {
  int l = static_cast<int>(want);
  while (l > 0 && !level_supported(static_cast<SimdLevel>(l))) --l;
  return static_cast<SimdLevel>(l);
}

/// KP_SIMD env override; anything unrecognized means "auto".
inline SimdLevel env_level(SimdLevel fallback) {
  const char* e = std::getenv("KP_SIMD");
  if (e == nullptr) return fallback;
  if (std::strcmp(e, "off") == 0 || std::strcmp(e, "scalar") == 0 ||
      std::strcmp(e, "0") == 0) {
    return SimdLevel::kScalar;
  }
  if (std::strcmp(e, "avx2") == 0) return clamp_level(SimdLevel::kAvx2);
  if (std::strcmp(e, "avx512") == 0) return clamp_level(SimdLevel::kAvx512);
  return fallback;
}

struct Config {
  std::atomic<int> level;
  std::atomic<bool> ifma;
};

inline Config& config() {
  static Config c{{static_cast<int>(env_level(detect_max_level()))},
                  {hw_ifma()}};
  return c;
}

/// Vector-group counters, one per kernel family.  Relaxed: they are a
/// between-runs diagnostic, never part of any contract.  Each thread bumps
/// its own cache-line-aligned shard and simd_stats() sums the shards: one
/// shared set, bumped once per CSR row from every pool worker, cost the
/// sparse block applies more time than their vector bodies saved.
struct alignas(64) StatCounters {
  std::atomic<std::uint64_t> dot{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> spmm{0};
  std::atomic<std::uint64_t> gemm{0};
  std::atomic<std::uint64_t> batch_inverse{0};
  std::atomic<std::uint64_t> ntt{0};
  std::atomic<std::uint64_t> pointwise{0};
  std::atomic<std::uint64_t> scale{0};
  std::atomic<std::uint64_t> vec{0};
};

inline constexpr std::size_t kStatShards = 64;

inline StatCounters* stat_shards() {
  static StatCounters shards[kStatShards];
  return shards;
}

/// This thread's shard; threads past kStatShards share one, still exactly.
inline StatCounters& stat_counters() {
  static std::atomic<std::size_t> next{0};
  thread_local StatCounters& mine =
      stat_shards()[next.fetch_add(1, std::memory_order_relaxed) % kStatShards];
  return mine;
}

inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t groups) {
  c.fetch_add(groups, std::memory_order_relaxed);
}

}  // namespace detail

inline SimdLevel simd_max_level() { return detail::detect_max_level(); }

inline SimdLevel simd_level() {
#if defined(KP_SIMD_X86)
  return static_cast<SimdLevel>(
      detail::config().level.load(std::memory_order_relaxed));
#else
  return SimdLevel::kScalar;
#endif
}

/// Requests a level; unavailable levels degrade downward (avx512 -> avx2 ->
/// scalar).  Returns the level actually installed.  The equivalence tests
/// sweep this; production code never needs to call it.
inline SimdLevel set_simd_level(SimdLevel want) {
  const SimdLevel got = detail::clamp_level(want);
  detail::config().level.store(static_cast<int>(got),
                               std::memory_order_relaxed);
  return got;
}

/// Whether the AVX-512 dot kernels may use the IFMA (vpmadd52) path.
inline bool simd_ifma() {
#if defined(KP_SIMD_X86)
  return detail::config().ifma.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Test hook: force the non-IFMA AVX-512 dot bodies even on IFMA hardware
/// (and-ed with hardware support, so enabling on non-IFMA CPUs is a no-op).
inline void set_simd_ifma(bool on) {
  detail::config().ifma.store(on && detail::hw_ifma(),
                              std::memory_order_relaxed);
}

/// Snapshot of the dispatch state and how many vector groups (one group =
/// one full-width register of lanes) each kernel family has processed.
struct SimdStats {
  const char* level = "scalar";
  bool ifma = false;
  std::uint64_t dot = 0;
  std::uint64_t sum = 0;
  std::uint64_t gather = 0;  ///< always 0: the gathered dot is scalar only
  std::uint64_t spmm = 0;
  std::uint64_t gemm = 0;
  std::uint64_t batch_inverse = 0;
  std::uint64_t ntt = 0;
  std::uint64_t pointwise = 0;
  std::uint64_t scale = 0;
  std::uint64_t vec = 0;
};

inline SimdStats simd_stats() {
  SimdStats s;
  s.level = to_string(simd_level());
  s.ifma = simd_ifma();
  for (std::size_t i = 0; i < detail::kStatShards; ++i) {
    const auto& c = detail::stat_shards()[i];
    s.dot += c.dot.load(std::memory_order_relaxed);
    s.sum += c.sum.load(std::memory_order_relaxed);
    s.spmm += c.spmm.load(std::memory_order_relaxed);
    s.gemm += c.gemm.load(std::memory_order_relaxed);
    s.batch_inverse += c.batch_inverse.load(std::memory_order_relaxed);
    s.ntt += c.ntt.load(std::memory_order_relaxed);
    s.pointwise += c.pointwise.load(std::memory_order_relaxed);
    s.scale += c.scale.load(std::memory_order_relaxed);
    s.vec += c.vec.load(std::memory_order_relaxed);
  }
  return s;
}

inline void reset_simd_stats() {
  for (std::size_t i = 0; i < detail::kStatShards; ++i) {
    auto& c = detail::stat_shards()[i];
    c.dot.store(0, std::memory_order_relaxed);
    c.sum.store(0, std::memory_order_relaxed);
    c.spmm.store(0, std::memory_order_relaxed);
    c.gemm.store(0, std::memory_order_relaxed);
    c.batch_inverse.store(0, std::memory_order_relaxed);
    c.ntt.store(0, std::memory_order_relaxed);
    c.pointwise.store(0, std::memory_order_relaxed);
    c.scale.store(0, std::memory_order_relaxed);
    c.vec.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Register-tiled matrix product (every build).
//
// gemm_rows computes out = A * B mod p for a panel of A's rows.  A tile
// owns an R x (NV * kLanes) block of outputs for the whole K loop.  The
// body's accumulate() runs at most body.block() <= kGemmBlock k-steps at a
// time: at each k it broadcasts a[r][k] for its R rows and multiplies it
// into NV contiguous vectors of B's row k, summing exact limb lanes in
// registers, and stores the lanes when the block ends.  The driver folds
// each lane into its canonical running value once per block (body.fold) and
// writes the finished tile out.  B is read in place along its rows, so
// there is no transposed or packed copy.  The driver picks R and NV at
// compile time (ragged last rows and columns instantiate smaller tiles; a
// vector body masks the lanes past the last column), so every body --
// including the scalar one, the same tile with u128 lanes -- shares one
// walk, one spill loop and one fold loop.

/// Output rows per panel; callers that fan out over panels use this grain.
inline constexpr std::size_t kGemmPanelRows = 16;

/// Maximum k-steps between spills of a tile's lane accumulators.
inline constexpr std::size_t kGemmBlock = 1024;

namespace detail {

/// One r x w tile with R = r and NV = ceil(w / kLanes): accumulate a block,
/// fold its lanes, repeat; then write the canonical tile out.
template <class Body, int R, int NV>
void gemm_blocks(const Body& body, const u64* a, std::size_t lda, const u64* b,
                 std::size_t ldb, u64* out, std::size_t ldo, std::size_t k_len,
                 std::size_t w) {
  constexpr std::size_t kWidth = NV * Body::kLanes;
  typename Body::Lane lanes[Body::kLimbs][R][kWidth];
  u64 run[R][kWidth] = {};
  const std::size_t block = body.block();
  for (std::size_t k0 = 0; k0 < k_len; k0 += block) {
    const std::size_t k1 = k_len - k0 < block ? k_len : k0 + block;
    body.template accumulate<R, NV>(a, lda, b, ldb, k0, k1, w, lanes);
    for (int r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < w; ++c) {
        typename Body::Lane limb[Body::kLimbs];
        for (int l = 0; l < Body::kLimbs; ++l) limb[l] = lanes[l][r][c];
        run[r][c] = body.fold(limb, run[r][c]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < w; ++c) out[r * ldo + c] = run[r][c];
  }
}

/// Picks R = r and NV = ceil(w / kLanes) by compile-time recursion.
template <class Body, int R = 1, int NV = 1>
void gemm_tile(const Body& body, std::size_t r, std::size_t w, const u64* a,
               std::size_t lda, const u64* b, std::size_t ldb, u64* out,
               std::size_t ldo, std::size_t k) {
  if constexpr (R < Body::kRows) {
    if (r > R) {
      gemm_tile<Body, R + 1, NV>(body, r, w, a, lda, b, ldb, out, ldo, k);
      return;
    }
  }
  if constexpr (NV < Body::kVecs) {
    if (w > NV * Body::kLanes) {
      gemm_tile<Body, R, NV + 1>(body, r, w, a, lda, b, ldb, out, ldo, k);
      return;
    }
  }
  gemm_blocks<Body, R, NV>(body, a, lda, b, ldb, out, ldo, k, w);
}

/// Walks the output column tile by column tile and, within one, down the
/// row strips: the strips of a panel reuse B's column strip from cache
/// while it is hot.
template <class Body>
void gemm_drive(const Body& body, const u64* a, std::size_t lda, const u64* b,
                std::size_t ldb, u64* out, std::size_t ldo, std::size_t rows,
                std::size_t k, std::size_t cols) {
  constexpr std::size_t kWidth = Body::kVecs * Body::kLanes;
  for (std::size_t j = 0; j < cols; j += kWidth) {
    const std::size_t w = cols - j < kWidth ? cols - j : kWidth;
    for (std::size_t i = 0; i < rows; i += Body::kRows) {
      const std::size_t r = rows - i < Body::kRows ? rows - i : Body::kRows;
      gemm_tile(body, r, w, a + i * lda, lda, b + j, ldb, out + i * ldo + j,
                ldo, k);
    }
  }
}

/// Scalar tile: R x NV outputs, one u128 lane each.  Its block is
/// min(dcap, kGemmBlock) k-steps: a canonical running value plus dcap
/// products of canonical operands cannot overflow (the scalar dot's bound).
struct GemmScalar {
  using Lane = u128;
  static constexpr int kRows = 4;
  static constexpr int kVecs = 4;
  static constexpr int kLimbs = 1;
  static constexpr std::size_t kLanes = 1;
  fastmod::Barrett bar;

  std::size_t block() const {
    return bar.dcap < kGemmBlock ? static_cast<std::size_t>(bar.dcap)
                                 : kGemmBlock;
  }

  template <int R, int NV>
  void accumulate(const u64* a, std::size_t lda, const u64* b, std::size_t ldb,
                  std::size_t k0, std::size_t k1, std::size_t,
                  u128 (&lanes)[1][R][NV]) const {
    u128 acc[R][NV] = {};
    for (std::size_t k = k0; k < k1; ++k) {
      const u64* bk = b + k * ldb;
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const u64 av = a[r * lda + k];
#pragma GCC unroll 4
        for (int c = 0; c < NV; ++c) {
          acc[r][c] += static_cast<u128>(av) * bk[c];
        }
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < NV; ++c) lanes[0][r][c] = acc[r][c];
    }
  }

  u64 fold(const u128* limb, u64 acc) const {
    return bar.reduce_full(limb[0] + acc);
  }
};

}  // namespace detail

#if defined(KP_SIMD_X86)

// ---------------------------------------------------------------------------
// Shared scalar pieces: limb-accumulator recombination and tails.  These run
// on the host ISA (no target attributes) and use the same Barrett
// reduce_full the scalar kernels use, so the final canonical residue is the
// unique one both paths agree on.

namespace detail {

/// Folds 4x32-bit-limb accumulator sums (weights 2^0, 2^32, 2^64, 2^96) plus
/// a canonical running value into one canonical residue.  Each s_k is a sum
/// over lanes of a 64-bit accumulator, so s_k < 2^64 * lanes <= 2^67 and
/// every intermediate below fits u128.
inline u64 fold_4limb(const fastmod::Barrett& bar, u128 s0, u128 s1, u128 s2,
                      u128 s3, u64 acc) {
  const u64 r_low = bar.reduce_full(s0 + (s1 << 32));
  const u64 r_high = bar.reduce_full(
      static_cast<u128>(bar.reduce_full(s2 + (s3 << 32))) << 64);
  return bar.reduce_full(static_cast<u128>(acc) + r_low + r_high);
}

/// Folds 52-bit-split accumulator sums (weights 2^0, 2^52, 2^104).  The
/// 2^104 weight is applied as two exact shifts by 52 with a reduction in
/// between, since value << 104 could overflow u128.
inline u64 fold_ifma(const fastmod::Barrett& bar, u128 s0, u128 s52, u128 s104,
                     u64 acc) {
  const u64 r0 = bar.reduce_full(s0);
  const u64 r52 =
      bar.reduce_full(static_cast<u128>(bar.reduce_full(s52)) << 52);
  u64 r104 = bar.reduce_full(s104);
  r104 = bar.reduce_full(static_cast<u128>(r104) << 52);
  r104 = bar.reduce_full(static_cast<u128>(r104) << 52);
  return bar.reduce_full(static_cast<u128>(acc) + r0 + r52 + r104);
}

/// Scalar delayed-reduction tail: folds a[i]*b[i], i in [i, n), into the
/// canonical running value exactly as the scalar dot kernel would.
inline u64 dot_tail(const fastmod::Barrett& bar, const u64* a, const u64* b,
                    std::size_t i, std::size_t n, u64 acc) {
  u128 t = acc;
  u64 left = bar.dcap;
  for (; i < n; ++i) {
    t += static_cast<u128>(a[i]) * b[i];
    if (--left == 0) {
      t = bar.reduce_full(t);
      left = bar.dcap;
    }
  }
  return bar.reduce_full(t);
}

/// Moduli small enough for the single-multiplier small-p dot path: operands
/// fit 32 bits exactly and a 64-bit lane accumulator holds >= 64 products.
inline constexpr u64 kSmallPMax = u64{1} << 29;

/// Max vector iterations between spills of the 4-limb accumulators: each
/// iteration adds at most 3 * (2^32 - 1) to a limb accumulator.
inline constexpr std::size_t kLimbBlock = std::size_t{1} << 29;

/// Max vector iterations between spills of the 52-bit-split accumulators:
/// each iteration adds < 2^52 to each accumulator, so 2^11 stays < 2^63.
inline constexpr std::size_t kIfmaBlock = std::size_t{1} << 11;

}  // namespace detail

// ---------------------------------------------------------------------------
// x86-64 kernel bodies.

// GCC's AVX-512 headers route many intrinsics through
// _mm512_undefined_epi32(), which -Wmaybe-uninitialized flags at every
// inline expansion site; the values are write-only merge operands.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace detail {

#define KP_TGT_AVX2 __attribute__((target("avx2")))
#define KP_TGT_AVX512 __attribute__((target("avx512f,avx512dq")))
#define KP_TGT_AVX512IFMA __attribute__((target("avx512f,avx512dq,avx512ifma")))

KP_TGT_AVX512 inline u128 hsum512(__m512i v) {
  alignas(64) u64 t[8];
  _mm512_store_si512(reinterpret_cast<__m512i*>(t), v);
  u128 s = 0;
  for (int k = 0; k < 8; ++k) s += t[k];
  return s;
}

KP_TGT_AVX2 inline u128 hsum256(__m256i v) {
  alignas(32) u64 t[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(t), v);
  return static_cast<u128>(t[0]) + t[1] + t[2] + t[3];
}

/// Exact high 64 bits of a 64x64 product per lane, via four 32x32 partial
/// products.  t = lo32(ll>>32 + lo32(lh) + lo32(hl)) cannot overflow: it is
/// at most 3*(2^32-1) < 2^34.
KP_TGT_AVX512 inline __m512i mulhi64_512(__m512i a, __m512i b) {
  const __m512i m32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i ah = _mm512_srli_epi64(a, 32);
  const __m512i bh = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i lh = _mm512_mul_epu32(a, bh);
  const __m512i hl = _mm512_mul_epu32(ah, b);
  const __m512i hh = _mm512_mul_epu32(ah, bh);
  const __m512i t = _mm512_add_epi64(
      _mm512_srli_epi64(ll, 32),
      _mm512_add_epi64(_mm512_and_si512(lh, m32), _mm512_and_si512(hl, m32)));
  return _mm512_add_epi64(
      _mm512_add_epi64(hh, _mm512_srli_epi64(t, 32)),
      _mm512_add_epi64(_mm512_srli_epi64(lh, 32), _mm512_srli_epi64(hl, 32)));
}

// ---- dot bodies -----------------------------------------------------------

/// The seven 52-bit-split accumulators of one lane vector (the IFMA dot
/// and SpMM bodies), each fed by its own vpmadd52 so no two products wait
/// on the same 4-cycle latency chain.
struct Ifma52Acc {
  __m512i w0, w52a, w52b, w52c, w104a, w104b, w104c;
};

/// acc += a * x lane-wise for a, x < 2^63: with a1 = a >> 52 and
/// x1 = x >> 52 (< 2^11), a * x = lo52(a)lo52(x) + 2^52 (lo52(a) x1 + a1
/// lo52(x)) + 2^104 a1 x1.  vpmadd52 masks its operands to 52 bits
/// internally, so the low halves need no explicit mask.  Per call a lane of
/// w0 and of each w52 accumulator gains < 2^52, of each w104 one < 2^22.
KP_TGT_AVX512IFMA inline void ifma52_madd(Ifma52Acc& s, __m512i a,
                                          __m512i x) {
  const __m512i a1 = _mm512_srli_epi64(a, 52);
  const __m512i x1 = _mm512_srli_epi64(x, 52);
  s.w0 = _mm512_madd52lo_epu64(s.w0, a, x);
  s.w52a = _mm512_madd52hi_epu64(s.w52a, a, x);
  s.w52b = _mm512_madd52lo_epu64(s.w52b, a, x1);
  s.w52c = _mm512_madd52lo_epu64(s.w52c, a1, x);
  s.w104a = _mm512_madd52hi_epu64(s.w104a, a, x1);
  s.w104b = _mm512_madd52hi_epu64(s.w104b, a1, x);
  s.w104c = _mm512_madd52lo_epu64(s.w104c, a1, x1);
}

/// 8x64 dot via the 52-bit split (ifma52_madd), two independent 8-lane
/// groups in flight per iteration.
KP_TGT_AVX512IFMA inline u64 dot_ifma_512(const fastmod::Barrett& bar,
                                          const u64* a, const u64* b,
                                          std::size_t n) {
  const __m512i zero = _mm512_setzero_si512();
  u64 acc = 0;
  std::size_t i = 0;
  while (i + 16 <= n) {
    std::size_t iters = (n - i) / 16;
    if (iters > kIfmaBlock) iters = kIfmaBlock;
    const std::size_t end = i + iters * 16;
    Ifma52Acc g{zero, zero, zero, zero, zero, zero, zero};
    Ifma52Acc h{zero, zero, zero, zero, zero, zero, zero};
    for (; i < end; i += 16) {
      ifma52_madd(g, _mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
      ifma52_madd(h, _mm512_loadu_si512(a + i + 8),
                  _mm512_loadu_si512(b + i + 8));
    }
    const u128 s0 = hsum512(g.w0) + hsum512(h.w0);
    const u128 s52 = hsum512(g.w52a) + hsum512(g.w52b) + hsum512(g.w52c) +
                     hsum512(h.w52a) + hsum512(h.w52b) + hsum512(h.w52c);
    const u128 s104 = hsum512(g.w104a) + hsum512(g.w104b) + hsum512(g.w104c) +
                      hsum512(h.w104a) + hsum512(h.w104b) + hsum512(h.w104c);
    acc = fold_ifma(bar, s0, s52, s104, acc);
  }
  return dot_tail(bar, a, b, i, n, acc);
}

/// 8x64 dot via 4 32-bit limbs per product (no 64-bit multiplier needed).
KP_TGT_AVX512 inline u64 dot_4limb_512(const fastmod::Barrett& bar,
                                       const u64* a, const u64* b,
                                       std::size_t n) {
  const __m512i m32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i zero = _mm512_setzero_si512();
  u64 acc = 0;
  std::size_t i = 0;
  while (i + 8 <= n) {
    std::size_t iters = (n - i) / 8;
    if (iters > kLimbBlock) iters = kLimbBlock;
    const std::size_t end = i + iters * 8;
    __m512i s0 = zero, s1 = zero, s2 = zero, s3 = zero;
    for (; i < end; i += 8) {
      const __m512i va = _mm512_loadu_si512(a + i);
      const __m512i vb = _mm512_loadu_si512(b + i);
      const __m512i ah = _mm512_srli_epi64(va, 32);
      const __m512i bh = _mm512_srli_epi64(vb, 32);
      const __m512i ll = _mm512_mul_epu32(va, vb);
      const __m512i lh = _mm512_mul_epu32(va, bh);
      const __m512i hl = _mm512_mul_epu32(ah, vb);
      const __m512i hh = _mm512_mul_epu32(ah, bh);
      s0 = _mm512_add_epi64(s0, _mm512_and_si512(ll, m32));
      s1 = _mm512_add_epi64(
          s1, _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                               _mm512_add_epi64(_mm512_and_si512(lh, m32),
                                                _mm512_and_si512(hl, m32))));
      s2 = _mm512_add_epi64(
          s2, _mm512_add_epi64(_mm512_and_si512(hh, m32),
                               _mm512_add_epi64(_mm512_srli_epi64(lh, 32),
                                                _mm512_srli_epi64(hl, 32))));
      s3 = _mm512_add_epi64(s3, _mm512_srli_epi64(hh, 32));
    }
    acc = fold_4limb(bar, hsum512(s0), hsum512(s1), hsum512(s2), hsum512(s3),
                     acc);
  }
  return dot_tail(bar, a, b, i, n, acc);
}

/// 8x64 dot for p <= 2^29: operands fit 32 bits, one vpmuludq per 8 lanes,
/// and a 64-bit lane accumulator holds >= 64 products between spills.
KP_TGT_AVX512 inline u64 dot_smallp_512(const fastmod::Barrett& bar,
                                        const u64* a, const u64* b,
                                        std::size_t n) {
  const u64 cap = ~u64{0} / ((bar.p - 1) * (bar.p - 1));
  u64 acc = 0;
  std::size_t i = 0;
  while (i + 8 <= n) {
    std::size_t iters = (n - i) / 8;
    if (iters > cap) iters = cap;
    const std::size_t end = i + iters * 8;
    __m512i s = _mm512_setzero_si512();
    for (; i < end; i += 8) {
      s = _mm512_add_epi64(s, _mm512_mul_epu32(_mm512_loadu_si512(a + i),
                                               _mm512_loadu_si512(b + i)));
    }
    acc = bar.reduce_full(static_cast<u128>(acc) + hsum512(s));
  }
  return dot_tail(bar, a, b, i, n, acc);
}

/// 4x64 dot, 4-limb scheme (see dot_4limb_512).
KP_TGT_AVX2 inline u64 dot_4limb_256(const fastmod::Barrett& bar, const u64* a,
                                     const u64* b, std::size_t n) {
  const __m256i m32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i zero = _mm256_setzero_si256();
  u64 acc = 0;
  std::size_t i = 0;
  while (i + 4 <= n) {
    std::size_t iters = (n - i) / 4;
    if (iters > kLimbBlock) iters = kLimbBlock;
    const std::size_t end = i + iters * 4;
    __m256i s0 = zero, s1 = zero, s2 = zero, s3 = zero;
    for (; i < end; i += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const __m256i ah = _mm256_srli_epi64(va, 32);
      const __m256i bh = _mm256_srli_epi64(vb, 32);
      const __m256i ll = _mm256_mul_epu32(va, vb);
      const __m256i lh = _mm256_mul_epu32(va, bh);
      const __m256i hl = _mm256_mul_epu32(ah, vb);
      const __m256i hh = _mm256_mul_epu32(ah, bh);
      s0 = _mm256_add_epi64(s0, _mm256_and_si256(ll, m32));
      s1 = _mm256_add_epi64(
          s1, _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                               _mm256_add_epi64(_mm256_and_si256(lh, m32),
                                                _mm256_and_si256(hl, m32))));
      s2 = _mm256_add_epi64(
          s2, _mm256_add_epi64(_mm256_and_si256(hh, m32),
                               _mm256_add_epi64(_mm256_srli_epi64(lh, 32),
                                                _mm256_srli_epi64(hl, 32))));
      s3 = _mm256_add_epi64(s3, _mm256_srli_epi64(hh, 32));
    }
    acc = fold_4limb(bar, hsum256(s0), hsum256(s1), hsum256(s2), hsum256(s3),
                     acc);
  }
  return dot_tail(bar, a, b, i, n, acc);
}

/// 4x64 dot for p <= 2^29 (see dot_smallp_512).
KP_TGT_AVX2 inline u64 dot_smallp_256(const fastmod::Barrett& bar,
                                      const u64* a, const u64* b,
                                      std::size_t n) {
  const u64 cap = ~u64{0} / ((bar.p - 1) * (bar.p - 1));
  u64 acc = 0;
  std::size_t i = 0;
  while (i + 4 <= n) {
    std::size_t iters = (n - i) / 4;
    if (iters > cap) iters = cap;
    const std::size_t end = i + iters * 4;
    __m256i s = _mm256_setzero_si256();
    for (; i < end; i += 4) {
      s = _mm256_add_epi64(
          s, _mm256_mul_epu32(
                 _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
                 _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
    }
    acc = bar.reduce_full(static_cast<u128>(acc) + hsum256(s));
  }
  return dot_tail(bar, a, b, i, n, acc);
}

/// Internal dot dispatch (no stats/threshold here; the public wrapper owns
/// those).  Level must be >= kAvx2.
inline u64 dot_dispatch(SimdLevel lvl, const fastmod::Barrett& bar,
                        const u64* a, const u64* b, std::size_t n) {
  if (lvl == SimdLevel::kAvx512) {
    if (bar.p <= kSmallPMax) return dot_smallp_512(bar, a, b, n);
    if (simd_ifma()) return dot_ifma_512(bar, a, b, n);
    return dot_4limb_512(bar, a, b, n);
  }
  if (bar.p <= kSmallPMax) return dot_smallp_256(bar, a, b, n);
  return dot_4limb_256(bar, a, b, n);
}

// ---- sum bodies -----------------------------------------------------------

/// 8x64 sum with per-lane lo/hi carry tracking: residues are < 2^63, so
/// lane wraps are exact and counted; the recombined total fits u128 for any
/// realizable n.
KP_TGT_AVX512 inline u64 sum_512(const fastmod::Barrett& bar, const u64* a,
                                 std::size_t n) {
  __m512i lo = _mm512_setzero_si512();
  __m512i hi = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(a + i);
    lo = _mm512_add_epi64(lo, x);
    const __mmask8 c = _mm512_cmplt_epu64_mask(lo, x);
    hi = _mm512_mask_add_epi64(hi, c, hi, one);
  }
  u128 t = hsum512(lo) + (hsum512(hi) << 64);
  for (; i < n; ++i) t += a[i];
  return bar.reduce_full(t);
}

/// 4x64 sum; AVX2 lacks unsigned compares, so the wrap test flips signs.
KP_TGT_AVX2 inline u64 sum_256(const fastmod::Barrett& bar, const u64* a,
                               std::size_t n) {
  __m256i lo = _mm256_setzero_si256();
  __m256i hi = _mm256_setzero_si256();
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    lo = _mm256_add_epi64(lo, x);
    // wrapped iff new lo < x (unsigned): compare with the sign bit flipped.
    const __m256i wrapped = _mm256_cmpgt_epi64(_mm256_xor_si256(x, sign),
                                               _mm256_xor_si256(lo, sign));
    hi = _mm256_sub_epi64(hi, wrapped);  // wrapped lanes are -1
  }
  u128 t = hsum256(lo) + (hsum256(hi) << 64);
  // A pointer walk: gcc 12 misreads the indexed tail, inlined at a
  // constant n, as unbounded (-Waggressive-loop-optimizations).
  for (const u64* tail = a + i; tail != a + n; ++tail) t += *tail;
  return bar.reduce_full(t);
}

// ---- batched CSR row product (SpMM) ---------------------------------------

/// Max vector iterations between folds of the SpMM accumulators.  Per
/// iteration (one ifma52_madd) a lane of w0 and of each of the three w52
/// accumulators gains < 2^52, and of each w104 accumulator < 2^22.  A fold
/// sums the three w52 accumulators and, in the packed layout, the two halves
/// of each: at most six terms, < 6 * 2^9 * 2^52 = 3 * 2^62 < 2^64 per 64-bit
/// lane.  (w0 sums to < 2^62, w104 to < 6 * 2^9 * 2^22 < 2^34.)
inline constexpr std::size_t kSpmmBlock = std::size_t{1} << 9;

/// One CSR row against a row-major n x b block, exact for any p < 2^63:
/// out[k] = sum_j val[j] * xt[col[j] * b + k] for a chunk of up to 8 block
/// columns.  The block transpose makes each entry's products one broadcast
/// of val[j] against the contiguous lanes xt[col[j] * b + 0 .. chunk), so
/// there are no gathers.  A chunk <= 4 packs two entries per zmm (entry j in
/// lanes 0-3, entry j + 1 in lanes 4-7) and the fold adds the halves.
/// Masked loads cover the lanes past the chunk (masked-off lanes never touch
/// memory), and every address formed is inside xt.  Each lane folds once per
/// kSpmmBlock iterations, as GemmIfma512 does: w0 + (w52 << 52) + w104 *
/// (2^104 mod p) + the running value is < 2^116, and one reduce_full makes
/// it canonical.
KP_TGT_AVX512IFMA inline void spmm_ifma_512(const fastmod::Barrett& bar,
                                            const u64* val,
                                            const std::size_t* col,
                                            const u64* xt, std::size_t b,
                                            std::size_t chunk, std::size_t nnz,
                                            u64* out) {
  const bool packed = chunk <= 4;
  const std::size_t step = packed ? 2 : 1;
  const __mmask8 m = static_cast<__mmask8>((1u << chunk) - 1);
  const __m512i pair = _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0);
  const __m512i zero = _mm512_setzero_si512();
  u64 run[8] = {};
  std::size_t j = 0;
  while (j < nnz) {
    const std::size_t end =
        nnz - j > kSpmmBlock * step ? j + kSpmmBlock * step : nnz;
    Ifma52Acc s{zero, zero, zero, zero, zero, zero, zero};
    if (packed) {
      for (; j + 2 <= end; j += 2) {
        const __m512i a =
            _mm512_permutexvar_epi64(pair, _mm512_maskz_loadu_epi64(3, val + j));
        const __m512i lo = _mm512_maskz_loadu_epi64(m, xt + col[j] * b);
        const __m512i hi = _mm512_maskz_loadu_epi64(m, xt + col[j + 1] * b);
        ifma52_madd(
            s, a, _mm512_inserti64x4(lo, _mm512_castsi512_si256(hi), 1));
      }
    }
    for (; j < end; ++j) {  // every entry unpacked, or the odd last one
      ifma52_madd(s, _mm512_set1_epi64(static_cast<long long>(val[j])),
                     _mm512_maskz_loadu_epi64(m, xt + col[j] * b));
    }
    alignas(64) u64 t0[8], t52[8], t104[8];
    _mm512_store_si512(reinterpret_cast<__m512i*>(t0), s.w0);
    _mm512_store_si512(
        reinterpret_cast<__m512i*>(t52),
        _mm512_add_epi64(s.w52a, _mm512_add_epi64(s.w52b, s.w52c)));
    _mm512_store_si512(
        reinterpret_cast<__m512i*>(t104),
        _mm512_add_epi64(s.w104a, _mm512_add_epi64(s.w104b, s.w104c)));
    for (std::size_t k = 0; k < chunk; ++k) {
      u64 s0 = t0[k], s52 = t52[k], s104 = t104[k];
      if (packed) {
        s0 += t0[k + 4];
        s52 += t52[k + 4];
        s104 += t104[k + 4];
      }
      run[k] = bar.reduce_full(static_cast<u128>(s0) +
                               (static_cast<u128>(s52) << 52) +
                               static_cast<u128>(s104) * bar.c104 + run[k]);
    }
  }
  for (std::size_t k = 0; k < chunk; ++k) out[k] = run[k];
}

// ---- vector Montgomery (batch_inverse) ------------------------------------

/// REDC of per-lane 128-bit values (hi:lo), canonical output in [0, p).
/// The low words of t + m*p cancel exactly, so the carry into the high word
/// is 1 iff t_lo != 0.
KP_TGT_AVX512 inline __m512i redc_512(__m512i t_hi, __m512i t_lo, __m512i vp,
                                      __m512i vnp) {
  const __m512i m = _mm512_mullo_epi64(t_lo, vnp);
  const __m512i mp_hi = mulhi64_512(m, vp);
  const __mmask8 carry = _mm512_test_epi64_mask(t_lo, t_lo);
  __m512i r = _mm512_add_epi64(t_hi, mp_hi);
  r = _mm512_mask_add_epi64(r, carry, r, _mm512_set1_epi64(1));
  // r < 2p: unsigned-min conditional subtract (r - p wraps when r < p).
  return _mm512_min_epu64(r, _mm512_sub_epi64(r, vp));
}

/// Product of Montgomery-form lanes, in Montgomery form.
KP_TGT_AVX512 inline __m512i mont_mul_512(__m512i a, __m512i b, __m512i vp,
                                          __m512i vnp) {
  return redc_512(mulhi64_512(a, b), _mm512_mullo_epi64(a, b), vp, vnp);
}

/// Lane-blocked Montgomery-trick inversion: lane l owns elements
/// a[l], a[8+l], ...; per-lane prefix-product chains run vectorized, the 8
/// lane totals are combined with ONE extended Euclid (via `inv`), and the
/// backward pass is vectorized again.  Field inverses are unique, so the
/// values are bit-identical to the scalar trick.  Requires odd p and
/// nonzero entries (the caller pre-scans).
KP_TGT_AVX512 inline void batch_inverse_512(const fastmod::Montgomery& mont,
                                            u64* a, std::size_t n,
                                            u64 (*inv)(u64, u64)) {
  const std::size_t k_count = n / 8;   // full vector positions
  const std::size_t n8 = k_count * 8;  // elements covered by the vector part
  const __m512i vp = _mm512_set1_epi64(static_cast<long long>(mont.p));
  const __m512i vnp = _mm512_set1_epi64(static_cast<long long>(mont.np));
  const __m512i vr2 = _mm512_set1_epi64(static_cast<long long>(mont.r2));
  const __m512i zero = _mm512_setzero_si512();

  std::vector<u64> am(n8), prefix(n8);
  __m512i run = zero;
  for (std::size_t k = 0; k < k_count; ++k) {
    const __m512i va = _mm512_loadu_si512(a + k * 8);
    const __m512i m = mont_mul_512(va, vr2, vp, vnp);  // to Montgomery form
    _mm512_storeu_si512(am.data() + k * 8, m);
    run = (k == 0) ? m : mont_mul_512(run, m, vp, vnp);
    _mm512_storeu_si512(prefix.data() + k * 8, run);
  }

  // Combine the 8 lane totals (Montgomery domain throughout) with one Euclid.
  alignas(64) u64 lane_total[8];
  _mm512_store_si512(reinterpret_cast<__m512i*>(lane_total), run);
  u64 lane_prefix[8];
  lane_prefix[0] = lane_total[0];
  for (int l = 1; l < 8; ++l) {
    lane_prefix[l] = mont.mul_mont(lane_prefix[l - 1], lane_total[l]);
  }
  const u64 total = mont.from_mont(lane_prefix[7]);
  u64 inv_run = mont.to_mont(inv(total, mont.p));
  alignas(64) u64 lane_inv[8];
  for (int l = 7; l >= 0; --l) {
    lane_inv[l] = (l > 0) ? mont.mul_mont(inv_run, lane_prefix[l - 1])
                          : inv_run;
    inv_run = mont.mul_mont(inv_run, lane_total[l]);
  }

  // Vector backward pass: per-lane running suffix inverses.
  __m512i inv_suffix =
      _mm512_load_si512(reinterpret_cast<const __m512i*>(lane_inv));
  for (std::size_t k = k_count; k-- > 1;) {
    const __m512i pm = _mm512_loadu_si512(prefix.data() + (k - 1) * 8);
    const __m512i inv_elem = mont_mul_512(inv_suffix, pm, vp, vnp);
    const __m512i mk = _mm512_loadu_si512(am.data() + k * 8);
    inv_suffix = mont_mul_512(inv_suffix, mk, vp, vnp);
    _mm512_storeu_si512(a + k * 8, redc_512(zero, inv_elem, vp, vnp));
  }
  _mm512_storeu_si512(a, redc_512(zero, inv_suffix, vp, vnp));

  // Scalar Montgomery trick for the n % 8 tail (one more Euclid; inverses
  // are unique, so grouping does not affect the values).
  if (n8 < n) {
    u64 tail_prefix[8];
    u64 racc = 0;
    for (std::size_t i = n8; i < n; ++i) {
      racc = (i == n8) ? a[i] : mont.mul(racc, a[i]);
      tail_prefix[i - n8] = racc;
    }
    u64 inv_suf = inv(racc, mont.p);
    for (std::size_t i = n; i-- > n8 + 1;) {
      const u64 inv_i = mont.mul(inv_suf, tail_prefix[i - n8 - 1]);
      inv_suf = mont.mul(inv_suf, a[i]);
      a[i] = inv_i;
    }
    a[n8] = inv_suf;
  }
}

// ---- NTT bodies -----------------------------------------------------------

/// One Harvey lazy butterfly on 8 lanes: identical mod-2^64 arithmetic to
/// the scalar shoup_mul_lazy path, so even the [0, 4p) intermediates match.
KP_TGT_AVX512 inline void butterfly_8(u64* lo, u64* hi, const u64* tw,
                                      const u64* twq, __m512i vp,
                                      __m512i vp2) {
  __m512i u = _mm512_loadu_si512(lo);
  const __m512i h = _mm512_loadu_si512(hi);
  const __m512i w = _mm512_loadu_si512(tw);
  const __m512i wq = _mm512_loadu_si512(twq);
  u = _mm512_min_epu64(u, _mm512_sub_epi64(u, vp2));  // u >= 2p ? u - 2p : u
  const __m512i q = mulhi64_512(h, wq);
  const __m512i v = _mm512_sub_epi64(_mm512_mullo_epi64(h, w),
                                     _mm512_mullo_epi64(q, vp));
  _mm512_storeu_si512(lo, _mm512_add_epi64(u, v));
  _mm512_storeu_si512(hi, _mm512_sub_epi64(_mm512_add_epi64(u, vp2), v));
}

inline void butterfly_1(u64* lo, u64* hi, u64 w, u64 wq, u64 p, u64 p2) {
  u64 u = *lo;
  if (u >= p2) u -= p2;
  const u64 v = fastmod::shoup_mul_lazy(*hi, w, wq, p);
  *lo = u + v;
  *hi = u + p2 - v;
}

/// vpermt2q tables for the small-half levels (half = 1, 2, 4): 16
/// consecutive elements hold 16/(2*half) whole blocks; one permute pair
/// splits them into an 8-lane lo vector and an 8-lane hi vector, and the
/// store tables invert the shuffle.  Indexed by log2(half).
alignas(64) inline constexpr u64 kLoadLo[3][8] = {
    {0, 2, 4, 6, 8, 10, 12, 14},
    {0, 1, 4, 5, 8, 9, 12, 13},
    {0, 1, 2, 3, 8, 9, 10, 11},
};
alignas(64) inline constexpr u64 kLoadHi[3][8] = {
    {1, 3, 5, 7, 9, 11, 13, 15},
    {2, 3, 6, 7, 10, 11, 14, 15},
    {4, 5, 6, 7, 12, 13, 14, 15},
};
alignas(64) inline constexpr u64 kStore0[3][8] = {
    {0, 8, 1, 9, 2, 10, 3, 11},
    {0, 1, 8, 9, 2, 3, 10, 11},
    {0, 1, 2, 3, 8, 9, 10, 11},
};
alignas(64) inline constexpr u64 kStore1[3][8] = {
    {4, 12, 5, 13, 6, 14, 7, 15},
    {4, 5, 12, 13, 6, 7, 14, 15},
    {4, 5, 6, 7, 12, 13, 14, 15},
};

/// Lazy butterflies for flat indices [b0, b1) of a level with half >= 8:
/// blocks are walked exactly like the scalar chunk body, with 8-lane
/// butterflies inside each block segment and scalar lanes for remainders.
KP_TGT_AVX512 inline void ntt_level_big_512(u64* d, const u64* tw,
                                            const u64* twq, std::size_t half,
                                            std::size_t b0, std::size_t b1,
                                            u64 p) {
  const u64 p2 = 2 * p;
  const __m512i vp = _mm512_set1_epi64(static_cast<long long>(p));
  const __m512i vp2 = _mm512_set1_epi64(static_cast<long long>(p2));
  const std::size_t len = 2 * half;
  std::size_t b = b0;
  while (b < b1) {
    const std::size_t block = b / half;
    const std::size_t j0 = b - block * half;
    const std::size_t j1 = j0 + (b1 - b) < half ? j0 + (b1 - b) : half;
    u64* lo = d + block * len;
    u64* hi = lo + half;
    std::size_t j = j0;
    for (; j + 8 <= j1; j += 8) {
      butterfly_8(lo + j, hi + j, tw + j, twq + j, vp, vp2);
    }
    for (; j < j1; ++j) butterfly_1(lo + j, hi + j, tw[j], twq[j], p, p2);
    b += j1 - j0;
  }
}

/// Lazy butterflies for half in {1, 2, 4}: whole 16-element (= 8-butterfly)
/// groups go through the permute tables; the sub-group tail falls back to
/// scalar blocks.  Requires b0 and b1 to be multiples of half (the chunk
/// grain is a power of two >= 8, so dispatch_chunks guarantees this).
KP_TGT_AVX512 inline void ntt_level_small_512(u64* d, const u64* tw,
                                              const u64* twq, std::size_t half,
                                              std::size_t b0, std::size_t b1,
                                              u64 p) {
  const u64 p2 = 2 * p;
  const __m512i vp = _mm512_set1_epi64(static_cast<long long>(p));
  const __m512i vp2 = _mm512_set1_epi64(static_cast<long long>(p2));
  const int lg = half == 1 ? 0 : (half == 2 ? 1 : 2);
  const __m512i load_lo =
      _mm512_load_si512(reinterpret_cast<const __m512i*>(kLoadLo[lg]));
  const __m512i load_hi =
      _mm512_load_si512(reinterpret_cast<const __m512i*>(kLoadHi[lg]));
  const __m512i store0 =
      _mm512_load_si512(reinterpret_cast<const __m512i*>(kStore0[lg]));
  const __m512i store1 =
      _mm512_load_si512(reinterpret_cast<const __m512i*>(kStore1[lg]));
  alignas(64) u64 twp[8], twqp[8];
  for (std::size_t j = 0; j < 8; ++j) {
    twp[j] = tw[j % half];
    twqp[j] = twq[j % half];
  }
  const __m512i w = _mm512_load_si512(reinterpret_cast<const __m512i*>(twp));
  const __m512i wq = _mm512_load_si512(reinterpret_cast<const __m512i*>(twqp));

  std::size_t e = 2 * b0;
  const std::size_t e_end = 2 * b1;
  for (; e + 16 <= e_end; e += 16) {
    const __m512i z0 = _mm512_loadu_si512(d + e);
    const __m512i z1 = _mm512_loadu_si512(d + e + 8);
    __m512i u = _mm512_permutex2var_epi64(z0, load_lo, z1);
    const __m512i h = _mm512_permutex2var_epi64(z0, load_hi, z1);
    u = _mm512_min_epu64(u, _mm512_sub_epi64(u, vp2));
    const __m512i q = mulhi64_512(h, wq);
    const __m512i v = _mm512_sub_epi64(_mm512_mullo_epi64(h, w),
                                       _mm512_mullo_epi64(q, vp));
    const __m512i nlo = _mm512_add_epi64(u, v);
    const __m512i nhi = _mm512_sub_epi64(_mm512_add_epi64(u, vp2), v);
    _mm512_storeu_si512(d + e, _mm512_permutex2var_epi64(nlo, store0, nhi));
    _mm512_storeu_si512(d + e + 8,
                        _mm512_permutex2var_epi64(nlo, store1, nhi));
  }
  for (; e < e_end; e += 2 * half) {  // remaining whole blocks, scalar
    for (std::size_t j = 0; j < half; ++j) {
      butterfly_1(d + e + j, d + e + half + j, tw[j], twq[j], p, p2);
    }
  }
}

/// [0, 4p) -> [0, p) normalization, 8 lanes per step.
KP_TGT_AVX512 inline void normalize4p_512(u64* x, std::size_t n, u64 p) {
  const __m512i vp = _mm512_set1_epi64(static_cast<long long>(p));
  const __m512i vp2 = _mm512_set1_epi64(static_cast<long long>(2 * p));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i v = _mm512_loadu_si512(x + i);
    v = _mm512_min_epu64(v, _mm512_sub_epi64(v, vp2));
    v = _mm512_min_epu64(v, _mm512_sub_epi64(v, vp));
    _mm512_storeu_si512(x + i, v);
  }
  for (; i < n; ++i) {
    u64 v = x[i];
    if (v >= 2 * p) v -= 2 * p;
    if (v >= p) v -= p;
    x[i] = v;
  }
}

/// c[i] = c[i] * b[i] mod p, canonical, via the vector Moller-Granlund
/// reduction -- the lane-wise transcription of Barrett::reduce on the exact
/// 128-bit product, so every mod-2^64 wrap matches the scalar code.
KP_TGT_AVX512 inline void pointwise_512(const fastmod::Barrett& bar, u64* c,
                                        const u64* b, std::size_t n) {
  const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(bar.shift));
  const __m128i shc = _mm_cvtsi32_si128(static_cast<int>(64 - bar.shift));
  const __m512i vv = _mm512_set1_epi64(static_cast<long long>(bar.v));
  const __m512i vd = _mm512_set1_epi64(static_cast<long long>(bar.d));
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(c + i);
    const __m512i y = _mm512_loadu_si512(b + i);
    const __m512i t_hi = mulhi64_512(x, y);
    const __m512i t_lo = _mm512_mullo_epi64(x, y);
    // Normalize the dividend: (nh:nl) = (t_hi:t_lo) << shift (shift >= 1
    // for any p < 2^63).
    const __m512i nh = _mm512_or_si512(_mm512_sll_epi64(t_hi, sh),
                                       _mm512_srl_epi64(t_lo, shc));
    const __m512i nl = _mm512_sll_epi64(t_lo, sh);
    const __m512i qh = mulhi64_512(vv, nh);
    const __m512i ql = _mm512_mullo_epi64(vv, nh);
    const __m512i sum_lo = _mm512_add_epi64(ql, nl);
    const __mmask8 cy = _mm512_cmplt_epu64_mask(sum_lo, ql);
    __m512i qh2 = _mm512_add_epi64(qh, _mm512_add_epi64(nh, one));
    qh2 = _mm512_mask_add_epi64(qh2, cy, qh2, one);
    __m512i r = _mm512_sub_epi64(nl, _mm512_mullo_epi64(qh2, vd));
    const __mmask8 fix = _mm512_cmpgt_epu64_mask(r, sum_lo);
    r = _mm512_mask_add_epi64(r, fix, r, vd);
    const __mmask8 ge = _mm512_cmpge_epu64_mask(r, vd);
    r = _mm512_mask_sub_epi64(r, ge, r, vd);
    _mm512_storeu_si512(c + i, _mm512_srl_epi64(r, sh));
  }
  for (; i < n; ++i) c[i] = bar.mul(c[i], b[i]);
}

/// c[i] = shoup_mul(c[i], w, wq, p), canonical (2 multiplies + min-trick).
KP_TGT_AVX512 inline void shoup_scale_512(u64* c, std::size_t n, u64 w, u64 wq,
                                          u64 p) {
  const __m512i vp = _mm512_set1_epi64(static_cast<long long>(p));
  const __m512i vw = _mm512_set1_epi64(static_cast<long long>(w));
  const __m512i vwq = _mm512_set1_epi64(static_cast<long long>(wq));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(c + i);
    const __m512i q = mulhi64_512(x, vwq);
    __m512i r = _mm512_sub_epi64(_mm512_mullo_epi64(x, vw),
                                 _mm512_mullo_epi64(q, vp));
    r = _mm512_min_epu64(r, _mm512_sub_epi64(r, vp));  // r < 2p
    _mm512_storeu_si512(c + i, r);
  }
  for (; i < n; ++i) c[i] = fastmod::shoup_mul(c[i], w, wq, p);
}

// ---- elementwise lane bodies (tape batch evaluation) ----------------------
// Canonical residues in, canonical residues out: dst[i] = a[i] op b[i] mod p.
// a, b < p < 2^63, so a + b never wraps 2^64 and a - b never underflows
// after the conditional +p -- the lanes are the literal transcription of the
// fields' scalar formulas, and canonical uniqueness makes any correct
// evaluation bit-identical anyway.

/// dst[i] = a[i] + b[i] mod p (8 lanes; min-trick conditional subtract).
KP_TGT_AVX512 inline void vec_add_512(u64 p, const u64* a, const u64* b,
                                      u64* dst, std::size_t n) {
  const __m512i vp = _mm512_set1_epi64(static_cast<long long>(p));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i s = _mm512_add_epi64(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    _mm512_storeu_si512(dst + i, _mm512_min_epu64(s, _mm512_sub_epi64(s, vp)));
  }
  for (; i < n; ++i) {
    const u64 s = a[i] + b[i];
    dst[i] = s >= p ? s - p : s;
  }
}

/// dst[i] = a[i] - b[i] mod p.
KP_TGT_AVX512 inline void vec_sub_512(u64 p, const u64* a, const u64* b,
                                      u64* dst, std::size_t n) {
  const __m512i vp = _mm512_set1_epi64(static_cast<long long>(p));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(a + i);
    const __m512i y = _mm512_loadu_si512(b + i);
    const __m512i d = _mm512_sub_epi64(x, y);
    _mm512_storeu_si512(dst + i, _mm512_min_epu64(d, _mm512_add_epi64(d, vp)));
  }
  for (; i < n; ++i) dst[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + p - b[i];
}

/// dst[i] = -a[i] mod p (0 stays 0).
KP_TGT_AVX512 inline void vec_neg_512(u64 p, const u64* a, u64* dst,
                                      std::size_t n) {
  const __m512i vp = _mm512_set1_epi64(static_cast<long long>(p));
  const __m512i zero = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(a + i);
    const __mmask8 nz = _mm512_cmpneq_epi64_mask(x, zero);
    _mm512_storeu_si512(dst + i,
                        _mm512_maskz_sub_epi64(nz, vp, x));
  }
  for (; i < n; ++i) dst[i] = a[i] == 0 ? 0 : p - a[i];
}

/// dst[i] = a[i] * b[i] mod p, canonical, via the vector Moller-Granlund
/// reduction (the three-address rendition of pointwise_512).
KP_TGT_AVX512 inline void vec_mul_512(const fastmod::Barrett& bar,
                                      const u64* a, const u64* b, u64* dst,
                                      std::size_t n) {
  const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(bar.shift));
  const __m128i shc = _mm_cvtsi32_si128(static_cast<int>(64 - bar.shift));
  const __m512i vv = _mm512_set1_epi64(static_cast<long long>(bar.v));
  const __m512i vd = _mm512_set1_epi64(static_cast<long long>(bar.d));
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(a + i);
    const __m512i y = _mm512_loadu_si512(b + i);
    const __m512i t_hi = mulhi64_512(x, y);
    const __m512i t_lo = _mm512_mullo_epi64(x, y);
    const __m512i nh = _mm512_or_si512(_mm512_sll_epi64(t_hi, sh),
                                       _mm512_srl_epi64(t_lo, shc));
    const __m512i nl = _mm512_sll_epi64(t_lo, sh);
    const __m512i qh = mulhi64_512(vv, nh);
    const __m512i ql = _mm512_mullo_epi64(vv, nh);
    const __m512i sum_lo = _mm512_add_epi64(ql, nl);
    const __mmask8 cy = _mm512_cmplt_epu64_mask(sum_lo, ql);
    __m512i qh2 = _mm512_add_epi64(qh, _mm512_add_epi64(nh, one));
    qh2 = _mm512_mask_add_epi64(qh2, cy, qh2, one);
    __m512i r = _mm512_sub_epi64(nl, _mm512_mullo_epi64(qh2, vd));
    const __mmask8 fix = _mm512_cmpgt_epu64_mask(r, sum_lo);
    r = _mm512_mask_add_epi64(r, fix, r, vd);
    const __mmask8 ge = _mm512_cmpge_epu64_mask(r, vd);
    r = _mm512_mask_sub_epi64(r, ge, r, vd);
    _mm512_storeu_si512(dst + i, _mm512_srl_epi64(r, sh));
  }
  for (; i < n; ++i) dst[i] = bar.mul(a[i], b[i]);
}

/// dst[i] = (dst[i] - coef * a[i]) mod p: the sigma-basis row update's
/// fused axpy, with coef's Shoup quotient cq = shoup_precompute(coef, p).
/// q = mulhi(a[i], cq) is floor(coef * a[i] / p) or one less, so
/// coef * a[i] - q * p (exact mod 2^64) lies in [0, 2p): one emulated mulhi
/// per element, then the min-trick conditional subtract and a canonical
/// subtract -- identical values to the scalar mul/sub pair (p < 2^63).
KP_TGT_AVX512 inline void vec_submul_512(u64 p, u64 coef, u64 cq, const u64* a,
                                         u64* dst, std::size_t n) {
  const __m512i vp = _mm512_set1_epi64(static_cast<long long>(p));
  const __m512i vc = _mm512_set1_epi64(static_cast<long long>(coef));
  const __m512i vcq = _mm512_set1_epi64(static_cast<long long>(cq));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(a + i);
    const __m512i q = mulhi64_512(x, vcq);
    __m512i t = _mm512_sub_epi64(_mm512_mullo_epi64(x, vc),
                                 _mm512_mullo_epi64(q, vp));
    t = _mm512_min_epu64(t, _mm512_sub_epi64(t, vp));
    const __m512i d = _mm512_sub_epi64(_mm512_loadu_si512(dst + i), t);
    _mm512_storeu_si512(dst + i, _mm512_min_epu64(d, _mm512_add_epi64(d, vp)));
  }
  for (; i < n; ++i) {
    const u64 t = fastmod::shoup_mul(a[i], coef, cq, p);
    dst[i] = dst[i] >= t ? dst[i] - t : dst[i] + p - t;
  }
}

/// AVX2 add: 4 lanes; unsigned s >= p via the sign-bias signed compare
/// (s can exceed 2^63, so both sides are biased by 2^63).
KP_TGT_AVX2 inline void vec_add_256(u64 p, const u64* a, const u64* b,
                                    u64* dst, std::size_t n) {
  const __m256i vp = _mm256_set1_epi64x(static_cast<long long>(p));
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i pm1b = _mm256_set1_epi64x(
      static_cast<long long>((p - 1) ^ 0x8000000000000000ULL));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    const __m256i ge = _mm256_cmpgt_epi64(_mm256_xor_si256(s, bias), pm1b);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_sub_epi64(s, _mm256_and_si256(ge, vp)));
  }
  for (; i < n; ++i) {
    const u64 s = a[i] + b[i];
    dst[i] = s >= p ? s - p : s;
  }
}

/// AVX2 sub: operands are canonical (< p < 2^63), so the signed compare
/// needs no bias.
KP_TGT_AVX2 inline void vec_sub_256(u64 p, const u64* a, const u64* b,
                                    u64* dst, std::size_t n) {
  const __m256i vp = _mm256_set1_epi64x(static_cast<long long>(p));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i lt = _mm256_cmpgt_epi64(y, x);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi64(_mm256_sub_epi64(x, y),
                                         _mm256_and_si256(lt, vp)));
  }
  for (; i < n; ++i) dst[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + p - b[i];
}

/// AVX2 neg.
KP_TGT_AVX2 inline void vec_neg_256(u64 p, const u64* a, u64* dst,
                                    std::size_t n) {
  const __m256i vp = _mm256_set1_epi64x(static_cast<long long>(p));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i nz = _mm256_cmpeq_epi64(x, zero);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_andnot_si256(nz, _mm256_sub_epi64(vp, x)));
  }
  for (; i < n; ++i) dst[i] = a[i] == 0 ? 0 : p - a[i];
}

// ---- register-tiled gemm bodies (see gemm_drive) --------------------------

/// Mask of the first `valid` of 8 lanes (valid >= 8: every lane).
inline __mmask8 lane_mask8(std::size_t valid) {
  return static_cast<__mmask8>(valid >= 8 ? 0xffu : (1u << valid) - 1);
}

/// 52-bit-split tile (AVX-512 IFMA), R x 16 outputs in 24 zmm accumulators
/// at full size.  With x0 = lo52(x) and x1 = x >> 52 < 2^11,
///   a * b = a0 b0 + 2^52 (a0 b1 + a1 b0) + 2^104 a1 b1,
/// which is seven vpmadd52 per 8 products into three limbs per output
/// vector: w0 gains < 2^52 per k-step, w52 < 3 * 2^52 (so kGemmBlock = 1024
/// steps stay below 2^64) and w104 < 2^23.  A lane folds once per block:
/// w0 + (w52 << 52) + w104 * (2^104 mod p) + the running value is < 2^118,
/// and one reduce_full makes it canonical.
struct GemmIfma512 {
  using Lane = u64;
  static constexpr int kRows = 4;
  static constexpr int kVecs = 2;
  static constexpr int kLimbs = 3;
  static constexpr std::size_t kLanes = 8;
  fastmod::Barrett bar;

  std::size_t block() const { return kGemmBlock; }

  template <int R, int NV>
  KP_TGT_AVX512IFMA void accumulate(const u64* a, std::size_t lda,
                                    const u64* b, std::size_t ldb,
                                    std::size_t k0, std::size_t k1,
                                    std::size_t w,
                                    u64 (&lanes)[3][R][NV * 8]) const {
    __mmask8 m[NV];
    for (int v = 0; v < NV; ++v) m[v] = lane_mask8(w - v * 8);
    __m512i w0[R][NV], w52[R][NV], w104[R][NV];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        w0[r][v] = w52[r][v] = w104[r][v] = _mm512_setzero_si512();
      }
    }
    for (std::size_t k = k0; k < k1; ++k) {
      __m512i b0[NV], b1[NV];
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        b0[v] = _mm512_maskz_loadu_epi64(m[v], b + k * ldb + v * 8);
        b1[v] = _mm512_srli_epi64(b0[v], 52);
      }
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const u64 av = a[r * lda + k];
        const __m512i a0 = _mm512_set1_epi64(static_cast<long long>(av));
        const __m512i a1 = _mm512_set1_epi64(static_cast<long long>(av >> 52));
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          w0[r][v] = _mm512_madd52lo_epu64(w0[r][v], a0, b0[v]);
          w52[r][v] = _mm512_madd52hi_epu64(w52[r][v], a0, b0[v]);
          w52[r][v] = _mm512_madd52lo_epu64(w52[r][v], a0, b1[v]);
          w52[r][v] = _mm512_madd52lo_epu64(w52[r][v], a1, b0[v]);
          w104[r][v] = _mm512_madd52hi_epu64(w104[r][v], a0, b1[v]);
          w104[r][v] = _mm512_madd52hi_epu64(w104[r][v], a1, b0[v]);
          w104[r][v] = _mm512_madd52lo_epu64(w104[r][v], a1, b1[v]);
        }
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < NV; ++v) {
        _mm512_storeu_si512(lanes[0][r] + v * 8, w0[r][v]);
        _mm512_storeu_si512(lanes[1][r] + v * 8, w52[r][v]);
        _mm512_storeu_si512(lanes[2][r] + v * 8, w104[r][v]);
      }
    }
  }

  u64 fold(const u64* limb, u64 acc) const {
    return bar.reduce_full(static_cast<u128>(limb[0]) +
                           (static_cast<u128>(limb[1]) << 52) +
                           static_cast<u128>(limb[2]) * bar.c104 + acc);
  }
};

/// 4-limb tile (AVX-512 without IFMA), R x 8 outputs: each product splits
/// into four 32x32 vpmuludq partials exactly as in dot_4limb_512.  A limb
/// lane gains at most 3 * (2^32 - 1) per k-step, far below 2^64 over
/// kGemmBlock steps; fold_4limb folds each lane once per block.
struct Gemm4Limb512 {
  using Lane = u64;
  static constexpr int kRows = 4;
  static constexpr int kVecs = 1;
  static constexpr int kLimbs = 4;
  static constexpr std::size_t kLanes = 8;
  fastmod::Barrett bar;

  std::size_t block() const { return kGemmBlock; }

  template <int R, int NV>
  KP_TGT_AVX512 void accumulate(const u64* a, std::size_t lda, const u64* b,
                                std::size_t ldb, std::size_t k0,
                                std::size_t k1, std::size_t w,
                                u64 (&lanes)[4][R][NV * 8]) const {
    const __m512i m32 = _mm512_set1_epi64(0xffffffffLL);
    __mmask8 m[NV];
    for (int v = 0; v < NV; ++v) m[v] = lane_mask8(w - v * 8);
    __m512i s0[R][NV], s1[R][NV], s2[R][NV], s3[R][NV];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        s0[r][v] = s1[r][v] = s2[r][v] = s3[r][v] = _mm512_setzero_si512();
      }
    }
    for (std::size_t k = k0; k < k1; ++k) {
      __m512i bl[NV], bh[NV];
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        bl[v] = _mm512_maskz_loadu_epi64(m[v], b + k * ldb + v * 8);
        bh[v] = _mm512_srli_epi64(bl[v], 32);
      }
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const u64 av = a[r * lda + k];
        const __m512i al = _mm512_set1_epi64(static_cast<long long>(av));
        const __m512i ah = _mm512_set1_epi64(static_cast<long long>(av >> 32));
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
          const __m512i ll = _mm512_mul_epu32(al, bl[v]);
          const __m512i lh = _mm512_mul_epu32(al, bh[v]);
          const __m512i hl = _mm512_mul_epu32(ah, bl[v]);
          const __m512i hh = _mm512_mul_epu32(ah, bh[v]);
          s0[r][v] = _mm512_add_epi64(s0[r][v], _mm512_and_si512(ll, m32));
          s1[r][v] = _mm512_add_epi64(
              s1[r][v],
              _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                               _mm512_add_epi64(_mm512_and_si512(lh, m32),
                                                _mm512_and_si512(hl, m32))));
          s2[r][v] = _mm512_add_epi64(
              s2[r][v],
              _mm512_add_epi64(_mm512_and_si512(hh, m32),
                               _mm512_add_epi64(_mm512_srli_epi64(lh, 32),
                                                _mm512_srli_epi64(hl, 32))));
          s3[r][v] = _mm512_add_epi64(s3[r][v], _mm512_srli_epi64(hh, 32));
        }
      }
    }
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < NV; ++v) {
        _mm512_storeu_si512(lanes[0][r] + v * 8, s0[r][v]);
        _mm512_storeu_si512(lanes[1][r] + v * 8, s1[r][v]);
        _mm512_storeu_si512(lanes[2][r] + v * 8, s2[r][v]);
        _mm512_storeu_si512(lanes[3][r] + v * 8, s3[r][v]);
      }
    }
  }

  u64 fold(const u64* limb, u64 acc) const {
    return fold_4limb(bar, limb[0], limb[1], limb[2], limb[3], acc);
  }
};

#undef KP_TGT_AVX2
#undef KP_TGT_AVX512
#undef KP_TGT_AVX512IFMA

}  // namespace detail

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// ---------------------------------------------------------------------------
// Public entry points: dispatch + diagnostics.  Each returns true only when
// the request was fully handled bit-identically; the caller's scalar loop is
// the universal fallback.

/// Contiguous (stride-1) delayed-reduction dot product.
inline bool dot(const fastmod::Barrett& bar, const u64* a, const u64* b,
                std::size_t n, u64* out) {
  const SimdLevel lvl = simd_level();
  if (n < kMinSimdN || lvl < SimdLevel::kAvx2) return false;
  *out = detail::dot_dispatch(lvl, bar, a, b, n);
  detail::bump(detail::stat_counters().dot,
               n / (lvl == SimdLevel::kAvx512 ? 8 : 4));
  return true;
}

/// Sum of n residues.
inline bool sum(const fastmod::Barrett& bar, const u64* a, std::size_t n,
                u64* out) {
  const SimdLevel lvl = simd_level();
  if (n < kMinSimdN || lvl < SimdLevel::kAvx2) return false;
  *out = lvl == SimdLevel::kAvx512 ? detail::sum_512(bar, a, n)
                                   : detail::sum_256(bar, a, n);
  detail::bump(detail::stat_counters().sum,
               n / (lvl == SimdLevel::kAvx512 ? 8 : 4));
  return true;
}

/// Batched CSR row product out[k] = sum_j val[j] * xt[col[j] * b + k] for a
/// chunk of up to 8 block columns of a row-major n x b block (AVX-512 IFMA,
/// any p < 2^63).  Rows shorter than kMinSimdN, where the broadcasts and the
/// fold cost more than the scalar mulx chain, return false.
inline bool spmm_row(const fastmod::Barrett& bar, const u64* val,
                     const std::size_t* col, const u64* xt, std::size_t b,
                     std::size_t chunk, std::size_t nnz, u64* out) {
  if (nnz < kMinSimdN || chunk == 0 || chunk > 8 ||
      simd_level() != SimdLevel::kAvx512 || !simd_ifma()) {
    return false;
  }
  detail::spmm_ifma_512(bar, val, col, xt, b, chunk, nnz, out);
  detail::bump(detail::stat_counters().spmm, chunk <= 4 ? (nnz + 1) / 2 : nnz);
  return true;
}

/// Lane-blocked Montgomery-trick batched inversion (AVX-512, odd p).  All
/// entries must be nonzero -- the caller pre-scans and reports zeros through
/// its Status path before dispatching.  `inv` is the scalar extended-Euclid
/// inverse (passed in to keep this header below field/zp.h in the include
/// order).
inline bool batch_inverse(u64 p, u64* a, std::size_t n, u64 (*inv)(u64, u64)) {
  if (n < kMinSimdN || (p & 1) == 0 || simd_level() != SimdLevel::kAvx512) {
    return false;
  }
  const fastmod::Montgomery mont(p);
  detail::batch_inverse_512(mont, a, n, inv);
  detail::bump(detail::stat_counters().batch_inverse, n / 8);
  return true;
}

/// Harvey lazy butterflies for flat indices [b0, b1) of one level of an
/// in-place transform rooted at d (lane layout per poly/ntt.h: block b/half,
/// lane b%half, len = 2*half).  Requires residues in [0, 4p) with 4p < 2^64
/// (the caller's lazy branch guarantees p < 2^62).  Small halves (1, 2, 4)
/// go through a permute path; they require b0/b1 to be multiples of half,
/// which the power-of-two chunk grain guarantees.
inline bool ntt_level_lazy(u64* d, const u64* tw, const u64* twq,
                           std::size_t half, std::size_t b0, std::size_t b1,
                           u64 p) {
  if (b1 - b0 < kMinSimdN || simd_level() != SimdLevel::kAvx512) return false;
  if (half >= 8) {
    detail::ntt_level_big_512(d, tw, twq, half, b0, b1, p);
  } else {
    if ((b0 % half) != 0 || ((b1 - b0) % half) != 0) return false;
    detail::ntt_level_small_512(d, tw, twq, half, b0, b1, p);
  }
  detail::bump(detail::stat_counters().ntt, (b1 - b0) / 8);
  return true;
}

/// The transform's final [0, 4p) -> [0, p) normalization pass.
inline bool ntt_normalize4p(u64* x, std::size_t n, u64 p) {
  if (n < kMinSimdN || simd_level() != SimdLevel::kAvx512) return false;
  detail::normalize4p_512(x, n, p);
  detail::bump(detail::stat_counters().scale, n / 8);
  return true;
}

/// Pointwise spectrum product c[i] = c[i] * b[i] mod p (canonical).
inline bool ntt_pointwise_mul(const fastmod::Barrett& bar, u64* c,
                              const u64* b, std::size_t n) {
  if (n < kMinSimdN || simd_level() != SimdLevel::kAvx512) return false;
  detail::pointwise_512(bar, c, b, n);
  detail::bump(detail::stat_counters().pointwise, n / 8);
  return true;
}

/// Constant-multiplier scale c[i] = c[i] * w mod p with w's Shoup quotient.
inline bool ntt_shoup_scale(u64* c, std::size_t n, u64 w, u64 wq, u64 p) {
  if (n < kMinSimdN || simd_level() != SimdLevel::kAvx512) return false;
  detail::shoup_scale_512(c, n, w, wq, p);
  detail::bump(detail::stat_counters().scale, n / 8);
  return true;
}

// ---------------------------------------------------------------------------
// Elementwise lane kernels -- the tape evaluator's per-level bodies
// (circuit/tape_eval.h).  dst may alias a or b; canonical in, canonical out.

/// dst[i] = a[i] + b[i] mod p.
inline bool vec_mod_add(u64 p, const u64* a, const u64* b, u64* dst,
                        std::size_t n) {
  const SimdLevel l = simd_level();
  if (n < kMinSimdN || l < SimdLevel::kAvx2) return false;
  if (l == SimdLevel::kAvx512) {
    detail::vec_add_512(p, a, b, dst, n);
    detail::bump(detail::stat_counters().vec, n / 8);
  } else {
    detail::vec_add_256(p, a, b, dst, n);
    detail::bump(detail::stat_counters().vec, n / 4);
  }
  return true;
}

/// dst[i] = a[i] - b[i] mod p.
inline bool vec_mod_sub(u64 p, const u64* a, const u64* b, u64* dst,
                        std::size_t n) {
  const SimdLevel l = simd_level();
  if (n < kMinSimdN || l < SimdLevel::kAvx2) return false;
  if (l == SimdLevel::kAvx512) {
    detail::vec_sub_512(p, a, b, dst, n);
    detail::bump(detail::stat_counters().vec, n / 8);
  } else {
    detail::vec_sub_256(p, a, b, dst, n);
    detail::bump(detail::stat_counters().vec, n / 4);
  }
  return true;
}

/// dst[i] = -a[i] mod p.
inline bool vec_mod_neg(u64 p, const u64* a, u64* dst, std::size_t n) {
  const SimdLevel l = simd_level();
  if (n < kMinSimdN || l < SimdLevel::kAvx2) return false;
  if (l == SimdLevel::kAvx512) {
    detail::vec_neg_512(p, a, dst, n);
    detail::bump(detail::stat_counters().vec, n / 8);
  } else {
    detail::vec_neg_256(p, a, dst, n);
    detail::bump(detail::stat_counters().vec, n / 4);
  }
  return true;
}

/// dst[i] = a[i] * b[i] mod p, canonical (AVX-512 only: the vector
/// Moller-Granlund reduction needs mullo_epi64 and unsigned compares).
inline bool vec_mod_mul(const fastmod::Barrett& bar, const u64* a,
                        const u64* b, u64* dst, std::size_t n) {
  if (n < kMinSimdN || simd_level() != SimdLevel::kAvx512) return false;
  detail::vec_mul_512(bar, a, b, dst, n);
  detail::bump(detail::stat_counters().vec, n / 8);
  return true;
}

/// Fused axpy dst[i] = (dst[i] - coef * a[i]) mod p for canonical coef.
inline bool vec_mod_submul(const fastmod::Barrett& bar, u64 coef, const u64* a,
                           u64* dst, std::size_t n) {
  if (n < kMinSimdN || simd_level() != SimdLevel::kAvx512) return false;
  detail::vec_submul_512(bar.p, coef, fastmod::shoup_precompute(coef, bar.p), a,
                         dst, n);
  detail::bump(detail::stat_counters().vec, n / 8);
  return true;
}

#else  // !KP_SIMD_X86

// No vector backend (other architectures, or -DKP_SIMD=OFF): every entry
// point declines and the callers' scalar loops run.

inline bool dot(const fastmod::Barrett&, const u64*, const u64*, std::size_t,
                u64*) {
  return false;
}
inline bool sum(const fastmod::Barrett&, const u64*, std::size_t, u64*) {
  return false;
}
inline bool spmm_row(const fastmod::Barrett&, const u64*, const std::size_t*,
                     const u64*, std::size_t, std::size_t, std::size_t, u64*) {
  return false;
}
inline bool batch_inverse(u64, u64*, std::size_t, u64 (*)(u64, u64)) {
  return false;
}
inline bool ntt_level_lazy(u64*, const u64*, const u64*, std::size_t,
                           std::size_t, std::size_t, u64) {
  return false;
}
inline bool ntt_normalize4p(u64*, std::size_t, u64) { return false; }
inline bool ntt_pointwise_mul(const fastmod::Barrett&, u64*, const u64*,
                              std::size_t) {
  return false;
}
inline bool ntt_shoup_scale(u64*, std::size_t, u64, u64, u64) { return false; }
inline bool vec_mod_add(u64, const u64*, const u64*, u64*, std::size_t) {
  return false;
}
inline bool vec_mod_sub(u64, const u64*, const u64*, u64*, std::size_t) {
  return false;
}
inline bool vec_mod_neg(u64, const u64*, u64*, std::size_t) { return false; }
inline bool vec_mod_mul(const fastmod::Barrett&, const u64*, const u64*, u64*,
                        std::size_t) {
  return false;
}
inline bool vec_mod_submul(const fastmod::Barrett&, u64, const u64*, u64*,
                           std::size_t) {
  return false;
}

#endif  // KP_SIMD_X86

// ---------------------------------------------------------------------------
// Register-tiled matrix product: the one entry point that always handles its
// request (the scalar level runs the u128 tile of the same shape).

/// out[i][j] = sum_k a[i][k] * b[k][j] mod p, canonical, for a rows x k
/// panel of A (row stride lda) and a k x cols block of B (row stride ldb),
/// into out (row stride ldo).  The level (and IFMA) picks the tile body --
/// an AVX-512 tile, else the scalar one; every p < 2^63 takes the same
/// body.  The gemm stat counts one group per vector of B's row per output
/// row and k-step.
inline void gemm_rows(const fastmod::Barrett& bar, const u64* a,
                      std::size_t lda, const u64* b, std::size_t ldb, u64* out,
                      std::size_t ldo, std::size_t rows, std::size_t k,
                      std::size_t cols) {
#if defined(KP_SIMD_X86)
  if (simd_level() == SimdLevel::kAvx512) {
    if (simd_ifma()) {
      detail::gemm_drive(detail::GemmIfma512{bar}, a, lda, b, ldb, out, ldo,
                         rows, k, cols);
    } else {
      detail::gemm_drive(detail::Gemm4Limb512{bar}, a, lda, b, ldb, out, ldo,
                         rows, k, cols);
    }
    detail::bump(detail::stat_counters().gemm, rows * ((cols + 7) / 8) * k);
    return;
  }
#endif
  detail::gemm_drive(detail::GemmScalar{bar}, a, lda, b, ldb, out, ldo, rows,
                     k, cols);
}

}  // namespace kp::field::simd
