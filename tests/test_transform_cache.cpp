// Property tests for the batched/cached transform layer (poly/ntt.h's
// ntt_many + poly/transform_cache.h):
//
//   * ntt_many produces exactly the transforms of one-at-a-time ntt_inplace
//     calls, with identical folded op counts, for any worker limit;
//   * TransformedPoly::mul / mul_many are element-identical AND
//     op-count-identical to plain ring.mul across moduli that take the fast
//     lazy path, the eager path (p >= 2^62... here the Mersenne fallback),
//     and an NTT-less prime (fallback multiplication) -- cache hits recharge
//     the recorded transform cost, so a second identical product must count
//     the same as the first;
//   * the same holds through the Kronecker packing of TruncSeriesRing;
//   * toeplitz_charpoly and kp_solve are bit-identical for 1, 2, and
//     unlimited workers (the end-to-end determinism contract);
//   * the shared NTT table cache holds one entry per (modulus, size) and
//     survives concurrent first-touch and eviction from raw threads (the
//     ThreadSanitizer CI job runs this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "circuit/field.h"
#include "core/solver.h"
#include "field/simd.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "pram/parallel_for.h"
#include "seq/newton_toeplitz.h"
#include "util/op_count.h"
#include "util/prng.h"

namespace kp {
namespace {

using field::GFp;
using field::GFpReference;
using poly::PolyRing;
using poly::TransformedPoly;

std::vector<GFp::Element> random_poly(const GFp& f, std::size_t len,
                                      util::Prng& prng) {
  std::vector<GFp::Element> v(len);
  for (auto& e : v) e = f.random(prng);
  PolyRing<GFp>(f).strip(v);
  return v;
}

// ---------------------------------------------------------------------------
// ntt_many vs one-at-a-time transforms.

TEST(NttManyTest, MatchesSingleTransformsAndOpCounts) {
  GFp f(field::kNttPrime);
  util::Prng prng(31);
  const std::size_t n = 1 << 10;
  const auto tables = poly::detail::ntt_tables(f.characteristic(), n);

  std::vector<std::vector<GFp::Element>> ref(7);
  for (auto& v : ref) {
    v.resize(n);
    for (auto& e : v) e = f.random(prng);
  }
  auto batch_data = ref;

  util::OpScope serial_scope;
  for (auto& v : ref) poly::detail::ntt_inplace(f, v, tables->forward);
  const auto serial_ops = serial_scope.counts().total();

  std::vector<std::vector<GFp::Element>*> ptrs;
  for (auto& v : batch_data) ptrs.push_back(&v);
  util::OpScope batch_scope;
  poly::ntt_many(f, ptrs, tables->forward);
  const auto batch_ops = batch_scope.counts().total();

  EXPECT_EQ(batch_data, ref);
  EXPECT_EQ(batch_ops, serial_ops);
  EXPECT_GT(batch_ops, 0u);
}

TEST(NttManyTest, BitIdenticalAcrossWorkerLimits) {
  GFp f(field::kNttPrime);
  const std::size_t n = 1 << 12;  // above the level-parallel grain threshold
  const auto tables = poly::detail::ntt_tables(f.characteristic(), n);
  auto& ctx = pram::ExecutionContext::global();

  auto run = [&](unsigned limit) {
    ctx.set_worker_limit(limit);
    util::Prng prng(77);
    std::vector<std::vector<GFp::Element>> data(5);
    for (auto& v : data) {
      v.resize(n);
      for (auto& e : v) e = f.random(prng);
    }
    std::vector<std::vector<GFp::Element>*> ptrs;
    for (auto& v : data) ptrs.push_back(&v);
    util::OpScope scope;
    poly::ntt_many(f, ptrs, tables->forward);
    ctx.set_worker_limit(0);
    return std::make_pair(data, scope.counts().total());
  };

  const auto one = run(1);
  const auto two = run(2);
  const auto many = run(8);
  EXPECT_EQ(one.first, two.first);
  EXPECT_EQ(one.first, many.first);
  EXPECT_EQ(one.second, two.second);
  EXPECT_EQ(one.second, many.second);
}

// ---------------------------------------------------------------------------
// TransformedPoly: values and op counts equal plain ring.mul, for moduli
// exercising the lazy-fast path, the NTT-less fallback, and a small prime.

class CachedMulIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CachedMulIdentity, MulMatchesRingMulValuesAndOps) {
  GFp f(GetParam());
  PolyRing<GFp> ring(f);
  util::Prng prng(5);

  for (const std::size_t la : {0u, 3u, 33u, 200u}) {
    for (const std::size_t lb : {0u, 7u, 64u, 129u}) {
      const auto a = random_poly(f, la, prng);
      const auto b = random_poly(f, lb, prng);
      const TransformedPoly<GFp> ta(ring, a);

      // Two rounds: round 2 hits the spectrum cache and must still charge
      // identical logical ops (the recharge contract).
      for (int round = 0; round < 2; ++round) {
        util::OpScope plain_scope;
        const auto want = ring.mul(a, b);
        const auto plain_ops = plain_scope.counts();

        util::OpScope cached_scope;
        const auto got = ta.mul(ring, b);
        const auto cached_ops = cached_scope.counts();

        EXPECT_EQ(got, want) << "p=" << GetParam() << " la=" << la
                             << " lb=" << lb << " round=" << round;
        EXPECT_EQ(cached_ops.total(), plain_ops.total())
            << "p=" << GetParam() << " la=" << la << " lb=" << lb
            << " round=" << round;
      }

      // Operand-order-preserving form: ring.mul(b, a) on the fallback path.
      util::OpScope plain_scope;
      const auto want = ring.mul(b, a);
      const auto plain_ops = plain_scope.counts();
      util::OpScope cached_scope;
      const auto got = ta.mul(ring, b, /*fixed_first=*/false);
      const auto cached_ops = cached_scope.counts();
      EXPECT_EQ(got, want);
      EXPECT_EQ(cached_ops.total(), plain_ops.total());
    }
  }
}

TEST_P(CachedMulIdentity, MulManyMatchesIndividualProducts) {
  GFp f(GetParam());
  PolyRing<GFp> ring(f);
  util::Prng prng(11);

  const auto fixed = random_poly(f, 150, prng);
  const TransformedPoly<GFp> tf(ring, fixed);

  std::vector<std::vector<GFp::Element>> xs;
  for (const std::size_t len : {0u, 1u, 17u, 100u, 150u, 301u}) {
    xs.push_back(random_poly(f, len, prng));
  }
  std::vector<const std::vector<GFp::Element>*> ptrs;
  for (const auto& x : xs) ptrs.push_back(&x);

  util::OpScope plain_scope;
  std::vector<std::vector<GFp::Element>> want;
  for (const auto& x : xs) want.push_back(ring.mul(fixed, x));
  const auto plain_ops = plain_scope.counts();

  util::OpScope batch_scope;
  const auto got = tf.mul_many(ring, ptrs);
  const auto batch_ops = batch_scope.counts();

  EXPECT_EQ(got, want) << "p=" << GetParam();
  EXPECT_EQ(batch_ops.total(), plain_ops.total()) << "p=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Moduli, CachedMulIdentity,
                         ::testing::Values(std::uint64_t{65537},
                                           field::kP61,  // two-adicity 1: NTT
                                                         // unavailable, pure
                                                         // fallback path
                                           field::kNttPrime));

TEST(CachedMulIdentity, ReferenceFieldCountsMatchFastField) {
  // The PR-2 contract extended to the cached layer: GFp (fast kernels) and
  // GFpReference (generic butterflies) charge identical logical op counts
  // through TransformedPoly, including on cache hits.
  GFp fast(field::kNttPrime);
  GFpReference ref(field::kNttPrime);
  PolyRing<GFp> fring(fast);
  PolyRing<GFpReference> rring(ref);
  util::Prng prng(23);

  const auto a = random_poly(fast, 120, prng);
  const auto b = random_poly(fast, 95, prng);

  const TransformedPoly<GFp> tfast(fring, a);
  const TransformedPoly<GFpReference> tref(rring, a);
  for (int round = 0; round < 2; ++round) {
    util::OpScope fs;
    const auto got_fast = tfast.mul(fring, b);
    const auto fast_ops = fs.counts();
    util::OpScope rs;
    const auto got_ref = tref.mul(rring, b);
    const auto ref_ops = rs.counts();
    EXPECT_EQ(got_fast, got_ref) << "round=" << round;
    EXPECT_EQ(fast_ops.total(), ref_ops.total()) << "round=" << round;
  }
}

TEST(CachedMulIdentity, AvoidedForwardsShowOnlyInStats) {
  GFp f(field::kNttPrime);
  PolyRing<GFp> ring(f);
  util::Prng prng(3);
  const auto a = random_poly(f, 200, prng);
  const auto b = random_poly(f, 180, prng);
  const TransformedPoly<GFp> ta(ring, a);

  poly::reset_transform_stats();
  (void)ta.mul(ring, b);
  const auto cold = poly::transform_stats();
  (void)ta.mul(ring, b);
  (void)ta.mul(ring, b);
  const auto warm = poly::transform_stats();

  EXPECT_EQ(cold.forward_avoided, 0u);
  EXPECT_GE(warm.forward_avoided, 2u);  // fixed side served from cache twice
  // Each product still transforms the varying side and runs one inverse.
  EXPECT_EQ(warm.inverse, 3 * cold.inverse);
}

TEST(CachedMulIdentity, KillSwitchFallsBackToRingMul) {
  GFp f(field::kNttPrime);
  PolyRing<GFp> ring(f);
  util::Prng prng(9);
  const auto a = random_poly(f, 90, prng);
  const auto b = random_poly(f, 70, prng);
  const TransformedPoly<GFp> ta(ring, a);

  poly::transform_cache_enabled().store(false);
  poly::reset_transform_stats();
  const auto got = ta.mul(ring, b);
  const auto stats = poly::transform_stats();
  poly::transform_cache_enabled().store(true);

  EXPECT_EQ(got, ring.mul(a, b));
  EXPECT_EQ(stats.forward_avoided, 0u);
}

// ---------------------------------------------------------------------------
// Bivariate (truncated-series) cached multiplication.

TEST(TruncSeriesCacheTest, CachedMulMatchesRingMulValuesAndOps) {
  GFp f(field::kNttPrime);
  using SR = poly::TruncSeriesRing<GFp>;
  SR sr(f, 8);
  PolyRing<SR> biv(sr);
  util::Prng prng(17);

  auto random_biv = [&](std::size_t len) {
    std::vector<SR::Element> v(len);
    for (auto& s : v) {
      s.assign(8, f.zero());
      for (auto& e : s) e = f.random(prng);
    }
    biv.strip(v);
    return v;
  };

  const auto a = random_biv(40);
  const auto b = random_biv(33);
  const TransformedPoly<SR> ta(biv, a);

  for (int round = 0; round < 2; ++round) {
    util::OpScope plain_scope;
    const auto want = biv.mul(a, b);
    const auto plain_ops = plain_scope.counts();
    util::OpScope cached_scope;
    const auto got = ta.mul(biv, b);
    const auto cached_ops = cached_scope.counts();
    EXPECT_EQ(got, want) << "round=" << round;
    EXPECT_EQ(cached_ops.total(), plain_ops.total()) << "round=" << round;
  }
}

// ---------------------------------------------------------------------------
// Middle products: TransformedPoly::middle / middle_many and the Toeplitz and
// Hankel products built on them (matrix/structured.h).

// Any window [lo, lo + count) of fixed * x, over the wrapped NTT field, an
// NTT-less prime and the Kronecker-packed series ring (both full product),
// equals the slice of ring.mul; middle_many equals middle in a loop in
// values and op counts.
TEST(MiddleProduct, WindowsMatchSlicedRingMul) {
  util::Prng prng(41);
  const auto check = [&](const auto& ring, const auto& fixed,
                         const auto& xs) {
    const auto t = poly::TransformedPoly<
        std::decay_t<decltype(ring.base())>>(ring, fixed);
    std::vector<const std::decay_t<decltype(fixed)>*> ptrs;
    for (const auto& x : xs) ptrs.push_back(&x);
    const std::size_t full = fixed.size() + xs.front().size() - 1;
    for (const std::size_t lo :
         {std::size_t{0}, std::size_t{31}, full / 3, full - 1, full + 2}) {
      for (const std::size_t count :
           {std::size_t{1}, std::size_t{32}, full / 2, full + 3}) {
        util::OpScope loop_scope;
        std::vector<std::decay_t<decltype(fixed)>> loop;
        for (const auto& x : xs) loop.push_back(t.middle(ring, x, lo, count));
        const auto loop_ops = loop_scope.counts();
        util::OpScope many_scope;
        const auto many = t.middle_many(ring, ptrs, lo, count);
        const auto many_ops = many_scope.counts();
        EXPECT_EQ(many, loop) << lo << " " << count;
        EXPECT_EQ(many_ops.total(), loop_ops.total()) << lo << " " << count;
        for (std::size_t i = 0; i < xs.size(); ++i) {
          const auto prod = ring.mul(fixed, xs[i]);
          ASSERT_EQ(loop[i].size(), count);
          for (std::size_t j = 0; j < count; ++j) {
            ASSERT_TRUE(ring.base().eq(loop[i][j], ring.coeff(prod, lo + j)))
                << "lo " << lo << " count " << count << " j " << j;
          }
        }
      }
    }
  };
  for (const std::uint64_t p : {field::kNttPrime, std::uint64_t{1000003}}) {
    const GFp f(p);
    const PolyRing<GFp> ring(f);
    // A 32 x 32 Toeplitz shape: window [31, 63) of a 94-coefficient
    // product wraps at L = 64 over kNttPrime.
    const auto fixed = random_poly(f, 63, prng);
    std::vector<std::vector<GFp::Element>> xs;
    for (const std::size_t len : {32u, 32u, 13u}) {
      xs.push_back(random_poly(f, len, prng));
    }
    check(ring, fixed, xs);
  }
  const GFp f(field::kNttPrime);
  using SR = poly::TruncSeriesRing<GFp>;
  const SR sr(f, 4);
  const PolyRing<SR> biv(sr);
  const auto series_poly = [&](std::size_t len) {
    std::vector<SR::Element> v(len);
    for (auto& e : v) {
      e.assign(4, f.zero());
      for (auto& c : e) c = f.random(prng);
    }
    return v;
  };
  check(biv, series_poly(30), std::vector{series_poly(20), series_poly(20)});
}

/// y = M x by the dense definition, the reference for the structured
/// products.
template <class F, class M>
std::vector<typename F::Element> dense_product(
    const F& f, const M& m, const std::vector<typename F::Element>& x) {
  std::vector<typename F::Element> y(m.dim(), f.zero());
  for (std::size_t i = 0; i < m.dim(); ++i) {
    for (std::size_t j = 0; j < m.dim(); ++j) {
      y[i] = f.add(y[i], f.mul(m.at(i, j), x[j]));
    }
  }
  return y;
}

/// Toeplitz and Hankel apply / apply_many against the dense product, with
/// apply_many element- and op-count-identical to a loop of applies.  Each
/// size runs a random symbol and vectors, then a symbol whose top
/// coefficients are zero with vectors zero at both ends and all zero, so
/// the stripped operands are shorter than n.
template <class F>
void expect_structured_products_match_dense(const F& f) {
  const PolyRing<F> ring(f);
  util::Prng prng(2027);
  for (const std::size_t n :
       {1u, 2u, 3u, 7u, 8u, 9u, 31u, 32u, 33u, 96u, 127u, 128u, 129u, 256u}) {
    for (const bool zeros : {false, true}) {
      std::vector<typename F::Element> symbol(2 * n - 1);
      for (auto& e : symbol) e = f.random(prng);
      std::vector<std::vector<typename F::Element>> xs(3);
      for (auto& x : xs) {
        x.resize(n);
        for (auto& e : x) e = f.random(prng);
      }
      if (zeros) {
        std::fill(symbol.begin() + static_cast<std::ptrdiff_t>(n), symbol.end(),
                  f.zero());
        const std::size_t k = n / 3;
        std::fill(xs[0].begin(), xs[0].begin() + static_cast<std::ptrdiff_t>(k),
                  f.zero());
        std::fill(xs[0].end() - static_cast<std::ptrdiff_t>(k), xs[0].end(),
                  f.zero());
        std::fill(xs[1].begin(), xs[1].end(), f.zero());
      }
      std::vector<const std::vector<typename F::Element>*> ptrs;
      for (const auto& x : xs) ptrs.push_back(&x);
      const auto check = [&](const auto& m, const char* what) {
        util::OpScope loop_scope;
        std::vector<std::vector<typename F::Element>> loop;
        for (const auto& x : xs) loop.push_back(m.apply(ring, x));
        const auto loop_ops = loop_scope.counts();
        util::OpScope many_scope;
        const auto many = m.apply_many(ring, ptrs);
        const auto many_ops = many_scope.counts();
        EXPECT_EQ(many, loop) << what << " n=" << n;
        EXPECT_EQ(many_ops.add, loop_ops.add) << what << " n=" << n;
        EXPECT_EQ(many_ops.mul, loop_ops.mul) << what << " n=" << n;
        EXPECT_EQ(many_ops.div, loop_ops.div) << what << " n=" << n;
        EXPECT_EQ(many_ops.zero_test, loop_ops.zero_test) << what << " n=" << n;
        for (std::size_t i = 0; i < xs.size(); ++i) {
          EXPECT_EQ(loop[i], dense_product(f, m, xs[i]))
              << what << " n=" << n << " zeros=" << zeros << " x" << i;
        }
      };
      check(matrix::Toeplitz<F>(n, symbol), "toeplitz");
      check(matrix::Hankel<F>(n, symbol), "hankel");
    }
  }
}

TEST(MiddleProduct, StructuredProductsMatchDenseAtEverySimdLevel) {
  namespace simd = field::simd;
  const auto saved = simd::simd_level();
  const bool saved_ifma = simd::simd_ifma();
  for (const auto level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2,
                           simd::SimdLevel::kAvx512}) {
    simd::set_simd_level(level);
    // kNttPrime takes the wrapped transforms; 1000003 (two-adicity 1) has
    // no root of unity of order 2n - 1 and multiplies whole products.
    expect_structured_products_match_dense(field::Zp<field::kNttPrime>());
    expect_structured_products_match_dense(GFp(1000003));
  }
  simd::set_simd_level(saved);
  simd::set_simd_ifma(saved_ifma);
}

TEST(MiddleProduct, CircuitFieldRecordsWholeProducts) {
  // The circuit builder multiplies whole products (symbolic NTT for an
  // NTT-friendly target); the recorded Toeplitz and Hankel products must
  // evaluate to the dense products over the target field.
  const GFp fq(field::kNttPrime);
  util::Prng prng(5);
  for (const std::size_t n :
       {1u, 2u, 3u, 7u, 8u, 9u, 31u, 32u, 33u, 96u, 127u, 128u, 129u, 256u}) {
    for (const bool hankel : {false, true}) {
      circuit::Circuit c;
      circuit::CircuitBuilderField cf(c, field::kNttPrime);
      const PolyRing<circuit::CircuitBuilderField> ring(cf);
      // Inputs: the symbol, then two vectors; the symbol's top half and the
      // second vector's ends are the constant zero, so both strip.
      std::vector<GFp::Element> in;
      const auto input = [&](bool zero) {
        if (zero) return cf.zero();
        in.push_back(fq.random(prng));
        return c.input();
      };
      std::vector<circuit::NodeId> symbol(2 * n - 1);
      for (std::size_t i = 0; i < symbol.size(); ++i) {
        symbol[i] = input(n > 2 && i >= n);
      }
      std::vector<std::vector<circuit::NodeId>> xs(2, std::vector<circuit::NodeId>(n));
      for (std::size_t j = 0; j < n; ++j) xs[0][j] = input(false);
      for (std::size_t j = 0; j < n; ++j) xs[1][j] = input(j == 0 || j + 1 == n);
      const std::vector<const std::vector<circuit::NodeId>*> ptrs{&xs[0],
                                                                   &xs[1]};
      const auto record = [&](const auto& m) {
        for (const auto& y : m.apply_many(ring, ptrs)) {
          for (const auto id : y) c.mark_output(id);
        }
      };
      if (hankel) {
        record(matrix::Hankel<circuit::CircuitBuilderField>(n, symbol));
      } else {
        record(matrix::Toeplitz<circuit::CircuitBuilderField>(n, symbol));
      }
      const auto res = c.evaluate_status(fq, in, {});
      ASSERT_TRUE(res.status.ok()) << n;
      // The same operands over the target field, zeros in place.
      std::size_t next = 0;
      const auto value = [&](circuit::NodeId id) {
        return id == cf.zero() ? fq.zero() : in[next++];
      };
      std::vector<GFp::Element> sv;
      for (const auto id : symbol) sv.push_back(value(id));
      std::vector<GFp::Element> want;
      for (const auto& x : xs) {
        std::vector<GFp::Element> xv;
        for (const auto id : x) xv.push_back(value(id));
        const auto y = hankel
                           ? dense_product(fq, matrix::Hankel<GFp>(n, sv), xv)
                           : dense_product(fq, matrix::Toeplitz<GFp>(n, sv), xv);
        want.insert(want.end(), y.begin(), y.end());
      }
      EXPECT_EQ(res.outputs, want) << (hankel ? "hankel" : "toeplitz") << n;
    }
  }
}

TEST(MiddleProduct, TransformLengthIsTwoNMinusOneRoundedUp) {
  // At n = 256 a Toeplitz or Hankel product runs at L = 512, the power of
  // two >= 2n - 1: it charges exactly what one whole product of two
  // length-256 operands (511 coefficients, L = 512) charges, and less than
  // ring.mul of the symbol by the vector (766 coefficients, L = 1024).
  const field::Zp<field::kNttPrime> f;
  const PolyRing<field::Zp<field::kNttPrime>> ring(f);
  util::Prng prng(256);
  const std::size_t n = 256;
  std::vector<std::uint64_t> symbol(2 * n - 1), x(n), u(n);
  for (auto* v : {&symbol, &x, &u}) {
    for (auto& e : *v) e = f.random(prng);
    v->back() = f.one();  // full length after stripping
  }
  const auto ops_of = [](const auto& body) {
    util::OpScope scope;
    (void)body();
    return scope.counts().total();
  };
  const auto at_512 = ops_of([&] { return ring.mul(x, u); });
  const auto at_1024 = ops_of([&] { return ring.mul(symbol, x); });
  const matrix::Toeplitz<field::Zp<field::kNttPrime>> t(n, symbol);
  const matrix::Hankel<field::Zp<field::kNttPrime>> h(n, symbol);
  std::vector<std::uint64_t> rx(x.rbegin(), x.rend());
  EXPECT_EQ(ops_of([&] { return t.apply(ring, x); }), at_512);
  EXPECT_EQ(ops_of([&] { return h.apply(ring, rx); }), at_512);
  EXPECT_LT(at_512, at_1024);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: charpoly and solver across worker limits.

TEST(EndToEndDeterminism, ToeplitzCharpolyBitIdenticalAcrossWorkers) {
  GFp f(field::kNttPrime);
  auto& ctx = pram::ExecutionContext::global();
  auto run = [&](unsigned limit) {
    ctx.set_worker_limit(limit);
    util::Prng prng(51);
    std::vector<GFp::Element> diag(2 * 32 - 1);
    for (auto& e : diag) e = f.random(prng);
    matrix::Toeplitz<GFp> t(32, std::move(diag));
    util::OpScope scope;
    auto cp = seq::toeplitz_charpoly(f, t);
    ctx.set_worker_limit(0);
    return std::make_pair(cp, scope.counts().total());
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto many = run(8);
  EXPECT_EQ(one.first, two.first);
  EXPECT_EQ(one.first, many.first);
  EXPECT_EQ(one.second, two.second);
  EXPECT_EQ(one.second, many.second);
}

TEST(EndToEndDeterminism, SolverBitIdenticalAcrossWorkers) {
  GFp f(field::kNttPrime);
  PolyRing<GFp> ring(f);
  auto& ctx = pram::ExecutionContext::global();

  util::Prng setup(61);
  const std::size_t n = 16;
  matrix::Toeplitz<GFp> t = [&] {
    for (;;) {
      std::vector<GFp::Element> diag(2 * n - 1);
      for (auto& e : diag) e = f.random(setup);
      matrix::Toeplitz<GFp> cand(n, std::move(diag));
      if (!f.is_zero(matrix::det_gauss(f, cand.to_dense(f)))) return cand;
    }
  }();
  std::vector<GFp::Element> b(n);
  for (auto& e : b) e = f.random(setup);

  auto run = [&](unsigned limit) {
    ctx.set_worker_limit(limit);
    util::Prng prng(4711);
    matrix::ToeplitzBox<GFp> box(ring, t);
    auto res = core::kp_solve(f, box, b, prng);
    ctx.set_worker_limit(0);
    EXPECT_TRUE(res.ok);
    return std::make_tuple(res.x, res.det, res.charpoly_at);
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

// ---------------------------------------------------------------------------
// Concurrent first-touch of the shared NTT table cache (raw threads, several
// sizes and two moduli at once; the TSan CI job watches this).

TEST(SharedTwiddleCacheTest, ConcurrentFirstTouchIsSafeAndCorrect) {
  const std::uint64_t primes[] = {field::kNttPrime, 65537};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::uint64_t p : primes) {
      for (const std::size_t n : {1u << 4, 1u << 7, 1u << 9}) {
        threads.emplace_back([p, n, rep, &failures] {
          GFp f(p);
          util::Prng prng(static_cast<std::uint64_t>(n) + rep);
          std::vector<GFp::Element> a(n / 2), b(n / 2);
          for (auto& e : a) e = f.random(prng);
          for (auto& e : b) e = f.random(prng);
          PolyRing<GFp> ring(f, poly::MulStrategy::kNtt);
          const auto fast = ring.mul(a, b);
          PolyRing<GFp> slow_ring(f, poly::MulStrategy::kSchoolbook);
          if (fast != slow_ring.mul(a, b)) failures.fetch_add(1);
        });
      }
    }
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Byte-budget / LRU bound on the shared NTT table cache (KP_CACHE_BUDGET).

namespace {
/// One NTT-path product at transform size ~2n, verified against schoolbook;
/// populates the table cache for that (p, n) as a side effect.
void checked_mul(std::uint64_t p, std::size_t n, std::uint64_t seed) {
  GFp f(p);
  util::Prng prng(seed);
  std::vector<GFp::Element> a(n), b(n);
  for (auto& e : a) e = f.random(prng);
  for (auto& e : b) e = f.random(prng);
  PolyRing<GFp> fast(f, poly::MulStrategy::kNtt);
  PolyRing<GFp> slow(f, poly::MulStrategy::kSchoolbook);
  ASSERT_EQ(fast.mul(a, b), slow.mul(a, b)) << "p=" << p << " n=" << n;
}
}  // namespace

TEST(SharedTwiddleCacheTest, ByteBudgetEvictsLruAndStaysCorrect) {
  const auto before = poly::twiddle_cache_stats();
  // Tight enough that at most one transform-size entry survives (the
  // evictor always keeps the newest entry, so the hot path never starves).
  poly::set_cache_budget(1);
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t n : {1u << 4, 1u << 6, 1u << 8}) {
      checked_mul(field::kNttPrime, n, 17 + round);
    }
  }
  const auto after = poly::twiddle_cache_stats();
  poly::set_cache_budget(0);  // restore: unlimited
  EXPECT_GT(after.evictions, before.evictions);
  EXPECT_LE(after.entries, 2u);  // budget held (evictor keeps >= 1 entry)
}

TEST(SharedTwiddleCacheTest, LoweringBudgetTrimsWarmCache) {
  // A cache that already holds every size it needs never misses again, so
  // the budget must be enforced when it is set, not at the next miss.
  poly::set_cache_budget(0);
  for (const std::size_t n : {1u << 4, 1u << 6, 1u << 8}) {
    checked_mul(field::kNttPrime, n, 5);
  }
  const auto warm = poly::twiddle_cache_stats();
  ASSERT_GE(warm.entries, 3u);
  poly::set_cache_budget(1);
  const auto trimmed = poly::twiddle_cache_stats();
  EXPECT_EQ(trimmed.entries, 0u);
  EXPECT_EQ(trimmed.bytes, 0u);
  EXPECT_EQ(trimmed.evictions, warm.evictions + warm.entries);
  EXPECT_EQ(trimmed.misses, warm.misses);  // trimmed without a miss
  checked_mul(field::kNttPrime, 1u << 6, 6);  // still correct when cold
  poly::set_cache_budget(0);
}

TEST(SharedTwiddleCacheTest, UnlimitedBudgetCachesAndCountsHits) {
  poly::set_cache_budget(0);
  checked_mul(field::kNttPrime, 1u << 5, 3);
  const auto first = poly::twiddle_cache_stats();
  checked_mul(field::kNttPrime, 1u << 5, 4);  // same size: pure hits
  const auto second = poly::twiddle_cache_stats();
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(second.entries, first.entries);
  EXPECT_EQ(second.evictions, first.evictions);
}

TEST(SharedTwiddleCacheTest, OneEntryPerModulusAndSize) {
  // Both directions and 1/n of a (p, n) pair live in one entry: a product
  // at a fresh size builds it once and then only hits.
  poly::set_cache_budget(1);  // trim to empty ...
  poly::set_cache_budget(0);  // ... and keep whatever is built next
  ASSERT_EQ(poly::twiddle_cache_stats().entries, 0u);
  const auto empty = poly::twiddle_cache_stats();
  checked_mul(field::kNttPrime, 1u << 7, 8);
  const auto after = poly::twiddle_cache_stats();
  EXPECT_EQ(after.misses, empty.misses + 1);
  EXPECT_EQ(after.entries, 1u);
  EXPECT_GT(after.hits, empty.hits);
}

TEST(SharedTwiddleCacheTest, EntryHoldsBothDirectionsAndOneOverN) {
  // One entry carries a primitive n-th root's table, its inverse root's
  // table and 1/n: forward, inverse, then the 1/n scale is the identity.
  using field::detail::mulmod;
  using field::detail::powmod;
  GFp f(field::kNttPrime);
  const std::uint64_t p = f.characteristic();
  util::Prng prng(41);
  for (std::size_t n : {4u, 64u, 1024u}) {
    const auto t = poly::detail::ntt_tables(p, n);
    const std::uint64_t w = t->forward.pow[1];
    EXPECT_EQ(powmod(w, n, p), 1u) << "n=" << n;
    EXPECT_EQ(powmod(w, n / 2, p), p - 1) << "n=" << n;
    EXPECT_EQ(mulmod(w, t->inverse.pow[1], p), 1u) << "n=" << n;
    EXPECT_EQ(mulmod(t->n_inv, n % p, p), 1u) << "n=" << n;

    std::vector<GFp::Element> a(n);
    for (auto& e : a) e = f.random(prng);
    auto v = a;
    poly::detail::ntt_inplace(f, v, t->forward);
    poly::detail::ntt_inplace(f, v, t->inverse);
    for (auto& e : v) e = f.mul(e, t->n_inv);
    EXPECT_EQ(v, a) << "n=" << n;
  }
}

TEST(SharedTwiddleCacheTest, ConcurrentUseUnderTightBudgetIsSafe) {
  // TSan target: threads looking up tables while the LRU evictor drops
  // them, and transforms running on tables already evicted (pinned by
  // their shared_ptr).  Every thread keeps verifying products while the
  // tight budget forces continuous eviction underneath them.
  poly::set_cache_budget(1);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([t, &bad] {
      for (int i = 0; i < 12; ++i) {
        const std::size_t n = 1u << (4 + (t + i) % 4);
        GFp f(field::kNttPrime);
        util::Prng prng(static_cast<std::uint64_t>(t * 100 + i));
        std::vector<GFp::Element> a(n), b(n);
        for (auto& e : a) e = f.random(prng);
        for (auto& e : b) e = f.random(prng);
        PolyRing<GFp> fast(f, poly::MulStrategy::kNtt);
        PolyRing<GFp> slow(f, poly::MulStrategy::kSchoolbook);
        if (fast.mul(a, b) != slow.mul(a, b)) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  poly::set_cache_budget(0);
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace kp
