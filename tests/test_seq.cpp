// Tests for the sequence substrate: linearly generated sequences and
// Lemma 1, Berlekamp-Massey, Newton identities (both methods), the
// Gohberg-Semencul representation (Figure 1), and the section-3
// Newton-on-Toeplitz characteristic polynomial (Theorem 3).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "field/gfpk.h"
#include "field/rational.h"
#include "field/zp.h"
#include "matrix/gauss.h"
#include "matrix/matmul.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "seq/berlekamp_massey.h"
#include "seq/gohberg_semencul.h"
#include "seq/linear_gen.h"
#include "seq/newton_identities.h"
#include "seq/newton_toeplitz.h"
#include "util/prng.h"

namespace kp {
namespace {

using field::Rational;
using field::RationalField;
using field::Zp;
using matrix::Matrix;
using matrix::Toeplitz;

using F = Zp<1000003>;
F f;

std::vector<F::Element> random_monic(std::size_t deg, util::Prng& prng) {
  std::vector<F::Element> p(deg + 1);
  for (std::size_t i = 0; i < deg; ++i) p[i] = f.random(prng);
  p[deg] = f.one();
  return p;
}

/// Reference power sums: traces of dense matrix powers.
std::vector<F::Element> dense_power_sums(const Matrix<F>& a, std::size_t count) {
  std::vector<F::Element> s;
  auto pw = matrix::identity_matrix(f, a.rows());
  for (std::size_t k = 1; k <= count; ++k) {
    pw = matrix::mat_mul(f, pw, a);
    auto tr = f.zero();
    for (std::size_t i = 0; i < a.rows(); ++i) tr = f.add(tr, pw.at(i, i));
    s.push_back(tr);
  }
  return s;
}

/// Reference charpoly via dense power sums + Newton identities.
std::vector<F::Element> dense_charpoly(const Matrix<F>& a) {
  return seq::charpoly_from_power_sums(f, dense_power_sums(a, a.rows()));
}

// ---------------------------------------------------------------------------
// Linearly generated sequences and Lemma 1.

TEST(LinearGenTest, ExtendThenVerify) {
  util::Prng prng(1);
  for (std::size_t d : {1u, 2u, 5u, 9u}) {
    auto mp = random_monic(d, prng);
    std::vector<F::Element> seed(d);
    for (auto& v : seed) v = f.random(prng);
    auto seq = seq::sequence_with_minpoly(f, mp, seed, 4 * d);
    EXPECT_TRUE(seq::generates(f, mp, seq));
  }
}

TEST(LinearGenTest, Lemma1DeterminantPattern) {
  // Lemma 1: det(T_m) != 0 and det(T_M) = 0 for all M > m, where m is the
  // degree of the minimum polynomial.  (Experiment E1.)
  util::Prng prng(2);
  for (std::size_t m : {1u, 2u, 4u, 7u}) {
    // Random monic minpoly of degree exactly m; make sure it IS minimal by
    // checking with Berlekamp-Massey and skipping degenerate draws.
    auto mp = random_monic(m, prng);
    std::vector<F::Element> seed(m);
    for (auto& v : seed) v = f.random(prng);
    const std::size_t len = 2 * (m + 4);
    auto seq = seq::sequence_with_minpoly(f, mp, seed, len);
    if (seq::berlekamp_massey(f, seq).size() != m + 1) continue;  // unlucky seed
    EXPECT_FALSE(f.is_zero(matrix::det_gauss(f, seq::lemma1_toeplitz(f, seq, m))))
        << "det(T_m) must be nonzero, m=" << m;
    for (std::size_t M = m + 1; M <= m + 4; ++M) {
      EXPECT_TRUE(f.is_zero(matrix::det_gauss(f, seq::lemma1_toeplitz(f, seq, M))))
          << "det(T_M) must vanish, m=" << m << " M=" << M;
    }
  }
}

TEST(LinearGenTest, MinpolyByLemma1MatchesConstruction) {
  util::Prng prng(3);
  for (std::size_t m : {1u, 3u, 6u}) {
    auto mp = random_monic(m, prng);
    std::vector<F::Element> seed(m);
    for (auto& v : seed) v = f.random(prng);
    auto seq = seq::sequence_with_minpoly(f, mp, seed, 4 * m);
    auto found = seq::minpoly_by_lemma1(f, seq, 2 * m);
    // The found polynomial must generate; if the random seed exposes the full
    // polynomial (generic case), it equals mp.
    EXPECT_TRUE(seq::generates(f, found, seq));
    if (found.size() == mp.size()) {
      EXPECT_EQ(found, mp);
    }
  }
}

// ---------------------------------------------------------------------------
// Berlekamp-Massey.

TEST(BerlekampMasseyTest, FibonacciMinpoly) {
  // x^2 - x - 1 generates Fibonacci.
  std::vector<F::Element> fib{1, 1};
  for (int i = 0; i < 18; ++i) {
    fib.push_back(f.add(fib[fib.size() - 1], fib[fib.size() - 2]));
  }
  auto mp = seq::berlekamp_massey(f, fib);
  ASSERT_EQ(mp.size(), 3u);
  EXPECT_EQ(mp[2], f.one());
  EXPECT_EQ(mp[1], f.from_int(-1));
  EXPECT_EQ(mp[0], f.from_int(-1));
}

TEST(BerlekampMasseyTest, RecoversRandomMinpoly) {
  util::Prng prng(4);
  for (std::size_t d : {1u, 2u, 5u, 11u, 20u}) {
    auto mp = random_monic(d, prng);
    std::vector<F::Element> seed(d);
    for (auto& v : seed) v = f.random(prng);
    auto seq = seq::sequence_with_minpoly(f, mp, seed, 2 * d);
    auto found = seq::berlekamp_massey(f, seq);
    // found generates and divides mp (it IS mp for generic seeds).
    EXPECT_TRUE(seq::generates(f, found, seq)) << d;
    EXPECT_LE(found.size(), mp.size());
  }
}

TEST(BerlekampMasseyTest, AgreesWithLemma1Route) {
  util::Prng prng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t d = 1 + prng.below(6);
    auto mp = random_monic(d, prng);
    std::vector<F::Element> seed(d);
    for (auto& v : seed) v = f.random(prng);
    auto seq = seq::sequence_with_minpoly(f, mp, seed, 4 * d);
    EXPECT_EQ(seq::berlekamp_massey(f, seq), seq::minpoly_by_lemma1(f, seq, 2 * d));
  }
}

TEST(BerlekampMasseyTest, ZeroSequence) {
  std::vector<F::Element> zeros(10, f.zero());
  auto mp = seq::berlekamp_massey(f, zeros);
  EXPECT_EQ(mp, std::vector<F::Element>{f.one()});
}

TEST(BerlekampMasseyTest, EventuallyZeroNeedsNilpotentGenerator) {
  // (1, 0, 0, ...) has minimum polynomial x.
  std::vector<F::Element> s{f.one()};
  s.resize(8, f.zero());
  auto mp = seq::berlekamp_massey(f, s);
  EXPECT_EQ(mp, (std::vector<F::Element>{f.zero(), f.one()}));
}

TEST(BerlekampMasseyTest, WorksOverGF256) {
  field::GFpk gf(2, 8);
  util::Prng prng(6);
  // Build a sequence with a known degree-4 minpoly over GF(256).
  std::vector<field::GFpk::Element> mp(5, gf.zero());
  for (int i = 0; i < 4; ++i) mp[static_cast<std::size_t>(i)] = gf.random(prng);
  mp[4] = gf.one();
  std::vector<field::GFpk::Element> seed;
  for (int i = 0; i < 4; ++i) seed.push_back(gf.random(prng));
  auto seq = seq::sequence_with_minpoly(gf, mp, seed, 8);
  auto found = seq::berlekamp_massey(gf, seq);
  EXPECT_TRUE(seq::generates(gf, found, seq));
}

// ---------------------------------------------------------------------------
// Hankel determinant from the Berlekamp-Massey discrepancies.

/// hankel_det must return det H exactly when every leading minor det H_k is
/// non-zero, and nullopt otherwise (checked minor by minor with Gauss).
template <class G>
void check_hankel_det_characterization(const G& g, std::uint64_t s,
                                       std::size_t max_n, int draws) {
  util::Prng prng(21);
  int normal = 0;
  for (int i = 0; i < draws; ++i) {
    const std::size_t n = 1 + static_cast<std::size_t>(i) % max_n;
    const auto h = matrix::Hankel<G>::random(g, n, prng, s);
    const auto dense = h.to_dense(g);
    bool all_minors_nonzero = true;
    for (std::size_t k = 1; k <= n; ++k) {
      all_minors_nonzero =
          all_minors_nonzero &&
          !g.is_zero(matrix::det_gauss(g, matrix::leading_principal(g, dense, k)));
    }
    const auto det = seq::hankel_det(g, h.entries());
    ASSERT_EQ(det.has_value(), all_minors_nonzero) << n;
    if (det) {
      EXPECT_EQ(*det, matrix::det_gauss(g, dense)) << n;
    }
    normal += all_minors_nonzero;
  }
  EXPECT_GT(normal, 0);
  EXPECT_LT(normal, draws);
}

TEST(HankelDetTest, ExactIffAllLeadingMinorsNonzero) {
  check_hankel_det_characterization(Zp<7>{}, 7, 6, 400);
  check_hankel_det_characterization(Zp<13>{}, 3, 9, 400);
  check_hankel_det_characterization(f, 3, 12, 400);
  // Any characteristic: Berlekamp-Massey needs no char > n.
  check_hankel_det_characterization(field::GFpk(2, 8), 4, 10, 200);
}

// ---------------------------------------------------------------------------
// Newton identities.

TEST(NewtonIdentitiesTest, RoundTripBothMethods) {
  util::Prng prng(7);
  for (std::size_t n : {1u, 2u, 5u, 12u, 30u}) {
    auto p = random_monic(n, prng);
    auto s = seq::power_sums_from_charpoly(f, p, n);
    auto back_tri = seq::charpoly_from_power_sums(
        f, s, seq::NewtonIdentityMethod::kTriangularSolve);
    auto back_exp = seq::charpoly_from_power_sums(
        f, s, seq::NewtonIdentityMethod::kPowerSeriesExp);
    EXPECT_EQ(back_tri, p) << n;
    EXPECT_EQ(back_exp, p) << n;
  }
}

TEST(NewtonIdentitiesTest, PowerSumsMatchCompanionTraces) {
  util::Prng prng(8);
  const std::size_t n = 6;
  auto p = random_monic(n, prng);
  // Companion matrix of p.
  Matrix<F> c(n, n, f.zero());
  for (std::size_t i = 1; i < n; ++i) c.at(i, i - 1) = f.one();
  for (std::size_t i = 0; i < n; ++i) c.at(i, n - 1) = f.neg(p[i]);
  EXPECT_EQ(seq::power_sums_from_charpoly(f, p, 2 * n), dense_power_sums(c, 2 * n));
}

TEST(NewtonIdentitiesTest, KnownEigenvalues) {
  // Diagonal (1, 2, 3): s_1 = 6, s_2 = 14, s_3 = 36; charpoly
  // (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6.
  std::vector<F::Element> s{6, 14, 36};
  auto p = seq::charpoly_from_power_sums(f, s);
  EXPECT_EQ(p, (std::vector<F::Element>{f.from_int(-6), f.from_int(11),
                                        f.from_int(-6), f.one()}));
}

TEST(NewtonIdentitiesTest, OverRationals) {
  RationalField q;
  std::vector<Rational> s{Rational(3), Rational(5), Rational(9)};
  auto p_tri = seq::charpoly_from_power_sums(
      q, s, seq::NewtonIdentityMethod::kTriangularSolve);
  auto p_exp = seq::charpoly_from_power_sums(
      q, s, seq::NewtonIdentityMethod::kPowerSeriesExp);
  for (std::size_t i = 0; i < p_tri.size(); ++i) {
    EXPECT_TRUE(q.eq(p_tri[i], p_exp[i])) << i;
  }
}

// ---------------------------------------------------------------------------
// Gohberg-Semencul (Figure 1).

Toeplitz<F> random_toeplitz(std::size_t n, util::Prng& prng) {
  std::vector<F::Element> diag(2 * n - 1);
  for (auto& v : diag) v = f.random(prng);
  return Toeplitz<F>(n, std::move(diag));
}

TEST(GohbergSemenculTest, ReconstructsDenseInverse) {
  util::Prng prng(9);
  poly::PolyRing<F> ring(f);
  for (std::size_t n : {1u, 2u, 3u, 6u, 12u, 25u}) {
    auto t = random_toeplitz(n, prng);
    auto gs = seq::gs_from_toeplitz_gauss(f, t);
    if (!gs) continue;  // singular or u1 = 0 (rare over a big field)
    auto inv = matrix::inverse_gauss(f, t.to_dense(f));
    ASSERT_TRUE(inv.has_value());
    EXPECT_TRUE(matrix::mat_eq(f, gs->to_dense(ring), *inv)) << n;
  }
}

TEST(GohbergSemenculTest, ApplySolvesSystem) {
  util::Prng prng(10);
  poly::PolyRing<F> ring(f);
  for (std::size_t n : {2u, 5u, 17u}) {
    auto t = random_toeplitz(n, prng);
    auto gs = seq::gs_from_toeplitz_gauss(f, t);
    if (!gs) continue;
    std::vector<F::Element> b(n);
    for (auto& v : b) v = f.random(prng);
    auto x = gs->apply(ring, b);
    EXPECT_EQ(t.apply(ring, x), b) << n;
  }
}

TEST(GohbergSemenculTest, TraceFormula) {
  util::Prng prng(11);
  for (std::size_t n : {1u, 2u, 4u, 9u, 16u}) {
    auto t = random_toeplitz(n, prng);
    auto gs = seq::gs_from_toeplitz_gauss(f, t);
    if (!gs) continue;
    auto inv = matrix::inverse_gauss(f, t.to_dense(f));
    ASSERT_TRUE(inv.has_value());
    auto tr = f.zero();
    for (std::size_t i = 0; i < n; ++i) tr = f.add(tr, inv->at(i, i));
    EXPECT_EQ(gs->trace(f), tr) << n;
  }
}

// ---------------------------------------------------------------------------
// Newton-on-Toeplitz (Theorem 3).

TEST(NewtonToeplitzTest, SeriesInverseMatchesNeumannSeries) {
  // (I - lambda T)^{-1} = sum_i T^i lambda^i; check the first and last
  // columns coefficient by coefficient.
  util::Prng prng(12);
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u}) {
    const std::size_t prec = n + 1;
    auto t = random_toeplitz(n, prng);
    auto inv = seq::toeplitz_series_inverse(f, t, prec);
    auto dense = t.to_dense(f);
    auto pw = matrix::identity_matrix(f, n);
    for (std::size_t k = 0; k < prec; ++k) {
      poly::TruncSeriesRing<F> sr(f, prec);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sr.coeff(inv.first_col[i], k), pw.at(i, 0))
            << "n=" << n << " k=" << k << " i=" << i;
        EXPECT_EQ(sr.coeff(inv.last_col[i], k), pw.at(i, n - 1))
            << "n=" << n << " k=" << k << " i=" << i;
      }
      pw = matrix::mat_mul(f, pw, dense);
    }
  }
}

TEST(NewtonToeplitzTest, PowerSumsMatchDenseTraces) {
  util::Prng prng(13);
  for (std::size_t n : {1u, 2u, 4u, 7u, 12u}) {
    auto t = random_toeplitz(n, prng);
    auto s = seq::toeplitz_power_sums(f, t, n + 1);
    EXPECT_EQ(s[0], f.from_int(static_cast<std::int64_t>(n)));
    auto ref = dense_power_sums(t.to_dense(f), n);
    for (std::size_t k = 1; k <= n; ++k) EXPECT_EQ(s[k], ref[k - 1]) << n << " " << k;
  }
}

TEST(NewtonToeplitzTest, CharpolyMatchesDenseReference) {
  util::Prng prng(14);
  for (std::size_t n : {1u, 2u, 3u, 6u, 10u, 16u}) {
    auto t = random_toeplitz(n, prng);
    EXPECT_EQ(seq::toeplitz_charpoly(f, t), dense_charpoly(t.to_dense(f))) << n;
  }
}

TEST(NewtonToeplitzTest, CharpolyAnnihilatesMatrix) {
  // Cayley-Hamilton: p(T) = 0.
  util::Prng prng(15);
  const std::size_t n = 8;
  auto t = random_toeplitz(n, prng);
  auto p = seq::toeplitz_charpoly(f, t);
  auto dense = t.to_dense(f);
  auto acc = matrix::zero_matrix(f, n, n);
  for (std::size_t k = p.size(); k-- > 0;) {
    acc = matrix::mat_mul(f, acc, dense);
    for (std::size_t i = 0; i < n; ++i) acc.at(i, i) = f.add(acc.at(i, i), p[k]);
  }
  EXPECT_TRUE(matrix::mat_eq(f, acc, matrix::zero_matrix(f, n, n)));
}

TEST(NewtonToeplitzTest, DetMatchesGauss) {
  util::Prng prng(16);
  for (std::size_t n : {1u, 2u, 5u, 9u, 14u}) {
    auto t = random_toeplitz(n, prng);
    EXPECT_EQ(seq::toeplitz_det(f, t), matrix::det_gauss(f, t.to_dense(f))) << n;
  }
}

TEST(NewtonToeplitzTest, SolveRoundTrip) {
  util::Prng prng(17);
  poly::PolyRing<F> ring(f);
  for (std::size_t n : {1u, 3u, 7u, 13u}) {
    auto t = random_toeplitz(n, prng);
    if (f.is_zero(matrix::det_gauss(f, t.to_dense(f)))) continue;
    std::vector<F::Element> x(n);
    for (auto& v : x) v = f.random(prng);
    auto b = t.apply(ring, x);
    auto sol = seq::toeplitz_solve_charpoly(f, t, b, ring);
    EXPECT_EQ(sol, x) << n;
  }
}

TEST(NewtonToeplitzTest, WorksOverRationals) {
  RationalField q;
  // 3x3 Toeplitz with small integer entries.
  std::vector<Rational> diag{1, 2, 3, 4, 5};  // a_0..a_4
  Toeplitz<RationalField> t(3, diag);
  auto p = seq::toeplitz_charpoly(q, t);
  // Check against dense Gaussian determinant via p(0) = (-1)^n det(T).
  auto det = matrix::det_gauss(q, t.to_dense(q));
  EXPECT_TRUE(q.eq(p[0], q.neg(det)));  // n = 3 odd
  // And Cayley-Hamilton.
  auto dense = t.to_dense(q);
  auto acc = matrix::zero_matrix(q, 3, 3);
  for (std::size_t k = p.size(); k-- > 0;) {
    acc = matrix::mat_mul(q, acc, dense);
    for (std::size_t i = 0; i < 3; ++i) acc.at(i, i) = q.add(acc.at(i, i), p[k]);
  }
  EXPECT_TRUE(matrix::mat_eq(q, acc, matrix::zero_matrix(q, 3, 3)));
}

TEST(NewtonToeplitzTest, StructuredGsConstructorMatchesGaussian) {
  util::Prng prng(18);
  poly::PolyRing<F> ring(f);
  for (std::size_t n : {1u, 2u, 4u, 8u, 15u}) {
    auto t = random_toeplitz(n, prng);
    auto fast = seq::gs_from_toeplitz(f, t, ring);
    auto ref = seq::gs_from_toeplitz_gauss(f, t);
    ASSERT_EQ(fast.has_value(), ref.has_value()) << n;
    if (!fast) continue;
    EXPECT_EQ(fast->first_col, ref->first_col) << n;
    EXPECT_EQ(fast->last_col, ref->last_col) << n;
    // And the representation actually inverts T.
    std::vector<F::Element> b(n);
    for (auto& v : b) v = f.random(prng);
    EXPECT_EQ(t.apply(ring, fast->apply(ring, b)), b) << n;
  }
}

TEST(NewtonToeplitzTest, StructuredGsReportsSingular) {
  poly::PolyRing<F> ring(f);
  // All-ones Toeplitz of dim 3 is singular.
  matrix::Toeplitz<F> t(3, std::vector<F::Element>(5, f.one()));
  EXPECT_FALSE(seq::gs_from_toeplitz(f, t, ring).has_value());
}

TEST(NewtonToeplitzTest, UpperLowerTriangularHelpers) {
  poly::PolyRing<F> ring(f);
  // L((1,2,3)) z and U((1,2,3)) z against explicit matrices.
  std::vector<F::Element> w{1, 2, 3};
  std::vector<F::Element> z{4, 5, 6};
  using GS = seq::GohbergSemencul<F>;
  auto lo = GS::lower_tri_apply(ring, w, z);
  EXPECT_EQ(lo, (std::vector<F::Element>{4, 13, 28}));
  auto up = GS::upper_tri_apply(ring, w, z);
  // U = [[1,2,3],[0,1,2],[0,0,1]] -> (4+10+18, 5+12, 6).
  EXPECT_EQ(up, (std::vector<F::Element>{32, 17, 6}));
}

}  // namespace
}  // namespace kp
