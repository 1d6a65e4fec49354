// Parameterized property sweeps (TEST_P): the library's cross-cutting
// invariants exercised over grids of sizes, strategies and failure modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/baselines.h"
#include "core/extensions.h"
#include "core/solver.h"
#include "core/wiedemann.h"
#include "field/gfpk.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "seq/gohberg_semencul.h"
#include "seq/newton_toeplitz.h"
#include "util/prng.h"

namespace kp {
namespace {

using field::GFp;
using field::Zp;
using matrix::MatMulStrategy;
using matrix::Matrix;

using F = Zp<1000003>;
F f;

// ---------------------------------------------------------------------------
// Solver sweep: every (n, matmul, newton-identities, finish) combination
// must produce the exact solution and determinant.

using SolverParam = std::tuple<std::size_t, MatMulStrategy,
                               seq::NewtonIdentityMethod, bool>;

class SolverSweep : public ::testing::TestWithParam<SolverParam> {};

TEST_P(SolverSweep, RoundTripAndDet) {
  const auto [n, matmul, newton, depth_optimal] = GetParam();
  util::Prng prng(static_cast<std::uint64_t>(n) * 31 +
                  static_cast<std::uint64_t>(matmul) * 7 +
                  static_cast<std::uint64_t>(newton) * 3 + depth_optimal);
  auto a = matrix::random_matrix(f, n, n, prng);
  if (f.is_zero(matrix::det_gauss(f, a))) GTEST_SKIP();
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  auto b = matrix::mat_vec(f, a, x);

  core::SolverOptions opt;
  opt.matmul = matmul;
  opt.newton = newton;
  opt.depth_optimal = depth_optimal;
  auto res = core::kp_solve(f, a, b, prng, opt);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.x, x);
  EXPECT_EQ(res.det, matrix::det_gauss(f, a));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SolverSweep,
    ::testing::Combine(
        ::testing::Values<std::size_t>(1, 2, 3, 5, 9, 16),
        ::testing::Values(MatMulStrategy::kClassical, MatMulStrategy::kStrassen),
        ::testing::Values(seq::NewtonIdentityMethod::kTriangularSolve,
                          seq::NewtonIdentityMethod::kPowerSeriesExp),
        ::testing::Bool()));

// ---------------------------------------------------------------------------
// Charpoly agreement sweep: five independent algorithms, one answer.

class CharpolySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CharpolySweep, AllMethodsAgreeAndAnnihilate) {
  const std::size_t n = GetParam();
  util::Prng prng(n * 1003);
  auto a = matrix::random_matrix(f, n, n, prng);

  const auto ref = core::faddeev_leverrier(f, a).charpoly;
  EXPECT_EQ(core::charpoly_csanky(f, a), ref);
  EXPECT_EQ(core::charpoly_berkowitz(f, a), ref);
  EXPECT_EQ(core::charpoly_chistov(f, a), ref);

  // Coefficient sanity: p(0) = (-1)^n det, next-to-leading = -trace.
  auto det = matrix::det_gauss(f, a);
  EXPECT_EQ(ref[0], n % 2 == 0 ? det : f.neg(det));
  auto tr = f.zero();
  for (std::size_t i = 0; i < n; ++i) tr = f.add(tr, a.at(i, i));
  EXPECT_EQ(ref[n - 1], f.neg(tr));

  // Cayley-Hamilton.
  auto acc = matrix::zero_matrix(f, n, n);
  for (std::size_t k = ref.size(); k-- > 0;) {
    acc = matrix::mat_mul(f, acc, a);
    for (std::size_t i = 0; i < n; ++i) acc.at(i, i) = f.add(acc.at(i, i), ref[k]);
  }
  EXPECT_TRUE(matrix::mat_eq(f, acc, matrix::zero_matrix(f, n, n)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CharpolySweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 7, 9, 12));

// ---------------------------------------------------------------------------
// Polynomial multiplication sweep over the NTT-friendly field: all kernels,
// many shapes, one answer; plus ring axioms at the boundary shapes.

using PolyParam = std::tuple<std::size_t, std::size_t>;

class PolyMulSweep : public ::testing::TestWithParam<PolyParam> {};

TEST_P(PolyMulSweep, KernelsAgree) {
  const auto [da, db] = GetParam();
  GFp fq(field::kNttPrime);
  util::Prng prng(da * 131 + db);
  poly::PolyRing<GFp> school(fq, poly::MulStrategy::kSchoolbook);
  poly::PolyRing<GFp> karat(fq, poly::MulStrategy::kKaratsuba, 4);
  poly::PolyRing<GFp> ntt(fq, poly::MulStrategy::kNtt);
  poly::PolyRing<GFp> autod(fq, poly::MulStrategy::kAuto);
  auto a = school.random_degree(prng, static_cast<std::int64_t>(da));
  auto b = school.random_degree(prng, static_cast<std::int64_t>(db));
  if (school.is_zero(a) || school.is_zero(b)) GTEST_SKIP();
  const auto ref = school.mul(a, b);
  EXPECT_TRUE(school.eq(ref, karat.mul(a, b)));
  EXPECT_TRUE(school.eq(ref, ntt.mul(a, b)));
  EXPECT_TRUE(school.eq(ref, autod.mul(a, b)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PolyMulSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 7, 23, 64, 200),
                       ::testing::Values<std::size_t>(0, 5, 31, 128)));

// ---------------------------------------------------------------------------
// Extension-field multiplication sweep: the packed-integer NTT kernel
// (poly/gfpk_ntt.h) must agree with generic schoolbook over GF(p^k).

using GfpkMulParam = std::tuple<std::uint64_t, unsigned, std::size_t>;

class GfpkMulSweep : public ::testing::TestWithParam<GfpkMulParam> {};

TEST_P(GfpkMulSweep, PackedKernelMatchesSchoolbook) {
  const auto [p, k, deg] = GetParam();
  field::GFpk gf(p, k);
  util::Prng prng(p * 97 + k * 7 + deg);
  poly::PolyRing<field::GFpk> school(gf, poly::MulStrategy::kSchoolbook);
  poly::PolyRing<field::GFpk> autod(gf, poly::MulStrategy::kAuto);
  ASSERT_TRUE((poly::NttTraits<field::GFpk>::available(gf, 2 * deg + 1)));
  auto a = school.random_degree(prng, static_cast<std::int64_t>(deg));
  auto b = school.random_degree(prng, static_cast<std::int64_t>(deg));
  if (school.is_zero(a) || school.is_zero(b)) GTEST_SKIP();
  EXPECT_TRUE(school.eq(school.mul(a, b), autod.mul(a, b)));
  EXPECT_TRUE(school.eq(school.mul(a, b),
                        poly::NttTraits<field::GFpk>::mul(gf, a, b)));
}

INSTANTIATE_TEST_SUITE_P(
    FieldsAndDegrees, GfpkMulSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(2, 3, 17),
                       ::testing::Values<unsigned>(1, 2, 4, 8),
                       ::testing::Values<std::size_t>(1, 9, 40, 130)));

// ---------------------------------------------------------------------------
// Failure injection: rank-deficient inputs of every deficiency must make
// the solver fail cleanly and the section-5 extensions recover structure.

class RankDeficiencySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RankDeficiencySweep, SolverFailsExtensionsRecover) {
  const std::size_t deficiency = GetParam();
  const std::size_t n = 8;
  const std::size_t r = n - deficiency;
  util::Prng prng(deficiency * 17 + 5);

  Matrix<F> a = matrix::zero_matrix(f, n, n);
  if (r > 0) {
    auto left = matrix::random_matrix(f, n, r, prng);
    auto right = matrix::random_matrix(f, r, n, prng);
    a = matrix::mat_mul(f, left, right);
  }
  ASSERT_EQ(matrix::rank_gauss(f, a), r);  // generic draw

  if (deficiency > 0) {
    // The Theorem-4 pipeline must report failure, never a wrong answer.
    std::vector<F::Element> b(n);
    for (auto& e : b) e = f.random(prng);
    auto res = core::kp_solve(f, a, b, prng);
    EXPECT_FALSE(res.ok);

    // Wiedemann's singularity certificate fires.
    matrix::DenseBox<F> box(f, a);
    EXPECT_TRUE(core::wiedemann_singular_test(f, box, prng, 1u << 20));
  }

  // Rank and nullspace recover the planted structure.
  EXPECT_EQ(core::rank_randomized(f, a, prng, 1u << 20), r);
  auto ns = core::nullspace_randomized(f, a, prng, 1u << 20);
  ASSERT_TRUE(ns.ok);
  EXPECT_EQ(ns.rank, r);
  EXPECT_EQ(ns.basis.cols(), deficiency);

  // Singular solve succeeds exactly on consistent right-hand sides.
  std::vector<F::Element> y(n);
  for (auto& e : y) e = f.random(prng);
  auto consistent = matrix::mat_vec(f, a, y);
  auto sol = core::singular_solve_randomized(f, a, consistent, prng, 1u << 20);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(matrix::mat_vec(f, a, *sol), consistent);
}

INSTANTIATE_TEST_SUITE_P(Deficiencies, RankDeficiencySweep,
                         ::testing::Values<std::size_t>(0, 1, 2, 4, 7, 8));

// ---------------------------------------------------------------------------
// Toeplitz sweep: Theorem 3 and Gohberg-Semencul across sizes.

class ToeplitzSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ToeplitzSweep, CharpolyGsAndSolve) {
  const std::size_t n = GetParam();
  util::Prng prng(n * 71 + 3);
  poly::PolyRing<F> ring(f);
  std::vector<F::Element> diag(2 * n - 1);
  for (auto& v : diag) v = f.random(prng);
  matrix::Toeplitz<F> t(n, diag);
  auto dense = t.to_dense(f);

  // Theorem-3 charpoly vs the Berkowitz reference on the dense copy.
  EXPECT_EQ(seq::toeplitz_charpoly(f, t), core::charpoly_berkowitz(f, dense));

  // Gohberg-Semencul round trip (when the representation exists).
  if (auto gs = seq::gs_from_toeplitz_gauss(f, t)) {
    std::vector<F::Element> z(n);
    for (auto& e : z) e = f.random(prng);
    EXPECT_EQ(t.apply(ring, gs->apply(ring, z)), z);
  }

  // Cayley-Hamilton Toeplitz solve.
  if (!f.is_zero(matrix::det_gauss(f, dense))) {
    std::vector<F::Element> x(n);
    for (auto& e : x) e = f.random(prng);
    auto b = t.apply(ring, x);
    EXPECT_EQ(seq::toeplitz_solve_charpoly(f, t, b, ring), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ToeplitzSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 6, 8, 11, 16, 23));

// ---------------------------------------------------------------------------
// Wiedemann sweep over sparsity levels.

using WiedemannParam = std::tuple<std::size_t, std::size_t>;

class WiedemannSweep : public ::testing::TestWithParam<WiedemannParam> {};

TEST_P(WiedemannSweep, SparseSolveRoundTrip) {
  const auto [n, nnz_per_row] = GetParam();
  util::Prng prng(n * 13 + nnz_per_row);
  auto sp = matrix::Sparse<F>::random(f, n, nnz_per_row, prng);
  if (f.is_zero(matrix::det_gauss(f, sp.to_dense(f)))) GTEST_SKIP();
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  auto b = sp.apply(f, x);
  matrix::SparseBox<F> box(f, sp);
  auto sol = core::wiedemann_solve_status(f, box, b, prng, 1u << 20);
  ASSERT_TRUE(sol.ok);
  EXPECT_EQ(sol.x, x);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WiedemannSweep,
    ::testing::Combine(::testing::Values<std::size_t>(5, 12, 25, 40),
                       ::testing::Values<std::size_t>(1, 3, 6)));

// ---------------------------------------------------------------------------
// Series sweep: inverse/log/exp identities across precisions.

class SeriesSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SeriesSweep, InverseAndExpLogIdentities) {
  const std::size_t prec = GetParam();
  util::Prng prng(prec * 7 + 1);
  poly::PolyRing<F> ring(f);

  auto a = ring.random_degree(prng, static_cast<std::int64_t>(prec));
  if (a.empty() || f.is_zero(a[0])) a = ring.add(a, ring.one());
  if (f.is_zero(ring.coeff(a, 0))) GTEST_SKIP();
  auto inv = poly::series_inverse(ring, a, prec);
  EXPECT_TRUE(ring.eq(ring.truncate(ring.mul(a, inv), prec), ring.one()));

  auto h = ring.shift_up(ring.random_degree(prng, static_cast<std::int64_t>(prec) - 2), 1);
  auto e = poly::series_exp(ring, h, prec);
  EXPECT_TRUE(ring.eq(poly::series_log(ring, e, prec), ring.truncate(h, prec)));
}

INSTANTIATE_TEST_SUITE_P(Precisions, SeriesSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13, 21, 34, 64));

}  // namespace
}  // namespace kp
