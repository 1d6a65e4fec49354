// Tests for the core pipeline: Krylov doubling (9), preconditioners
// (Theorem 2), the Theorem-4 solver/determinant, Wiedemann's black-box
// algorithms (section 2), the baselines (Csanky, Faddeev-LeVerrier,
// Berkowitz, Chistov), and the section-5 extensions.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/annihilator.h"
#include "core/baselines.h"
#include "core/extensions.h"
#include "core/field_lift.h"
#include "core/krylov.h"
#include "core/preconditioners.h"
#include "core/small_char.h"
#include "core/solver.h"
#include "core/wiedemann.h"
#include "field/gfpk.h"
#include "field/reference.h"
#include "field/rational.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "seq/berlekamp_massey.h"
#include "seq/newton_toeplitz.h"
#include "util/op_count.h"
#include "util/prng.h"

namespace kp {
namespace {

using field::BigInt;
using field::GFpk;
using field::Rational;
using field::RationalField;
using field::Zp;
using matrix::Matrix;

using F = Zp<1000003>;
F f;

Matrix<F> random_mat(std::size_t n, util::Prng& prng) {
  return matrix::random_matrix(f, n, n, prng);
}

// ---------------------------------------------------------------------------
// Krylov doubling.

TEST(KrylovTest, BlockColumnsArePowers) {
  util::Prng prng(1);
  const std::size_t n = 7;
  auto a = random_mat(n, prng);
  std::vector<F::Element> v(n);
  for (auto& e : v) e = f.random(prng);
  for (std::size_t count : {1u, 2u, 3u, 7u, 14u}) {
    auto block = core::krylov_block(f, a, v, count);
    ASSERT_EQ(block.cols(), count);
    auto w = v;
    for (std::size_t j = 0; j < count; ++j) {
      if (j) w = matrix::mat_vec(f, a, w);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(block.at(i, j), w[i]) << "count=" << count << " col=" << j;
      }
    }
  }
}

TEST(KrylovTest, DoublingMatchesIterative) {
  util::Prng prng(2);
  for (std::size_t n : {1u, 2u, 3u, 5u, 7u, 12u, 100u}) {
    auto a = random_mat(n, prng);
    std::vector<F::Element> u(n), v(n);
    for (auto& e : u) e = f.random(prng);
    for (auto& e : v) e = f.random(prng);
    matrix::DenseBox<F> box(f, a);
    for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              2 * n - 1, 2 * n}) {
      EXPECT_EQ(core::krylov_sequence_doubling(f, a, u, v, count),
                matrix::krylov_sequence_iterative(f, box, u, v, count))
          << n << " " << count;
    }
  }
}

TEST(KrylovTest, StoredPowersSequenceNeedsHalfTheCount) {
  // count terms project a ceil(count/2)-column block from both sides, so
  // the powers that block needs are all the sequence needs; one fewer is a
  // malformed call.
  util::Prng prng(4);
  for (std::size_t n : {1u, 4u, 7u, 12u}) {
    const auto a = random_mat(n, prng);
    std::vector<F::Element> u(n), v(n);
    for (auto& e : u) e = f.random(prng);
    for (auto& e : v) e = f.random(prng);
    matrix::DenseBox<F> box(f, a);
    for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                              n, 2 * n - 1, 2 * n, 2 * n + 3}) {
      const std::size_t need = core::krylov_power_count((count + 1) / 2);
      auto powers = core::krylov_powers(f, a, (count + 1) / 2);
      ASSERT_EQ(powers.size(), need) << n << " " << count;
      EXPECT_EQ(core::krylov_sequence_doubling(f, powers, u, v, count),
                matrix::krylov_sequence_iterative(f, box, u, v, count))
          << n << " " << count;
      if (need > 1) {
        powers.pop_back();
        EXPECT_TRUE(
            core::krylov_sequence_doubling(f, powers, u, v, count).empty())
            << n << " " << count;
      }
    }
  }
}

TEST(KrylovTest, TrimmedLastLevelCostsLessThanFullDoubling) {
  // A count that is not a power of two multiplies only the columns it still
  // needs at the last level: 96 columns cost strictly less than 128.
  const field::GFp big(field::kNttPrime);
  util::Prng prng(96);
  const std::size_t n = 96;
  const auto a = matrix::random_matrix(big, n, n, prng);
  std::vector<std::uint64_t> v(n);
  for (auto& e : v) e = big.random(prng);
  const auto powers = core::krylov_powers(big, a, 128);
  util::OpScope short_scope;
  const auto short_block = core::krylov_block(big, powers, v, 96);
  const auto short_ops = short_scope.counts().total();
  util::OpScope full_scope;
  const auto full_block = core::krylov_block(big, powers, v, 128);
  const auto full_ops = full_scope.counts().total();
  ASSERT_EQ(short_block.cols(), 96u);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 96; ++j) {
      EXPECT_EQ(short_block.at(i, j), full_block.at(i, j));
    }
  }
  EXPECT_LT(short_ops, full_ops);
}

TEST(KrylovTest, DoublingWithStrassen) {
  util::Prng prng(3);
  const std::size_t n = 9;
  auto a = random_mat(n, prng);
  std::vector<F::Element> u(n), v(n);
  for (auto& e : u) e = f.random(prng);
  for (auto& e : v) e = f.random(prng);
  EXPECT_EQ(core::krylov_sequence_doubling(f, a, u, v, 2 * n,
                                           matrix::MatMulStrategy::kStrassen),
            core::krylov_sequence_doubling(f, a, u, v, 2 * n,
                                           matrix::MatMulStrategy::kClassical));
}

TEST(KrylovTest, StoredPowersMatchSingleUseBlock) {
  // Squaring once and building the block from the stored powers is the
  // single-use block split in two: same values, same operation counts.
  util::Prng prng(5);
  const std::size_t n = 6;
  const auto a = random_mat(n, prng);
  std::vector<F::Element> v(n);
  for (auto& e : v) e = f.random(prng);
  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{5}, n, 2 * n}) {
    util::OpScope whole;
    const auto expect = core::krylov_block(f, a, v, count);
    const auto whole_ops = whole.counts();
    util::OpScope split;
    const auto powers = core::krylov_powers(f, a, count);
    const auto block = core::krylov_block(f, powers, v, count);
    const auto split_ops = split.counts();
    EXPECT_EQ(powers.size(), core::krylov_power_count(count)) << count;
    ASSERT_EQ(block.cols(), count) << count;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < count; ++j) {
        EXPECT_EQ(block.at(i, j), expect.at(i, j)) << count;
      }
    }
    EXPECT_EQ(split_ops.add, whole_ops.add) << count;
    EXPECT_EQ(split_ops.mul, whole_ops.mul) << count;
    EXPECT_EQ(split_ops.div, whole_ops.div) << count;
    EXPECT_EQ(split_ops.zero_test, whole_ops.zero_test) << count;
  }
  // Too few powers for the count is a malformed call, not a short block.
  EXPECT_EQ(core::krylov_block(f, core::krylov_powers(f, a, 4), v, 5).rows(),
            0u);
}

// ---------------------------------------------------------------------------
// Preconditioner (Theorem 2).

TEST(PreconditionerTest, DenseProductMatchesExplicit) {
  util::Prng prng(4);
  poly::PolyRing<F> ring(f);
  const std::size_t n = 8;
  auto a = random_mat(n, prng);
  auto pre = core::Preconditioner<F>::draw(f, n, prng, 1u << 20);
  auto at = pre.apply_dense(f, ring, a);
  auto expect = matrix::mat_mul(
      f, a,
      matrix::mat_mul(f, pre.hankel.to_dense(f), pre.diagonal.to_dense(f)));
  EXPECT_TRUE(matrix::mat_eq(f, at, expect));
}

TEST(PreconditionerTest, DetMatchesGauss) {
  util::Prng prng(5);
  for (std::size_t n : {1u, 2u, 5u, 9u}) {
    auto pre = core::Preconditioner<F>::draw(f, n, prng, 1u << 20);
    auto expect = f.mul(matrix::det_gauss(f, pre.hankel.to_dense(f)),
                        pre.diagonal.det(f));
    EXPECT_EQ(pre.det(f), expect) << n;
  }
}

TEST(PreconditionerTest, LeadingMinorsNonzeroWithHighProbability) {
  // Theorem 2's guarantee, spot-checked: for a non-singular A and a large
  // sample set, all leading principal minors of A*H are non-zero.
  util::Prng prng(6);
  poly::PolyRing<F> ring(f);
  const std::size_t n = 7;
  int successes = 0;
  for (int trial = 0; trial < 20; ++trial) {
    auto a = random_mat(n, prng);
    if (f.is_zero(matrix::det_gauss(f, a))) continue;
    auto h = matrix::Hankel<F>::random(f, n, prng, 1u << 20);
    auto ah = matrix::mat_mul(f, a, h.to_dense(f));
    bool all_nonzero = true;
    for (std::size_t i = 1; i <= n; ++i) {
      if (f.is_zero(matrix::det_gauss(f, matrix::leading_principal(f, ah, i)))) {
        all_nonzero = false;
        break;
      }
    }
    successes += all_nonzero;
  }
  EXPECT_GE(successes, 19);  // bound: failure <= n(n-1)/2 / 2^20 per trial
}

/// det(H D) through both det(H) routes -- Berlekamp-Massey with the
/// Theorem-3 fallback (default) and Theorem 3 alone (depth_optimal) --
/// against Gaussian elimination.  Returns whether H was normal.
template <class G>
bool expect_det_both_paths(const G& g, const core::Preconditioner<G>& pre) {
  const auto expect = g.mul(matrix::det_gauss(g, pre.hankel.to_dense(g)),
                            pre.diagonal.det(g));
  const auto method = seq::NewtonIdentityMethod::kTriangularSolve;
  EXPECT_EQ(pre.det(g), expect) << pre.hankel.dim();
  EXPECT_EQ(pre.det(g, method, /*depth_optimal=*/true), expect)
      << pre.hankel.dim();
  return seq::hankel_det(g, pre.hankel.entries()).has_value();
}

core::Preconditioner<F> preconditioner_of(std::vector<std::uint64_t> h) {
  const std::size_t n = (h.size() + 1) / 2;
  std::vector<F::Element> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = f.from_int(static_cast<std::int64_t>(i) + 2);
  return {matrix::Hankel<F>(n, std::vector<F::Element>(h.begin(), h.end())),
          matrix::Diagonal<F>(std::move(d))};
}

TEST(PreconditionerTest, HankelDetAdversarialCorpusBothPaths) {
  struct Case {
    const char* what;
    std::vector<std::uint64_t> h;
    bool normal;
    bool singular;
  };
  const std::vector<Case> corpus = {
      {"n = 1", {5}, true, false},
      {"n = 1, zero", {0}, false, true},
      {"n = 2", {2, 3, 5}, true, false},
      {"n = 2, h0 = 0, non-singular", {0, 1, 0}, false, false},
      {"n = 4, h0 = 0, non-singular", {0, 1, 2, 3, 5, 8, 14}, false, false},
      {"n = 4, det H_2 = 0 mid-way", {1, 1, 1, 2, 5, 3, 7}, false, false},
      {"n = 4, rank 1", {1, 2, 4, 8, 16, 32, 64}, false, true},
      {"n = 4, all zero", {0, 0, 0, 0, 0, 0, 0}, false, true},
      // h_i = 1 + 2^i + 3^i: rank 3, only the last minor vanishes.
      {"n = 4, rank 3", {3, 6, 14, 36, 98, 276, 794}, false, true},
  };
  for (const Case& c : corpus) {
    const auto pre = preconditioner_of(c.h);
    EXPECT_EQ(expect_det_both_paths(f, pre), c.normal) << c.what;
    EXPECT_EQ(f.is_zero(pre.det(f)), c.singular) << c.what;
  }
}

template <class G>
void check_small_sample_set(const G& g, std::size_t max_n, int draws) {
  // |S| = 3 makes vanishing leading minors common, so both det(H) routes
  // -- and the fallback between them -- are exercised on every field.
  util::Prng prng(11);
  int non_normal = 0;
  for (int i = 0; i < draws; ++i) {
    const std::size_t n = 1 + static_cast<std::size_t>(i) % max_n;
    const auto pre = core::Preconditioner<G>::draw(g, n, prng, 3);
    non_normal += !expect_det_both_paths(g, pre);
  }
  EXPECT_GT(non_normal, draws / 4);
  EXPECT_LT(non_normal, draws);
}

TEST(PreconditionerTest, HankelDetSmallSampleSetBothPaths) {
  check_small_sample_set(Zp<7>{}, 6, 300);  // Theorem 3 needs char > n
  check_small_sample_set(Zp<13>{}, 8, 300);
  check_small_sample_set(f, 10, 300);
}

TEST(PreconditionerTest, HankelDetIsQuadraticOnNormalDraw) {
  // Guard against det(H D) drifting back onto the O(n^2 polylog n)
  // Theorem-3 route: Berlekamp-Massey spends about 4 n^2 field operations.
  util::Prng prng(12);
  const std::size_t n = 256;
  const auto pre = core::Preconditioner<F>::draw(f, n, prng, 1u << 30);
  ASSERT_TRUE(seq::hankel_det(f, pre.hankel.entries()).has_value());
  util::OpScope ops;
  const auto det = pre.det(f);
  EXPECT_LE(ops.counts().total(), 5 * n * n);
  EXPECT_EQ(det, f.mul(matrix::det_gauss(f, pre.hankel.to_dense(f)),
                       pre.diagonal.det(f)));
}

// ---------------------------------------------------------------------------
// Theorem-4 solver.

TEST(SolverTest, SolveMatchesGauss) {
  util::Prng prng(7);
  for (std::size_t n : {1u, 2u, 4u, 8u, 13u, 20u}) {
    auto a = random_mat(n, prng);
    if (f.is_zero(matrix::det_gauss(f, a))) continue;
    std::vector<F::Element> x(n);
    for (auto& e : x) e = f.random(prng);
    auto b = matrix::mat_vec(f, a, x);
    auto res = core::kp_solve(f, a, b, prng);
    ASSERT_TRUE(res.ok) << n;
    EXPECT_EQ(res.x, x) << n;
  }
}

TEST(SolverTest, DetMatchesGauss) {
  util::Prng prng(8);
  for (std::size_t n : {1u, 2u, 5u, 10u, 17u}) {
    auto a = random_mat(n, prng);
    auto res = core::kp_det(f, a, prng);
    const auto expect = matrix::det_gauss(f, a);
    if (f.is_zero(expect)) continue;  // singular: pipeline correctly fails
    ASSERT_TRUE(res.ok) << n;
    EXPECT_EQ(res.det, expect) << n;
  }
}

TEST(SolverTest, DetIdenticalWithDepthOptimalOnAndOff) {
  // det(H) takes Berlekamp-Massey by default and Theorem 3 under
  // depth_optimal; det(A), the attempt count and the draws must not move.
  // A small sample set makes non-normal H and retries part of the run.
  util::Prng data(13);
  for (const std::uint64_t s : {std::uint64_t{1} << 30, std::uint64_t{400}}) {
    for (std::size_t n : {1u, 3u, 6u, 11u}) {
      const auto a = random_mat(n, data);
      core::SolverOptions fast;
      fast.sample_size = s;
      fast.max_attempts = 8;
      core::SolverOptions deep = fast;
      deep.depth_optimal = true;
      util::Prng p1(100 + n), p2(100 + n);
      const auto r1 = core::kp_det(f, a, p1, fast);
      const auto r2 = core::kp_det(f, a, p2, deep);
      ASSERT_EQ(r1.ok, r2.ok) << n;
      EXPECT_EQ(r1.det, r2.det) << n;
      EXPECT_EQ(r1.attempts, r2.attempts) << n;
      EXPECT_EQ(r1.charpoly_at, r2.charpoly_at) << n;
      if (r1.ok) {
        EXPECT_EQ(r1.det, matrix::det_gauss(f, a)) << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The generator step: Berlekamp-Massey by default, Theorem 3 under
// depth_optimal.

/// The CSR copy of a dense matrix, so the same operator runs on the lazy
/// iterative route.
template <class Fld>
matrix::Sparse<Fld> sparse_copy(const Fld& fld,
                                const Matrix<Fld>& a) {
  std::vector<typename matrix::Sparse<Fld>::Entry> entries;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!fld.is_zero(a.at(i, j))) entries.push_back({i, j, a.at(i, j)});
    }
  }
  return matrix::Sparse<Fld>(fld, a.rows(), a.cols(), std::move(entries));
}

/// Same seed, three routes over one dense operator: the default (2n + n
/// products with the formed A-tilde), depth_optimal (the doubling plus the
/// Theorem-3 generator) and the lazy iterative route on its CSR copy.  No
/// route may move any output, the attempt count, or the draws of any
/// attempt, and a solved x is Gauss's.
template <class Fld>
void expect_dense_routes_agree(const Fld& fld, std::size_t n,
                               std::uint64_t seed) {
  util::Prng data(seed);
  const auto a = matrix::random_matrix(fld, n, n, data);
  std::vector<typename Fld::Element> b(n);
  for (auto& e : b) e = fld.random(data);
  const matrix::SparseBox<Fld> lazy(fld, sparse_copy(fld, a));
  core::SolverOptions fast;
  fast.max_attempts = 8;
  core::SolverOptions deep = fast;
  deep.depth_optimal = true;
  util::Prng p1(seed + 1), p2(seed + 1), p3(seed + 1);
  const auto r1 = core::kp_solve(fld, a, b, p1, fast);
  EXPECT_EQ(r1.route_used, core::KrylovRoute::kIterative) << n;
  const std::vector<core::SolveResult<Fld>> others{
      core::kp_solve(fld, a, b, p2, deep),
      core::kp_solve(fld, lazy, b, p3, fast)};
  const char* names[] = {"depth_optimal", "lazy iterative"};
  EXPECT_EQ(others[0].route_used, core::KrylovRoute::kDoubling) << n;
  EXPECT_EQ(others[1].route_used, core::KrylovRoute::kIterative) << n;
  for (std::size_t k = 0; k < others.size(); ++k) {
    const auto& r2 = others[k];
    ASSERT_EQ(r1.ok, r2.ok) << n << " " << names[k];
    EXPECT_EQ(r1.x, r2.x) << n << " " << names[k];
    EXPECT_EQ(r1.det, r2.det) << n << " " << names[k];
    EXPECT_EQ(r1.charpoly_at, r2.charpoly_at) << n << " " << names[k];
    EXPECT_EQ(r1.attempts, r2.attempts) << n << " " << names[k];
    ASSERT_EQ(r1.diags.size(), r2.diags.size()) << n << " " << names[k];
    for (std::size_t i = 0; i < r1.diags.size(); ++i) {
      const auto& d1 = r1.diags[i];
      const auto& d2 = r2.diags[i];
      EXPECT_EQ(d1.kind, d2.kind) << n << " " << names[k] << " attempt " << i;
      EXPECT_EQ(d1.stage, d2.stage) << n << " " << names[k] << " attempt " << i;
      EXPECT_EQ(d1.precondition_seed, d2.precondition_seed)
          << n << " " << names[k] << " attempt " << i;
      EXPECT_EQ(d1.projection_seed, d2.projection_seed)
          << n << " " << names[k] << " attempt " << i;
    }
  }
  if (r1.ok) {
    const auto expect = matrix::solve_gauss(fld, a, b);
    ASSERT_TRUE(expect.has_value()) << n;
    EXPECT_EQ(r1.x, *expect) << n;
  }
}

TEST(SequentialGeneratorTest, MatchesTheorem3OverNttPrime) {
  // depth_optimal also switches the Krylov route from 3n products with the
  // formed A-tilde to the doubling; n runs across powers of two and the
  // sizes just past them.
  const Zp<field::kNttPrime> big;
  for (std::size_t n : {1u, 2u, 3u, 5u, 7u, 12u, 16u, 33u, 64u, 100u}) {
    expect_dense_routes_agree(big, n, 500 + n);
  }
}

TEST(DenseRouteTest, RoutesAgreeOverSmallAndGenericFields) {
  // GF(65537) keeps 3n^2/|S| large enough at n = 100 that retries are part
  // of the comparison; GFpReference takes the generic (non-fused) vec_mat.
  const field::GFp small(65537);
  const field::GFpReference generic(field::kNttPrime);
  for (std::size_t n : {1u, 2u, 3u, 5u, 12u, 33u, 100u}) {
    expect_dense_routes_agree(small, n, 900 + n);
    expect_dense_routes_agree(generic, n, 950 + n);
  }
}

TEST(SequentialGeneratorTest, MatchesTheorem3OverSmallPrime) {
  // p = 131 > n keeps Theorem 3 valid, and is small enough that unlucky
  // draws (and so retries) are part of the comparison.
  const Zp<131> small;
  for (std::size_t n : {1u, 2u, 3u, 7u, 16u, 64u}) {
    for (std::uint64_t seed : {600u, 700u, 800u}) {
      expect_dense_routes_agree(small, n, seed + n);
      if (n == 64) break;  // one draw: the Theorem-3 side dominates here
    }
  }
}

/// The dense default route's cost in the paper's units is a property of
/// the algorithm, not of the kernels under it: kp_solve at n = 96 over
/// GF(kNttPrime) -- A-tilde formed from n Hankel middle products at
/// transform length 256, then 3n products with it -- charges exactly these
/// counts and draws exactly these seeds however vec_mat is tiled or pooled.
TEST(DenseRouteCostPin, KpSolveN96OpsAndDiagSeeds) {
  const field::GFp f(field::kNttPrime);
  const std::size_t n = 96;
  util::Prng data(96);
  const auto a = matrix::random_matrix(f, n, n, data);
  std::vector<std::uint64_t> b(n);
  for (auto& e : b) e = f.random(data);
  util::Prng prng(2026);
  util::OpScope scope;
  const auto res = core::kp_solve(f, a, b, prng);
  const auto ops = scope.counts();
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(ops.total(), 6344777u);
  EXPECT_EQ(ops.add, 3277539u);
  EXPECT_EQ(ops.mul, 3066563u);
  EXPECT_EQ(ops.div, 482u);
  EXPECT_EQ(ops.zero_test, 193u);
  EXPECT_EQ(res.attempts, 1);
  ASSERT_EQ(res.diags.size(), 1u);
  EXPECT_EQ(res.diags[0].precondition_seed, 362395845592970028u);
  EXPECT_EQ(res.diags[0].projection_seed, 16232961778811808461u);
  EXPECT_EQ(res.diags[0].ops.total(), 6344777u);
  const auto expect = matrix::solve_gauss(f, a, b);
  ASSERT_TRUE(expect.has_value());
  EXPECT_EQ(res.x, *expect);
}

TEST(SequentialGeneratorTest, TinySampleSetFailsOrganicallyAndNeverLies) {
  // |S| = 3 over F_17 makes deg f_u < n (det(T) = 0) an everyday event
  // (over a large field a 0/1/2 projection almost never degenerates); the
  // degree check must report it as a degenerate projection, every other
  // failure must carry a solver FailureKind, and any answer must be
  // Gauss's.  17 > n keeps the non-normal det(H) fallback valid.
  const Zp<17> tiny;
  std::size_t organic = 0;
  for (std::size_t n : {8u, 12u, 16u}) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      util::Prng data(9000 + 100 * n + seed);
      const auto a = matrix::random_matrix(tiny, n, n, data);
      if (tiny.is_zero(matrix::det_gauss(tiny, a))) continue;
      std::vector<Zp<17>::Element> b(n);
      for (auto& e : b) e = tiny.random(data);
      core::SolverOptions opt;
      opt.sample_size = 3;
      opt.max_attempts = 8;
      util::Prng prng(seed);
      const auto res = core::kp_solve(tiny, a, b, prng, opt);
      for (const auto& d : res.diags) {
        if (d.kind == util::FailureKind::kNone) continue;
        EXPECT_FALSE(d.injected);
        EXPECT_TRUE(d.kind == util::FailureKind::kDegenerateProjection ||
                    d.kind == util::FailureKind::kZeroConstantTerm ||
                    d.kind == util::FailureKind::kSingularPrecondition ||
                    d.kind == util::FailureKind::kVerifyMismatch)
            << util::to_string(d.kind);
        if (d.kind == util::FailureKind::kDegenerateProjection &&
            d.stage == util::Stage::kNewtonToeplitz) {
          ++organic;
        }
      }
      if (res.ok) {
        const auto expect = matrix::solve_gauss(tiny, a, b);
        ASSERT_TRUE(expect.has_value());
        EXPECT_EQ(res.x, *expect) << n << " " << seed;
      } else {
        EXPECT_EQ(res.status.kind(), util::FailureKind::kSampleSetTooSmall)
            << util::to_string(res.status.kind());
      }
    }
  }
  EXPECT_GT(organic, 0u);
}

TEST(SolverTest, DetAlsoReportedBySolve) {
  util::Prng prng(9);
  const std::size_t n = 9;
  auto a = random_mat(n, prng);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  auto res = core::kp_solve(f, a, b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.det, matrix::det_gauss(f, a));
}

TEST(SolverTest, CharpolyOfPreconditionedIsAnnihilating) {
  // res.charpoly_at annihilates A-tilde; at minimum check degree and g0.
  util::Prng prng(10);
  const std::size_t n = 6;
  auto a = random_mat(n, prng);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  auto res = core::kp_solve(f, a, b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.charpoly_at.size(), n + 1);
  EXPECT_EQ(res.charpoly_at[n], f.one());
  EXPECT_FALSE(f.is_zero(res.charpoly_at[0]));
}

TEST(SolverTest, SingularInputReportsFailure) {
  util::Prng prng(11);
  const std::size_t n = 6;
  // Rank-deficient A.
  auto left = matrix::random_matrix(f, n, n - 2, prng);
  auto right = matrix::random_matrix(f, n - 2, n, prng);
  auto a = matrix::mat_mul(f, left, right);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  auto res = core::kp_solve(f, a, b, prng);
  EXPECT_FALSE(res.ok);
}

TEST(SolverTest, StrassenAndExpNewtonVariants) {
  util::Prng prng(12);
  const std::size_t n = 11;
  auto a = random_mat(n, prng);
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  auto b = matrix::mat_vec(f, a, x);
  core::SolverOptions opt;
  opt.matmul = matrix::MatMulStrategy::kStrassen;
  opt.newton = seq::NewtonIdentityMethod::kPowerSeriesExp;
  auto res = core::kp_solve(f, a, b, prng, opt);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.x, x);
}

TEST(SolverTest, WorksOverRationals) {
  RationalField q;
  util::Prng prng(13);
  const std::size_t n = 4;
  Matrix<RationalField> a(n, n, q.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a.at(i, j) = q.sample(prng, 64);
    }
  }
  if (q.is_zero(matrix::det_gauss(q, a))) GTEST_SKIP();
  std::vector<Rational> x{Rational(1), Rational(BigInt(1), BigInt(2)),
                          Rational(-3), Rational(BigInt(2), BigInt(5))};
  auto b = matrix::mat_vec(q, a, x);
  auto res = core::kp_solve(q, a, b, prng);
  ASSERT_TRUE(res.ok);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(q.eq(res.x[i], x[i])) << i;
  }
  EXPECT_TRUE(q.eq(res.det, matrix::det_gauss(q, a)));
}

// ---------------------------------------------------------------------------
// Wiedemann (section 2).

TEST(WiedemannTest, MinpolyAnnihilatesMatrix) {
  util::Prng prng(14);
  const std::size_t n = 8;
  auto a = random_mat(n, prng);
  matrix::DenseBox<F> box(f, a);
  auto mp = core::wiedemann_minpoly(f, box, prng, 1u << 20);
  // mp divides the characteristic polynomial; check mp(A) v = 0 on a few
  // random vectors (sufficient for this probabilistic check).
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<F::Element> v(n);
    for (auto& e : v) e = f.random(prng);
    auto acc = std::vector<F::Element>(n, f.zero());
    auto w = v;
    for (std::size_t k = 0; k < mp.size(); ++k) {
      if (k) w = matrix::mat_vec(f, a, w);
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] = f.add(acc[i], f.mul(mp[k], w[i]));
      }
    }
    EXPECT_EQ(acc, std::vector<F::Element>(n, f.zero()));
  }
}

TEST(WiedemannTest, SolveSparseSystem) {
  util::Prng prng(15);
  const std::size_t n = 30;
  auto sp = matrix::Sparse<F>::random(f, n, 3, prng);
  matrix::SparseBox<F> box(f, sp);
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  auto b = sp.apply(f, x);
  auto sol = core::wiedemann_solve_status(f, box, b, prng, 1u << 20);
  ASSERT_TRUE(sol.ok);
  EXPECT_EQ(sp.apply(f, sol.x), b);
}

TEST(WiedemannTest, SolveReplaysFromTheDiagProjectionSeed) {
  // A = diag(1..n) over a sample set of 3: a u with a zero entry misses an
  // eigenvalue b carries, reads a deficient generator and fails the verify,
  // so attempts differ.  Each attempt -- failed or not -- replays from its
  // Diag seed alone: u drawn first, then {u A^i b}, Berlekamp-Massey and
  // the Cayley-Hamilton finish, at the Diag's op count.
  const std::size_t n = 4;
  const std::uint64_t s = 3;
  std::vector<matrix::Sparse<F>::Entry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.push_back({i, i, f.from_int(static_cast<std::int64_t>(i) + 1)});
  }
  const matrix::Sparse<F> sp(f, n, n, std::move(entries));
  const matrix::SparseBox<F> box(f, sp);
  std::vector<F::Element> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = f.from_int(static_cast<std::int64_t>(i) + 2);
  }
  int failed = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Prng prng(seed);
    const auto res = core::wiedemann_solve_status(f, box, b, prng, s, 30);
    ASSERT_TRUE(res.ok) << res.status.message();
    for (const util::Diag& d : res.diags) {
      util::Prng r{d.projection_seed};
      util::OpScope scope;
      std::vector<F::Element> u(n);
      for (auto& e : u) e = f.sample(r, s);
      const auto g = seq::berlekamp_massey(
          f, matrix::krylov_sequence_iterative(f, box, u, b, 2 * n));
      const auto x = core::solve_from_annihilator(f, box, g, b);
      const bool solves = !x.empty() && box.apply(x) == b;
      const util::OpCounts ops = scope.counts();
      SCOPED_TRACE(testing::Message() << "seed " << seed << " attempt "
                                      << d.attempt);
      EXPECT_EQ(ops.add, d.ops.add);
      EXPECT_EQ(ops.mul, d.ops.mul);
      EXPECT_EQ(ops.div, d.ops.div);
      EXPECT_EQ(solves, d.kind == util::FailureKind::kNone);
      if (d.kind == util::FailureKind::kNone) {
        EXPECT_EQ(x, res.x);
      } else {
        ++failed;
      }
    }
  }
  EXPECT_GT(failed, 0);  // the replays are told apart
}

TEST(WiedemannTest, DetMatchesGauss) {
  util::Prng prng(16);
  for (std::size_t n : {2u, 5u, 9u, 15u}) {
    auto a = random_mat(n, prng);
    auto expect = matrix::det_gauss(f, a);
    if (f.is_zero(expect)) continue;
    core::SolverOptions opt;
    opt.sample_size = 1u << 20;
    auto res = core::kp_det(f, a, prng, opt);
    ASSERT_TRUE(res.ok) << n;
    EXPECT_EQ(res.det, expect) << n;
  }
}

TEST(WiedemannTest, DetRedrawsPreconditionerOnZeroDiagonalEntry) {
  // Over a sample set as small as {0..6}, D often draws a zero entry.  The
  // determinant catches it at the draw, before any Krylov work, as
  // kSingularPrecondition at kPrecondition, and re-draws H, D; a run that
  // succeeds returns det_gauss, one that does not reports a failure.
  util::Prng setup(19);
  const std::size_t n = 5;
  Matrix<F> a = random_mat(n, setup);
  while (f.is_zero(matrix::det_gauss(f, a))) a = random_mat(n, setup);
  const auto expect = matrix::det_gauss(f, a);
  core::SolverOptions opt;
  opt.sample_size = 7;
  opt.max_attempts = 30;
  int zero_draws = 0, successes = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Prng prng(seed);
    const auto res = core::kp_det(f, a, prng, opt);
    ASSERT_EQ(res.diags.size(), static_cast<std::size_t>(res.attempts));
    for (std::size_t i = 0; i < res.diags.size(); ++i) {
      const auto& d = res.diags[i];
      if (d.kind != util::FailureKind::kSingularPrecondition) continue;
      ++zero_draws;
      EXPECT_EQ(d.stage, util::Stage::kPrecondition) << seed;
      EXPECT_FALSE(d.injected) << seed;
      if (res.ok) {  // caught before the Krylov work a full attempt costs
        EXPECT_LT(d.ops.total(), res.diags.back().ops.total()) << seed;
      }
      if (i + 1 < res.diags.size()) {
        EXPECT_TRUE(res.diags[i + 1].redrew_precondition) << seed;
      }
    }
    if (res.ok) {
      ++successes;
      EXPECT_EQ(res.det, expect) << seed;
    } else {
      EXPECT_FALSE(res.status.ok()) << seed;
    }
  }
  EXPECT_GT(zero_draws, 0);
  EXPECT_GT(successes, 0);
}

TEST(WiedemannTest, SingularTestDetectsSingular) {
  util::Prng prng(17);
  const std::size_t n = 8;
  // Singular: one row is a multiple of another.
  auto a = random_mat(n, prng);
  for (std::size_t j = 0; j < n; ++j) a.at(1, j) = f.mul(a.at(0, j), 7);
  matrix::DenseBox<F> box(f, a);
  EXPECT_TRUE(core::wiedemann_singular_test(f, box, prng, 1u << 20));
  // Non-singular: never reports singular.
  auto g = random_mat(n, prng);
  if (!f.is_zero(matrix::det_gauss(f, g))) {
    matrix::DenseBox<F> gbox(f, g);
    EXPECT_FALSE(core::wiedemann_singular_test(f, gbox, prng, 1u << 20));
  }
}

TEST(WiedemannTest, SolveOverGF256) {
  GFpk gf(2, 8);
  util::Prng prng(18);
  const std::size_t n = 6;
  auto a = matrix::random_matrix(gf, n, n, prng);
  if (gf.is_zero(matrix::det_gauss(gf, a))) GTEST_SKIP();
  std::vector<GFpk::Element> x;
  for (std::size_t i = 0; i < n; ++i) x.push_back(gf.random(prng));
  auto b = matrix::mat_vec(gf, a, x);
  matrix::DenseBox<GFpk> box(gf, a);
  auto sol = core::wiedemann_solve_status(gf, box, b, prng, 256);
  ASSERT_TRUE(sol.ok);
  for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(gf.eq(sol.x[i], x[i]));
}

// ---------------------------------------------------------------------------
// Baselines.

std::vector<F::Element> dense_charpoly_ref(const Matrix<F>& a) {
  // Faddeev-LeVerrier as the independent reference.
  return core::faddeev_leverrier(f, a).charpoly;
}

TEST(BaselinesTest, AllMethodsAgree) {
  util::Prng prng(19);
  for (std::size_t n : {1u, 2u, 3u, 6u, 10u}) {
    auto a = random_mat(n, prng);
    auto ref = dense_charpoly_ref(a);
    EXPECT_EQ(core::charpoly_csanky(f, a), ref) << n;
    EXPECT_EQ(core::charpoly_berkowitz(f, a), ref) << n;
    EXPECT_EQ(core::charpoly_chistov(f, a), ref) << n;
  }
}

TEST(BaselinesTest, CharpolyConstantTermIsDet) {
  util::Prng prng(20);
  const std::size_t n = 7;
  auto a = random_mat(n, prng);
  auto p = core::charpoly_berkowitz(f, a);
  auto det = matrix::det_gauss(f, a);
  // p(0) = (-1)^n det(A); n = 7 odd.
  EXPECT_EQ(p[0], f.neg(det));
}

TEST(BaselinesTest, FaddeevInverse) {
  util::Prng prng(21);
  const std::size_t n = 6;
  auto a = random_mat(n, prng);
  auto res = core::faddeev_leverrier(f, a);
  if (f.is_zero(res.c_n)) GTEST_SKIP();
  // A^{-1} = N_{n-1} / c_n.
  auto inv = matrix::mat_scale(f, f.inv(res.c_n), res.adjoint_like);
  EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_mul(f, a, inv),
                             matrix::identity_matrix(f, n)));
}

TEST(BaselinesTest, BerkowitzAndChistovOverGF4) {
  // Characteristic 2: Csanky/Faddeev are out; Berkowitz and Chistov agree.
  GFpk gf(2, 2);
  util::Prng prng(22);
  for (std::size_t n : {1u, 2u, 4u, 6u}) {
    auto a = matrix::random_matrix(gf, n, n, prng);
    auto pb = core::charpoly_berkowitz(gf, a);
    auto pc = core::charpoly_chistov(gf, a);
    ASSERT_EQ(pb.size(), pc.size()) << n;
    for (std::size_t i = 0; i < pb.size(); ++i) {
      EXPECT_TRUE(gf.eq(pb[i], pc[i])) << n << " " << i;
    }
    // Constant term = (-1)^n det = det (char 2).
    EXPECT_TRUE(gf.eq(pb[0], matrix::det_gauss(gf, a))) << n;
  }
}

TEST(BaselinesTest, CsankyOverRationals) {
  RationalField q;
  Matrix<RationalField> a(2, 2, q.zero());
  a.at(0, 0) = Rational(2);
  a.at(0, 1) = Rational(1);
  a.at(1, 0) = Rational(1);
  a.at(1, 1) = Rational(3);
  auto p = core::charpoly_csanky(q, a);
  // x^2 - 5x + 5.
  EXPECT_TRUE(q.eq(p[0], Rational(5)));
  EXPECT_TRUE(q.eq(p[1], Rational(-5)));
  EXPECT_TRUE(q.eq(p[2], Rational(1)));
}

// ---------------------------------------------------------------------------
// Section-5 extensions.

TEST(ExtensionsTest, RankRandomizedMatchesGauss) {
  util::Prng prng(23);
  const std::size_t n = 10;
  for (std::size_t r : {0u, 1u, 4u, 7u, 10u}) {
    Matrix<F> a = matrix::zero_matrix(f, n, n);
    if (r > 0) {
      auto left = matrix::random_matrix(f, n, r, prng);
      auto right = matrix::random_matrix(f, r, n, prng);
      a = matrix::mat_mul(f, left, right);
    }
    ASSERT_EQ(matrix::rank_gauss(f, a), r);  // generic w.h.p.
    EXPECT_EQ(core::rank_randomized(f, a, prng, 1u << 20), r) << r;
  }
}

TEST(ExtensionsTest, RankRandomizedRectangular) {
  util::Prng prng(24);
  auto left = matrix::random_matrix(f, 9, 3, prng);
  auto right = matrix::random_matrix(f, 3, 14, prng);
  auto a = matrix::mat_mul(f, left, right);
  EXPECT_EQ(core::rank_randomized(f, a, prng, 1u << 20), 3u);
}

TEST(ExtensionsTest, NullspaceSpansKernel) {
  util::Prng prng(25);
  const std::size_t n = 9;
  for (std::size_t r : {0u, 3u, 6u, 9u}) {
    Matrix<F> a = matrix::zero_matrix(f, n, n);
    if (r > 0) {
      auto left = matrix::random_matrix(f, n, r, prng);
      auto right = matrix::random_matrix(f, r, n, prng);
      a = matrix::mat_mul(f, left, right);
    }
    auto res = core::nullspace_randomized(f, a, prng, 1u << 20);
    ASSERT_TRUE(res.ok) << r;
    EXPECT_EQ(res.rank, r);
    EXPECT_EQ(res.basis.cols(), n - r);
    EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_mul(f, a, res.basis),
                               matrix::zero_matrix(f, n, n - r)));
    if (n - r > 0) {
      EXPECT_EQ(matrix::rank_gauss(f, res.basis), n - r);
    }
  }
}

TEST(ExtensionsTest, SingularSolveFindsASolution) {
  util::Prng prng(26);
  const std::size_t n = 8;
  const std::size_t r = 5;
  auto left = matrix::random_matrix(f, n, r, prng);
  auto right = matrix::random_matrix(f, r, n, prng);
  auto a = matrix::mat_mul(f, left, right);
  // Consistent rhs: b = A y.
  std::vector<F::Element> y(n);
  for (auto& e : y) e = f.random(prng);
  auto b = matrix::mat_vec(f, a, y);
  auto sol = core::singular_solve_randomized(f, a, b, prng, 1u << 20);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(matrix::mat_vec(f, a, *sol), b);
}

TEST(ExtensionsTest, SingularSolveRejectsInconsistent) {
  util::Prng prng(27);
  const std::size_t n = 6;
  // Rank-2 A, rhs outside the column span (w.h.p.).
  auto left = matrix::random_matrix(f, n, 2, prng);
  auto right = matrix::random_matrix(f, 2, n, prng);
  auto a = matrix::mat_mul(f, left, right);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  if (matrix::rank_gauss(f, a) != 2) GTEST_SKIP();
  auto sol = core::singular_solve_randomized(f, a, b, prng, 1u << 20);
  EXPECT_FALSE(sol.has_value());
}

TEST(ExtensionsTest, LeastSquaresExactOnConsistentSystem) {
  RationalField q;
  util::Prng prng(28);
  // Overdetermined consistent system: LSQ solution equals the true x.
  Matrix<RationalField> a(5, 3, q.zero());
  for (auto& e : a.data()) e = q.sample(prng, 16);
  std::vector<Rational> x{Rational(2), Rational(BigInt(1), BigInt(3)),
                          Rational(-1)};
  auto b = matrix::mat_vec(q, a, x);
  auto sol = core::least_squares(q, a, b);
  ASSERT_TRUE(sol.has_value());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(q.eq((*sol)[i], x[i]));
}

TEST(ExtensionsTest, LeastSquaresRandomizedMatchesDirect) {
  RationalField q;
  util::Prng prng(30);
  Matrix<RationalField> a(5, 3, q.zero());
  for (auto& e : a.data()) e = q.sample(prng, 8);
  std::vector<Rational> b(5);
  for (auto& e : b) e = q.sample(prng, 8);
  auto direct = core::least_squares(q, a, b);
  auto randomized = core::least_squares_randomized(q, a, b, prng);
  if (!direct) GTEST_SKIP();  // rank-deficient draw
  ASSERT_TRUE(randomized.has_value());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.eq((*direct)[i], (*randomized)[i])) << i;
  }
}

TEST(ExtensionsTest, LeastSquaresNormalEquationsResidualOrthogonal) {
  RationalField q;
  util::Prng prng(29);
  Matrix<RationalField> a(6, 2, q.zero());
  for (auto& e : a.data()) e = q.sample(prng, 8);
  std::vector<Rational> b(6);
  for (auto& e : b) e = q.sample(prng, 8);
  auto sol = core::least_squares(q, a, b);
  if (!sol) GTEST_SKIP();  // rank-deficient draw
  // Residual r = A x - b is orthogonal to the column space: A^T r = 0.
  auto r = matrix::mat_vec(q, a, *sol);
  for (std::size_t i = 0; i < 6; ++i) r[i] = q.sub(r[i], b[i]);
  auto atr = matrix::mat_vec(q, matrix::mat_transpose(q, a), r);
  for (const auto& e : atr) EXPECT_TRUE(q.is_zero(e));
}

// ---------------------------------------------------------------------------
// Small fields via algebraic extension (section 2's card(K) < 3n^2 remedy).

TEST(FieldLiftTest, LiftDegreeCoversTarget) {
  EXPECT_EQ(core::lift_degree_status(101, 100).value(), 1u);
  EXPECT_EQ(core::lift_degree_status(101, 102).value(), 2u);
  EXPECT_EQ(core::lift_degree_status(101, 101 * 101 + 1).value(), 3u);
  EXPECT_EQ(core::lift_degree_status(2, 1000).value(), 10u);
}

TEST(FieldLiftTest, SolvesOverSmallPrimeField) {
  // GF(101) with n = 8: card(K) = 101 < 3 n^2 = 192, so the pipeline must
  // run in an extension.  p = 101 > n so Leverrier is fine.
  field::GFp f101(101);
  util::Prng prng(34);
  const std::size_t n = 8;
  for (int trial = 0; trial < 3; ++trial) {
    auto a = matrix::random_matrix(f101, n, n, prng);
    if (f101.is_zero(matrix::det_gauss(f101, a))) continue;
    std::vector<field::GFp::Element> x(n);
    for (auto& e : x) e = f101.random(prng);
    auto b = matrix::mat_vec(f101, a, x);
    auto res = core::kp_solve_small_field(f101, a, b, prng);
    ASSERT_TRUE(res.ok);
    EXPECT_GE(res.extension_degree, 2u);  // 101^1 is below the target
    EXPECT_EQ(res.x, x);
    EXPECT_EQ(res.det, matrix::det_gauss(f101, a));
  }
}

TEST(FieldLiftTest, RefusesWhenCharacteristicTooSmall) {
  // p = 5 <= n = 8: Leverrier impossible even after lifting.
  field::GFp f5(5);
  util::Prng prng(35);
  const std::size_t n = 8;
  auto a = matrix::random_matrix(f5, n, n, prng);
  std::vector<field::GFp::Element> b(n);
  for (auto& e : b) e = f5.random(prng);
  auto res = core::kp_solve_small_field(f5, a, b, prng);
  EXPECT_FALSE(res.ok);
}

// ---------------------------------------------------------------------------
// Small characteristic (section 5 / complexity (12)).

TEST(SmallCharTest, LeadingToeplitzIsPrincipalSubmatrix) {
  util::Prng prng(30);
  const std::size_t n = 6;
  std::vector<F::Element> diag(2 * n - 1);
  for (auto& v : diag) v = f.random(prng);
  matrix::Toeplitz<F> t(n, diag);
  for (std::size_t i = 1; i <= n; ++i) {
    auto ti = core::leading_toeplitz(t, i);
    auto expect = matrix::leading_principal(f, t.to_dense(f), i);
    EXPECT_TRUE(matrix::mat_eq(f, ti.to_dense(f), expect)) << i;
  }
}

TEST(SmallCharTest, AnyCharMatchesLeverrierOverBigField) {
  util::Prng prng(31);
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    std::vector<F::Element> diag(2 * n - 1);
    for (auto& v : diag) v = f.random(prng);
    matrix::Toeplitz<F> t(n, diag);
    EXPECT_EQ(core::toeplitz_charpoly_any_char(f, t), seq::toeplitz_charpoly(f, t))
        << n;
  }
}

TEST(SmallCharTest, WorksOverGF2k) {
  // n = 4 > char = 2: Leverrier is impossible, the Chistov route must work.
  GFpk gf(2, 4);
  util::Prng prng(32);
  for (std::size_t n : {1u, 2u, 4u, 6u}) {
    std::vector<GFpk::Element> diag;
    for (std::size_t i = 0; i < 2 * n - 1; ++i) diag.push_back(gf.random(prng));
    matrix::Toeplitz<GFpk> t(n, diag);
    auto p = core::toeplitz_charpoly_any_char(gf, t);
    auto ref = core::charpoly_berkowitz(gf, t.to_dense(gf));
    ASSERT_EQ(p.size(), ref.size()) << n;
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_TRUE(gf.eq(p[i], ref[i])) << n << " " << i;
    }
    EXPECT_TRUE(
        gf.eq(core::toeplitz_det_any_char(gf, t), matrix::det_gauss(gf, t.to_dense(gf))))
        << n;
  }
}

TEST(SmallCharTest, WorksOverZ3WithLargeN) {
  // char = 3 < n = 5.
  field::GFp gf3(3);
  util::Prng prng(33);
  std::vector<field::GFp::Element> diag(9);
  for (auto& v : diag) v = gf3.random(prng);
  matrix::Toeplitz<field::GFp> t(5, diag);
  auto p = core::toeplitz_charpoly_any_char(gf3, t);
  auto ref = core::charpoly_berkowitz(gf3, t.to_dense(gf3));
  EXPECT_EQ(p, ref);
}

}  // namespace
}  // namespace kp
