// Tests for the LinOp-plumbed Theorem-4 pipeline: the same system solved
// through dense, sparse, and Toeplitz black-box backends (and through the
// type-erased AnyBox) must produce identical solutions, determinants, and
// characteristic polynomials for a fixed seed -- the doubling route (9) and
// the iterative route (8) compute the same field elements, only at
// different costs.  Also covers the lazily composed PreconditionedBox, the
// ProductBox transpose, and the singular-matrix failure path.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/krylov.h"
#include "core/solver.h"
#include "core/wiedemann.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "matrix/structured.h"
#include "util/prng.h"

namespace kp {
namespace {

using matrix::Matrix;

using F = field::Zp<1000003>;
F f;

matrix::Sparse<F> sparse_from_dense(const Matrix<F>& a) {
  std::vector<matrix::Sparse<F>::Entry> entries;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!f.is_zero(a.at(i, j))) entries.push_back({i, j, a.at(i, j)});
    }
  }
  return matrix::Sparse<F>(f, a.rows(), a.cols(), std::move(entries));
}

/// A random non-singular Toeplitz matrix (regenerated until non-singular),
/// which every backend under test can represent exactly.
matrix::Toeplitz<F> nonsingular_toeplitz(std::size_t n, util::Prng& prng) {
  for (;;) {
    std::vector<F::Element> diag(2 * n - 1);
    for (auto& e : diag) e = f.random(prng);
    matrix::Toeplitz<F> t(n, std::move(diag));
    if (!f.is_zero(matrix::det_gauss(f, t.to_dense(f)))) return t;
  }
}

TEST(BlackboxSolverTest, BackendsProduceIdenticalResults) {
  util::Prng setup(101);
  const std::size_t n = 12;
  const auto t = nonsingular_toeplitz(n, setup);
  const auto dense = t.to_dense(f);
  const auto sparse = sparse_from_dense(dense);
  poly::PolyRing<F> ring(f);

  std::vector<F::Element> x_true(n), b;
  for (auto& e : x_true) e = f.random(setup);
  b = matrix::mat_vec(f, dense, x_true);

  // Same seed for every backend: the random draws (H, D, u, v) coincide,
  // and both routes compute the same field elements exactly.
  const std::uint64_t seed = 777;

  util::Prng p1(seed);
  auto dense_res = core::kp_solve(f, dense, b, p1);
  ASSERT_TRUE(dense_res.ok);
  EXPECT_EQ(dense_res.route_used, core::KrylovRoute::kIterative);
  EXPECT_EQ(dense_res.x, x_true);

  util::Prng p2(seed);
  matrix::SparseBox<F> sbox(f, sparse);
  auto sparse_res = core::kp_solve(f, sbox, b, p2);
  ASSERT_TRUE(sparse_res.ok);
  EXPECT_EQ(sparse_res.route_used, core::KrylovRoute::kIterative);

  util::Prng p3(seed);
  matrix::ToeplitzBox<F> tbox(ring, t);
  auto toeplitz_res = core::kp_solve(f, tbox, b, p3);
  ASSERT_TRUE(toeplitz_res.ok);
  EXPECT_EQ(toeplitz_res.route_used, core::KrylovRoute::kIterative);

  EXPECT_EQ(sparse_res.x, dense_res.x);
  EXPECT_EQ(toeplitz_res.x, dense_res.x);
  EXPECT_EQ(sparse_res.det, dense_res.det);
  EXPECT_EQ(toeplitz_res.det, dense_res.det);
  EXPECT_EQ(sparse_res.charpoly_at, dense_res.charpoly_at);
  EXPECT_EQ(toeplitz_res.charpoly_at, dense_res.charpoly_at);
  EXPECT_EQ(dense_res.det, matrix::det_gauss(f, dense));
}

TEST(BlackboxSolverTest, DeterminantsAgreeAcrossBackends) {
  util::Prng setup(102);
  const std::size_t n = 9;
  const auto t = nonsingular_toeplitz(n, setup);
  const auto dense = t.to_dense(f);
  poly::PolyRing<F> ring(f);
  const std::uint64_t seed = 555;

  util::Prng p1(seed), p2(seed), p3(seed);
  auto rd = core::kp_det(f, dense, p1);
  matrix::SparseBox<F> sbox(f, sparse_from_dense(dense));
  auto rs = core::kp_det(f, sbox, p2);
  matrix::ToeplitzBox<F> tbox(ring, t);
  auto rt = core::kp_det(f, tbox, p3);
  ASSERT_TRUE(rd.ok && rs.ok && rt.ok);
  EXPECT_EQ(rd.det, matrix::det_gauss(f, dense));
  EXPECT_EQ(rs.det, rd.det);
  EXPECT_EQ(rt.det, rd.det);
}

TEST(BlackboxSolverTest, AnyBoxDispatchesAtRuntime) {
  util::Prng setup(103);
  const std::size_t n = 10;
  const auto t = nonsingular_toeplitz(n, setup);
  const auto dense = t.to_dense(f);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(setup);

  // Heterogeneous backends behind one erased type.
  std::vector<matrix::AnyBox<F>> backends;
  backends.emplace_back(matrix::DenseBox<F>(f, dense));
  backends.emplace_back(matrix::SparseBox<F>(f, sparse_from_dense(dense)));
  EXPECT_EQ(backends[0].structure(), matrix::BoxStructure::kDense);
  EXPECT_EQ(backends[1].structure(), matrix::BoxStructure::kSparse);

  util::Prng p1(42);
  auto ref = core::kp_solve(f, dense, b, p1);
  ASSERT_TRUE(ref.ok);
  // Both erased backends take the iterative route; the dense one's
  // structure() hint makes it iterate on the formed A-tilde, the sparse one
  // on the lazy box.  Both match the ref.
  {
    util::Prng p(42);
    auto res = core::kp_solve(f, backends[0], b, p);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.route_used, core::KrylovRoute::kIterative);
    EXPECT_EQ(res.x, ref.x);
    EXPECT_EQ(res.det, ref.det);
  }
  {
    util::Prng p(42);
    auto res = core::kp_solve(f, backends[1], b, p);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.route_used, core::KrylovRoute::kIterative);
    EXPECT_EQ(res.x, ref.x);
    EXPECT_EQ(res.det, ref.det);
  }
}

TEST(BlackboxSolverTest, DenseBlockWidthsAgree) {
  // A dense operator iterates on the formed A-tilde^T at every block width:
  // the scalar sequence at b = 1, the block projections at b = 2 and 4.
  // Same H, D and projection seeds, so the same answer from the same draws.
  util::Prng setup(104);
  const std::size_t n = 11;
  auto a = matrix::random_matrix(f, n, n, setup);
  if (f.is_zero(matrix::det_gauss(f, a))) GTEST_SKIP();
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(setup);

  std::vector<core::SolveResult<F>> rs;
  for (const std::size_t bw : {1u, 2u, 4u}) {
    core::SolverOptions opt;
    opt.block_width = bw;
    util::Prng p(9);
    rs.push_back(core::kp_solve(f, a, b, p, opt));
    ASSERT_TRUE(rs.back().ok) << bw;
    EXPECT_EQ(rs.back().route_used, core::KrylovRoute::kIterative) << bw;
  }
  const auto& r1 = rs[0];
  for (std::size_t k = 1; k < rs.size(); ++k) {
    const auto& r = rs[k];
    EXPECT_EQ(r1.x, r.x) << k;
    EXPECT_EQ(r1.det, r.det) << k;
    EXPECT_EQ(r1.charpoly_at, r.charpoly_at) << k;
    EXPECT_EQ(r1.attempts, r.attempts) << k;
    ASSERT_EQ(r.diags.size(), r1.diags.size()) << k;
    for (std::size_t i = 0; i < r1.diags.size(); ++i) {
      EXPECT_EQ(r.diags[i].precondition_seed, r1.diags[i].precondition_seed);
      EXPECT_EQ(r.diags[i].projection_seed, r1.diags[i].projection_seed);
    }
  }

  // b = 4 is honoured on the dense operator, over the formed A-tilde^T.
  core::SolverOptions wide;
  wide.block_width = 4;
  const matrix::DenseViewBox<F> box(f, a);
  const core::Transcript<F, matrix::DenseViewBox<F>> t(f, box, wide);
  EXPECT_EQ(t.route, core::KrylovRoute::kIterative);
  EXPECT_EQ(t.block_width, 4u);
  EXPECT_TRUE(t.materialized);
}

TEST(BlackboxSolverTest, TranscriptRouteFollowsStructureAndDepthGoal) {
  // The whole route rule: doubling exactly for a dense operator under
  // depth_optimal (at b = 1 whatever width is asked); otherwise iterate at
  // the requested width, on the formed A-tilde^T for a dense operator and
  // on the lazy box for any other.
  util::Prng setup(105);
  const std::size_t n = 11;
  auto a = matrix::random_matrix(f, n, n, setup);
  ASSERT_FALSE(f.is_zero(matrix::det_gauss(f, a)));
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(setup);
  const matrix::DenseViewBox<F> dbox(f, a);
  const matrix::SparseBox<F> sbox(f, sparse_from_dense(a));
  ASSERT_EQ(matrix::box_structure(dbox), matrix::BoxStructure::kDense);
  ASSERT_NE(matrix::box_structure(sbox), matrix::BoxStructure::kDense);

  for (const bool depth : {false, true}) {
    for (const std::size_t bw : {1u, 4u}) {
      core::SolverOptions opt;
      opt.depth_optimal = depth;
      opt.block_width = bw;
      const core::Transcript<F, matrix::DenseViewBox<F>> td(f, dbox, opt);
      const core::Transcript<F, matrix::SparseBox<F>> ts(f, sbox, opt);
      EXPECT_EQ(td.route, depth ? core::KrylovRoute::kDoubling
                                : core::KrylovRoute::kIterative)
          << depth << " " << bw;
      EXPECT_EQ(td.block_width, depth ? 1u : bw) << depth << " " << bw;
      EXPECT_EQ(td.materialized, !depth) << depth << " " << bw;
      EXPECT_EQ(ts.route, core::KrylovRoute::kIterative) << depth << " " << bw;
      EXPECT_EQ(ts.block_width, bw) << depth << " " << bw;
      EXPECT_FALSE(ts.materialized) << depth << " " << bw;

      // A run reports the route its transcript chose, and every route
      // returns the same x and det.
      util::Prng pd(9), ps(9);
      const auto rd = core::kp_solve(f, dbox, b, pd, opt);
      const auto rs = core::kp_solve(f, sbox, b, ps, opt);
      ASSERT_TRUE(rd.ok && rs.ok) << depth << " " << bw;
      EXPECT_EQ(rd.route_used, td.route) << depth << " " << bw;
      EXPECT_EQ(rs.route_used, ts.route) << depth << " " << bw;
      EXPECT_EQ(rd.x, rs.x) << depth << " " << bw;
      EXPECT_EQ(rd.det, rs.det) << depth << " " << bw;
      EXPECT_EQ(matrix::mat_vec(f, a, rd.x), b) << depth << " " << bw;
      EXPECT_EQ(rd.det, matrix::det_gauss(f, a)) << depth << " " << bw;
    }
  }
}

TEST(BlackboxSolverTest, SingularSparseReportsFailure) {
  util::Prng setup(105);
  const std::size_t n = 8;
  // Rank-deficient: row n-1 duplicates row 0.
  auto a = matrix::random_matrix(f, n, n, setup);
  for (std::size_t j = 0; j < n; ++j) a.at(n - 1, j) = a.at(0, j);
  ASSERT_TRUE(f.is_zero(matrix::det_gauss(f, a)));
  matrix::SparseBox<F> sbox(f, sparse_from_dense(a));
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(setup);
  util::Prng p(3);
  auto res = core::kp_solve(f, sbox, b, p);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.attempts, core::SolverOptions{}.max_attempts + 1);
}

TEST(BlackboxSolverTest, PreconditionedBoxComposesLazily) {
  util::Prng prng(106);
  poly::PolyRing<F> ring(f);
  const std::size_t n = 9;
  auto a = matrix::random_matrix(f, n, n, prng);
  auto pre = core::Preconditioner<F>::draw(f, n, prng, 1u << 20);
  const matrix::DenseViewBox<F> abox(f, a);
  const auto prebox = pre.box(f, ring, abox);
  EXPECT_EQ(prebox.structure(), matrix::BoxStructure::kDense);

  const auto at_dense = pre.apply_dense(f, ring, a);
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  // Lazy (A(H(Dx))) and dense (A*H*D)x agree exactly.
  EXPECT_EQ(prebox.apply(x), matrix::mat_vec(f, at_dense, x));
}

TEST(BlackboxSolverTest, ProductBoxAppliesInOrderWithDenserHint) {
  util::Prng prng(107);
  const std::size_t n = 7;
  auto a = matrix::random_matrix(f, n, n, prng);
  auto b = matrix::random_matrix(f, n, n, prng);
  matrix::ProductBox ab(matrix::DenseBox<F>(f, a), matrix::DenseBox<F>(f, b));
  const auto ab_dense = matrix::mat_mul(f, a, b);
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  EXPECT_EQ(ab.apply(x), matrix::mat_vec(f, ab_dense, x));
  // The denser factor dominates the composition's structure hint.
  EXPECT_EQ(ab.structure(), matrix::BoxStructure::kDense);
}

TEST(BlackboxSolverTest, IterativeKrylovBlockMatchesDoubling) {
  util::Prng prng(108);
  const std::size_t n = 10;
  auto a = matrix::random_matrix(f, n, n, prng);
  std::vector<F::Element> v(n);
  for (auto& e : v) e = f.random(prng);
  const matrix::DenseViewBox<F> box(f, a);
  for (std::size_t count : {1u, 2u, 5u, 10u, 20u}) {
    auto it = core::krylov_block_iterative(f, box, v, count);
    auto dbl = core::krylov_block(f, a, v, count);
    EXPECT_TRUE(matrix::mat_eq(f, it, dbl)) << count;
  }
}

TEST(BlackboxSolverTest, WiedemannSolveThroughAnyBox) {
  util::Prng prng(109);
  const std::size_t n = 24;
  auto sp = matrix::Sparse<F>::random(f, n, 3, prng);
  matrix::AnyBox<F> box{matrix::SparseBox<F>(f, sp)};
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  auto b = sp.apply(f, x);
  auto sol = core::wiedemann_solve_status(f, box, b, prng, 1u << 20);
  ASSERT_TRUE(sol.ok);
  EXPECT_EQ(sp.apply(f, sol.x), b);
}

}  // namespace
}  // namespace kp
