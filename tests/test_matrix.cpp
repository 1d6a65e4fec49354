// Tests for the matrix substrate: dense ops, matmul kernel agreement,
// Gaussian elimination invariants, structured matrices (Toeplitz/Hankel/
// Vandermonde), sparse CSR, black boxes, and matrix-polynomial evaluation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "field/rational.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "matrix/matmul.h"
#include "matrix/sparse.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "util/prng.h"

namespace kp {
namespace {

using field::BigInt;
using field::RationalField;
using field::Zp;
using matrix::MatMulStrategy;
using matrix::Matrix;

using F = Zp<1000003>;
using M = Matrix<F>;

F f;

M random_mat(std::size_t n, util::Prng& prng) {
  return matrix::random_matrix(f, n, n, prng);
}

// ---------------------------------------------------------------------------
// Dense operations and matmul.

TEST(DenseTest, IdentityAndZero) {
  auto id = matrix::identity_matrix(f, 4);
  auto z = matrix::zero_matrix(f, 4, 4);
  util::Prng prng(1);
  auto a = random_mat(4, prng);
  EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_mul(f, a, id), a));
  EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_mul(f, id, a), a));
  EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_add(f, a, z), a));
  EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_sub(f, a, a), z));
}

TEST(DenseTest, MatVecAgreesWithMatMul) {
  util::Prng prng(2);
  auto a = random_mat(7, prng);
  std::vector<F::Element> x(7);
  for (auto& v : x) v = f.random(prng);
  auto y = matrix::mat_vec(f, a, x);
  // Compare against column-matrix multiplication.
  M xc(7, 1, f.zero());
  for (std::size_t i = 0; i < 7; ++i) xc.at(i, 0) = x[i];
  auto yc = matrix::mat_mul(f, a, xc);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(y[i], yc.at(i, 0));
}

TEST(DenseTest, VecMatIsTransposedMatVec) {
  util::Prng prng(3);
  auto a = random_mat(6, prng);
  std::vector<F::Element> x(6);
  for (auto& v : x) v = f.random(prng);
  auto lhs = matrix::vec_mat(f, x, a);
  auto rhs = matrix::mat_vec(f, matrix::mat_transpose(f, a), x);
  EXPECT_EQ(lhs, rhs);
}

TEST(MatMulTest, StrassenMatchesClassical) {
  util::Prng prng(4);
  for (std::size_t n : {1u, 2u, 5u, 16u, 33u, 70u}) {
    auto a = random_mat(n, prng);
    auto b = random_mat(n, prng);
    auto c1 = matrix::mat_mul(f, a, b, MatMulStrategy::kClassical);
    auto c2 = matrix::mat_mul(f, a, b, MatMulStrategy::kStrassen, 8);
    EXPECT_TRUE(matrix::mat_eq(f, c1, c2)) << "n=" << n;
  }
}

TEST(MatMulTest, StrassenRectangular) {
  util::Prng prng(5);
  auto a = matrix::random_matrix(f, 13, 37, prng);
  auto b = matrix::random_matrix(f, 37, 9, prng);
  auto c1 = matrix::mat_mul(f, a, b, MatMulStrategy::kClassical);
  auto c2 = matrix::mat_mul(f, a, b, MatMulStrategy::kStrassen, 4);
  EXPECT_TRUE(matrix::mat_eq(f, c1, c2));
}

TEST(MatMulTest, Associativity) {
  util::Prng prng(6);
  auto a = random_mat(9, prng);
  auto b = random_mat(9, prng);
  auto c = random_mat(9, prng);
  auto lhs = matrix::mat_mul(f, matrix::mat_mul(f, a, b), c);
  auto rhs = matrix::mat_mul(f, a, matrix::mat_mul(f, b, c));
  EXPECT_TRUE(matrix::mat_eq(f, lhs, rhs));
}

// ---------------------------------------------------------------------------
// Gaussian elimination.

TEST(GaussTest, PluReconstructsMatrix) {
  util::Prng prng(7);
  for (std::size_t n : {1u, 3u, 8u, 20u}) {
    auto a = random_mat(n, prng);
    auto fac = matrix::plu_decompose(f, a);
    // Rebuild L and U and check L*U == P*A.
    M l = matrix::identity_matrix(f, n);
    M u = matrix::zero_matrix(f, n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j < i) l.at(i, j) = fac.lu.at(i, j);
        else u.at(i, j) = fac.lu.at(i, j);
      }
    }
    auto lu = matrix::mat_mul(f, l, u);
    M pa(n, n, f.zero());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) pa.at(i, j) = a.at(fac.perm[i], j);
    }
    EXPECT_TRUE(matrix::mat_eq(f, lu, pa)) << "n=" << n;
  }
}

TEST(GaussTest, DeterminantMultiplicative) {
  util::Prng prng(8);
  auto a = random_mat(8, prng);
  auto b = random_mat(8, prng);
  auto dab = matrix::det_gauss(f, matrix::mat_mul(f, a, b));
  EXPECT_EQ(dab, f.mul(matrix::det_gauss(f, a), matrix::det_gauss(f, b)));
}

TEST(GaussTest, DeterminantKnown2x2) {
  M a(2, 2, f.zero());
  a.at(0, 0) = 3;
  a.at(0, 1) = 7;
  a.at(1, 0) = 2;
  a.at(1, 1) = 5;
  EXPECT_EQ(matrix::det_gauss(f, a), f.one());  // 15 - 14
}

TEST(GaussTest, SolveRoundTrip) {
  util::Prng prng(9);
  for (std::size_t n : {1u, 4u, 12u}) {
    auto a = random_mat(n, prng);
    if (f.is_zero(matrix::det_gauss(f, a))) continue;
    std::vector<F::Element> x(n);
    for (auto& v : x) v = f.random(prng);
    auto b = matrix::mat_vec(f, a, x);
    auto sol = matrix::solve_gauss(f, a, b);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(*sol, x);
  }
}

TEST(GaussTest, SolvePluReusesOneFactorization) {
  // One plu_decompose yields det A and, through solve_plu, x for any
  // number of right-hand sides, each equal to a fresh solve_gauss.
  util::Prng prng(12);
  for (std::size_t n : {1u, 5u, 16u}) {
    auto a = random_mat(n, prng);
    const auto fac = matrix::plu_decompose(f, a);
    ASSERT_EQ(fac.rank, n) << "n=" << n;
    EXPECT_EQ(fac.det, matrix::det_gauss(f, a));
    for (int k = 0; k < 3; ++k) {
      std::vector<F::Element> x(n);
      for (auto& v : x) v = f.random(prng);
      const auto b = matrix::mat_vec(f, a, x);
      const auto sol = matrix::solve_plu(f, fac, b);
      EXPECT_EQ(sol, x) << "n=" << n << " k=" << k;
      EXPECT_EQ(sol, *matrix::solve_gauss(f, a, b));
    }
  }
}

TEST(GaussTest, SolveDetectsSingular) {
  // Rank-1 matrix.
  util::Prng prng(10);
  M a(3, 3, f.zero());
  for (std::size_t j = 0; j < 3; ++j) {
    a.at(0, j) = f.random(prng);
    a.at(1, j) = f.mul(a.at(0, j), 2);
    a.at(2, j) = f.mul(a.at(0, j), 3);
  }
  std::vector<F::Element> b{1, 0, 0};
  EXPECT_FALSE(matrix::solve_gauss(f, a, b).has_value());
  EXPECT_EQ(matrix::rank_gauss(f, a), 1u);
  EXPECT_TRUE(f.is_zero(matrix::det_gauss(f, a)));
}

TEST(GaussTest, InverseRoundTrip) {
  util::Prng prng(11);
  auto a = random_mat(10, prng);
  auto inv = matrix::inverse_gauss(f, a);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_mul(f, a, *inv),
                             matrix::identity_matrix(f, 10)));
  EXPECT_TRUE(matrix::mat_eq(f, matrix::mat_mul(f, *inv, a),
                             matrix::identity_matrix(f, 10)));
}

TEST(GaussTest, RankOfOuterProductSums) {
  util::Prng prng(12);
  const std::size_t n = 10;
  for (std::size_t r = 0; r <= 5; ++r) {
    // Sum of r random rank-1 matrices has rank r (w.h.p. over a large field).
    M a = matrix::zero_matrix(f, n, n);
    for (std::size_t k = 0; k < r; ++k) {
      std::vector<F::Element> u(n), v(n);
      for (auto& e : u) e = f.random(prng);
      for (auto& e : v) e = f.random(prng);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          a.at(i, j) = f.add(a.at(i, j), f.mul(u[i], v[j]));
        }
      }
    }
    EXPECT_EQ(matrix::rank_gauss(f, a), r);
  }
}

TEST(GaussTest, NullspaceAnnihilates) {
  util::Prng prng(13);
  const std::size_t n = 9;
  // Build a matrix of rank 5.
  auto left = matrix::random_matrix(f, n, 5, prng);
  auto right = matrix::random_matrix(f, 5, n, prng);
  auto a = matrix::mat_mul(f, left, right);
  auto ns = matrix::nullspace_gauss(f, a);
  EXPECT_EQ(ns.cols(), n - 5);
  auto prod = matrix::mat_mul(f, a, ns);
  EXPECT_TRUE(matrix::mat_eq(f, prod, matrix::zero_matrix(f, n, n - 5)));
  // The basis has full column rank.
  EXPECT_EQ(matrix::rank_gauss(f, ns), n - 5);
}

TEST(GaussTest, WorksOverRationals) {
  RationalField q;
  Matrix<RationalField> a(2, 2, q.zero());
  a.at(0, 0) = field::Rational(1);
  a.at(0, 1) = field::Rational(BigInt(1), BigInt(2));
  a.at(1, 0) = field::Rational(BigInt(1), BigInt(3));
  a.at(1, 1) = field::Rational(BigInt(1), BigInt(4));
  // det = 1/4 - 1/6 = 1/12.
  EXPECT_EQ(matrix::det_gauss(q, a).to_string(), "1/12");
  auto inv = matrix::inverse_gauss(q, a);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(matrix::mat_eq(q, matrix::mat_mul(q, a, *inv),
                             matrix::identity_matrix(q, 2)));
}

// ---------------------------------------------------------------------------
// Structured matrices.

TEST(ToeplitzTest, LayoutMatchesPaper) {
  // Paper layout (4): T(0, n-1) = a_0, T(0, 0) = a_{n-1}, T(n-1, 0) = a_{2n-2}.
  std::vector<F::Element> a{10, 11, 12, 13, 14};  // n = 3
  matrix::Toeplitz<F> t(3, a);
  EXPECT_EQ(t.at(0, 2), 10u);
  EXPECT_EQ(t.at(0, 0), 12u);
  EXPECT_EQ(t.at(2, 0), 14u);
  EXPECT_EQ(t.at(1, 1), 12u);  // constant diagonals
  EXPECT_EQ(t.at(2, 2), 12u);
}

TEST(ToeplitzTest, ApplyMatchesDense) {
  util::Prng prng(14);
  poly::PolyRing<F> ring(f);
  for (std::size_t n : {1u, 2u, 5u, 16u, 31u}) {
    std::vector<F::Element> diag(2 * n - 1);
    for (auto& v : diag) v = f.random(prng);
    matrix::Toeplitz<F> t(n, diag);
    std::vector<F::Element> x(n);
    for (auto& v : x) v = f.random(prng);
    EXPECT_EQ(t.apply(ring, x), matrix::mat_vec(f, t.to_dense(f), x)) << n;
  }
}

TEST(HankelTest, ApplyMatchesDenseAndIsSymmetric) {
  util::Prng prng(15);
  poly::PolyRing<F> ring(f);
  for (std::size_t n : {1u, 3u, 8u, 21u}) {
    auto h = matrix::Hankel<F>::random(f, n, prng, 1u << 20);
    std::vector<F::Element> x(n);
    for (auto& v : x) v = f.random(prng);
    auto dense = h.to_dense(f);
    EXPECT_EQ(h.apply(ring, x), matrix::mat_vec(f, dense, x)) << n;
    EXPECT_TRUE(matrix::mat_eq(f, dense, matrix::mat_transpose(f, dense)));
  }
}

TEST(HankelTest, RowMirrorIsToeplitzWithMatchingDet) {
  util::Prng prng(16);
  for (std::size_t n : {2u, 3u, 4u, 7u}) {
    auto h = matrix::Hankel<F>::random(f, n, prng, 1u << 20);
    auto t = h.row_mirror_toeplitz();
    // J*H == T entry-wise.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(h.at(n - 1 - i, j), t.at(i, j));
      }
    }
    const auto det_h = matrix::det_gauss(f, h.to_dense(f));
    const auto det_t = matrix::det_gauss(f, t.to_dense(f));
    const auto expect =
        h.mirror_det_sign() > 0 ? det_t : f.neg(det_t);
    EXPECT_EQ(det_h, expect) << n;
  }
}

TEST(VandermondeTest, DetFormulaMatchesGauss) {
  util::Prng prng(17);
  std::vector<F::Element> pts{3, 7, 19, 42, 101};
  matrix::Vandermonde<F> v(pts);
  EXPECT_EQ(v.det(f), matrix::det_gauss(f, v.to_dense(f)));
}

TEST(VandermondeTest, ApplyIsMultipointEval) {
  poly::PolyRing<F> ring(f);
  util::Prng prng(18);
  std::vector<F::Element> pts{1, 2, 3, 4};
  matrix::Vandermonde<F> v(pts);
  auto c = ring.random_degree(prng, 3);
  std::vector<F::Element> coeffs(c);
  coeffs.resize(4, f.zero());
  EXPECT_EQ(v.apply(f, coeffs), poly::multipoint_eval(ring, c, pts));
  // apply_transpose matches the dense transpose.
  std::vector<F::Element> y{5, 6, 7, 8};
  EXPECT_EQ(v.apply_transpose(f, y),
            matrix::mat_vec(f, matrix::mat_transpose(f, v.to_dense(f)), y));
}

TEST(VandermondeTest, SolveByInterpolation) {
  poly::PolyRing<F> ring(f);
  std::vector<F::Element> pts{2, 5, 11, 17};
  matrix::Vandermonde<F> v(pts);
  std::vector<F::Element> coeffs{9, 0, 3, 1};
  auto values = v.apply(f, coeffs);
  EXPECT_EQ(v.solve(ring, values), coeffs);
}

TEST(DiagonalTest, DetAndApply) {
  matrix::Diagonal<F> d(std::vector<F::Element>{2, 3, 5});
  EXPECT_EQ(d.det(f), 30u);
  std::vector<F::Element> x{1, 1, 1};
  EXPECT_EQ(d.apply(f, x), (std::vector<F::Element>{2, 3, 5}));
}

// ---------------------------------------------------------------------------
// Sparse and black boxes.

TEST(SparseTest, ApplyMatchesDense) {
  util::Prng prng(19);
  auto sp = matrix::Sparse<F>::random(f, 25, 3, prng);
  auto dense = sp.to_dense(f);
  std::vector<F::Element> x(25);
  for (auto& v : x) v = f.random(prng);
  EXPECT_EQ(sp.apply(f, x), matrix::mat_vec(f, dense, x));
}

TEST(SparseTest, DuplicateEntriesAreSummed) {
  using Entry = matrix::Sparse<F>::Entry;
  matrix::Sparse<F> sp(f, 2, 2, std::vector<Entry>{{0, 0, 3}, {0, 0, 4}, {1, 1, 1}});
  auto dense = sp.to_dense(f);
  EXPECT_EQ(dense.at(0, 0), 7u);
  EXPECT_EQ(dense.at(1, 1), 1u);
  EXPECT_EQ(dense.at(0, 1), 0u);
}

TEST(BlackBoxTest, KrylovSequenceIterative) {
  util::Prng prng(22);
  const std::size_t n = 6;
  auto a = random_mat(n, prng);
  matrix::DenseBox<F> box(f, a);
  std::vector<F::Element> u(n), v(n);
  for (auto& e : u) e = f.random(prng);
  for (auto& e : v) e = f.random(prng);
  auto seq = matrix::krylov_sequence_iterative(f, box, u, v, 2 * n);
  // Check a few entries against explicit powers.
  auto ai = matrix::identity_matrix(f, n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    auto uai = matrix::vec_mat(f, u, ai);
    EXPECT_EQ(seq[i], matrix::dot(f, uai, v)) << i;
    ai = matrix::mat_mul(f, ai, a);
  }
}

}  // namespace
}  // namespace kp
