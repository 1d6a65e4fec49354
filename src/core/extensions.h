// Section-5 extensions: rank, singular systems, nullspace bases, and
// least-squares solutions.
//
// All of them follow the paper's recipes:
//   * rank        -- precondition so that exactly the first r leading
//                    principal minors are non-zero, then binary-search the
//                    largest non-singular leading principal submatrix.
//   * nullspace   -- for random non-singular U, V the product UAV has its
//                    r x r leading principal submatrix non-singular; the
//                    kernel is spanned by V * (-Ahat_r^{-1} B ; I_{n-r}).
//   * singular solve -- one vector of the solution manifold through the
//                    same leading-block factorization.
//   * least squares -- x = (A^T A)^{-1} A^T b for full-column-rank A over a
//                    field of characteristic zero (Pan 1990a).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/solver.h"
#include "field/concepts.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "matrix/matmul.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp::core {

/// Monte Carlo rank: for random U, V with entries from S, rank(A) equals,
/// with probability >= 1 - O(n^2)/|S|, the largest r such that the r-th
/// leading principal minor of U A V is non-zero -- located by binary search
/// over log n determinant evaluations (cf. Borodin et al. 1982).
template <kp::field::Field F>
std::size_t rank_randomized(const F& f, const matrix::Matrix<F>& a,
                            kp::util::Prng& prng, std::uint64_t s) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  const auto u = matrix::sample_matrix(f, n, n, prng, s);
  const auto v = matrix::sample_matrix(f, m, m, prng, s);
  const auto uav = matrix::mat_mul(f, matrix::mat_mul(f, u, a), v);

  const std::size_t rmax = std::min(n, m);
  // Binary search the largest r with det(leading r) != 0; valid because the
  // preconditioning makes minors 1..rank nonzero and minors > rank are
  // always zero.
  std::size_t lo = 0, hi = rmax;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    const auto minor = matrix::leading_principal(f, uav, mid);
    if (!f.is_zero(matrix::det_gauss(f, minor))) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// Result of the randomized kernel computation.
template <kp::field::Field F>
struct NullspaceResult {
  bool ok = false;
  std::size_t rank = 0;
  matrix::Matrix<F> basis;  ///< n x (n - rank); columns span ker(A)
  util::Status status;      ///< Ok, or why the computation was rejected
};

namespace detail {

/// One section-5 draw: U, V with entries from S, Ahat = U A V, and r, the
/// order of Ahat's largest non-singular leading principal block (== rank A
/// w.h.p.).  U, V come from the attempt's projection seed, so a failing
/// attempt replays from its Diag.
template <kp::field::Field F>
struct LeadingBlock {
  matrix::Matrix<F> u, v, ahat;
  std::size_t r = 0;
};

template <kp::field::Field F>
LeadingBlock<F> draw_leading_block(const F& f, const matrix::Matrix<F>& a,
                                   Attempt& at, std::uint64_t s) {
  const std::size_t n = a.rows();
  at.draw();
  kp::util::Prng prng{at.projection_seed()};
  LeadingBlock<F> lb;
  lb.u = matrix::sample_matrix(f, n, n, prng, s);
  lb.v = matrix::sample_matrix(f, n, n, prng, s);
  lb.ahat = matrix::mat_mul(f, matrix::mat_mul(f, lb.u, a), lb.v);
  for (std::size_t k = n; k >= 1; --k) {
    if (!f.is_zero(matrix::det_gauss(f, matrix::leading_principal(f, lb.ahat, k)))) {
      lb.r = k;
      break;
    }
  }
  return lb;
}

}  // namespace detail

/// Basis of the right nullspace by the section-5 construction.  Las Vegas:
/// the basis is verified (A N = 0 and N has full column rank) and the draw
/// is retried on bad randomness (run_las_vegas).
template <kp::field::Field F>
NullspaceResult<F> nullspace_randomized(const F& f, const matrix::Matrix<F>& a,
                                        kp::util::Prng& prng, std::uint64_t s,
                                        int max_attempts = 3) {
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  const std::size_t n = a.rows();
  NullspaceResult<F> res;
  res.status = util::Require(a.is_square(), FailureKind::kInvalidArgument,
                             Stage::kNone,
                             "section-5 construction stated for square A");
  if (!res.status.ok()) return res;

  const LasVegasRun run = run_las_vegas(
      prng, {n, std::nullopt, max_attempts, s, 0, /*preconditioned=*/false},
      nullptr, [&](Attempt& at) {
        const auto lb = detail::draw_leading_block(f, a, at, s);
        if (f.is_zero(matrix::det_gauss(f, lb.u)) ||
            f.is_zero(matrix::det_gauss(f, lb.v))) {
          return Status::Fail(FailureKind::kDegenerateProjection,
                              Stage::kProjection, "U or V singular");
        }
        const std::size_t r = lb.r;
        if (r == n) {  // full rank: empty kernel
          res.rank = n;
          res.basis = matrix::Matrix<F>(n, 0, f.zero());
          return Status::Ok();
        }
        // Solve Ahat_r X = B for B the top-right r x (n-r) block, then
        // W = (-X ; I_{n-r}) spans ker(Ahat); ker(A) = V W.
        const auto ar = matrix::leading_principal(f, lb.ahat, r);
        matrix::Matrix<F> w(n, n - r, f.zero());
        for (std::size_t col = 0; col < n - r; ++col) {
          std::vector<typename F::Element> b(r, f.zero());
          for (std::size_t i = 0; i < r; ++i) b[i] = lb.ahat.at(i, r + col);
          auto x = matrix::solve_gauss(f, ar, b);
          if (!x) {
            return Status::Fail(FailureKind::kDegenerateProjection,
                                Stage::kProjection, "leading block singular");
          }
          for (std::size_t i = 0; i < r; ++i) w.at(i, col) = f.neg((*x)[i]);
          w.at(r + col, col) = f.one();
        }
        auto basis = matrix::mat_mul(f, lb.v, w);

        // Las Vegas verification: A * basis = 0 and full column rank.
        const auto prod = matrix::mat_mul(f, a, basis);
        if (!matrix::mat_eq(f, prod, matrix::zero_matrix(f, n, n - r)) ||
            matrix::rank_gauss(f, basis) != n - r) {
          return Status::Fail(FailureKind::kVerifyMismatch, Stage::kVerify,
                              "basis fails A N = 0 or full rank");
        }
        res.rank = r;
        res.basis = std::move(basis);
        return Status::Ok();
      });
  res.status = run.status;
  res.ok = run.status.ok();
  return res;
}

/// One solution of a (possibly singular) consistent square system A x = b,
/// via the same leading-block factorization; nullopt when the input is
/// malformed (A not square, dim(b) != n, n = 0), or the system is detected
/// to be inconsistent or the randomness is unlucky on every attempt.
template <kp::field::Field F>
std::optional<std::vector<typename F::Element>> singular_solve_randomized(
    const F& f, const matrix::Matrix<F>& a,
    const std::vector<typename F::Element>& b, kp::util::Prng& prng,
    std::uint64_t s, int max_attempts = 3) {
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  if (!a.is_square()) return std::nullopt;
  const std::size_t n = a.rows();
  std::vector<typename F::Element> x;
  const LasVegasRun run = run_las_vegas(
      prng, {n, b.size(), max_attempts, s, 0, /*preconditioned=*/false}, nullptr,
      [&](Attempt& at) {
        const auto lb = detail::draw_leading_block(f, a, at, s);
        const auto ub = matrix::mat_vec(f, lb.u, b);
        // Solve the leading block against the first r entries of U b, pad
        // with zeros, map back through V.
        std::vector<typename F::Element> y(n, f.zero());
        if (lb.r > 0) {
          const auto ar = matrix::leading_principal(f, lb.ahat, lb.r);
          std::vector<typename F::Element> rhs(
              ub.begin(), ub.begin() + static_cast<std::ptrdiff_t>(lb.r));
          auto top = matrix::solve_gauss(f, ar, rhs);
          if (!top) {
            return Status::Fail(FailureKind::kDegenerateProjection,
                                Stage::kProjection, "leading block singular");
          }
          for (std::size_t i = 0; i < lb.r; ++i) y[i] = (*top)[i];
        }
        x = matrix::mat_vec(f, lb.v, y);
        // Either unlucky randomness or an inconsistent system; retry.
        if (matrix::mat_vec(f, a, x) != b) {
          return Status::Fail(FailureKind::kVerifyMismatch, Stage::kVerify,
                              "A x != b");
        }
        return Status::Ok();
      });
  if (!run.status.ok()) return std::nullopt;
  return x;
}

/// Least-squares solution over a characteristic-zero field (Pan 1990a):
/// for full-column-rank A (m x n, m >= n), x = (A^T A)^{-1} A^T b minimizes
/// ||A x - b||^2 formally.  nullopt when A^T A is singular (rank-deficient).
template <kp::field::Field F>
std::optional<std::vector<typename F::Element>> least_squares(
    const F& f, const matrix::Matrix<F>& a,
    const std::vector<typename F::Element>& b) {
  // Meaningful only over characteristic zero; reject instead of asserting.
  if (f.characteristic() != 0 || a.rows() != b.size()) return std::nullopt;
  const auto atr = matrix::mat_transpose(f, a);
  const auto normal = matrix::mat_mul(f, atr, a);
  const auto rhs = matrix::mat_vec(f, atr, b);
  return matrix::solve_gauss(f, normal, rhs);
}

/// The processor-efficient least squares the paper's last sentence promises:
/// "the techniques of Pan (1990a) combined with the processor efficient
/// algorithms for linear system solving presented here" -- the normal
/// equations solved by the Theorem-4 pipeline.  Requires full column rank.
template <kp::field::Field F>
std::optional<std::vector<typename F::Element>> least_squares_randomized(
    const F& f, const matrix::Matrix<F>& a,
    const std::vector<typename F::Element>& b, kp::util::Prng& prng) {
  // Meaningful only over characteristic zero; reject instead of asserting.
  if (f.characteristic() != 0 || a.rows() != b.size()) return std::nullopt;
  const auto atr = matrix::mat_transpose(f, a);
  const auto normal = matrix::mat_mul(f, atr, a);
  const auto rhs = matrix::mat_vec(f, atr, b);
  auto res = kp_solve(f, normal, rhs, prng);
  if (!res.ok) return std::nullopt;
  return std::move(res.x);
}

}  // namespace kp::core
