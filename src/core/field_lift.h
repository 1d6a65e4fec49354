// Solving over small fields through an algebraic extension (section 2).
//
// The failure bound 3n^2/card(S) is useless when the field itself is
// smaller than 3n^2: "For Galois fields K with card(K) < 3n^2, the
// algorithm is performed in an algebraic extension L over K, so that the
// failure probability can be bounded away from 0."
//
// This adapter lifts the system entry-wise into GF(p^k) (the prime subfield
// embeds as the constant polynomials), runs the Theorem-4 pipeline there
// with the full extension as the sample set, and projects the solution
// back.  The solution of a non-singular system is unique, so its lifted
// coordinates are guaranteed to be constants.
#pragma once

#include <cmath>
#include <optional>
#include <vector>

#include "core/solver.h"
#include "field/gfpk.h"
#include "field/zp.h"
#include "matrix/dense.h"
#include "util/fault.h"
#include "util/status.h"

namespace kp::core {

/// Smallest extension degree k with p^k >= target, verified: the extension
/// must both fit the 64-bit word the GFpk representation uses AND actually
/// reach the target, else the est.-(2) bound cannot be restored and the
/// caller gets kSampleSetTooSmall instead of a silently weaker run.
inline kp::util::StatusOr<unsigned> lift_degree_status(std::uint64_t p,
                                                       std::uint64_t target) {
  using kp::util::FailureKind;
  using kp::util::Stage;
  using kp::util::Status;
  if (p < 2) {
    return Status::Fail(FailureKind::kInvalidArgument, Stage::kLift,
                        "modulus must be >= 2");
  }
  unsigned k = 1;
  unsigned __int128 card = p;
  constexpr std::uint64_t word_max = ~std::uint64_t{0};
  while (card < target) {
    if (card > word_max / p) {
      return Status::Fail(
          FailureKind::kSampleSetTooSmall, Stage::kLift,
          "p^k exceeds the 64-bit word before reaching the target");
    }
    card *= p;
    ++k;
  }
  return k;
}

/// Result of a lifted solve.
template <class F>
struct LiftedSolveResult {
  bool ok = false;
  std::vector<typename F::Element> x;
  typename F::Element det{};
  unsigned extension_degree = 0;  ///< the k of the GF(p^k) the run used
  int attempts = 0;               ///< attempts of the lifted pipeline run
  util::Status status;            ///< Ok, or why the lift failed
};

/// Solves A x = b over GF(p) with small p by running the Theorem-4 pipeline
/// in GF(p^k), k chosen so that p^k >= failure_margin * 3 n^2.  Las Vegas:
/// the projected solution is verified over the base field.
/// Precondition on the CHARACTERISTIC still applies (p > n): the lift buys
/// randomness, not divisibility -- use the Chistov route for p <= n.
inline LiftedSolveResult<kp::field::GFp> kp_solve_small_field(
    const kp::field::GFp& f, const matrix::Matrix<kp::field::GFp>& a,
    const std::vector<kp::field::GFp::Element>& b, kp::util::Prng& prng,
    std::uint64_t failure_margin = 64) {
  using kp::util::FailureKind;
  using kp::util::Stage;
  using kp::util::Status;
  const std::size_t n = a.rows();
  LiftedSolveResult<kp::field::GFp> out;
  out.status = util::Require(
      a.is_square() && b.size() == n && n > 0, FailureKind::kInvalidArgument,
      Stage::kLift, "A must be square and match b");
  if (!out.status.ok()) return out;
  const std::uint64_t p = f.modulus();

  // Target sample-set size 3 n^2 * margin, as estimate (2) requires.
  if (KP_FAULT_POINT(Stage::kLift)) {
    out.status = Status::Injected(FailureKind::kSampleSetTooSmall, Stage::kLift);
    return out;
  }
  auto deg = lift_degree_status(p, 3 * n * n * failure_margin);
  if (!deg.ok()) {
    out.status = deg.status();
    return out;
  }
  const unsigned k = deg.value();
  out.extension_degree = k;
  kp::field::GFpk lift(p, k);

  // Entry-wise embedding: base-field scalars are the constant polynomials.
  matrix::Matrix<kp::field::GFpk> al(n, n, lift.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      al.at(i, j) = lift.from_int(static_cast<std::int64_t>(a.at(i, j)));
    }
  }
  std::vector<kp::field::GFpk::Element> bl(n);
  for (std::size_t i = 0; i < n; ++i) {
    bl[i] = lift.from_int(static_cast<std::int64_t>(b[i]));
  }

  SolverOptions opt;
  opt.sample_size = ~std::uint64_t{0};  // the whole extension is the sample set
  // Leverrier divides by 2..n: the CHARACTERISTIC is still p, so the
  // lifted pipeline needs p > n just like the base one would; the lift
  // buys randomness, not divisibility (use the Chistov route otherwise).
  if (!kp::field::supports_leverrier(lift, n)) {
    out.status = Status::Fail(FailureKind::kInvalidArgument, Stage::kLift,
                              "characteristic <= n: use the Chistov route");
    return out;
  }
  auto res = kp_solve(lift, al, bl, prng, opt);
  out.attempts = res.attempts;
  if (!res.ok) {
    out.status = res.status;
    return out;
  }

  // Project back: every coordinate must be a constant polynomial.
  out.x.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 1; c < k; ++c) {
      if (res.x[i][c] != 0) {  // cannot happen for consistent runs
        out.status = Status::Fail(FailureKind::kVerifyMismatch, Stage::kLift,
                                  "projected coordinate is not constant");
        return out;
      }
    }
    out.x[i] = res.x[i][0];
  }
  for (std::size_t c = 1; c < k; ++c) {
    if (res.det[c] != 0) {
      out.status = Status::Fail(FailureKind::kVerifyMismatch, Stage::kLift,
                                "projected determinant is not constant");
      return out;
    }
  }
  out.det = res.det[0];

  // Las Vegas verification over the base field.
  if (matrix::mat_vec(f, a, out.x) != b) {
    out.status =
        Status::Fail(FailureKind::kVerifyMismatch, Stage::kVerify, "A x != b");
    return out;
  }
  out.ok = true;
  out.status = Status::Ok();
  return out;
}

/// The adaptive entry point: run the Theorem-4 pipeline directly when GF(p)
/// already carries the est.-(2) bound (card(K) >= 3 n^2), and auto-route
/// through the section-5 extension lift when it does not -- the recovery the
/// kSampleSetTooSmall verdict asks for, performed up front.
inline LiftedSolveResult<kp::field::GFp> kp_solve_adaptive(
    const kp::field::GFp& f, const matrix::Matrix<kp::field::GFp>& a,
    const std::vector<kp::field::GFp::Element>& b, kp::util::Prng& prng,
    SolverOptions opt = {}, std::uint64_t failure_margin = 64) {
  const std::size_t n = a.rows();
  if (n > 0 && f.modulus() >= 3 * static_cast<std::uint64_t>(n) * n) {
    auto res = kp_solve(f, a, b, prng, opt);
    LiftedSolveResult<kp::field::GFp> out;
    out.ok = res.ok;
    out.x = std::move(res.x);
    out.det = res.det;
    out.extension_degree = 1;  // no lift needed
    out.attempts = res.attempts;
    out.status = res.status;
    return out;
  }
  return kp_solve_small_field(f, a, b, prng, failure_margin);
}

}  // namespace kp::core
