// Solving A x = b from an annihilating polynomial of A (or of the Krylov
// sequence of b): the Cayley-Hamilton finish used by both Wiedemann's
// black-box solver and the Theorem-4 pipeline.
//
// If g(lambda) = g_0 + g_1 lambda + ... + lambda^d annihilates the sequence
// {A^i b} and g_0 != 0 (guaranteed for non-singular A and the minimal g),
// then
//     0 = g(A) b  =>  A^{-1} b = -(1/g_0) (g_1 b + g_2 A b + ... + A^{d-1} b).
#pragma once

#include <utility>
#include <vector>

#include "field/concepts.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "util/deadline.h"
#include "util/status.h"

namespace kp::core {

/// Precondition of the Cayley-Hamilton finish: the annihilator must be
/// non-trivial with a non-zero constant term (else A is not invertible
/// through g).  Public entry points call this instead of asserting, so
/// malformed inputs are rejected in every build type.
template <kp::field::Field F>
util::Status validate_annihilator(const F& f,
                                  const std::vector<typename F::Element>& g) {
  if (g.size() < 2) {
    return util::Status::Fail(util::FailureKind::kInvalidArgument,
                              util::Stage::kSolveFinish,
                              "annihilator must have degree >= 1");
  }
  if (f.eq(g[0], f.zero())) {
    return util::Status::Fail(util::FailureKind::kZeroConstantTerm,
                              util::Stage::kSolveFinish,
                              "annihilator constant term is zero");
  }
  return util::Status::Ok();
}

/// Coefficients q of the solution combination: x = sum_j q_j A^j b, derived
/// from a monic annihilator g with g_0 != 0; q_j = -g_{j+1} / g_0.
/// Returns an empty vector when g fails validate_annihilator.
template <kp::field::Field F>
std::vector<typename F::Element> solution_combination(
    const F& f, const std::vector<typename F::Element>& g) {
  if (!validate_annihilator(f, g).ok()) return {};
  const auto scale = f.neg(f.inv(g[0]));
  std::vector<typename F::Element> q(g.size() - 1, f.zero());
  for (std::size_t j = 0; j + 1 < g.size(); ++j) {
    q[j] = f.mul(scale, g[j + 1]);
  }
  return q;
}

/// The solution combination for k columns at once: x_c = sum_j q_j A^j b_c,
/// every column advancing through the same power of A (apply_columns, so a
/// box's batch path fires once per step for all k).  `control` is checked
/// every 16 steps at kSolveFinish; a trip returns its Status and leaves `x`
/// unspecified.
template <kp::field::Field F, matrix::LinOp B>
util::Status combine_powers(
    const F& f, const B& box, const std::vector<typename F::Element>& q,
    const std::vector<const std::vector<typename F::Element>*>& rhs,
    const util::ExecControl* control,
    std::vector<std::vector<typename F::Element>>& x) {
  using E = typename F::Element;
  x.clear();
  for (const auto* b : rhs) x.emplace_back(b->size(), f.zero());
  std::vector<std::vector<E>> w;  // A^j b_c, column by column
  for (std::size_t j = 0; j < q.size(); ++j) {
    if ((j & 15u) == 0) {
      util::Status ctl = util::ExecControl::check(control, util::Stage::kSolveFinish);
      if (!ctl.ok()) return ctl;
    }
    if (j == 1) w = matrix::apply_columns(box, rhs);
    if (j > 1) w = matrix::apply_columns(box, w);
    if (f.eq(q[j], f.zero())) continue;
    for (std::size_t c = 0; c < rhs.size(); ++c) {
      const std::vector<E>& wc = j ? w[c] : *rhs[c];
      for (std::size_t i = 0; i < wc.size(); ++i) {
        x[c][i] = f.add(x[c][i], f.mul(q[j], wc[i]));
      }
    }
  }
  return util::Status::Ok();
}

/// Black-box solve from an annihilator: d-1 products with the box.
/// Returns an empty vector when g fails validate_annihilator.
template <kp::field::Field F, matrix::LinOp B>
std::vector<typename F::Element> solve_from_annihilator(
    const F& f, const B& box, const std::vector<typename F::Element>& g,
    const std::vector<typename F::Element>& b) {
  const auto q = solution_combination(f, g);
  if (q.empty()) return {};
  std::vector<std::vector<typename F::Element>> x;
  combine_powers(f, box, q, {&b}, nullptr, x);  // uncontrolled: cannot fail
  return std::move(x[0]);
}

}  // namespace kp::core
