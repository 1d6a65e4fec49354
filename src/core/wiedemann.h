// Wiedemann's black-box algorithms (section 2 of the paper).
//
// All of them share one step: project the Krylov sequence of the operator
// through random vectors u, v drawn from the sample set S, and read off its
// minimum polynomial f_u^{A,v} with Berlekamp-Massey.  Lemma 2 bounds the
// probability that the projection loses information by 2 deg(f^A) / |S|.
// The step exists once per width: detail::draw_generator is the scalar
// draw of wiedemann_solve_status (v = b) and Session::prepare (v random),
// detail::block_generator the block draw of block_wiedemann_solve_status.
//
//   * wiedemann_minpoly       -- minimum polynomial of the projected sequence
//   * wiedemann_singular_test -- Las Vegas "det(A) = 0" certificate
//   * wiedemann_solve_status  -- non-singular solve, Las Vegas (verifies Ax=b)
//   * block_wiedemann_solve_status -- the same with block projections
//
// The preconditioned determinant is kp_det (core/solver.h): Wiedemann's
// method with the Theorem-2 preconditioner and scalar projections.
//
// The Las Vegas entries run on run_las_vegas (core/las_vegas.h): every
// attempt leaves a util::Diag, and retries re-draw only the implicated
// component.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/annihilator.h"
#include "core/block_krylov.h"
#include "core/las_vegas.h"
#include "field/concepts.h"
#include "matrix/blackbox.h"
#include "seq/berlekamp_massey.h"
#include "seq/matrix_berlekamp_massey.h"
#include "util/fault.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp::core {

namespace detail {

/// The 2n terms u A^i v with u, then v (when `b` is null), drawn from
/// `prng` over S; with `b`, u alone is drawn and v = *b.
template <kp::field::Field F, matrix::LinOp B>
std::vector<typename F::Element> projected_sequence(
    const F& f, const B& box, const std::vector<typename F::Element>* b,
    kp::util::Prng& prng, std::uint64_t s) {
  const std::size_t n = box.dim();
  std::vector<typename F::Element> u(n), v;
  for (auto& e : u) e = f.sample(prng, s);
  if (b == nullptr) {
    v.resize(n);
    for (auto& e : v) e = f.sample(prng, s);
  }
  return matrix::krylov_sequence_iterative(f, box, u, b ? *b : v, 2 * n);
}

}  // namespace detail

/// Minimum polynomial of {u A^i v} for random u, v sampled from S; equals
/// the minimum polynomial of A with probability >= 1 - 2 deg(f^A)/|S|.
template <kp::field::Field F, matrix::LinOp B>
std::vector<typename F::Element> wiedemann_minpoly(const F& f, const B& box,
                                                   kp::util::Prng& prng,
                                                   std::uint64_t s) {
  return seq::berlekamp_massey(
      f, detail::projected_sequence(f, box, nullptr, prng, s));
}

/// One-sided Las Vegas singularity test: returns true ("singular") when
/// lambda divides the projected minimum polynomial.  For non-singular A the
/// answer is always false; for singular A it is true with probability
/// >= 1 - 2n/|S|.
template <kp::field::Field F, matrix::LinOp B>
bool wiedemann_singular_test(const F& f, const B& box, kp::util::Prng& prng,
                             std::uint64_t s) {
  const auto mp = wiedemann_minpoly(f, box, prng, s);
  return mp.size() >= 2 && f.eq(mp[0], f.zero());
}

namespace detail {

/// Estimate (2)'s failure report: g(0) = 0 means the operator the generator
/// belongs to is singular -- A itself for a generator of A's own sequence
/// (it divides A's minimal polynomial), A itself or an unlucky H or D for
/// the charpoly of A-tilde = A H D.
template <kp::field::Field F>
util::Status constant_term_status(const F& f,
                                  const std::vector<typename F::Element>& g,
                                  const char* what) {
  if (KP_FAULT_POINT(util::Stage::kCharpoly)) {
    return util::Status::Injected(util::FailureKind::kZeroConstantTerm,
                                  util::Stage::kCharpoly);
  }
  if (f.eq(g[0], f.zero())) {
    return util::Status::Fail(util::FailureKind::kZeroConstantTerm,
                              util::Stage::kCharpoly, what);
  }
  return util::Status::Ok();
}

/// The scalar generator draw, the head of every attempt of
/// wiedemann_solve_status (b given: the sequence u A^i b) and of
/// Session::prepare (b null: u A^i v, drawn as wiedemann_minpoly draws):
/// at.draw(), the projection from the attempt's projection seed, the
/// kProjection fault site, Berlekamp-Massey, kDegenerateProjection when
/// deg g < 1, and kZeroConstantTerm when g(0) = 0.  g divides A's minimal
/// polynomial, so g(0) = 0 proves A singular.  `g` is set only on Ok.
template <kp::field::Field F, matrix::LinOp B>
util::Status draw_generator(const F& f, const B& box,
                            const std::vector<typename F::Element>* b,
                            Attempt& at, std::uint64_t s,
                            std::vector<typename F::Element>& g) {
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  at.draw();
  kp::util::Prng r{at.projection_seed()};
  const auto seq = projected_sequence(f, box, b, r, s);
  if (KP_FAULT_POINT(Stage::kProjection)) {
    return Status::Injected(FailureKind::kDegenerateProjection,
                            Stage::kProjection);
  }
  auto m = seq::berlekamp_massey(f, seq);
  if (m.size() < 2) {
    return Status::Fail(FailureKind::kDegenerateProjection, Stage::kCharpoly,
                        "trivial minimum polynomial");
  }
  Status st = constant_term_status(f, m, "g(0) = 0: A singular");
  if (st.ok()) g = std::move(m);
  return st;
}

/// The block generator draw over a b x n left block `ut` and b right
/// columns `v`: the 2 ceil(n/b) + 2 terms Ut A^i V, the kBlockProjection
/// fault site, the sigma-basis, and the kBlockGenerator fault site (both
/// sites so the retry paths are deterministically reachable).
template <kp::field::Field F, matrix::LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
kp::util::StatusOr<seq::BlockGenerator<F>> block_generator(
    const F& f, const B& box, const matrix::Matrix<F>& ut,
    const std::vector<std::vector<typename F::Element>>& v) {
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  const std::size_t n = box.dim();
  const std::size_t bw = v.size();
  const std::size_t count = 2 * ((n + bw - 1) / bw) + 2;
  const auto sq = block_krylov_sequence(f, box, ut, v, count);
  if (KP_FAULT_POINT(Stage::kBlockProjection)) {
    return Status::Injected(FailureKind::kDegenerateProjection,
                            Stage::kBlockProjection);
  }
  auto gen = seq::matrix_berlekamp_massey(f, sq);
  if (gen.ok() && KP_FAULT_POINT(Stage::kBlockGenerator)) {
    return Status::Injected(FailureKind::kDegenerateProjection,
                            Stage::kBlockGenerator);
  }
  return gen;
}

/// Las Vegas knobs of the one-component Wiedemann runs (the solves and a
/// Session's generator draw, which has no right-hand side): the projection
/// is re-drawn every attempt from the caller's stream, |S| stays fixed.
inline LasVegasOptions projection_only(std::size_t n,
                                       std::optional<std::size_t> rhs_dim,
                                       std::uint64_t s, int max_attempts) {
  return {n, rhs_dim, max_attempts, s, 0, /*preconditioned=*/false};
}

}  // namespace detail

/// Status-carrying outcome of the Las Vegas black-box solve.
template <kp::field::Field F>
struct WiedemannSolveResult {
  bool ok = false;
  std::vector<typename F::Element> x;
  int attempts = 0;
  util::Status status;
  std::vector<util::Diag> diags;  ///< one record per attempt
};

/// Solves A x = b for non-singular A through the minimum polynomial of the
/// sequence {A^i b}, with the full failure taxonomy.  The only randomness is
/// the projection vector u, so every retry is a projection re-draw (Lemma 2
/// is the only bound in play); failure after max_attempts has probability
/// <= (2n/|S|)^attempts for non-singular A.
template <kp::field::Field F, matrix::LinOp B>
WiedemannSolveResult<F> wiedemann_solve_status(
    const F& f, const B& box, const std::vector<typename F::Element>& b,
    kp::util::Prng& prng, std::uint64_t s, int max_attempts = 3) {
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  WiedemannSolveResult<F> res;
  const std::size_t n = box.dim();
  const LasVegasRun run = run_las_vegas(
      prng, detail::projection_only(n, b.size(), s, max_attempts), &res.diags,
      [&](Attempt& at) -> Status {
        // Project {A^i b} through a random u; the sequence's minimum
        // polynomial f_u^{A,b} divides f^{A,b} and equals it w.h.p.
        // (Theorem 1 / Lemma 2).
        std::vector<typename F::Element> g;
        if (Status st = detail::draw_generator(f, box, &b, at, s, g);
            !st.ok()) {
          return st;
        }
        auto x = solve_from_annihilator(f, box, g, b);
        if (KP_FAULT_POINT(Stage::kVerify)) {
          return Status::Injected(FailureKind::kVerifyMismatch, Stage::kVerify);
        }
        if (box.apply(x) != b) {
          return Status::Fail(FailureKind::kVerifyMismatch, Stage::kVerify,
                              "A x != b");
        }
        res.x = std::move(x);
        return Status::Ok();
      });
  res.ok = run.status.ok();
  res.attempts = run.attempts;
  res.status = run.status;
  return res;
}

/// Block-Wiedemann solve of A x = b for non-singular A (Coppersmith).  The
/// right block is V = [b | A z_1 | ... | A z_{bw-1}] for random z_k, so a
/// generator column c with (c_0)_1 != 0 yields sum_j A^j V c_j = 0 and the
/// solution reads off by Horner:
///
///   x = -(1/(c_0)_1) (Z c_0' + sum_{j>=1} A^{j-1} V c_j)
///
/// with only deg(c) <= ceil(n/bw) + 1 single-vector products in the finish
/// -- versus ~n in the scalar route's Cayley-Hamilton combination.  The
/// sequence phase runs ~2 ceil(n/bw) block steps, each one batched
/// apply_many plus a b x b SIMD projection, instead of 2n serial applies.
/// Every candidate is Las-Vegas-verified (A x = b); degenerate blocks
/// surface as kDegenerateProjection and re-draw U, V, Z from the attempt's
/// forked, replayable seed.  block_width <= 1 falls back to the scalar
/// route (identical results and diagnostics).
template <kp::field::Field F, matrix::LinOp B>
WiedemannSolveResult<F> block_wiedemann_solve_status(
    const F& f, const B& box, const std::vector<typename F::Element>& b,
    kp::util::Prng& prng, std::uint64_t s, std::size_t block_width,
    int max_attempts = 3) {
  using E = typename F::Element;
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  const std::size_t n = box.dim();
  if (block_width <= 1 || n <= 1) {
    return wiedemann_solve_status(f, box, b, prng, s, max_attempts);
  }
  const std::size_t bw = block_width < n ? block_width : n;

  WiedemannSolveResult<F> res;
  const LasVegasRun run = run_las_vegas(
      prng, detail::projection_only(n, b.size(), s, max_attempts), &res.diags,
      [&](Attempt& at) -> Status {
        at.draw();
        kp::util::Prng r{at.projection_seed()};
        const auto ut = random_block_rows(f, bw, n, r, s);
        const auto z = random_block_columns(f, bw - 1, n, r, s);
        // V = [b | A Z]: Coppersmith's construction, so the x^0 coefficient
        // of a generator column carries b's contribution explicitly.
        std::vector<std::vector<E>> v;
        v.reserve(bw);
        v.push_back(b);
        for (auto& az : matrix::apply_columns(box, z)) v.push_back(std::move(az));
        const auto gen_or = detail::block_generator(f, box, ut, v);
        if (!gen_or.ok()) return gen_or.status();
        const auto& gen = gen_or.value();
        // First (lowest-degree) column whose constant coefficient touches b.
        std::size_t pick = gen.columns.size();
        for (std::size_t c = 0; c < gen.columns.size(); ++c) {
          if (!f.eq(gen.columns[c][0][0], f.zero())) {
            pick = c;
            break;
          }
        }
        if (pick == gen.columns.size()) {
          return Status::Fail(FailureKind::kDegenerateProjection,
                              Stage::kBlockGenerator,
                              "no generator column usable for extraction");
        }
        const auto& col = gen.columns[pick];
        const std::size_t d = col.size() - 1;
        // w = sum_{j>=1} A^{j-1} V c_j by Horner: d block combinations and
        // d - 1 single-vector products.
        std::vector<E> w(n, f.zero());
        if (d >= 1) {
          w = block_combine(f, v, col[d]);
          for (std::size_t j = d; j-- > 1;) {
            w = box.apply(w);
            const auto vc = block_combine(f, v, col[j]);
            for (std::size_t i = 0; i < n; ++i) w[i] = f.add(w[i], vc[i]);
          }
        }
        if (bw > 1) {
          const std::vector<E> ctail(col[0].begin() + 1, col[0].end());
          const auto zc = block_combine(f, z, ctail);
          for (std::size_t i = 0; i < n; ++i) w[i] = f.add(w[i], zc[i]);
        }
        const E scale = f.neg(f.inv(col[0][0]));
        std::vector<E> x(n);
        for (std::size_t i = 0; i < n; ++i) x[i] = f.mul(scale, w[i]);
        if (KP_FAULT_POINT(Stage::kVerify)) {
          return Status::Injected(FailureKind::kVerifyMismatch, Stage::kVerify);
        }
        if (box.apply(x) != b) {
          return Status::Fail(FailureKind::kVerifyMismatch, Stage::kVerify,
                              "A x != b");
        }
        res.x = std::move(x);
        return Status::Ok();
      });
  res.ok = run.status.ok();
  res.attempts = run.attempts;
  res.status = run.status;
  return res;
}

}  // namespace kp::core
