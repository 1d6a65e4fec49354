// Wiedemann's black-box algorithms (section 2 of the paper).
//
// All of them share one step: project the Krylov sequence of the operator
// through random vectors u, b drawn from the sample set S, and read off its
// minimum polynomial f_u^{A,b} with Berlekamp-Massey.  Lemma 2 bounds the
// probability that the projection loses information by 2 deg(f^A) / |S|.
//
//   * wiedemann_minpoly       -- minimum polynomial of the projected sequence
//   * wiedemann_singular_test -- Las Vegas "det(A) = 0" certificate
//   * wiedemann_solve_status  -- non-singular solve, Las Vegas (verifies Ax=b)
//   * block_wiedemann_solve_status -- the same with block projections
//
// The preconditioned determinant is kp_det (core/solver.h): Wiedemann's
// method with the Theorem-2 preconditioner is its default route, and its
// block_width option switches to the block projections.
//
// The Las Vegas entries run on run_las_vegas (core/las_vegas.h): every
// attempt leaves a util::Diag, and retries re-draw only the implicated
// component.
#pragma once

#include <cstdint>
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

/// Minimum polynomial of {u A^i b} for random u, b sampled from S; equals
/// the minimum polynomial of A with probability >= 1 - 2 deg(f^A)/|S|.
template <kp::field::Field F, matrix::LinOp B>
std::vector<typename F::Element> wiedemann_minpoly(const F& f, const B& box,
                                                   kp::util::Prng& prng,
                                                   std::uint64_t s) {
  const std::size_t n = box.dim();
  std::vector<typename F::Element> u(n), b(n);
  for (auto& e : u) e = f.sample(prng, s);
  for (auto& e : b) e = f.sample(prng, s);
  const auto seq = matrix::krylov_sequence_iterative(f, box, u, b, 2 * n);
  return seq::berlekamp_massey(f, seq);
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
/// belongs to is singular (A itself, or an unlucky H, D or projection).
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

/// Effective width of the block projections: the requested width clamped
/// to n, or 1 (the scalar sequence) when blocking is off, the system is
/// trivial, or the field cannot supply the 2n + 2 distinct evaluation
/// points the sigma-basis det-by-interpolation recovery may need.
template <kp::field::Field F>
std::size_t effective_block_width(const F& f, std::size_t block_width,
                                  std::size_t n) {
  if (block_width <= 1 || n <= 1) return 1;
  const std::uint64_t p = f.characteristic();
  if (p != 0 && p < 2 * n + 2) return 1;
  return block_width < n ? block_width : n;
}

/// One block-Wiedemann charpoly attempt: draw U (b x n rows) and V (b
/// columns) from `r`, run the block Krylov sequence and the sigma-basis,
/// and return det G normalized monic.  For the Theorem-2 preconditioned
/// operator (minpoly = charpoly, degree n) the minimal generator's
/// determinant is a scalar multiple of the characteristic polynomial
/// w.h.p.; the caller enforces deg = n.  Fault sites cover both new stages
/// so the retry paths are deterministically reachable.
template <kp::field::Field F, matrix::LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
kp::util::StatusOr<std::vector<typename F::Element>> block_charpoly_candidate(
    const F& f, const B& box, std::size_t block_width, kp::util::Prng& r,
    std::uint64_t s) {
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  const std::size_t n = box.dim();
  const std::size_t bw = block_width < n ? block_width : n;
  const auto ut = random_block_rows(f, bw, n, r, s);
  const auto v = random_block_columns(f, bw, n, r, s);
  const std::size_t count = 2 * ((n + bw - 1) / bw) + 2;
  const auto sq = block_krylov_sequence(f, box, ut, v, count);
  if (KP_FAULT_POINT(Stage::kBlockProjection)) {
    return Status::Injected(FailureKind::kDegenerateProjection,
                            Stage::kBlockProjection);
  }
  auto gen = seq::matrix_berlekamp_massey(f, sq);
  if (!gen.ok()) return gen.status();
  if (KP_FAULT_POINT(Stage::kBlockGenerator)) {
    return Status::Injected(FailureKind::kDegenerateProjection,
                            Stage::kBlockGenerator);
  }
  auto det = detail::generator_determinant(f, gen.value());
  if (!det.ok()) return det.status();
  auto g = det.take();
  if (!f.eq(g.back(), f.one())) {
    const auto ilc = f.inv(g.back());
    for (auto& e : g) e = f.mul(e, ilc);
  }
  return g;
}

/// Las Vegas knobs of the one-component Wiedemann solves: the projection is
/// re-drawn every attempt from the caller's stream, |S| stays fixed.
inline LasVegasOptions projection_only(std::size_t n, std::size_t rhs_dim,
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
        at.draw();
        kp::util::Prng r{at.projection_seed()};
        std::vector<typename F::Element> u(n);
        for (auto& e : u) e = f.sample(r, s);
        const auto seq = matrix::krylov_sequence_iterative(f, box, u, b, 2 * n);
        if (KP_FAULT_POINT(Stage::kProjection)) {
          return Status::Injected(FailureKind::kDegenerateProjection,
                                  Stage::kProjection);
        }
        auto g = seq::berlekamp_massey(f, seq);
        if (g.size() < 2) {
          return Status::Fail(FailureKind::kDegenerateProjection,
                              Stage::kCharpoly, "trivial minimum polynomial");
        }
        if (Status gst = detail::constant_term_status(
                f, g, "f_u(0) = 0: A singular or unlucky projection");
            !gst.ok()) {
          return gst;
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
        const std::size_t count = 2 * ((n + bw - 1) / bw) + 2;
        const auto sq = block_krylov_sequence(f, box, ut, v, count);
        if (KP_FAULT_POINT(Stage::kBlockProjection)) {
          return Status::Injected(FailureKind::kDegenerateProjection,
                                  Stage::kBlockProjection);
        }
        auto gen_or = seq::matrix_berlekamp_massey(f, sq);
        if (!gen_or.ok()) return gen_or.status();
        if (KP_FAULT_POINT(Stage::kBlockGenerator)) {
          return Status::Injected(FailureKind::kDegenerateProjection,
                                  Stage::kBlockGenerator);
        }
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
