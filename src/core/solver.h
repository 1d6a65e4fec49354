// The Theorem-4 solver and determinant: the paper's main result.
//
// Pipeline (section 3, "From Theorem 3 we can obtain ... size-efficient
// randomized circuits for solving general non-singular systems"):
//
//   1. Draw the random Hankel H, diagonal D, row vector u, column vector v
//      with entries from S; form A-tilde = A H D.               [Theorem 2]
//   2. a_i = u A-tilde^i v for i < 2n.  The route follows the operator
//      and the depth goal (Transcript), never an option.  A dense operator
//      under depth_optimal -- the processor-efficient circuit route --
//      takes Krylov doubling (9), O(n^w log n) work in O(log^2 n) depth:
//      it squares only to A-tilde^P, P = 2^{ceil(log2 n) - 1} >= n/2, the
//      block (v ... A-tilde^{n-1} v) projects on u for a_0..a_{n-1} and on
//      w = u A-tilde^n for a_n..a_{2n-1}, and the squares are kept for
//      step 4.  Every other run takes the 2n products (8): a dense
//      operator forms A-tilde once and iterates on it stored transposed
//      (each product a row-vector product over A-tilde^T's contiguous
//      rows, about 6n^3 operations for steps 2 and 4 together), a sparse
//      or structured one on the lazily composed A H D.  At block_width
//      b > 1 the iterative route projects U A-tilde^i V instead and finds
//      the generator with the sigma-basis (core/block_krylov.h).
//   3. The generator c of a_0..a_{2n-1}: the solution of T c =
//      (a_n..a_{2n-1}), T = Toeplitz(a_0..a_{2n-2}) (Lemma 1).  By default
//      Berlekamp-Massey finds it in O(n^2) -- the paper's sequential method,
//      whose result has degree n exactly when det(T) != 0.  Under
//      depth_optimal: charpoly(T) by Theorem 3 and Cayley-Hamilton on T.
//   4. c is w.h.p. the characteristic polynomial of A-tilde     [est. (2)];
//      Cayley-Hamilton on A-tilde gives x-tilde = A-tilde^{-1} b = q(A-tilde)
//      b, and x = H D x-tilde.  The iterative route runs the recurrence
//      through n - 1 more products with step 2's operator, at any b; the
//      doubling route builds the n-column Krylov block of b from step 2's
//      squares and combines its columns.
//   5. det(A) = (-1)^n g(0) / (det(H) det(D)), det(H) from the
//      Berlekamp-Massey discrepancies of H in O(n^2); via the row-mirror
//      Toeplitz and Theorem 3 (section 4) when H is not normal or the run
//      is depth_optimal.
//
// Every stage touches A only through matrix-vector products, so kp_solve /
// kp_det accept any matrix::LinOp; dense matrix::Matrix<F> call sites keep
// working through an adapter overload that wraps a DenseViewBox.  The
// preconditioned operator is composed lazily (PreconditionedBox) unless the
// operator is dense, where A-tilde is materialized once per attempt.
//
// The pipeline splits into a per-OPERATOR prepare (steps 1-3 and det(H D):
// detail::prepare_attempt fills a Transcript) and a per-RHS finish (steps
// 4b-5: detail::finish_many, batched over k columns).  kp_det is prepare
// alone, kp_solve is prepare + a one-column finish, and a Session
// (core/session.h) pins one Transcript and finishes batches through it.
//
// Failure handling (the Las Vegas layer, see DESIGN.md section 9):
//
//   * Every detected failure carries a util::Status naming its FailureKind
//     and Stage, and every attempt leaves a util::Diag (seeds, what was
//     re-drawn, op cost) in SolveResult::diags.
//   * The attempt loop is run_las_vegas (core/las_vegas.h): retries
//     are STAGE-TARGETED (a degenerate u/v projection re-draws only u, v; a
//     singular preconditioner only H, D; a verify mismatch, or a repeat
//     failure of a component re-drawn alone, restarts both and doubles |S|).
//   * A per-attempt op budget (SolverOptions::op_budget_per_attempt) stops
//     the Las Vegas loop on pathological inputs and degrades to the dense
//     baseline (Gaussian elimination on the materialized operator), which
//     also deterministically separates kSingularInput from bad luck.
//
// On non-singular inputs the per-attempt failure probability is
// <= 3n^2/|S| (estimate (2)); the returned solution is verified (Las Vegas)
// when options.verify is set, so a wrong x is never returned.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/annihilator.h"
#include "core/krylov.h"
#include "core/las_vegas.h"
#include "core/preconditioners.h"
#include "core/wiedemann.h"
#include "field/concepts.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "matrix/matmul.h"
#include "seq/berlekamp_massey.h"
#include "seq/newton_toeplitz.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp::core {

/// Tuning knobs for the Theorem-4 pipeline.
struct SolverOptions {
  std::uint64_t sample_size = 1ULL << 30;  ///< card(S); bound is 3n^2/|S|
  int max_attempts = 3;                    ///< Las Vegas retries
  bool verify = true;                      ///< check A x = b before returning
  matrix::MatMulStrategy matmul = matrix::MatMulStrategy::kClassical;
  /// Newton-identity solve of the Theorem-3 charpolys: used only under
  /// depth_optimal and by the det(H) fallback for a non-normal H.
  seq::NewtonIdentityMethod newton = seq::NewtonIdentityMethod::kTriangularSolve;
  /// Replace the O(n)-deep sequential steps (the Berlekamp-Massey
  /// generator, the Berlekamp-Massey det(H) and, inside Theorem 3, the
  /// triangular Newton-identity solve) with Theorem 3 plus a doubling
  /// Cayley-Hamilton solve on T, Theorem 3 on the Hankel mirror and the
  /// kPowerSeriesExp Newton method, so that the realized CIRCUIT has
  /// poly-logarithmic depth as Theorem 4 states.  Costs more work (Theorem
  /// 3 is O(n^2 polylog n) against O(n^2)); the default optimizes
  /// sequential work instead.  On a dense operator it also selects the
  /// Krylov doubling (9) for steps 2 and 4 (see Transcript).
  bool depth_optimal = false;
  /// Cap on the field operations one attempt may spend (0 = unlimited).
  /// When a failed attempt exceeds it, the Las Vegas loop stops and the
  /// pipeline degrades to the dense baseline route instead of looping on a
  /// pathological input.
  std::uint64_t op_budget_per_attempt = 0;
  /// After the attempts are exhausted, materialize the operator and settle
  /// the outcome with Gaussian elimination: a deterministic answer, or a
  /// deterministic kSingularInput verdict.
  bool dense_fallback = false;
  /// Record a util::Diag per attempt in SolveResult::diags.
  bool collect_diag = true;
  /// Width b of the Krylov projections on the iterative route: b = 1 is the
  /// scalar sequence u A-tilde^i v; b > 1 switches to block projections
  /// U A-tilde^i V with the sigma-basis generator (core/block_krylov.h,
  /// seq/matrix_berlekamp_massey.h), cutting the iteration count ~b x and
  /// batching every step's applies over the pool.  Falls back to 1 on the
  /// doubling route, when n <= 1, or when the field is too small for the
  /// det-by-interpolation step (characteristic < 2n + 2).
  std::size_t block_width = 1;
  /// Cooperative deadline/cancellation token (util/deadline.h), checked at
  /// the same stage boundaries as the KP_FAULT_POINT sites.  A trip aborts
  /// the run with kDeadlineExceeded/kCancelled at the stage that noticed:
  /// no further attempts, no dense fallback -- the caller stopped wanting
  /// the answer.  Not owned; must outlive the call.  nullptr = uncontrolled.
  const util::ExecControl* control = nullptr;
};

/// Outcome of one pipeline run.
template <kp::field::Field F>
struct SolveResult {
  bool ok = false;                          ///< false: singular or unlucky
  std::vector<typename F::Element> x;       ///< solution of A x = b
  typename F::Element det{};                ///< det(A) (always computed)
  std::vector<typename F::Element> charpoly_at;  ///< charpoly of A-tilde
  int attempts = 0;
  KrylovRoute route_used = KrylovRoute::kIterative;  ///< Transcript::route
  util::Status status;             ///< Ok, or the run's final failure
  std::vector<util::Diag> diags;   ///< one record per attempt (collect_diag)
  bool used_fallback = false;      ///< answer came from the dense baseline
  std::uint64_t sample_size_used = 0;  ///< |S| of the last attempt
};

/// The per-operator half of Theorem 4 (steps 1-3 and the det of step 5):
/// what prepare leaves for any number of per-right-hand-side finishes.
/// The lazy box views `a`, `f` and the ring it was prepared with, so those
/// must outlive the transcript.
template <kp::field::Field F, matrix::LinOp B>
struct Transcript {
  using E = typename F::Element;

  /// The route follows the operator and the depth goal, once for the whole
  /// run.  A dense operator under depth_optimal -- every circuit builder --
  /// takes the doubling (9): its O(log^2 n) depth is the point of Theorem
  /// 4.  Every other run iterates (8) at the requested block width: on the
  /// formed A-tilde^T when the operator is dense (3n products cost about
  /// 6n^3 operations, below the squarings' ~2n^3 log n), on the lazy
  /// composition otherwise.
  Transcript(const F& f, const B& a, const SolverOptions& opt)
      : route(matrix::box_structure(a) == matrix::BoxStructure::kDense &&
                      opt.depth_optimal
                  ? KrylovRoute::kDoubling
                  : KrylovRoute::kIterative),
        block_width(route == KrylovRoute::kIterative
                        ? detail::effective_block_width(f, opt.block_width,
                                                        a.dim())
                        : 1),
        materialized(route == KrylovRoute::kIterative &&
                     matrix::box_structure(a) == matrix::BoxStructure::kDense) {
  }

  KrylovRoute route;        ///< kDoubling or kIterative
  std::size_t block_width;  ///< b of the iterative route (1: scalar)
  /// Iterative route on a dense operator: A-tilde is formed each attempt
  /// and iterated on as `dense` rather than composed lazily.
  bool materialized;
  std::optional<Preconditioner<F>> pre;    ///< H, D
  /// Doubling route only: powers[j] = A-tilde^{2^j} for the j an n-column
  /// Krylov block multiplies by (powers[0] is A-tilde, the top one
  /// A-tilde^P with P >= n/2), squared once in prepare for the projection
  /// and shared by every finish.  ceil(log2 n) n x n matrices: about 4 MiB
  /// at n = 256 with 8-byte elements.
  std::vector<matrix::Matrix<F>> powers;
  /// Materialized iterative route: A-tilde stored transposed, 0.5 MiB at
  /// n = 256.  Its products are row-vector products (TransposedDenseBox).
  std::optional<matrix::TransposedDenseBox<F>> dense;
  std::optional<matrix::PreconditionedBox<F, B>> box;  ///< lazy A-tilde
  std::vector<E> g;  ///< charpoly of A-tilde
  E det{};           ///< det(A)

  /// Calls fn with the iterative route's operator A-tilde: `dense` when
  /// materialized, the lazy `box` otherwise.
  template <class Fn>
  decltype(auto) with_operator(Fn&& fn) const {
    if (materialized) return fn(*dense);
    return fn(*box);
  }
};

namespace detail {

/// Steps 3-4a of one attempt: from the projected sequence a_0..a_{2n-1} of
/// the preconditioned operator, recover the generator (monic, degree n,
/// g(0) != 0).  By Lemma 1 it is the solution of T y = (a_n..a_{2n-1}),
/// T = Toeplitz(a_0..a_{2n-2}).  By default Berlekamp-Massey finds it in
/// O(n^2): its shortest generator of the 2n terms has degree n exactly when
/// det(T) != 0, and is then Theorem 3's solution (a length-n recurrence
/// through 2n terms is unique).  Under depth_optimal -- every circuit
/// builder -- the solve goes through Theorem 3, whose depth is
/// poly-logarithmic.  The two distinguishable failures map onto the
/// taxonomy:
///   det(T) = 0  -> the projection lost information (deg f_u < n, Lemma 2):
///                  kDegenerateProjection, re-draw u, v;
///   g(0) = 0    -> A-tilde is singular (A itself, or an unlucky H/D):
///                  kZeroConstantTerm, re-draw H, D.
template <kp::field::Field F>
util::Status generator_from_sequence_status(
    const F& f, const std::vector<typename F::Element>& seq, std::size_t n,
    const SolverOptions& opt, std::vector<typename F::Element>& g_out) {
  auto degenerate = [] {
    return util::Status::Fail(util::FailureKind::kDegenerateProjection,
                              util::Stage::kNewtonToeplitz,
                              "det(T) = 0: deg f_u < n");
  };
  if (KP_FAULT_POINT(util::Stage::kNewtonToeplitz)) {
    return util::Status::Injected(util::FailureKind::kDegenerateProjection,
                                  util::Stage::kNewtonToeplitz);
  }
  std::vector<typename F::Element> g;
  if (opt.depth_optimal) {
    // Cayley-Hamilton on T through a doubling Krylov block on the dense T,
    // as the paper does ("Again from (9) we deduce ..."): depth O(log^2 n).
    const auto t = matrix::Toeplitz<F>::from_sequence(n, seq);
    const std::vector<typename F::Element> rhs(
        seq.begin() + static_cast<std::ptrdiff_t>(n), seq.end());
    const auto p = seq::toeplitz_charpoly(f, t, opt.newton);
    if (f.is_zero(p[0])) return degenerate();
    const auto q = solution_combination(f, p);
    const auto block = krylov_block(f, t.to_dense(f), rhs, n, opt.matmul);
    const auto y = krylov_combine(f, block, q);
    // y = (c_{n-1}, ..., c_0); g = x^n - c_{n-1} x^{n-1} - ... - c_0.
    g.assign(n + 1, f.zero());
    g[n] = f.one();
    for (std::size_t i = 0; i < n; ++i) g[n - 1 - i] = f.neg(y[i]);
  } else {
    g = seq::berlekamp_massey(f, seq);
    if (KP_FAULT_POINT(util::Stage::kNewtonToeplitz) || g.size() != n + 1) {
      return degenerate();
    }
  }
  util::Status st = constant_term_status(f, g, "g(0) = 0: A-tilde singular");
  if (st.ok()) g_out = std::move(g);
  return st;
}

/// Dense A-tilde for the doubling and materialized routes: the O(n^2
/// polylog) Hankel-product formation when the box exposes its dense matrix,
/// otherwise n black-box products (identical values either way -- exact
/// arithmetic).
template <kp::field::Field F, matrix::LinOp B>
matrix::Matrix<F> dense_preconditioned(const F& f,
                                       const kp::poly::PolyRing<F>& ring,
                                       const B& a, const Preconditioner<F>& pre) {
  if constexpr (requires {
                  { a.matrix() } -> std::convertible_to<const matrix::Matrix<F>&>;
                }) {
    return pre.apply_dense(f, ring, a.matrix());
  } else {
    return matrix::materialize_dense(f, pre.box(f, ring, a));
  }
}

/// The degraded route: materialize A and settle the outcome with Gaussian
/// elimination.  Deterministic, O(n^3) -- the price of certainty when the
/// randomized attempts were stopped (op budget) or exhausted
/// (dense_fallback); also the only path that PROVES kSingularInput.
template <kp::field::Field F, matrix::LinOp B>
void dense_fallback_run(const F& f, const B& a,
                        const std::vector<typename F::Element>* rhs,
                        SolveResult<F>& res) {
  res.used_fallback = true;
  const matrix::Matrix<F>& dense = [&]() -> matrix::Matrix<F> {
    if constexpr (requires {
                    { a.matrix() } -> std::convertible_to<const matrix::Matrix<F>&>;
                  }) {
      return a.matrix();
    } else {
      return matrix::materialize_dense(f, a);
    }
  }();
  // One elimination settles both det A and x.
  const auto fac = matrix::plu_decompose(f, dense);
  res.det = fac.det;
  if (f.is_zero(res.det)) {
    res.ok = false;
    res.status = util::Status::Fail(util::FailureKind::kSingularInput,
                                    util::Stage::kSolveFinish,
                                    "Gaussian elimination: det(A) = 0");
    return;
  }
  if (rhs) res.x = matrix::solve_plu(f, fac, *rhs);
  res.charpoly_at.clear();  // the baseline route does not produce one
  res.ok = true;
  res.status = util::Status::Ok();
}

/// The per-operator half of one Theorem-4 attempt: draw -> precondition ->
/// projection -> generator -> det(H D), leaving the transcript `t` ready for
/// any number of right-hand-side finishes.
template <kp::field::Field F, matrix::LinOp B>
util::Status prepare_attempt(const F& f, const kp::poly::PolyRing<F>& ring,
                             const B& a, const SolverOptions& opt,
                             Attempt& at, Transcript<F, B>& t) {
  using E = typename F::Element;
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  const std::size_t n = a.dim();
  const std::uint64_t s = at.sample_size();

  // Deadline/cancellation checks share the fault-point boundaries: one at
  // the draw, one after the Krylov work, one before verification.
  if (Status ctl = util::ExecControl::check(opt.control, Stage::kDraw);
      !ctl.ok()) {
    return ctl;
  }
  if (KP_FAULT_POINT(Stage::kDraw)) {
    return Status::Injected(FailureKind::kInjectedFault, Stage::kDraw);
  }
  at.draw();
  if (at.redraws().precondition) {
    kp::util::Prng r{at.precondition_seed()};
    t.pre = Preconditioner<F>::draw(f, n, r, s);
  }
  // Proactive Theorem-2 check: a zero diagonal entry makes D -- hence
  // A-tilde -- singular; catch it before spending the Krylov work.
  if (KP_FAULT_POINT(Stage::kPrecondition)) {
    return Status::Injected(FailureKind::kSingularPrecondition,
                            Stage::kPrecondition);
  }
  for (const auto& d : t.pre->diagonal.entries()) {
    if (f.is_zero(d)) {
      return Status::Fail(FailureKind::kSingularPrecondition,
                          Stage::kPrecondition,
                          "zero diagonal entry: det(D) = 0");
    }
  }

  // A kept projection replays its recorded seed bit-identically, so a
  // redraw targets only the stream the failure implicated.
  kp::util::Prng r{at.projection_seed()};
  if (t.route == KrylovRoute::kDoubling) {
    t.powers = krylov_powers(f, dense_preconditioned(f, ring, a, *t.pre), n,
                             opt.matmul);
  } else if (t.materialized) {
    auto at = dense_preconditioned(f, ring, a, *t.pre);
    matrix::transpose_in_place(at);
    t.dense.emplace(f, std::move(at));
  } else {
    t.box.emplace(f, ring, a, t.pre->hankel, t.pre->diagonal);
  }
  if (t.block_width > 1) {
    // Block route: ~2n/bw batched block applies feeding the sigma-basis.
    auto g_or = t.with_operator([&](const auto& op) {
      return block_charpoly_candidate(f, op, t.block_width, r, s);
    });
    if (!g_or.ok()) return g_or.status();
    t.g = std::move(g_or).value();
    if (t.g.size() != n + 1) {
      return Status::Fail(FailureKind::kDegenerateProjection,
                          Stage::kBlockGenerator,
                          "deg det G != n: generator misses charpoly");
    }
    if (Status gst = constant_term_status(f, t.g, "g(0) = 0: A-tilde singular");
        !gst.ok()) {
      return gst;
    }
  } else {
    std::vector<E> u(n), v(n);
    for (auto& e : u) e = f.sample(r, s);
    for (auto& e : v) e = f.sample(r, s);
    // a_i = u A-tilde^i v by doubling (9), or by 2n products (8) with
    // A-tilde.
    std::vector<E> seq;
    if (t.route == KrylovRoute::kDoubling) {
      seq = krylov_sequence_doubling(f, t.powers, u, v, 2 * n, opt.matmul);
    } else {
      seq = t.with_operator([&](const auto& op) {
        return matrix::krylov_sequence_iterative(f, op, u, v, 2 * n);
      });
    }
    if (KP_FAULT_POINT(Stage::kProjection)) {
      return Status::Injected(FailureKind::kDegenerateProjection,
                              Stage::kProjection);
    }
    Status gst = generator_from_sequence_status(f, seq, n, opt, t.g);
    if (!gst.ok()) return gst;
  }

  if (Status ctl = util::ExecControl::check(opt.control, Stage::kSolveFinish);
      !ctl.ok()) {
    return ctl;
  }
  // det(A-tilde) = (-1)^n g(0); divide out the preconditioner.  det(H D)
  // can only vanish on an unlucky draw (g(0) != 0 already rules out the
  // composite), but the zero check guards the division regardless.
  const auto det_hd = t.pre->det(f, opt.newton, opt.depth_optimal);
  if (f.is_zero(det_hd)) {
    return Status::Fail(FailureKind::kSingularPrecondition,
                        Stage::kPrecondition, "det(H D) = 0");
  }
  const auto det_at = (n % 2 == 0) ? t.g[0] : f.neg(t.g[0]);
  t.det = f.div(det_at, det_hd);
  return Status::Ok();
}

/// One right-hand side's outcome of finish_many.
template <kp::field::Field F>
struct FinishedRhs {
  util::Status status;
  std::vector<typename F::Element> x;  ///< the solution; valid iff status.ok()
};

/// The per-right-hand-side half, for k columns through one prepared
/// transcript: the Cayley-Hamilton finish x-tilde = A-tilde^{-1} b, then
/// x = H D x-tilde and (opt.verify) the Las Vegas check A x = b.
///
///   * q = solution_combination(g) once per call.  The doubling route
///     combines each column's n-column Krylov block; the iterative route
///     (lazy or materialized) advances all k columns through one batched
///     recurrence (combine_powers), checking opt.control every 16 steps at
///     kSolveFinish.  A control trip fails every column.
///   * Per column, in order: the kSolveFinish fault site, unpreconditioning,
///     then (opt.verify) the column's own control check at kVerify (its
///     member_controls entry when non-null, else opt.control) and the
///     kVerify fault site.
///   * The columns still live are verified with ONE batched apply of A.
template <kp::field::Field F, matrix::LinOp B>
std::vector<FinishedRhs<F>> finish_many(
    const F& f, const kp::poly::PolyRing<F>& ring, const B& a,
    const Transcript<F, B>& t,
    const std::vector<const std::vector<typename F::Element>*>& rhs,
    const SolverOptions& opt,
    const std::vector<const util::ExecControl*>* member_controls = nullptr) {
  using E = typename F::Element;
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  const std::size_t k = rhs.size();
  std::vector<FinishedRhs<F>> out(k);
  const auto q = solution_combination(f, t.g);
  std::vector<std::vector<E>> xt;
  if (t.route == KrylovRoute::kDoubling) {
    for (const auto* b : rhs) {
      xt.push_back(krylov_combine(
          f, krylov_block(f, t.powers, *b, a.dim(), opt.matmul), q));
    }
  } else if (Status st = t.with_operator([&](const auto& op) {
               return combine_powers(f, op, q, rhs, opt.control, xt);
             });
             !st.ok()) {
    for (auto& o : out) o.status = st;
    return out;
  }

  std::vector<std::size_t> live;
  std::vector<const std::vector<E>*> live_x;
  for (std::size_t c = 0; c < k; ++c) {
    if (KP_FAULT_POINT(Stage::kSolveFinish)) {
      out[c].status =
          Status::Injected(FailureKind::kVerifyMismatch, Stage::kSolveFinish);
      continue;
    }
    out[c].x = t.pre->unprecondition(f, ring, xt[c]);
    if (opt.verify) {
      const util::ExecControl* member =
          member_controls != nullptr ? (*member_controls)[c] : nullptr;
      if (Status ctl = util::ExecControl::check(member ? member : opt.control,
                                                Stage::kVerify);
          !ctl.ok()) {
        out[c].status = ctl;
        continue;
      }
      if (KP_FAULT_POINT(Stage::kVerify)) {
        out[c].status =
            Status::Injected(FailureKind::kVerifyMismatch, Stage::kVerify);
        continue;
      }
    }
    live.push_back(c);
    live_x.push_back(&out[c].x);
  }
  if (!opt.verify) return out;  // live columns already carry Ok
  const auto ax = matrix::apply_columns(a, live_x);
  for (std::size_t m = 0; m < live.size(); ++m) {
    if (ax[m] != *rhs[live[m]]) {
      out[live[m]].status = Status::Fail(FailureKind::kVerifyMismatch,
                                         Stage::kVerify, "A x != b");
    }
  }
  return out;
}

/// The Las Vegas knobs of a Theorem-4 run over an n-dimensional operator.
inline LasVegasOptions las_vegas_options(const SolverOptions& opt,
                                         std::size_t n,
                                         std::optional<std::size_t> rhs_dim) {
  return {n, rhs_dim, opt.max_attempts, opt.sample_size,
          opt.op_budget_per_attempt};
}

/// kp_solve (rhs != nullptr) is prepare + finish in one attempt, so a verify
/// mismatch is retried like any other failure; kp_det (rhs == nullptr) is
/// prepare alone.
template <kp::field::Field F, matrix::LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
SolveResult<F> theorem4_run(const F& f, const B& a,
                            const std::vector<typename F::Element>* rhs,
                            kp::util::Prng& prng, const SolverOptions& opt) {
  using util::FailureKind;
  using util::Status;

  SolveResult<F> res;
  const std::size_t n = a.dim();
  kp::poly::PolyRing<F> ring(f);
  Transcript<F, B> t(f, a, opt);
  std::vector<typename F::Element> x;
  const LasVegasRun run = run_las_vegas(
      prng,
      las_vegas_options(opt, n,
                        rhs ? std::optional<std::size_t>(rhs->size())
                            : std::nullopt),
      opt.collect_diag ? &res.diags : nullptr, [&](Attempt& at) {
        Status st = prepare_attempt(f, ring, a, opt, at, t);
        if (!st.ok() || !rhs) return st;
        auto fin = finish_many(f, ring, a, t, {rhs}, opt);
        x = std::move(fin[0].x);
        return fin[0].status;
      });
  res.status = run.status;
  res.attempts = run.attempts;
  if (run.attempts == 0) return res;  // rejected at the entry check
  res.route_used = t.route;
  res.sample_size_used = run.sample_size;
  if (run.status.ok()) {
    res.ok = true;
    res.x = std::move(x);
    res.det = t.det;
    res.charpoly_at = std::move(t.g);
    return res;
  }
  if (util::is_control_failure(run.status.kind())) return res;

  // Exhausted (or budget-stopped).  When the sample set could never carry
  // the est.-(2) bound, say so: the caller should route through the
  // section-5 field_lift extension (kp_solve_adaptive does).
  const bool budget = run.status.kind() == FailureKind::kOpBudgetExhausted;
  if (!budget && n < (std::uint64_t{1} << 30) &&
      opt.sample_size < 3 * n * n) {
    res.status = Status::Fail(
        FailureKind::kSampleSetTooSmall, util::Stage::kDraw,
        "card(S) < 3 n^2: use the section-5 extension lift");
  }
  if (budget || opt.dense_fallback) dense_fallback_run(f, a, rhs, res);
  return res;
}

}  // namespace detail

/// Solves A x = b (and computes det A) with the Theorem-4 pipeline, for any
/// black-box operator A.
template <kp::field::Field F, matrix::LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
SolveResult<F> kp_solve(const F& f, const B& a,
                        const std::vector<typename F::Element>& b,
                        kp::util::Prng& prng, SolverOptions opt = {}) {
  return detail::theorem4_run(f, a, &b, prng, opt);
}

/// Determinant only (same pipeline, no right-hand side).
template <kp::field::Field F, matrix::LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
SolveResult<F> kp_det(const F& f, const B& a, kp::util::Prng& prng,
                      SolverOptions opt = {}) {
  return detail::theorem4_run<F, B>(f, a, nullptr, prng, opt);
}

/// Dense-matrix adapter: existing call sites keep their signature; the
/// matrix is wrapped in a DenseViewBox, so the run iterates on the formed
/// A-tilde^T (doubling under depth_optimal).
template <kp::field::Field F>
SolveResult<F> kp_solve(const F& f, const matrix::Matrix<F>& a,
                        const std::vector<typename F::Element>& b,
                        kp::util::Prng& prng, SolverOptions opt = {}) {
  if (!a.is_square()) {
    SolveResult<F> res;
    res.status = util::Status::Fail(util::FailureKind::kInvalidArgument,
                                    util::Stage::kNone, "A must be square");
    return res;
  }
  const matrix::DenseViewBox<F> box(f, a);
  return kp_solve(f, box, b, prng, opt);
}

/// Dense-matrix adapter for the determinant.
template <kp::field::Field F>
SolveResult<F> kp_det(const F& f, const matrix::Matrix<F>& a,
                      kp::util::Prng& prng, SolverOptions opt = {}) {
  if (!a.is_square()) {
    SolveResult<F> res;
    res.status = util::Status::Fail(util::FailureKind::kInvalidArgument,
                                    util::Stage::kNone, "A must be square");
    return res;
  }
  const matrix::DenseViewBox<F> box(f, a);
  return kp_det(f, box, prng, opt);
}

}  // namespace kp::core
