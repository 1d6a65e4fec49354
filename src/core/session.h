// Solver sessions: register an operator once, stream right-hand sides.
//
// Solving A x = b needs only a polynomial that annihilates A, and A's own
// minimal generator m serves (the paper's equation (8) with Wiedemann's
// Berlekamp-Massey step, section 2): x = -(1/m_0) sum_j m_{j+1} A^j b.  So
// a session splits the work into a per-OPERATOR phase and a per-RHS phase,
// and pins what the first one produced:
//
//   * m, drawn by prepare in a projection-only Las Vegas run through the
//     scalar generator draw the Wiedemann solve runs too
//     (detail::draw_generator: 2n products with A, then Berlekamp-Massey).
//     Its u and v are wiedemann_minpoly's draws, so an attempt's Diag seed
//     replays its m in isolation.  m(0) = 0 proves A singular;
//   * for Q (RationalSession below), the CRT prime set and shard transcript
//     a previous solve certified, warm-starting the next one.
//
// det(A) is no part of serving: det() runs kp_det (core/solver.h, the
// Theorem-4 pipeline with its Theorem-2 preconditioner) when asked.
//
// The second phase is BATCHED: solve_many advances all pending right-hand
// sides through m's recurrence on A together (combine_powers, so the
// operator's apply_many path fires once per step for the whole batch), deg
// m - 1 products with A, and hands the candidates to detail::verify_columns,
// the per-column tail kp_solve's finish ends in too: ONE batched
// verification A x = b.  The session adds only policy on top.  The verify
// keeps the route Las Vegas: a deficient m (an unlucky projection) shows up
// as a per-column verify mismatch, which re-draws m and retries only the
// failed columns, under a bounded retry budget; consecutive mismatching
// rounds open the session's circuit breaker
// (kSessionQuarantined) so a poisoned session fails fast instead of burning
// pool time.  Cooperative deadlines/cancellation (util/deadline.h) are
// checked at the same boundaries the one-shot pipeline checks them.
//
// Sessions are NOT thread-safe: the service layer (core/service.h) owns the
// locking and the cross-request coalescing; a session is the single-owner
// execution object underneath it.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/crt_shard.h"
#include "core/solver.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp::core {

/// How far a request's execution was degraded from the preferred route.
enum class DegradationLevel : std::uint8_t {
  kBatched = 0,        ///< coalesced multi-RHS annihilator finish
  kSingleRhs = 1,      ///< solo retry after a batch-level failure
  kDenseBaseline = 2,  ///< deterministic Gaussian elimination settle
};

inline const char* to_string(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kBatched: return "batched";
    case DegradationLevel::kSingleRhs: return "single-rhs";
    case DegradationLevel::kDenseBaseline: return "dense-baseline";
  }
  return "unknown";
}

/// Per-session knobs (embedded in ServiceConfig for service-made sessions).
struct SessionOptions {
  /// sample_size, max_attempts and op_budget_per_attempt drive prepare's
  /// generator draw, whose |S| stays fixed across attempts (kp_det doubles
  /// it on full restarts); all of it drives det()'s kp_det run.  `control`
  /// on it is ignored -- callers pass controls per call.
  SolverOptions solver;
  /// Re-draws of the pinned generator one solve_many call may spend on
  /// verify mismatches before giving up on the still-failing columns.
  int retry_budget = 3;
  /// Consecutive solve-level verify mismatches that open the circuit
  /// breaker: each solve_many round with a mismatching column adds one, a
  /// round that verifies a column with none mismatching restarts the count.
  /// A quarantined session fails every request fast with
  /// kSessionQuarantined until reset_quarantine() is called.
  int quarantine_threshold = 3;
};

/// One right-hand side's outcome within a session batch.
template <kp::field::Field F>
struct SessionItem {
  util::Status status;
  std::vector<typename F::Element> x;
  DegradationLevel level = DegradationLevel::kBatched;
};

/// Outcome of one solve_many call.
template <kp::field::Field F>
struct SessionBatchResult {
  std::vector<SessionItem<F>> items;  ///< one per input column, same order
  std::vector<util::Diag> diags;      ///< prepare/retry records of this call
  int transcript_redraws = 0;         ///< re-prepares (fresh m) this call performed
};

/// A registered operator with its pinned minimal generator.
template <kp::field::Field F>
class Session {
 public:
  using E = typename F::Element;

  Session(const F& f, matrix::AnyBox<F> a, std::uint64_t seed,
          SessionOptions opt = {})
      : f_(f), a_(std::move(a)), n_(a_.dim()), opt_(opt), prng_(seed) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::size_t dim() const { return n_; }
  bool prepared() const { return prepared_; }
  bool quarantined() const { return quarantined_; }
  const util::Diag& quarantine_diag() const { return quarantine_diag_; }
  int verify_mismatch_streak() const { return mismatch_streak_; }
  std::uint64_t prepares() const { return prepares_; }
  std::uint64_t solves_completed() const { return solves_completed_; }
  /// m, A's own minimal generator (valid once prepared()).
  const std::vector<E>& minimal_generator() const { return m_; }

  /// det(A) by kp_det under the session's solver options, from a stream
  /// derived from the session seed alone, so every call returns the same
  /// value; E{} when kp_det fails.  Nothing is cached: no serving path
  /// needs det(A), so the Theorem-4 work runs only here.
  E det() const {
    kp::util::Prng r = kp::util::Prng(prng_.seed()).fork(kDetStreamTag);
    SolverOptions opt = opt_.solver;
    opt.control = nullptr;
    const SolveResult<F> res = kp_det(f_, a_, r, opt);
    return res.ok ? res.det : E{};
  }

  /// Closes the circuit breaker and forces a fresh generator: the operator
  /// owner vouched for the session again (e.g. after fixing a faulty
  /// backend).  The mismatch streak restarts from zero.
  void reset_quarantine() {
    quarantined_ = false;
    mismatch_streak_ = 0;
    prepared_ = false;
  }

  /// Phase 1: draw m in a projection-only Las Vegas run (the Wiedemann
  /// solves' options: solver.sample_size and solver.max_attempts, |S|
  /// fixed, the projection re-drawn every attempt; a failed attempt over
  /// solver.op_budget_per_attempt ends the run with kOpBudgetExhausted).
  /// Each attempt is the control check at kDraw, then
  /// detail::draw_generator with no right-hand side.  m divides A's minimal
  /// polynomial, so m(0) = 0 proves A singular: a singular operator fails
  /// every attempt there, and solve_dense can prove kSingularInput.
  util::Status prepare(const util::ExecControl* control = nullptr) {
    using util::Stage;
    using util::Status;
    prepared_ = false;
    // Each prepare call draws from a fresh fork, so a re-prepare after a
    // verify mismatch gets a new generator.
    kp::util::Prng draw = prng_.fork(0x73657373696f6e00ULL +
                                     static_cast<std::uint64_t>(++prepare_serial_));
    const std::uint64_t s = opt_.solver.sample_size;
    LasVegasOptions lv =
        detail::projection_only(n_, std::nullopt, s, opt_.solver.max_attempts);
    lv.op_budget = opt_.solver.op_budget_per_attempt;
    const std::size_t before = prepare_diags_.size();
    const LasVegasRun run = run_las_vegas(
        draw, lv, &prepare_diags_, [&](Attempt& at) -> Status {
          if (Status ctl = util::ExecControl::check(control, Stage::kDraw);
              !ctl.ok()) {
            return ctl;
          }
          return detail::draw_generator(f_, a_, nullptr, at, s, m_);
        });
    prepares_ += prepare_diags_.size() - before;
    prepared_ = run.status.ok();
    return run.status;
  }

  /// Diag records of every prepare attempt this session ever ran.
  const std::vector<util::Diag>& prepare_diags() const {
    return prepare_diags_;
  }

  /// Phase 2: solve A x_k = b_k for a batch of right-hand sides through the
  /// pinned generator.  `control` bounds the whole batch (the service
  /// passes the earliest member deadline); `member_controls`, when given,
  /// carries each column's own token, checked (in place of `control`)
  /// before that column's verification so a cancelled request never claims
  /// a result.
  SessionBatchResult<F> solve_many(
      const std::vector<const std::vector<E>*>& rhs,
      const util::ExecControl* control = nullptr,
      const std::vector<const util::ExecControl*>* member_controls = nullptr) {
    using util::FailureKind;
    using util::Stage;
    using util::Status;
    SessionBatchResult<F> out;
    out.items.resize(rhs.size());

    auto fail_all_pending = [&](const std::vector<std::size_t>& pending,
                                const Status& st) {
      for (const std::size_t k : pending) out.items[k].status = st;
    };

    if (quarantined_) {
      Status st = Status::Fail(FailureKind::kSessionQuarantined,
                               Stage::kServiceAdmission,
                               "session circuit breaker open");
      for (auto& item : out.items) item.status = st;
      return out;
    }
    std::vector<std::size_t> pending;
    for (std::size_t k = 0; k < rhs.size(); ++k) {
      if (rhs[k] == nullptr || rhs[k]->size() != n_) {
        out.items[k].status =
            Status::Fail(FailureKind::kInvalidArgument, Stage::kServiceBatch,
                         "dim(b) != dim(A)");
      } else {
        pending.push_back(k);
      }
    }

    int redraws = 0;
    while (!pending.empty()) {
      if (Status ctl = util::ExecControl::check(control, Stage::kServiceBatch);
          !ctl.ok()) {
        fail_all_pending(pending, ctl);
        return out;
      }
      if (!prepared_) {
        const std::size_t before = prepare_diags_.size();
        const Status pst = prepare(control);
        out.diags.insert(out.diags.end(), prepare_diags_.begin() + before,
                         prepare_diags_.end());
        if (!pst.ok()) {
          fail_all_pending(pending, pst);
          return out;
        }
      }

      // The coalesced finish: one batched recurrence of m on A, then the
      // shared per-column tail with one batched verify through A, so a
      // deficient m can never leak a wrong answer (Las Vegas).
      std::vector<const std::vector<E>*> cols;
      std::vector<const util::ExecControl*> members;
      for (const std::size_t k : pending) {
        cols.push_back(rhs[k]);
        members.push_back(member_controls != nullptr && k < member_controls->size()
                              ? (*member_controls)[k]
                              : nullptr);
      }
      std::vector<std::vector<E>> xs;
      if (Status st = combine_powers(f_, a_, solution_combination(f_, m_), cols,
                                     control, xs);
          !st.ok()) {
        fail_all_pending(pending, st);
        return out;
      }
      SolverOptions opt = opt_.solver;
      opt.verify = true;
      opt.control = control;
      auto fin = detail::verify_columns(f_, a_, cols, std::move(xs), opt, &members);
      std::vector<std::size_t> mismatched;
      bool verified = false;
      for (std::size_t c = 0; c < pending.size(); ++c) {
        const std::size_t k = pending[c];
        const Status& st = fin[c].status;
        out.items[k].status = st;
        if (st.ok()) {
          out.items[k].x = std::move(fin[c].x);
          out.items[k].level = pending.size() > 1
                                   ? DegradationLevel::kBatched
                                   : DegradationLevel::kSingleRhs;
          ++solves_completed_;
          verified = true;
        } else if (st.kind() == FailureKind::kVerifyMismatch) {
          mismatched.push_back(k);
          util::Diag d;
          d.kind = FailureKind::kVerifyMismatch;
          d.stage = st.stage();
          d.attempt = redraws + 1;
          d.injected = st.injected();
          out.diags.push_back(d);
        }  // else a control failure: the result is dropped, no retry
      }

      if (mismatched.empty()) {
        if (verified) mismatch_streak_ = 0;  // the streak is consecutive
        return out;
      }

      // Verify mismatches: count the streak toward quarantine, then spend
      // the retry budget on a fresh m for ONLY the failed columns.
      ++mismatch_streak_;
      if (mismatch_streak_ >= opt_.quarantine_threshold) {
        quarantined_ = true;
        quarantine_diag_ = util::Diag{};
        quarantine_diag_.kind = FailureKind::kVerifyMismatch;
        quarantine_diag_.stage = Stage::kVerify;
        quarantine_diag_.attempt = mismatch_streak_;
        Status st = Status::Fail(FailureKind::kSessionQuarantined,
                                 Stage::kServiceBatch,
                                 "verify-mismatch streak tripped quarantine");
        fail_all_pending(mismatched, st);
        return out;
      }
      if (redraws >= opt_.retry_budget) return out;  // statuses already set
      ++redraws;
      ++out.transcript_redraws;
      prepared_ = false;  // force a fresh m on the next loop pass
      pending = std::move(mismatched);
    }
    return out;
  }

  /// Convenience single-RHS wrapper (degradation level kSingleRhs).
  SessionItem<F> solve_one(const std::vector<E>& b,
                           const util::ExecControl* control = nullptr) {
    std::vector<const std::vector<E>*> rhs{&b};
    auto r = solve_many(rhs, control);
    auto item = std::move(r.items.front());
    item.level = DegradationLevel::kSingleRhs;
    return item;
  }

  /// The deterministic settle path (degradation level kDenseBaseline):
  /// materialize and PLU-factor once, then O(n^2) substitution per request.
  /// Exact, no retries, proves kSingularInput; the service falls back here
  /// when the randomized route keeps failing.  A successful Las Vegas streak
  /// never pays the materialization.
  SessionItem<F> solve_dense(const std::vector<E>& b) {
    SessionItem<F> item;
    item.level = DegradationLevel::kDenseBaseline;
    if (b.size() != n_) {
      item.status = util::Status::Fail(util::FailureKind::kInvalidArgument,
                                       util::Stage::kServiceExecute,
                                       "dim(b) != dim(A)");
      return item;
    }
    if (!plu_) {
      plu_ = matrix::plu_decompose(f_, matrix::materialize_dense(f_, a_));
    }
    if (plu_->rank < n_) {
      item.status = util::Status::Fail(util::FailureKind::kSingularInput,
                                       util::Stage::kServiceExecute,
                                       "Gaussian elimination: no solution");
      return item;
    }
    item.x = matrix::solve_plu(f_, *plu_, b);
    item.status = util::Status::Ok();
    ++solves_completed_;
    return item;
  }

 private:
  /// Fork tag of det()'s stream ("kp-det").
  static constexpr std::uint64_t kDetStreamTag = 0x6b702d6465740000ULL;

  F f_;
  matrix::AnyBox<F> a_;
  std::size_t n_;
  SessionOptions opt_;
  kp::util::Prng prng_;
  std::uint64_t prepare_serial_ = 0;

  std::vector<E> m_;  ///< A's minimal generator, pinned by prepare
  bool prepared_ = false;
  std::optional<matrix::Plu<F>> plu_;  ///< lazy baseline factorization

  // Circuit breaker.
  bool quarantined_ = false;
  int mismatch_streak_ = 0;
  util::Diag quarantine_diag_;

  std::vector<util::Diag> prepare_diags_;
  std::uint64_t prepares_ = 0;
  std::uint64_t solves_completed_ = 0;
};

/// The Q-side session: pins the CRT prime set and shard transcript that the
/// first solve certified (CrtOptions::pinned_primes), so repeat solves over
/// the same operator skip the next_ntt_prime certification sweep and replay
/// the shard randomness that is already known to work for this matrix.  A
/// prime that turns bad for a new right-hand side (the row-scaled integer
/// image depends on b's denominators) is still detected and redrawn -- the
/// pin is a warm start, never a correctness assumption.
class RationalSession {
 public:
  RationalSession(const field::RationalField& f,
                  matrix::Matrix<field::RationalField> a, std::uint64_t seed,
                  CrtOptions opt = {})
      : f_(f), a_(std::move(a)), opt_(std::move(opt)), prng_(seed) {}

  CrtSolveResult solve(const std::vector<field::Rational>& b) {
    CrtSolveResult res = crt_solve(f_, a_, &b, prng_, opt_);
    if (res.ok && !res.primes.empty()) {
      opt_.pinned_primes = res.primes;
      opt_.pinned_transcript_seed = res.transcript_seed;
    }
    return res;
  }

  const std::vector<std::uint64_t>& pinned_primes() const {
    return opt_.pinned_primes;
  }
  std::uint64_t pinned_transcript_seed() const {
    return opt_.pinned_transcript_seed;
  }

 private:
  field::RationalField f_;
  matrix::Matrix<field::RationalField> a_;
  CrtOptions opt_;
  util::Prng prng_;
};

}  // namespace kp::core
