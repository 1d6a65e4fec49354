// Solver sessions: register an operator once, stream right-hand sides.
//
// The Theorem-4 pipeline splits naturally into a per-OPERATOR phase -- draw
// the Theorem-2 preconditioner, run the Krylov projection, recover the
// characteristic polynomial g of A-tilde = A H D -- and a per-RHS phase: the
// Cayley-Hamilton finish x-tilde = -(1/g_0) sum_j g_{j+1} A-tilde^j b, one
// unpreconditioning, one Las Vegas verification.  A Session pins everything
// the first phase produced:
//
//   * ONE PreconditionedBox instance, so the Hankel symbol spectrum and any
//     TransformedPoly caches inside it stay warm across every solve (the
//     box holds H and D by value; copying it would drop the cached spectra,
//     which is why the session is immovable and hands out batch solves
//     rather than the box).  A dense operator pins the formed A-tilde
//     instead, stored transposed, and every solve iterates on it with
//     row-vector products (under depth_optimal: the doubling squares);
//   * the Transcript of kp_solve's prepare (core/solver.h): H, D, the
//     charpoly g and det(A); the Diag seeds that drew it make a solve
//     failure replayable in isolation;
//   * for Q (RationalSession below), the CRT prime set and shard transcript
//     a previous solve certified, warm-starting the next one.
//
// The second phase is BATCHED and is kp_solve's own finish: solve_many hands
// all pending right-hand sides to detail::finish_many, which advances them
// through the annihilator recurrence together (apply_columns, so the
// operator's apply_many / shared-spectrum paths fire once per step for the
// whole batch) and verifies them in one batched apply.  The session adds
// only policy on top.  Per-column failures stay per-column: a verify
// mismatch re-draws the transcript and retries only the failed columns,
// under a bounded retry budget with exponential backoff; repeated
// mismatches open the session's circuit breaker (kSessionQuarantined) so a
// poisoned session fails fast instead of burning pool time.  Cooperative
// deadlines/cancellation (util/deadline.h) are checked at the same
// boundaries the one-shot pipeline checks them.
//
// Sessions are NOT thread-safe: the service layer (core/service.h) owns the
// locking and the cross-request coalescing; a session is the single-owner
// execution object underneath it.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/crt_shard.h"
#include "core/preconditioners.h"
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
  /// Pipeline knobs for the prepare phase (sample size, attempts, block
  /// width...).
  /// `control` on it is ignored -- callers pass controls per call.
  SolverOptions solver;
  /// Re-draws of the pinned transcript one solve_many call may spend on
  /// verify mismatches before giving up on the still-failing columns.
  int retry_budget = 3;
  /// Base of the exponential backoff between those re-draws (doubling per
  /// retry, capped at 100x base).  Zero disables sleeping -- tests and
  /// deterministic drivers want retries without wall-clock coupling.
  std::chrono::nanoseconds backoff_base{0};
  /// Consecutive solve-level verify mismatches that open the circuit
  /// breaker.  A quarantined session fails every request fast with
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
  int transcript_redraws = 0;         ///< re-prepares this call performed
};

/// A registered operator with its pinned pipeline state.  Immovable: the
/// PreconditionedBox holds a pointer to the session's own AnyBox member.
template <kp::field::Field F>
class Session {
 public:
  using E = typename F::Element;

  Session(const F& f, matrix::AnyBox<F> a, std::uint64_t seed,
          SessionOptions opt = {})
      : f_(f),
        ring_(f),
        a_(std::move(a)),
        n_(a_.dim()),
        opt_(opt),
        prng_(seed) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::size_t dim() const { return n_; }
  bool prepared() const { return prepared_; }
  bool quarantined() const { return quarantined_; }
  const util::Diag& quarantine_diag() const { return quarantine_diag_; }
  int verify_mismatch_streak() const { return mismatch_streak_; }
  std::uint64_t prepares() const { return prepares_; }
  std::uint64_t solves_completed() const { return solves_completed_; }
  /// det(A) from the pinned transcript (valid once prepared()).
  E det() const { return t_ ? t_->det : E{}; }
  /// The pinned transcript: route, block width, H, D, g (valid once
  /// prepared()).
  const Transcript<F, matrix::AnyBox<F>>& transcript() const { return *t_; }

  /// Closes the circuit breaker and forces a fresh transcript: the operator
  /// owner vouched for the session again (e.g. after fixing a faulty
  /// backend).  The mismatch streak restarts from zero.
  void reset_quarantine() {
    quarantined_ = false;
    mismatch_streak_ = 0;
    prepared_ = false;
  }

  /// Phase 1: run kp_solve's per-operator prepare (detail::prepare_attempt)
  /// and pin the resulting Transcript, on kp_solve's own route.  A sparse
  /// or structured operator's box stays lazy, so its cached spectra stay
  /// warm; a dense one iterates on A-tilde^T, formed once per attempt, or
  /// keeps the doubling squares under depth_optimal.  Same Las Vegas loop
  /// as the one-shot solver: stage-targeted redraws, |S| doubling on full
  /// restarts, the block route when solver.block_width > 1.  Also detects
  /// singular operators: g(0) = 0 on every attempt surfaces as the usual
  /// kZeroConstantTerm failure and the dense path can prove kSingularInput.
  util::Status prepare(const util::ExecControl* control = nullptr) {
    prepared_ = false;
    SolverOptions opt = opt_.solver;
    opt.control = control;
    t_.emplace(f_, a_, opt);
    // Each prepare call draws from a fresh fork, so a re-prepare after a
    // verify mismatch gets a new transcript.
    kp::util::Prng draw = prng_.fork(0x73657373696f6e00ULL +
                                     static_cast<std::uint64_t>(++transcript_serial_));
    const std::size_t before = prepare_diags_.size();
    const LasVegasRun run = run_las_vegas(
        draw, detail::las_vegas_options(opt, n_, std::nullopt),
        &prepare_diags_, [&](Attempt& at) {
          return detail::prepare_attempt(f_, ring_, a_, opt, at, *t_);
        });
    prepares_ += prepare_diags_.size() - before;
    if (!run.status.ok()) return run.status;
    prepared_ = true;
    return run.status;
  }

  /// Diag records of every prepare attempt this session ever ran.
  const std::vector<util::Diag>& prepare_diags() const {
    return prepare_diags_;
  }

  /// Phase 2: solve A x_k = b_k for a batch of right-hand sides through the
  /// pinned transcript.  `control` bounds the whole batch (the service
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

      // The coalesced finish (detail::finish_many): one batched recurrence
      // and one batched verify through the ORIGINAL operator, so a wrong
      // transcript can never leak a wrong answer (Las Vegas).
      std::vector<const std::vector<E>*> cols;
      std::vector<const util::ExecControl*> members;
      for (const std::size_t k : pending) {
        cols.push_back(rhs[k]);
        members.push_back(member_controls != nullptr && k < member_controls->size()
                              ? (*member_controls)[k]
                              : nullptr);
      }
      SolverOptions opt = opt_.solver;
      opt.verify = true;
      opt.control = control;
      auto fin = detail::finish_many(f_, ring_, a_, *t_, cols, opt, &members);
      std::vector<std::size_t> mismatched;
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

      if (mismatched.empty()) return out;

      // Verify mismatches: count the streak toward quarantine, then spend
      // the retry budget on a fresh transcript for ONLY the failed columns.
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
      backoff(redraws, control);
      ++redraws;
      ++out.transcript_redraws;
      prepared_ = false;  // force a fresh transcript on the next loop pass
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
  /// Exponential backoff before transcript redraw r (0-based), bounded by
  /// the control deadline so a backoff never sleeps past the point where
  /// the caller stopped caring.
  void backoff(int r, const util::ExecControl* control) const {
    if (opt_.backoff_base.count() <= 0) return;
    auto d = opt_.backoff_base * (std::int64_t{1} << (r < 7 ? r : 7));
    const auto cap = opt_.backoff_base * 100;
    if (d > cap) d = cap;
    if (control != nullptr && control->deadline.has_deadline()) {
      const auto left = control->deadline.remaining();
      if (left <= std::chrono::nanoseconds::zero()) return;
      if (d > left) d = std::chrono::duration_cast<std::chrono::nanoseconds>(left);
    }
    std::this_thread::sleep_for(d);
  }

  F f_;
  kp::poly::PolyRing<F> ring_;
  matrix::AnyBox<F> a_;
  std::size_t n_;
  SessionOptions opt_;
  kp::util::Prng prng_;
  std::uint64_t transcript_serial_ = 0;

  // The pinned transcript; its box views a_ and ring_.
  std::optional<Transcript<F, matrix::AnyBox<F>>> t_;
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
