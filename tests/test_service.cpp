// Tests for the hardened service layer: util/deadline.h tokens,
// core/session.h pinned-transcript sessions, core/service.h admission /
// coalescing / degradation, and the pram::ExecutionContext shutdown
// contract the service relies on.
//
// Everything deterministic runs with dispatchers = 0 (the caller drains
// batches with run_once), so the fault matrix needs no timing assumptions;
// the threaded paths get their own tests plus a randomized soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/service.h"
#include "core/session.h"
#include "field/rational.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "pram/parallel_for.h"
#include "poly/poly_ring.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp {
namespace {

using F = field::Zp<field::kNttPrime>;
using core::DegradationLevel;
using core::ServiceConfig;
using core::Session;
using core::SessionOptions;
using core::SolverService;
using util::CancelFlag;
using util::Deadline;
using util::ExecControl;
using util::FailureKind;
using util::Stage;

F f;

/// Non-singular by construction (triangular, non-zero diagonal).
matrix::Sparse<F> make_operator(std::size_t n, std::uint64_t seed) {
  util::Prng prng(seed);
  std::vector<matrix::Sparse<F>::Entry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    auto d = f.random(prng);
    while (f.is_zero(d)) d = f.random(prng);
    entries.push_back({i, i, d});
    if (i + 1 < n) entries.push_back({i, i + 1, f.random(prng)});
    if (i + 3 < n) entries.push_back({i, i + 3, f.random(prng)});
  }
  return matrix::Sparse<F>(f, n, n, std::move(entries));
}

struct Fixture {
  matrix::Sparse<F> a;
  std::vector<std::vector<F::Element>> b;
  std::vector<std::vector<F::Element>> x;

  explicit Fixture(std::size_t n, std::size_t count = 8,
                   std::uint64_t seed = 11)
      : a(make_operator(n, seed)) {
    matrix::SparseBox<F> box(f, a);
    util::Prng prng(seed + 1);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<F::Element> xi(n);
      for (auto& e : xi) e = f.random(prng);
      b.push_back(box.apply(xi));
      x.push_back(std::move(xi));
    }
  }

  matrix::AnyBox<F> box() const {
    return matrix::AnyBox<F>(matrix::SparseBox<F>(f, a));
  }
};

// ------------------------------------------------------------------------
// util/deadline.h
// ------------------------------------------------------------------------

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::max());
}

TEST(DeadlineTest, AfterExpiresAndReportsRemaining) {
  auto d = Deadline::after(std::chrono::hours(1));
  EXPECT_TRUE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), std::chrono::minutes(59));
  auto past = Deadline::after(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining(), Deadline::Clock::duration::zero());
}

TEST(DeadlineTest, EarlierPrefersTheFiniteAndSooner) {
  const Deadline never;
  const auto soon = Deadline::after(std::chrono::seconds(1));
  const auto later = Deadline::after(std::chrono::hours(1));
  EXPECT_FALSE(Deadline::earlier(never, never).has_deadline());
  EXPECT_EQ(Deadline::earlier(never, soon).time_point(), soon.time_point());
  EXPECT_EQ(Deadline::earlier(later, soon).time_point(), soon.time_point());
}

TEST(DeadlineTest, CancelFlagIsSharedAndSticky) {
  CancelFlag inert;
  EXPECT_FALSE(inert.can_cancel());
  inert.cancel();  // no-op
  EXPECT_FALSE(inert.cancelled());

  auto flag = CancelFlag::make();
  CancelFlag copy = flag;
  EXPECT_FALSE(copy.cancelled());
  flag.cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(DeadlineTest, ExecControlReportsCancelBeforeDeadline) {
  auto cancel = CancelFlag::make();
  ExecControl ctl(Deadline::after(std::chrono::nanoseconds(-1)), cancel);
  EXPECT_EQ(ctl.check(Stage::kVerify).kind(), FailureKind::kDeadlineExceeded);
  cancel.cancel();
  const auto st = ctl.check(Stage::kVerify);
  EXPECT_EQ(st.kind(), FailureKind::kCancelled);
  EXPECT_EQ(st.stage(), Stage::kVerify);

  EXPECT_EQ(ExecControl::check(nullptr, Stage::kDraw).kind(),
            FailureKind::kNone);
  EXPECT_TRUE(util::is_control_failure(FailureKind::kDeadlineExceeded));
  EXPECT_TRUE(util::is_control_failure(FailureKind::kCancelled));
  EXPECT_TRUE(util::is_control_failure(FailureKind::kShutdown));
  EXPECT_FALSE(util::is_control_failure(FailureKind::kVerifyMismatch));
}

// ------------------------------------------------------------------------
// core/session.h
// ------------------------------------------------------------------------

TEST(SessionTest, SolveOneMatchesKnownSolution) {
  Fixture fx(24);
  Session<F> sess(f, fx.box(), 5);
  ASSERT_TRUE(sess.prepare().ok());
  EXPECT_TRUE(sess.prepared());
  EXPECT_FALSE(f.is_zero(sess.det()));
  for (int i = 0; i < 3; ++i) {
    auto item = sess.solve_one(fx.b[i]);
    ASSERT_TRUE(item.status.ok()) << item.status.message();
    EXPECT_EQ(item.x, fx.x[i]);
    EXPECT_EQ(item.level, DegradationLevel::kSingleRhs);
  }
  EXPECT_EQ(sess.solves_completed(), 3u);
  EXPECT_EQ(sess.prepares(), 1u);  // the transcript stayed pinned
}

TEST(SessionTest, SolveDenseFactorsOnceThenSubstitutes) {
  const std::size_t n = 24;
  Fixture fx(n);
  Session<F> sess(f, fx.box(), 5);
  const auto dense = fx.a.to_dense(f);
  auto first = sess.solve_dense(fx.b[0]);
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_EQ(first.x, fx.x[0]);
  EXPECT_EQ(first.level, DegradationLevel::kDenseBaseline);

  // The second request reuses the cached PLU factors: two triangular
  // substitutions, O(n^2), no elimination.
  util::OpScope scope;
  auto second = sess.solve_dense(fx.b[1]);
  const auto ops = scope.counts();
  ASSERT_TRUE(second.status.ok()) << second.status.message();
  EXPECT_EQ(second.x, *matrix::solve_gauss(f, dense, fx.b[1]));
  EXPECT_LE(ops.mul, n * n);
  EXPECT_LE(ops.add, n * n);
  EXPECT_EQ(ops.div, n);
  EXPECT_EQ(sess.solves_completed(), 2u);
}

TEST(SessionTest, SolveDenseOnSingularOperatorIsSingularInput) {
  const std::size_t n = 6;
  std::vector<matrix::Sparse<F>::Entry> entries;
  for (std::size_t i = 0; i + 1 < n; ++i) entries.push_back({i, i, 1});
  Session<F> sess(
      f, matrix::AnyBox<F>(matrix::SparseBox<F>(
             f, matrix::Sparse<F>(f, n, n, std::move(entries)))),
      5);
  const std::vector<F::Element> b(n, 1);
  for (int i = 0; i < 2; ++i) {
    const auto item = sess.solve_dense(b);
    EXPECT_EQ(item.status.kind(), FailureKind::kSingularInput) << i;
  }
  EXPECT_EQ(sess.solves_completed(), 0u);
}

TEST(SessionTest, SolveManyBatchIsExact) {
  // The sparse operator keeps the lazy box; its dense copy iterates on the
  // formed A-tilde^T, or keeps the doubling squares under depth_optimal.
  // Same seed, same draws: same det, same answers.
  Fixture fx(24);
  const matrix::AnyBox<F> dense(matrix::DenseBox<F>(f, fx.a.to_dense(f)));
  std::vector<F::Element> dets;
  for (const auto& [box, deep] : {std::pair{fx.box(), false},
                                  std::pair{dense, false},
                                  std::pair{dense, true}}) {
    SessionOptions opt;
    opt.solver.depth_optimal = deep;
    Session<F> sess(f, box, 5, opt);
    std::vector<const std::vector<F::Element>*> rhs;
    for (const auto& b : fx.b) rhs.push_back(&b);
    auto out = sess.solve_many(rhs);
    const bool is_dense = box.structure() == matrix::BoxStructure::kDense;
    EXPECT_EQ(sess.transcript().materialized, is_dense && !deep);
    EXPECT_EQ(sess.transcript().route, is_dense && deep
                                           ? core::KrylovRoute::kDoubling
                                           : core::KrylovRoute::kIterative);
    dets.push_back(sess.det());
    ASSERT_EQ(out.items.size(), fx.b.size());
    for (std::size_t i = 0; i < out.items.size(); ++i) {
      ASSERT_TRUE(out.items[i].status.ok()) << out.items[i].status.message();
      EXPECT_EQ(out.items[i].x, fx.x[i]);
      EXPECT_EQ(out.items[i].level, DegradationLevel::kBatched);
    }
  }
  EXPECT_EQ(dets[0], dets[1]);
  EXPECT_EQ(dets[0], dets[2]);
}

TEST(SessionTest, BlockWidthPreparesThroughTheBlockRoute) {
  Fixture fx(40);
  SessionOptions opt;
  opt.solver.block_width = 4;
  Session<F> sess(f, fx.box(), 5, opt);
  ASSERT_TRUE(sess.prepare().ok());
  EXPECT_EQ(sess.transcript().route, core::KrylovRoute::kIterative);
  EXPECT_EQ(sess.transcript().block_width, 4u);
  EXPECT_TRUE(f.eq(sess.det(), matrix::det_gauss(f, fx.a.to_dense(f))));
  std::vector<const std::vector<F::Element>*> rhs;
  for (const auto& b : fx.b) rhs.push_back(&b);
  auto out = sess.solve_many(rhs);
  for (std::size_t i = 0; i < out.items.size(); ++i) {
    ASSERT_TRUE(out.items[i].status.ok()) << out.items[i].status.message();
    EXPECT_EQ(out.items[i].x, fx.x[i]);
  }
  EXPECT_EQ(sess.prepares(), 1u);
}

TEST(SessionTest, NonPositiveMaxAttemptsIsRejected) {
  Fixture fx(8);
  SessionOptions opt;
  opt.solver.max_attempts = 0;
  Session<F> sess(f, fx.box(), 5, opt);
  EXPECT_EQ(sess.prepare().kind(), FailureKind::kInvalidArgument);
  EXPECT_FALSE(sess.prepared());
  EXPECT_EQ(sess.prepares(), 0u);
}

TEST(SessionTest, DimensionMismatchIsInvalidArgument) {
  Fixture fx(16);
  Session<F> sess(f, fx.box(), 5);
  std::vector<F::Element> wrong(8, f.one());
  std::vector<const std::vector<F::Element>*> rhs{&wrong, &fx.b[0]};
  auto out = sess.solve_many(rhs);
  EXPECT_EQ(out.items[0].status.kind(), FailureKind::kInvalidArgument);
  ASSERT_TRUE(out.items[1].status.ok()) << out.items[1].status.message();
  EXPECT_EQ(out.items[1].x, fx.x[0]);
}

TEST(SessionTest, ExpiredDeadlineFailsAtDrawWithoutRetries) {
  Fixture fx(16);
  Session<F> sess(f, fx.box(), 5);
  ExecControl expired(Deadline::after(std::chrono::nanoseconds(-1)));
  const auto st = sess.prepare(&expired);
  EXPECT_EQ(st.kind(), FailureKind::kDeadlineExceeded);
  EXPECT_EQ(st.stage(), Stage::kDraw);
  EXPECT_FALSE(sess.prepared());
}

TEST(SessionTest, CancelledMemberIsDroppedMidBatchOthersComplete) {
  Fixture fx(24);
  Session<F> sess(f, fx.box(), 5);
  auto cancel = CancelFlag::make();
  cancel.cancel();
  ExecControl cancelled_ctl(Deadline{}, cancel);
  ExecControl live_ctl;
  std::vector<const std::vector<F::Element>*> rhs{&fx.b[0], &fx.b[1],
                                                  &fx.b[2]};
  std::vector<const ExecControl*> members{&live_ctl, &cancelled_ctl,
                                          &live_ctl};
  auto out = sess.solve_many(rhs, nullptr, &members);
  ASSERT_TRUE(out.items[0].status.ok());
  EXPECT_EQ(out.items[0].x, fx.x[0]);
  EXPECT_EQ(out.items[1].status.kind(), FailureKind::kCancelled);
  EXPECT_TRUE(out.items[1].x.empty());
  ASSERT_TRUE(out.items[2].status.ok());
  EXPECT_EQ(out.items[2].x, fx.x[2]);
}

TEST(SessionTest, RationalSessionPinsPrimesAcrossSolves) {
  using field::BigInt;
  using field::Rational;
  field::RationalField q;
  matrix::Matrix<field::RationalField> h(3, 3, q.zero());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      h.at(i, j) =
          Rational(BigInt(1), BigInt(static_cast<std::int64_t>(i + j + 1)));
    }
  }
  core::RationalSession sess(q, h, 123);
  EXPECT_TRUE(sess.pinned_primes().empty());

  std::vector<Rational> b1{Rational(1), Rational(0), Rational(0)};
  auto r1 = sess.solve(b1);
  ASSERT_TRUE(r1.ok) << r1.status.message();
  ASSERT_FALSE(sess.pinned_primes().empty());
  const auto pinned = sess.pinned_primes();
  const auto seed = sess.pinned_transcript_seed();
  EXPECT_NE(seed, 0u);

  // Second solve must replay the pinned transcript (same primes, same
  // seed) and still be exact: x solves H x = b2.
  std::vector<Rational> b2{Rational(0), Rational(1), Rational(2)};
  auto r2 = sess.solve(b2);
  ASSERT_TRUE(r2.ok) << r2.status.message();
  EXPECT_EQ(sess.pinned_transcript_seed(), seed);
  EXPECT_GE(pinned.size(), r2.primes.size());
  for (std::size_t i = 0; i < r2.primes.size(); ++i) {
    EXPECT_EQ(r2.primes[i], pinned[i]) << i;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    Rational acc = q.zero();
    for (std::size_t j = 0; j < 3; ++j) {
      acc = q.add(acc, q.mul(h.at(i, j), r2.x[j]));
    }
    EXPECT_TRUE(q.eq(acc, b2[i])) << i;
  }
}

/// finish_many over k columns against k one-column calls through the same
/// prepared transcript, at 1, 2 and 8 workers.
template <class B>
void expect_batched_finish_matches_solo(const B& a, const Fixture& fx) {
  poly::PolyRing<F> ring(f);
  const core::SolverOptions opt;
  core::Transcript<F, B> t(f, a, opt);
  util::Prng prng(3);
  const auto run = core::run_las_vegas(
      prng, core::detail::las_vegas_options(opt, a.dim(), std::nullopt),
      nullptr, [&](core::Attempt& at) {
        return core::detail::prepare_attempt(f, ring, a, opt, at, t);
      });
  ASSERT_TRUE(run.status.ok()) << run.status.message();
  for (const unsigned workers : {1u, 2u, 8u}) {
    pram::ExecutionContext::global().set_worker_limit(workers);
    std::vector<core::detail::FinishedRhs<F>> solo;
    for (const auto& b : fx.b) {
      solo.push_back(std::move(core::detail::finish_many(f, ring, a, t, {&b}, opt)[0]));
    }
    for (const std::size_t k : {1u, 3u, 8u}) {
      std::vector<const std::vector<F::Element>*> rhs;
      for (std::size_t c = 0; c < k; ++c) rhs.push_back(&fx.b[c]);
      const auto many = core::detail::finish_many(f, ring, a, t, rhs, opt);
      ASSERT_EQ(many.size(), k);
      for (std::size_t c = 0; c < k; ++c) {
        ASSERT_TRUE(many[c].status.ok()) << many[c].status.message();
        EXPECT_EQ(many[c].status.kind(), solo[c].status.kind());
        EXPECT_EQ(many[c].x, solo[c].x) << "k=" << k << " column " << c;
        EXPECT_EQ(many[c].x, fx.x[c]);
      }
    }
  }
  pram::ExecutionContext::global().set_worker_limit(0);
}

TEST(SessionTest, FinishManyMatchesOneColumnFinishes) {
  Fixture fx(24);
  const matrix::SparseBox<F> sparse(f, fx.a);
  expect_batched_finish_matches_solo(sparse, fx);
  const matrix::Matrix<F> dense = fx.a.to_dense(f);
  const matrix::DenseViewBox<F> dense_box(f, dense);
  expect_batched_finish_matches_solo(dense_box, fx);
}

TEST(SessionTest, FinishManyControlTripFailsEveryColumnAtSolveFinish) {
  Fixture fx(24);
  Session<F> sess(f, fx.box(), 5);
  ASSERT_TRUE(sess.prepare().ok());
  poly::PolyRing<F> ring(f);
  matrix::AnyBox<F> a = fx.box();
  core::SolverOptions opt;
  ExecControl expired(Deadline::after(std::chrono::nanoseconds(-1)));
  opt.control = &expired;
  // The token trips before the first product, so `a` only supplies the
  // operator type and dimension.
  const auto out = core::detail::finish_many(
      f, ring, a, sess.transcript(), {&fx.b[0], &fx.b[1], &fx.b[2]}, opt);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& col : out) {
    EXPECT_EQ(col.status.kind(), FailureKind::kDeadlineExceeded);
    EXPECT_EQ(col.status.stage(), Stage::kSolveFinish);
  }
}

TEST(DeadlineTest, DenseDefaultRouteFinishTripsAtSolveFinish) {
  // kp_solve's own prepare and finish on a dense operator under default
  // options: the finish iterates on the formed A-tilde (no powers kept) and
  // checks the token at kSolveFinish, so an expired one fails every column
  // there and hands out no x.
  Fixture fx(40);
  const matrix::Matrix<F> dense = fx.a.to_dense(f);
  const matrix::DenseViewBox<F> a(f, dense);
  poly::PolyRing<F> ring(f);
  core::SolverOptions opt;
  core::Transcript<F, matrix::DenseViewBox<F>> t(f, a, opt);
  util::Prng prng(3);
  const auto run = core::run_las_vegas(
      prng, core::detail::las_vegas_options(opt, a.dim(), std::nullopt),
      nullptr, [&](core::Attempt& at) {
        return core::detail::prepare_attempt(f, ring, a, opt, at, t);
      });
  ASSERT_TRUE(run.status.ok()) << run.status.message();
  EXPECT_EQ(t.route, core::KrylovRoute::kIterative);
  EXPECT_TRUE(t.materialized);
  EXPECT_TRUE(t.powers.empty());
  EXPECT_FALSE(t.box.has_value());
  ExecControl expired(Deadline::after(std::chrono::nanoseconds(-1)));
  opt.control = &expired;
  const auto out =
      core::detail::finish_many(f, ring, a, t, {&fx.b[0], &fx.b[1]}, opt);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& col : out) {
    EXPECT_EQ(col.status.kind(), FailureKind::kDeadlineExceeded);
    EXPECT_EQ(col.status.stage(), Stage::kSolveFinish);
    EXPECT_TRUE(col.x.empty());
  }
  opt.control = nullptr;
  const auto ok = core::detail::finish_many(f, ring, a, t, {&fx.b[0]}, opt);
  ASSERT_TRUE(ok[0].status.ok()) << ok[0].status.message();
  EXPECT_EQ(ok[0].x, fx.x[0]);
}

#if KP_FAULT_INJECTION_ENABLED
TEST(FaultInjectionTest, SessionFinishFaultRedrawsTranscript) {
  Fixture fx(16);
  SessionOptions opt;
  opt.quarantine_threshold = 10;  // keep the breaker out of the way
  Session<F> sess(f, fx.box(), 5, opt);
  util::fault::ScopedFault fi(Stage::kSolveFinish);  // first column, once
  std::vector<const std::vector<F::Element>*> rhs{&fx.b[0], &fx.b[1],
                                                  &fx.b[2]};
  auto out = sess.solve_many(rhs);
  EXPECT_EQ(fi.fired(), 1u);
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    ASSERT_TRUE(out.items[i].status.ok()) << out.items[i].status.message();
    EXPECT_EQ(out.items[i].x, fx.x[i]);
  }
  // The faulted column was retried alone on a fresh transcript.
  EXPECT_EQ(out.items[0].level, DegradationLevel::kSingleRhs);
  EXPECT_EQ(out.items[1].level, DegradationLevel::kBatched);
  EXPECT_EQ(out.transcript_redraws, 1);
  EXPECT_EQ(sess.prepares(), 2u);
  const auto mismatch =
      std::find_if(out.diags.begin(), out.diags.end(), [](const util::Diag& d) {
        return d.kind == FailureKind::kVerifyMismatch;
      });
  ASSERT_NE(mismatch, out.diags.end());
  EXPECT_EQ(mismatch->stage, Stage::kSolveFinish);
  EXPECT_TRUE(mismatch->injected);
}

TEST(SessionTest, QuarantineTripsOnMismatchStreakAndResets) {
  Fixture fx(16);
  SessionOptions opt;
  opt.retry_budget = 5;
  opt.quarantine_threshold = 3;
  Session<F> sess(f, fx.box(), 5, opt);
  {
    util::fault::ScopedFault fi(Stage::kVerify, /*attempt=*/-1,
                                /*site_index=*/-1, /*one_shot=*/false);
    auto item = sess.solve_one(fx.b[0]);
    EXPECT_EQ(item.status.kind(), FailureKind::kSessionQuarantined);
    EXPECT_TRUE(sess.quarantined());
    EXPECT_EQ(sess.quarantine_diag().kind, FailureKind::kVerifyMismatch);
  }
  // Breaker open: fails fast even though the fault is gone.
  auto fast = sess.solve_one(fx.b[0]);
  EXPECT_EQ(fast.status.kind(), FailureKind::kSessionQuarantined);
  EXPECT_EQ(fast.status.stage(), Stage::kServiceAdmission);

  sess.reset_quarantine();
  EXPECT_FALSE(sess.quarantined());
  auto ok = sess.solve_one(fx.b[0]);
  ASSERT_TRUE(ok.status.ok()) << ok.status.message();
  EXPECT_EQ(ok.x, fx.x[0]);
}

TEST(SessionTest, ProjectionFaultRedrawsOnlyTheProjection) {
  Fixture fx(16);
  Session<F> sess(f, fx.box(), 5);
  util::fault::ScopedFault fi(Stage::kProjection, /*attempt=*/1);
  ASSERT_TRUE(sess.prepare().ok());
  EXPECT_EQ(fi.fired(), 1u);
  const auto& d = sess.prepare_diags();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].kind, FailureKind::kDegenerateProjection);
  EXPECT_TRUE(d[0].injected);
  EXPECT_TRUE(d[1].redrew_projection);
  EXPECT_FALSE(d[1].redrew_precondition);
  EXPECT_EQ(d[1].precondition_seed, d[0].precondition_seed);
  EXPECT_NE(d[1].projection_seed, d[0].projection_seed);
  EXPECT_EQ(d[1].sample_size, d[0].sample_size);
  auto item = sess.solve_one(fx.b[0]);
  ASSERT_TRUE(item.status.ok()) << item.status.message();
  EXPECT_EQ(item.x, fx.x[0]);
}

TEST(SessionTest, RetryBudgetSurvivesTransientVerifyFaults) {
  Fixture fx(16);
  SessionOptions opt;
  opt.retry_budget = 3;
  opt.quarantine_threshold = 10;  // keep the breaker out of the way
  Session<F> sess(f, fx.box(), 5, opt);
  util::fault::ScopedFault fi(Stage::kVerify, /*attempt=*/-1,
                              /*site_index=*/-1, /*one_shot=*/true);
  auto item = sess.solve_one(fx.b[0]);
  ASSERT_TRUE(item.status.ok()) << item.status.message();
  EXPECT_EQ(item.x, fx.x[0]);
  EXPECT_EQ(fi.fired(), 1u);
  EXPECT_GE(sess.prepares(), 2u);  // the redraw re-prepared the transcript
}
#endif  // KP_FAULT_INJECTION_ENABLED

// ------------------------------------------------------------------------
// core/service.h -- deterministic run_once mode
// ------------------------------------------------------------------------

ServiceConfig manual_config() {
  ServiceConfig cfg;
  cfg.dispatchers = 0;
  cfg.queue_capacity = 8;
  cfg.max_batch = 4;
  return cfg;
}

TEST(ServiceTest, SolvesExactlyAtEveryWorkerCount) {
  Fixture fx(24);
  for (const unsigned workers : {1u, 2u, 8u}) {
    pram::ExecutionContext::global().set_worker_limit(workers);
    SolverService<F> svc(f, manual_config());
    auto sid = svc.register_operator(fx.box(), 7);
    ASSERT_TRUE(sid.ok()) << sid.status().message();
    auto fut = svc.submit(sid.value(), fx.b[0]);
    EXPECT_EQ(svc.run_once(), 1u);
    auto r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.x, fx.x[0]);
    EXPECT_EQ(r.telemetry.level, DegradationLevel::kSingleRhs);
    EXPECT_EQ(r.telemetry.batch_size, 1u);
  }
  pram::ExecutionContext::global().set_worker_limit(0);
}

TEST(ServiceTest, CoalescesSameSessionRequestsIntoOneBatch) {
  Fixture fx(24);
  SolverService<F> svc(f, manual_config());
  auto sid = svc.register_operator(fx.box(), 7);
  ASSERT_TRUE(sid.ok());
  std::vector<std::future<SolverService<F>::Result>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(svc.submit(sid.value(), fx.b[i]));
  EXPECT_EQ(svc.run_once(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto r = futs[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.x, fx.x[i]);
    EXPECT_EQ(r.telemetry.batch_size, 3u);
    EXPECT_EQ(r.telemetry.level, DegradationLevel::kBatched);
  }
  EXPECT_EQ(svc.stats().batches, 1u);
  EXPECT_EQ(svc.stats().coalesced_requests, 3u);
}

TEST(ServiceTest, BoundedQueueShedsWithOverflow) {
  Fixture fx(16);
  auto cfg = manual_config();
  cfg.queue_capacity = 2;
  SolverService<F> svc(f, cfg);
  auto sid = svc.register_operator(fx.box(), 7);
  ASSERT_TRUE(sid.ok());
  auto f1 = svc.submit(sid.value(), fx.b[0]);
  auto f2 = svc.submit(sid.value(), fx.b[1]);
  auto f3 = svc.submit(sid.value(), fx.b[2]);
  // The third was shed immediately, before any execution.
  auto r3 = f3.get();
  EXPECT_EQ(r3.status.kind(), FailureKind::kQueueOverflow);
  EXPECT_EQ(r3.status.stage(), Stage::kServiceAdmission);
  while (svc.run_once() != 0) {
  }
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_EQ(svc.stats().rejected_overflow, 1u);
}

TEST(ServiceTest, UnknownSessionRejectedAtAdmission) {
  SolverService<F> svc(f, manual_config());
  auto r = svc.submit(999, std::vector<F::Element>(4, f.one())).get();
  EXPECT_EQ(r.status.kind(), FailureKind::kInvalidArgument);
  EXPECT_EQ(r.status.stage(), Stage::kServiceAdmission);
}

TEST(ServiceTest, ExpiredAndCancelledRequestsShedAtDispatch) {
  Fixture fx(16);
  SolverService<F> svc(f, manual_config());
  auto sid = svc.register_operator(fx.box(), 7);
  ASSERT_TRUE(sid.ok());

  auto expired = svc.submit(sid.value(), fx.b[0],
                            Deadline::after(std::chrono::nanoseconds(-1)));
  auto cancel = CancelFlag::make();
  auto doomed = svc.submit(sid.value(), fx.b[1], Deadline{}, cancel);
  cancel.cancel();
  auto live = svc.submit(sid.value(), fx.b[2]);

  EXPECT_EQ(svc.run_once(), 1u);  // only the live one executed
  auto re = expired.get();
  EXPECT_EQ(re.status.kind(), FailureKind::kDeadlineExceeded);
  auto rc = doomed.get();
  EXPECT_EQ(rc.status.kind(), FailureKind::kCancelled);
  auto rl = live.get();
  ASSERT_TRUE(rl.status.ok()) << rl.status.message();
  EXPECT_EQ(rl.x, fx.x[2]);
  EXPECT_EQ(svc.stats().deadline_expired, 1u);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(ServiceTest, ShutdownFailsQueuedAndSubsequentRequests) {
  Fixture fx(16);
  SolverService<F> svc(f, manual_config());
  auto sid = svc.register_operator(fx.box(), 7);
  ASSERT_TRUE(sid.ok());
  auto queued = svc.submit(sid.value(), fx.b[0]);
  svc.shutdown();
  EXPECT_EQ(queued.get().status.kind(), FailureKind::kShutdown);
  EXPECT_EQ(svc.submit(sid.value(), fx.b[1]).get().status.kind(),
            FailureKind::kShutdown);
  svc.shutdown();  // idempotent
}

TEST(ServiceTest, DispatcherThreadsServeManySessions) {
  Fixture fx1(24, 8, 11), fx2(24, 8, 12);
  ServiceConfig cfg;
  cfg.dispatchers = 2;
  cfg.queue_capacity = 32;
  cfg.max_batch = 4;
  SolverService<F> svc(f, cfg);
  auto s1 = svc.register_operator(fx1.box(), 7);
  auto s2 = svc.register_operator(fx2.box(), 9);
  ASSERT_TRUE(s1.ok() && s2.ok());
  std::vector<std::future<SolverService<F>::Result>> futs;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 4; ++i) {
      futs.push_back(svc.submit(s1.value(), fx1.b[i]));
      futs.push_back(svc.submit(s2.value(), fx2.b[i]));
    }
  }
  std::size_t idx = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 4; ++i) {
      auto r1 = futs[idx++].get();
      ASSERT_TRUE(r1.status.ok()) << r1.status.message();
      EXPECT_EQ(r1.x, fx1.x[i]);
      auto r2 = futs[idx++].get();
      ASSERT_TRUE(r2.status.ok()) << r2.status.message();
      EXPECT_EQ(r2.x, fx2.x[i]);
    }
  }
  EXPECT_EQ(svc.stats().completed_ok, 32u);
}

// ------------------------------------------------------------------------
// Fault matrix (deterministic, run_once mode)
// ------------------------------------------------------------------------

#if KP_FAULT_INJECTION_ENABLED
TEST(ServiceFaultMatrixTest, AdmissionFaultShedsInjected) {
  Fixture fx(16);
  SolverService<F> svc(f, manual_config());
  auto sid = svc.register_operator(fx.box(), 7);
  ASSERT_TRUE(sid.ok());
  util::fault::ScopedFault fi(Stage::kServiceAdmission);
  auto r = svc.submit(sid.value(), fx.b[0]).get();
  EXPECT_EQ(r.status.kind(), FailureKind::kQueueOverflow);
  EXPECT_TRUE(r.status.injected());
  EXPECT_EQ(fi.fired(), 1u);
}

TEST(ServiceFaultMatrixTest, BatchFaultDegradesToSingleRhsAtEveryWorkerCount) {
  Fixture fx(24);
  for (const unsigned workers : {1u, 2u, 8u}) {
    pram::ExecutionContext::global().set_worker_limit(workers);
    SolverService<F> svc(f, manual_config());
    auto sid = svc.register_operator(fx.box(), 7);
    ASSERT_TRUE(sid.ok());
    util::fault::ScopedFault fi(Stage::kServiceBatch, /*attempt=*/-1,
                                /*site_index=*/-1, /*one_shot=*/false);
    auto fut = svc.submit(sid.value(), fx.b[0]);
    EXPECT_EQ(svc.run_once(), 1u);
    auto r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.x, fx.x[0]);
    EXPECT_EQ(r.telemetry.level, DegradationLevel::kSingleRhs);
    EXPECT_GE(r.telemetry.attempts, 1);
    EXPECT_EQ(svc.stats().degraded_single, 1u);
  }
  pram::ExecutionContext::global().set_worker_limit(0);
}

TEST(ServiceFaultMatrixTest, ExecuteFaultSettlesOnDenseBaseline) {
  Fixture fx(16);
  SolverService<F> svc(f, manual_config());
  auto sid = svc.register_operator(fx.box(), 7);
  ASSERT_TRUE(sid.ok());
  util::fault::ScopedFault fb(Stage::kServiceBatch, -1, -1, false);
  util::fault::ScopedFault fe(Stage::kServiceExecute, -1, -1, false);
  auto fut = svc.submit(sid.value(), fx.b[0]);
  EXPECT_EQ(svc.run_once(), 1u);
  auto r = fut.get();
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  EXPECT_EQ(r.x, fx.x[0]);
  EXPECT_EQ(r.telemetry.level, DegradationLevel::kDenseBaseline);
  EXPECT_EQ(svc.stats().degraded_dense, 1u);
}

TEST(ServiceFaultMatrixTest, QuarantineTripsFailsFastAndResets) {
  Fixture fx(16);
  auto cfg = manual_config();
  cfg.session.retry_budget = 5;
  cfg.session.quarantine_threshold = 2;
  SolverService<F> svc(f, cfg);
  auto sid = svc.register_operator(fx.box(), 7);
  ASSERT_TRUE(sid.ok());
  {
    util::fault::ScopedFault fi(Stage::kVerify, -1, -1, /*one_shot=*/false);
    auto fut = svc.submit(sid.value(), fx.b[0]);
    EXPECT_EQ(svc.run_once(), 1u);
    // The persistent verify fault burns through the mismatch streak until
    // the breaker trips; the trip is FINAL for the in-flight request (no
    // degradation past an open breaker -- the session's transcript is the
    // suspect, not the route).
    auto r = fut.get();
    EXPECT_EQ(r.status.kind(), FailureKind::kSessionQuarantined);
    EXPECT_TRUE(svc.session(sid.value())->quarantined());
    EXPECT_EQ(svc.session(sid.value())->quarantine_diag().kind,
              FailureKind::kVerifyMismatch);
  }
  // Breaker open: fail fast with the quarantine kind, no degradation.
  auto fut = svc.submit(sid.value(), fx.b[1]);
  EXPECT_EQ(svc.run_once(), 1u);
  auto r = fut.get();
  EXPECT_EQ(r.status.kind(), FailureKind::kSessionQuarantined);
  EXPECT_TRUE(r.x.empty());
  EXPECT_GE(svc.stats().quarantine_rejections, 1u);

  ASSERT_TRUE(svc.reset_session(sid.value()));
  auto fut2 = svc.submit(sid.value(), fx.b[2]);
  EXPECT_EQ(svc.run_once(), 1u);
  auto r2 = fut2.get();
  ASSERT_TRUE(r2.status.ok()) << r2.status.message();
  EXPECT_EQ(r2.x, fx.x[2]);
}

TEST(ServiceFaultMatrixTest, DeadlineAtEachServiceStage) {
  Fixture fx(16);
  // kServiceAdmission: expired while queued (shed at dispatch).
  {
    SolverService<F> svc(f, manual_config());
    auto sid = svc.register_operator(fx.box(), 7);
    ASSERT_TRUE(sid.ok());
    auto fut = svc.submit(sid.value(), fx.b[0],
                          Deadline::after(std::chrono::nanoseconds(-1)));
    svc.run_once();
    auto r = fut.get();
    EXPECT_EQ(r.status.kind(), FailureKind::kDeadlineExceeded);
    EXPECT_EQ(r.status.stage(), Stage::kServiceAdmission);
  }
  // kServiceBatch / kDraw: expired control at the session boundary.
  {
    Session<F> sess(f, fx.box(), 5);
    ASSERT_TRUE(sess.prepare().ok());
    ExecControl expired(Deadline::after(std::chrono::nanoseconds(-1)));
    std::vector<const std::vector<F::Element>*> rhs{&fx.b[0]};
    auto out = sess.solve_many(rhs, &expired);
    EXPECT_EQ(out.items[0].status.kind(), FailureKind::kDeadlineExceeded);
    EXPECT_EQ(out.items[0].status.stage(), Stage::kServiceBatch);
  }
  // kVerify: a live batch whose one member expired (per-member token).
  {
    Session<F> sess(f, fx.box(), 5);
    ExecControl expired(Deadline::after(std::chrono::nanoseconds(-1)));
    ExecControl live;
    std::vector<const std::vector<F::Element>*> rhs{&fx.b[0], &fx.b[1]};
    std::vector<const ExecControl*> members{&live, &expired};
    auto out = sess.solve_many(rhs, nullptr, &members);
    ASSERT_TRUE(out.items[0].status.ok());
    EXPECT_EQ(out.items[0].x, fx.x[0]);
    EXPECT_EQ(out.items[1].status.kind(), FailureKind::kDeadlineExceeded);
    EXPECT_EQ(out.items[1].status.stage(), Stage::kVerify);
  }
}
#endif  // KP_FAULT_INJECTION_ENABLED

// ------------------------------------------------------------------------
// pram::ExecutionContext shutdown contract (satellite: no UB after
// shutdown; Status error instead)
// ------------------------------------------------------------------------

TEST(ExecutionContextShutdownTest, ParallelForStatusAfterShutdownIsError) {
  pram::ExecutionContext ctx;
  std::atomic<int> hits{0};
  auto st = ctx.parallel_for_status(0, 64,
                                    [&](std::size_t) { hits.fetch_add(1); });
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(hits.load(), 64);

  ctx.shutdown();
  EXPECT_TRUE(ctx.is_shutdown());
  st = ctx.parallel_for_status(0, 64,
                               [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(st.kind(), FailureKind::kShutdown);
  EXPECT_EQ(hits.load(), 64);  // nothing ran
  ctx.shutdown();              // idempotent
}

TEST(ExecutionContextShutdownTest, VoidParallelForAfterShutdownRunsSerial) {
  pram::ExecutionContext ctx;
  ctx.shutdown();
  // The void API cannot report; it must still complete the region (serial
  // fallback), not crash or deadlock.
  std::vector<int> hits(128, 0);
  ctx.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ExecutionContextShutdownTest, ParallelForStatusHonorsControl) {
  pram::ExecutionContext ctx;
  ExecControl expired(Deadline::after(std::chrono::nanoseconds(-1)));
  std::atomic<int> hits{0};
  auto st = ctx.parallel_for_status(
      0, 64, [&](std::size_t) { hits.fetch_add(1); }, 0, &expired);
  EXPECT_EQ(st.kind(), FailureKind::kDeadlineExceeded);
  EXPECT_EQ(hits.load(), 0);
}

TEST(ExecutionContextShutdownTest, ShutdownRacesSafelyWithSubmitters) {
  // TSan target: concurrent parallel_for_status calls racing shutdown()
  // must each either complete fully or report kShutdown -- never UB.
  for (int rep = 0; rep < 8; ++rep) {
    pram::ExecutionContext ctx;
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> refused{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&ctx, &completed, &refused] {
        for (int i = 0; i < 50; ++i) {
          std::atomic<int> hits{0};
          const auto st = ctx.parallel_for_status(
              0, 32, [&](std::size_t) { hits.fetch_add(1); });
          if (st.ok()) {
            if (hits.load() == 32) completed.fetch_add(1);
          } else if (st.kind() == FailureKind::kShutdown) {
            refused.fetch_add(1);
          }
        }
      });
    }
    std::this_thread::yield();
    ctx.shutdown();
    for (auto& th : submitters) th.join();
    EXPECT_EQ(completed.load() + refused.load(), 4u * 50u);
  }
}

// ------------------------------------------------------------------------
// Soak: sustained mixed load with randomized faults; every answered
// request exact, every shed accounted for, no leaks (ASan job), no
// deadlock.
// ------------------------------------------------------------------------

TEST(ServiceSoakTest, TenThousandRequestsWithRandomizedFaults) {
  Fixture fx(16, 16, 21);
  ServiceConfig cfg;
  cfg.dispatchers = 2;
  cfg.queue_capacity = 16;
  cfg.max_batch = 8;
  cfg.session.quarantine_threshold = 2;
  SolverService<F> svc(f, cfg);
  auto sid = svc.register_operator(fx.box(), 7);
  ASSERT_TRUE(sid.ok()) << sid.status().message();

  util::Prng prng(2026);
  const std::size_t total = 10'000;
  std::size_t issued = 0, exact = 0, shed = 0, control_failed = 0,
              quarantined = 0;
  while (issued < total) {
    const std::size_t wave =
        std::min<std::size_t>(cfg.queue_capacity, total - issued);
#if KP_FAULT_INJECTION_ENABLED
    // Roughly every third wave runs under a one-shot service-stage fault.
    std::unique_ptr<util::fault::ScopedFault> fault;
    switch (prng() % 6) {
      case 0:
        fault = std::make_unique<util::fault::ScopedFault>(
            Stage::kServiceBatch);
        break;
      case 1:
        fault = std::make_unique<util::fault::ScopedFault>(
            Stage::kServiceExecute);
        break;
      default:
        break;
    }
#endif
    std::vector<std::future<SolverService<F>::Result>> futs;
    for (std::size_t i = 0; i < wave; ++i, ++issued) {
      // A few requests per wave carry a tight or absurd deadline.
      Deadline dl;
      if (prng() % 8 == 0) {
        dl = Deadline::after(std::chrono::nanoseconds(
            static_cast<std::int64_t>(prng() % 2 == 0 ? -1 : 50)));
      }
      futs.push_back(
          svc.submit(sid.value(), fx.b[issued % fx.b.size()], dl));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      auto r = futs[i].get();
      const std::size_t k = (issued - wave + i) % fx.b.size();
      if (r.status.ok()) {
        ASSERT_EQ(r.x, fx.x[k]) << "soak returned a WRONG answer";
        ++exact;
      } else if (r.status.kind() == FailureKind::kQueueOverflow) {
        ++shed;
      } else if (util::is_control_failure(r.status.kind())) {
        ++control_failed;
      } else if (r.status.kind() == FailureKind::kSessionQuarantined) {
        ++quarantined;
        svc.reset_session(sid.value());
      } else {
        FAIL() << "unexpected soak failure: " << r.status.message();
      }
    }
  }
  EXPECT_EQ(exact + shed + control_failed + quarantined, total);
  EXPECT_GT(exact, total / 2);  // the service mostly answered
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, total);
  EXPECT_EQ(s.completed_ok, exact);
  EXPECT_EQ(s.rejected_overflow, shed);
}

}  // namespace
}  // namespace kp
