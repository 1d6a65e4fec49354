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
#include "util/op_count.h"
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

TEST(SessionTest, PrepareReplaysFromTheDiagProjectionSeed) {
  // A = diag(1..n) over a sample set of 3: each projection keeps only the
  // eigenvalues both u and v see, so m differs from draw to draw, and a
  // replay that drew u and v in another order would read another m.
  const std::size_t n = 8;
  const std::uint64_t s = 3;
  std::vector<matrix::Sparse<F>::Entry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.push_back({i, i, f.from_int(static_cast<std::int64_t>(i) + 1)});
  }
  const matrix::Sparse<F> a(f, n, n, std::move(entries));
  const matrix::SparseBox<F> box(f, a);
  SessionOptions opt;
  opt.solver.sample_size = s;
  opt.solver.max_attempts = 10;
  std::vector<std::size_t> degrees;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Session<F> sess(f, matrix::AnyBox<F>(box), seed, opt);
    ASSERT_TRUE(sess.prepare().ok());
    const util::Diag& d = sess.prepare_diags().back();
    util::Prng r{d.projection_seed};
    util::OpScope scope;
    EXPECT_EQ(sess.minimal_generator(), core::wiedemann_minpoly(f, box, r, s))
        << "seed " << seed;
    const util::OpCounts ops = scope.counts();
    EXPECT_EQ(ops.add, d.ops.add) << "seed " << seed;
    EXPECT_EQ(ops.mul, d.ops.mul) << "seed " << seed;
    EXPECT_EQ(ops.div, d.ops.div) << "seed " << seed;
    degrees.push_back(sess.minimal_generator().size());
  }
  // The draws do differ, so the replays are told apart.
  EXPECT_NE(*std::min_element(degrees.begin(), degrees.end()),
            *std::max_element(degrees.begin(), degrees.end()));
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

TEST(SessionTest, DetRunsOnDemandWithoutPreparing) {
  // det() runs kp_det on a stream forked from the session seed alone: it
  // needs no prepare, leaves the session unprepared, and returns the same
  // det(A) before and after the session pins m.  A singular operator's
  // det() is zero.
  Fixture fx(24);
  const auto expect = matrix::det_gauss(f, fx.a.to_dense(f));
  Session<F> sess(f, fx.box(), 5);
  EXPECT_EQ(sess.det(), expect);
  EXPECT_FALSE(sess.prepared());
  EXPECT_EQ(sess.prepares(), 0u);
  EXPECT_TRUE(sess.prepare_diags().empty());
  const auto item = sess.solve_one(fx.b[0]);
  ASSERT_TRUE(item.status.ok()) << item.status.message();
  EXPECT_EQ(item.x, fx.x[0]);
  EXPECT_EQ(sess.prepares(), 1u);
  EXPECT_EQ(sess.det(), expect);
  Session<F> other(f, fx.box(), 6);
  EXPECT_EQ(other.det(), expect);

  const std::size_t n = 6;
  std::vector<matrix::Sparse<F>::Entry> entries;
  for (std::size_t i = 0; i + 1 < n; ++i) entries.push_back({i, i, 1});
  Session<F> singular(
      f, matrix::AnyBox<F>(matrix::SparseBox<F>(
             f, matrix::Sparse<F>(f, n, n, std::move(entries)))),
      5);
  EXPECT_TRUE(f.is_zero(singular.det()));
  EXPECT_FALSE(singular.prepared());
  EXPECT_EQ(singular.prepares(), 0u);
}

TEST(SessionTest, SolveManyBatchIsExact) {
  // The sparse operator and its dense copy, the latter also under
  // depth_optimal (which only det()'s kp_det run reads): same answers, and
  // det() gives the same det(A) on each.
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

TEST(SessionTest, FinishRunsOnTheOperatorNotOnATilde) {
  // The service_stream shape: sparse n = 96 with 8 nonzeros per row.  A
  // session's prepare is m alone (2n products with A, then
  // Berlekamp-Massey): 403,778 operations, against the 2,317,413 of
  // kp_det's Theorem-4 run on the same operator (2n products with A and 2n
  // Hankel middle products with H), which det() pays only when asked.  Its
  // finish is deg m - 1 products with A plus the verify product.
  const std::size_t n = 96;
  util::Prng prng(2026);
  const auto a = matrix::Sparse<F>::random(f, n, 8, prng);
  const matrix::SparseBox<F> box(f, a);
  std::vector<std::vector<F::Element>> xs(8), bs;
  for (auto& x : xs) {
    x.resize(n);
    for (auto& e : x) e = f.random(prng);
    bs.push_back(box.apply(x));
  }
  std::vector<const std::vector<F::Element>*> rhs;
  for (const auto& b : bs) rhs.push_back(&b);
  Session<F> sess(f, matrix::AnyBox<F>(box), 7);
  util::OpCounts prep;
  {
    util::OpScope scope;
    ASSERT_TRUE(sess.prepare().ok());
    prep = scope.counts();
  }
  ASSERT_EQ(sess.minimal_generator().size(), n + 1);
  EXPECT_EQ(sess.prepares(), 1u);
  EXPECT_EQ(prep.add, 201697u);
  EXPECT_EQ(prep.mul, 201889u);
  EXPECT_EQ(prep.div, 192u);
  EXPECT_EQ(prep.zero_test, 0u);
  EXPECT_EQ(prep.total(), 403778u);

  util::OpCounts det_ops;
  F::Element det{};
  {
    util::OpScope scope;
    det = sess.det();
    det_ops = scope.counts();
  }
  EXPECT_EQ(det, matrix::det_gauss(f, a.to_dense(f)));
  EXPECT_EQ(sess.det(), det);  // the same stream on every call
  EXPECT_EQ(det_ops.add, 1393442u);
  EXPECT_EQ(det_ops.mul, 923203u);
  EXPECT_EQ(det_ops.div, 575u);
  EXPECT_EQ(det_ops.zero_test, 193u);
  EXPECT_EQ(det_ops.total(), 2317413u);
  EXPECT_LT(prep.total(), det_ops.total());

  // Per call: q = solution_combination(m), 98 operations.  Per column,
  // 184,320: 96 products with A (95 in the recurrence, one in the verify)
  // and the 96 scaled additions of A^j b.
  const auto batch_ops = [&](std::size_t k) {
    const std::vector<const std::vector<F::Element>*> cols(
        rhs.begin(), rhs.begin() + static_cast<std::ptrdiff_t>(k));
    util::OpScope scope;
    const auto out = sess.solve_many(cols);
    const auto ops = scope.counts();
    for (std::size_t c = 0; c < k; ++c) {
      EXPECT_TRUE(out.items[c].status.ok()) << out.items[c].status.message();
      EXPECT_EQ(out.items[c].x, xs[c]) << "k=" << k << " column " << c;
    }
    return ops;
  };
  const util::OpCounts one = batch_ops(1);
  EXPECT_EQ(one.add, 92161u);
  EXPECT_EQ(one.mul, 92256u);
  EXPECT_EQ(one.div, 1u);
  EXPECT_EQ(one.zero_test, 0u);
  EXPECT_EQ(one.total(), 184320u + 98u);
  const util::OpCounts eight = batch_ops(8);
  EXPECT_EQ(eight.add, 737281u);
  EXPECT_EQ(eight.mul, 737376u);
  EXPECT_EQ(eight.div, 1u);
  EXPECT_EQ(eight.zero_test, 0u);
  EXPECT_EQ(eight.total(), 8 * 184320u + 98u);
  EXPECT_EQ(sess.prepares(), 1u);
}

/// n x n operators whose minimal polynomial is shorter than the
/// characteristic one: c I, a diagonal with repeated eigenvalues, a
/// permutation of cycle lengths 4, 4, 2, 2, and two equal diagonal blocks.
std::vector<matrix::Matrix<F>> short_minpoly_operators(std::size_t n) {
  std::vector<matrix::Matrix<F>> ops(4, matrix::Matrix<F>(n, n, f.zero()));
  for (std::size_t i = 0; i < n; ++i) {
    ops[0].at(i, i) = f.from_int(7);
    ops[1].at(i, i) = f.from_int(static_cast<std::int64_t>(i % 3 + 1));
  }
  std::size_t start = 0;
  for (const std::size_t len : {4u, 4u, 2u, 2u}) {
    for (std::size_t j = 0; j < len; ++j) {
      ops[2].at(start + j, start + (j + 1) % len) = f.one();
    }
    start += len;
  }
  util::Prng prng(31);
  const std::size_t h = n / 2;
  matrix::Matrix<F> block(h, h, f.zero());
  do {
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = 0; j < h; ++j) block.at(i, j) = f.random(prng);
    }
  } while (f.is_zero(matrix::det_gauss(f, block)));
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      ops[3].at(i, j) = block.at(i, j);
      ops[3].at(h + i, h + j) = block.at(i, j);
    }
  }
  return ops;
}

matrix::Sparse<F> sparse_copy(const matrix::Matrix<F>& a) {
  std::vector<matrix::Sparse<F>::Entry> entries;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!f.is_zero(a.at(i, j))) entries.push_back({i, j, a.at(i, j)});
    }
  }
  return matrix::Sparse<F>(f, a.rows(), a.cols(), std::move(entries));
}

TEST(SessionTest, SolvesWhenMinpolyIsShorterThanCharpoly) {
  // m divides the characteristic polynomial with room to spare; x = q(A) b
  // is still A^{-1} b, on every operator form a session runs on.  The pinned
  // m is A's own minimal generator: monic, m(0) != 0, and m(A) v = 0 for
  // every v, not only for the projection it was drawn from.  The last
  // operator (the Fixture's, distinct eigenvalues) has deg m = n.
  const std::size_t n = 12;
  util::Prng prng(17);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  std::vector<matrix::Matrix<F>> ops = short_minpoly_operators(n);
  const std::size_t short_ops = ops.size();
  ops.push_back(matrix::materialize_dense(f, Fixture(n).box()));
  for (std::size_t op_index = 0; op_index < ops.size(); ++op_index) {
    const auto& a = ops[op_index];
    const auto expect_x = matrix::solve_gauss(f, a, b);
    ASSERT_TRUE(expect_x.has_value()) << op_index;
    const auto expect_det = matrix::det_gauss(f, a);
    const matrix::AnyBox<F> sparse(matrix::SparseBox<F>(f, sparse_copy(a)));
    const matrix::AnyBox<F> dense(matrix::DenseBox<F>(f, a));
    for (const auto& [box, deep] : {std::pair{sparse, false},
                                    std::pair{dense, false},
                                    std::pair{dense, true}}) {
      SessionOptions opt;
      opt.solver.depth_optimal = deep;
      Session<F> sess(f, box, 5, opt);
      const auto item = sess.solve_one(b);
      ASSERT_TRUE(item.status.ok())
          << op_index << ": " << item.status.message();
      EXPECT_EQ(item.x, *expect_x) << op_index;
      EXPECT_EQ(sess.det(), expect_det) << op_index;
      const auto& m = sess.minimal_generator();
      ASSERT_GE(m.size(), 2u) << op_index;
      ASSERT_LE(m.size(), n + 1) << op_index;
      if (op_index < short_ops) {
        EXPECT_LT(m.size() - 1, n) << op_index;
      }
      EXPECT_TRUE(f.eq(m.back(), f.one())) << op_index;
      EXPECT_FALSE(f.is_zero(m.front())) << op_index;
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<F::Element> v(n), acc(n, f.zero());
        for (auto& e : v) e = f.random(prng);
        for (std::size_t j = 0; j < m.size(); ++j) {
          for (std::size_t k = 0; k < n; ++k) {
            acc[k] = f.add(acc[k], f.mul(m[j], v[k]));
          }
          if (j + 1 < m.size()) v = box.apply(v);
        }
        for (const auto& e : acc) {
          EXPECT_TRUE(f.is_zero(e)) << op_index << " trial " << trial;
        }
      }
    }
  }
}

TEST(SessionTest, DeficientGeneratorIsCaughtByVerify) {
  // Over a sample set as small as {0..3}, the projection behind m often
  // misses part of A's minimal polynomial.  A deficient m gives a wrong
  // q(A) b that the batched verify rejects, and the session re-draws the
  // transcript and m; a run either returns the oracle's x or reports a
  // documented failure.
  const std::size_t n = 16;
  Fixture fx(n, 4);
  SessionOptions opt;
  opt.solver.sample_size = 4;
  opt.solver.max_attempts = 30;
  opt.retry_budget = 6;
  opt.quarantine_threshold = 8;
  std::vector<const std::vector<F::Element>*> rhs;
  for (const auto& b : fx.b) rhs.push_back(&b);
  int redrawn_then_exact = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Session<F> sess(f, fx.box(), seed, opt);
    const auto out = sess.solve_many(rhs);
    bool all_ok = true;
    for (std::size_t c = 0; c < rhs.size(); ++c) {
      const auto& st = out.items[c].status;
      if (st.ok()) {
        EXPECT_EQ(out.items[c].x, fx.x[c]) << seed;
        continue;
      }
      all_ok = false;
      EXPECT_FALSE(st.injected()) << seed;
      EXPECT_TRUE(st.kind() == FailureKind::kVerifyMismatch ||
                  st.kind() == FailureKind::kSessionQuarantined ||
                  st.kind() == FailureKind::kSingularPrecondition ||
                  st.kind() == FailureKind::kDegenerateProjection ||
                  st.kind() == FailureKind::kZeroConstantTerm)
          << seed << ": " << st.message();
    }
    for (const auto& d : out.diags) {
      if (d.kind == FailureKind::kVerifyMismatch) {
        EXPECT_EQ(d.stage, Stage::kVerify) << seed;
      }
    }
    if (all_ok && out.transcript_redraws > 0) ++redrawn_then_exact;
  }
  EXPECT_GT(redrawn_then_exact, 0);
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

/// kp_solve's own prepare (detail::prepare_attempt in its Las Vegas loop)
/// of `a` under default options, filling `t` for the finish tests.
template <class B>
void prepare_transcript(const B& a, const poly::PolyRing<F>& ring,
                        core::Transcript<F, B>& t) {
  const core::SolverOptions opt;
  util::Prng prng(3);
  const auto run = core::run_las_vegas(
      prng, core::detail::las_vegas_options(opt, a.dim(), std::nullopt),
      nullptr, [&](core::Attempt& at) {
        return core::detail::prepare_attempt(f, ring, a, opt, at, t);
      });
  ASSERT_TRUE(run.status.ok()) << run.status.message();
}

/// One-column finishes through one prepared transcript, every right-hand
/// side against its known solution, at 1, 2 and 8 workers.
template <class B>
void expect_finish_solves_every_column(const B& a, const Fixture& fx) {
  poly::PolyRing<F> ring(f);
  const core::SolverOptions opt;
  core::Transcript<F, B> t(a, opt);
  prepare_transcript(a, ring, t);
  for (const unsigned workers : {1u, 2u, 8u}) {
    pram::ExecutionContext::global().set_worker_limit(workers);
    for (std::size_t c = 0; c < fx.b.size(); ++c) {
      const auto fin = core::detail::finish(f, ring, a, t, fx.b[c], opt);
      ASSERT_TRUE(fin.status.ok()) << fin.status.message();
      EXPECT_EQ(fin.x, fx.x[c]) << "workers=" << workers << " column " << c;
    }
  }
  pram::ExecutionContext::global().set_worker_limit(0);
}

TEST(SessionTest, OneColumnFinishSolvesEveryRhsAtEveryWorkerCount) {
  Fixture fx(24);
  const matrix::SparseBox<F> sparse(f, fx.a);
  expect_finish_solves_every_column(sparse, fx);
  const matrix::Matrix<F> dense = fx.a.to_dense(f);
  const matrix::DenseViewBox<F> dense_box(f, dense);
  expect_finish_solves_every_column(dense_box, fx);
}

TEST(SessionTest, FinishControlTripFailsAtSolveFinish) {
  Fixture fx(24);
  const matrix::AnyBox<F> a = fx.box();
  poly::PolyRing<F> ring(f);
  core::SolverOptions opt;
  core::Transcript<F, matrix::AnyBox<F>> t(a, opt);
  prepare_transcript(a, ring, t);
  ExecControl expired(Deadline::after(std::chrono::nanoseconds(-1)));
  opt.control = &expired;
  // The token trips before the first product of the recurrence.
  const auto out = core::detail::finish(f, ring, a, t, fx.b[0], opt);
  EXPECT_EQ(out.status.kind(), FailureKind::kDeadlineExceeded);
  EXPECT_EQ(out.status.stage(), Stage::kSolveFinish);
  EXPECT_TRUE(out.x.empty());
}

TEST(DeadlineTest, DenseDefaultRouteFinishTripsAtSolveFinish) {
  // kp_solve's own prepare and finish on a dense operator under default
  // options: the finish iterates on the formed A-tilde (no powers kept) and
  // checks the token at kSolveFinish, so an expired one fails the column
  // there and hands out no x.
  Fixture fx(40);
  const matrix::Matrix<F> dense = fx.a.to_dense(f);
  const matrix::DenseViewBox<F> a(f, dense);
  poly::PolyRing<F> ring(f);
  core::SolverOptions opt;
  core::Transcript<F, matrix::DenseViewBox<F>> t(a, opt);
  prepare_transcript(a, ring, t);
  EXPECT_EQ(t.route, core::KrylovRoute::kIterative);
  EXPECT_TRUE(t.materialized);
  EXPECT_TRUE(t.powers.empty());
  EXPECT_FALSE(t.box.has_value());
  ExecControl expired(Deadline::after(std::chrono::nanoseconds(-1)));
  opt.control = &expired;
  const auto out = core::detail::finish(f, ring, a, t, fx.b[0], opt);
  EXPECT_EQ(out.status.kind(), FailureKind::kDeadlineExceeded);
  EXPECT_EQ(out.status.stage(), Stage::kSolveFinish);
  EXPECT_TRUE(out.x.empty());
  opt.control = nullptr;
  const auto ok = core::detail::finish(f, ring, a, t, fx.b[0], opt);
  ASSERT_TRUE(ok.status.ok()) << ok.status.message();
  EXPECT_EQ(ok.x, fx.x[0]);
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

TEST(SessionTest, MismatchStreakResetsAfterACleanRound) {
  // The breaker counts CONSECUTIVE mismatching rounds: a round that
  // verifies its column restarts the streak, so isolated transient
  // mismatches, each healed by one redraw, never add up to a quarantine.
  Fixture fx(16);
  Session<F> sess(f, fx.box(), 5);  // default quarantine_threshold = 3
  for (int rep = 0; rep < 3; ++rep) {
    auto clean = sess.solve_one(fx.b[0]);
    ASSERT_TRUE(clean.status.ok()) << clean.status.message();
    EXPECT_EQ(clean.x, fx.x[0]);
    EXPECT_EQ(sess.verify_mismatch_streak(), 0);

    util::fault::ScopedFault fi(Stage::kVerify, /*attempt=*/-1,
                                /*site_index=*/-1, /*one_shot=*/true);
    auto healed = sess.solve_one(fx.b[0]);
    EXPECT_EQ(fi.fired(), 1u);
    ASSERT_TRUE(healed.status.ok()) << "rep " << rep << ": "
                                    << healed.status.message();
    EXPECT_EQ(healed.x, fx.x[0]);
    EXPECT_EQ(sess.verify_mismatch_streak(), 0);
    EXPECT_FALSE(sess.quarantined());
  }
  auto after = sess.solve_one(fx.b[0]);
  ASSERT_TRUE(after.status.ok()) << after.status.message();
  EXPECT_EQ(after.x, fx.x[0]);
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

/// A sparse n x n operator with a zero row: singular.
matrix::AnyBox<F> zero_row_operator(std::size_t n) {
  util::Prng prng(41);
  std::vector<matrix::Sparse<F>::Entry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == n / 2) continue;
    for (std::size_t j = 0; j < n; j += 3) {
      entries.push_back({i, (i + j) % n, f.random(prng)});
    }
  }
  return matrix::AnyBox<F>(
      matrix::SparseBox<F>(f, matrix::Sparse<F>(f, n, n, std::move(entries))));
}

TEST(ServiceTest, SingularOperatorFailsRegistration) {
  // A zero row makes A singular, and every generator m drawn for it has
  // m(0) = 0: each prepare attempt fails with kZeroConstantTerm at
  // kCharpoly, registration fails in one call, and the dense baseline
  // proves kSingularInput.
  const std::size_t n = 24;
  const matrix::AnyBox<F> box = zero_row_operator(n);
  const ServiceConfig cfg = manual_config();
  SolverService<F> svc(f, cfg);
  const std::vector<F::Element> b(n, f.one());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto sid = svc.register_operator(box, seed);
    ASSERT_FALSE(sid.ok()) << seed;
    EXPECT_EQ(sid.status().kind(), FailureKind::kZeroConstantTerm) << seed;
    EXPECT_EQ(sid.status().stage(), Stage::kCharpoly) << seed;
    // A session built as registration builds it: every attempt says so.
    Session<F> sess(f, box, seed, cfg.session);
    EXPECT_FALSE(sess.prepare().ok()) << seed;
    const auto& diags = sess.prepare_diags();
    EXPECT_EQ(diags.size(),
              static_cast<std::size_t>(cfg.session.solver.max_attempts));
    for (const auto& d : diags) {
      EXPECT_EQ(d.kind, FailureKind::kZeroConstantTerm) << seed;
      EXPECT_EQ(d.stage, Stage::kCharpoly) << seed;
      EXPECT_FALSE(d.injected) << seed;
    }
    EXPECT_EQ(sess.solve_dense(b).status.kind(), FailureKind::kSingularInput)
        << seed;
  }
}

TEST(SessionTest, PrepareStopsAtTheOpBudget) {
  // solver.op_budget_per_attempt caps prepare's generator draw the way it
  // caps kp_solve: a FAILED attempt over the budget ends the run with
  // kOpBudgetExhausted instead of re-rolling, and a successful one is kept.
  SessionOptions opt;
  opt.solver.op_budget_per_attempt = 1;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Session<F> singular(f, zero_row_operator(24), seed, opt);
    const util::Status st = singular.prepare();
    EXPECT_EQ(st.kind(), FailureKind::kOpBudgetExhausted) << seed;
    EXPECT_EQ(st.stage(), Stage::kCharpoly) << seed;
    ASSERT_EQ(singular.prepare_diags().size(), 1u) << seed;
    EXPECT_EQ(singular.prepare_diags()[0].kind, FailureKind::kZeroConstantTerm)
        << seed;
    Session<F> regular(f, Fixture(24).box(), seed, opt);
    EXPECT_TRUE(regular.prepare().ok()) << seed;
    EXPECT_EQ(regular.prepares(), 1u) << seed;
  }
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
// pram::ExecutionContext shutdown contract: no UB after shutdown; every
// region still runs to completion (serially once the pool is gone)
// ------------------------------------------------------------------------

TEST(ExecutionContextShutdownTest, VoidParallelForAfterShutdownRunsSerial) {
  pram::ExecutionContext ctx;
  ctx.shutdown();
  // The void API cannot report; it must still complete the region (serial
  // fallback), not crash or deadlock.
  std::vector<int> hits(128, 0);
  ctx.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ExecutionContextShutdownTest, ShutdownAfterPooledRegionIsIdempotent) {
  // A pool that has already run a region joins its workers on shutdown(),
  // a second shutdown() is a no-op, and every later region runs each index
  // exactly once on the calling thread.
  pram::ExecutionContext ctx;
  std::vector<std::atomic<int>> hits(64);
  ctx.parallel_for(0, hits.size(),
                   [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  ctx.shutdown();
  EXPECT_TRUE(ctx.is_shutdown());
  ctx.shutdown();
  EXPECT_TRUE(ctx.is_shutdown());

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(hits.size());
  ctx.parallel_for(0, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
    ran_on[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 2) << "index " << i;
    EXPECT_EQ(ran_on[i], caller) << "index " << i;
  }
}

TEST(ExecutionContextShutdownTest, ShutdownRacesSafelyWithSubmitters) {
  // TSan target: concurrent parallel_for calls racing shutdown() must each
  // complete every iteration -- on the pool or, once it is gone, on the
  // serial fallback -- never UB.
  for (int rep = 0; rep < 8; ++rep) {
    pram::ExecutionContext ctx;
    std::atomic<std::uint64_t> completed{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&ctx, &completed] {
        for (int i = 0; i < 50; ++i) {
          std::atomic<int> hits{0};
          ctx.parallel_for(0, 32, [&](std::size_t) { hits.fetch_add(1); });
          if (hits.load() == 32) completed.fetch_add(1);
        }
      });
    }
    std::this_thread::yield();
    ctx.shutdown();
    for (auto& th : submitters) th.join();
    EXPECT_EQ(completed.load(), 4u * 50u);
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
