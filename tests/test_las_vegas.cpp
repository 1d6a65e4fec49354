// Tests for the Las Vegas loop (core/las_vegas.h) on its own: scripted
// attempt statuses walk the redraw table, with no fault injection and no
// field arithmetic, so every expectation is about the loop itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/las_vegas.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp {
namespace {

using core::Attempt;
using core::LasVegasOptions;
using core::LasVegasRun;
using util::Diag;
using util::FailureKind;
using util::Stage;
using util::Status;

Status fail(FailureKind kind) { return Status::Fail(kind, Stage::kNone); }

/// Runs the loop over `script`: attempt k returns script[k-1] (Ok past
/// its end) after drawing and charging `ops_per_attempt` additions.
LasVegasRun run_script(const std::vector<Status>& script,
                       const LasVegasOptions& opt, std::vector<Diag>& diags,
                       std::uint64_t seed = 7,
                       std::uint64_t ops_per_attempt = 0) {
  util::Prng prng(seed);
  return core::run_las_vegas(prng, opt, &diags, [&](Attempt& at) {
    at.draw();
    util::count_adds(ops_per_attempt);
    const auto k = static_cast<std::size_t>(at.number());
    return k <= script.size() ? script[k - 1] : Status::Ok();
  });
}

LasVegasOptions options(int max_attempts, std::uint64_t s = 64) {
  LasVegasOptions opt;
  opt.dim = 4;
  opt.max_attempts = max_attempts;
  opt.sample_size = s;
  return opt;
}

TEST(LasVegasTest, ScriptedStatusesWalkTheRedrawTable) {
  std::vector<Diag> d;
  const LasVegasRun run = run_script(
      {fail(FailureKind::kDegenerateProjection),   // -> u, v alone
       fail(FailureKind::kZeroConstantTerm),       // -> H, D alone
       fail(FailureKind::kDegenerateProjection),   // -> u, v alone again
       fail(FailureKind::kDegenerateProjection),   // repeat: escalate
       fail(FailureKind::kVerifyMismatch)},        // the pair, always
      options(6), d);
  ASSERT_TRUE(run.status.ok());
  EXPECT_EQ(run.attempts, 6);
  ASSERT_EQ(d.size(), 6u);

  const bool pre[] = {true, false, true, false, true, true};
  const bool proj[] = {true, true, false, true, true, true};
  const std::uint64_t size[] = {64, 64, 64, 64, 128, 256};
  for (std::size_t k = 0; k < d.size(); ++k) {
    EXPECT_EQ(d[k].attempt, static_cast<int>(k + 1));
    EXPECT_EQ(d[k].redrew_precondition, pre[k]) << "attempt " << k + 1;
    EXPECT_EQ(d[k].redrew_projection, proj[k]) << "attempt " << k + 1;
    EXPECT_EQ(d[k].sample_size, size[k]) << "attempt " << k + 1;
    if (k == 0) continue;
    // A kept component keeps its seed; a re-drawn one gets a fresh one.
    EXPECT_EQ(d[k].precondition_seed == d[k - 1].precondition_seed, !pre[k]);
    EXPECT_EQ(d[k].projection_seed == d[k - 1].projection_seed, !proj[k]);
  }
  EXPECT_EQ(d[1].kind, FailureKind::kZeroConstantTerm);
  EXPECT_EQ(run.sample_size, 256u);
}

TEST(LasVegasTest, SeedsForkFromTheTaggedComponentStreams) {
  std::vector<Diag> d;
  (void)run_script({fail(FailureKind::kVerifyMismatch)}, options(2), d, 99);
  ASSERT_EQ(d.size(), 2u);
  util::Prng prng(99);
  util::Prng pre = prng.fork(core::kPreconditionStreamTag);
  util::Prng proj = prng.fork(core::kProjectionStreamTag);
  for (std::uint64_t k = 1; k <= 2; ++k) {
    EXPECT_EQ(d[k - 1].precondition_seed, pre.fork(k).seed());
    EXPECT_EQ(d[k - 1].projection_seed, proj.fork(k).seed());
  }
}

TEST(LasVegasTest, ExhaustionReportsTheLastFailure) {
  std::vector<Diag> d;
  const LasVegasRun run =
      run_script({fail(FailureKind::kVerifyMismatch),
                  fail(FailureKind::kDegenerateProjection)},
                 options(2), d);
  EXPECT_EQ(run.status.kind(), FailureKind::kDegenerateProjection);
  EXPECT_EQ(run.attempts, 3);  // max_attempts + 1
  EXPECT_EQ(run.sample_size, 128u);
  EXPECT_EQ(d.size(), 2u);
}

TEST(LasVegasTest, OpBudgetStopsAfterTheExpensiveFailure) {
  LasVegasOptions opt = options(3);
  opt.op_budget = 50;
  std::vector<Diag> d;
  const LasVegasRun run = run_script(
      {fail(FailureKind::kDegenerateProjection)}, opt, d, 7, 100);
  EXPECT_EQ(run.status.kind(), FailureKind::kOpBudgetExhausted);
  EXPECT_EQ(run.attempts, 1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].kind, FailureKind::kDegenerateProjection);
  EXPECT_EQ(d[0].ops.add, 100u);

  // Under the budget the failure is retried as usual.
  d.clear();
  const LasVegasRun cheap = run_script(
      {fail(FailureKind::kDegenerateProjection)}, opt, d, 7, 10);
  EXPECT_TRUE(cheap.status.ok());
  EXPECT_EQ(cheap.attempts, 2);
}

TEST(LasVegasTest, ControlFailureStopsAtOnce) {
  std::vector<Diag> d;
  const LasVegasRun run = run_script(
      {fail(FailureKind::kDegenerateProjection),
       Status::Fail(FailureKind::kDeadlineExceeded, Stage::kDraw)},
      options(5), d);
  EXPECT_EQ(run.status.kind(), FailureKind::kDeadlineExceeded);
  EXPECT_EQ(run.status.stage(), Stage::kDraw);
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(d.size(), 2u);
}

TEST(LasVegasTest, ProjectionOnlyRunRedrawsEveryAttemptAtFixedSize) {
  LasVegasOptions opt = options(3);
  opt.preconditioned = false;
  std::vector<Diag> d;
  const LasVegasRun run =
      run_script({fail(FailureKind::kVerifyMismatch),
                  fail(FailureKind::kZeroConstantTerm)},
                 opt, d, 5);
  ASSERT_TRUE(run.status.ok());
  ASSERT_EQ(d.size(), 3u);
  util::Prng prng(5);  // seeds fork straight off the caller's stream
  for (std::size_t k = 0; k < d.size(); ++k) {
    EXPECT_TRUE(d[k].redrew_projection);
    EXPECT_FALSE(d[k].redrew_precondition);
    EXPECT_EQ(d[k].precondition_seed, 0u);
    EXPECT_EQ(d[k].projection_seed, prng.fork(k + 1).seed());
    EXPECT_EQ(d[k].sample_size, 64u);
  }
}

TEST(LasVegasTest, EntryCheckRejectsBeforeAnyAttempt) {
  LasVegasOptions empty = options(3);
  empty.dim = 0;
  LasVegasOptions mismatch = options(3);
  mismatch.rhs_dim = 3;
  const LasVegasOptions no_attempts = options(0);
  for (const LasVegasOptions& opt : {empty, mismatch, no_attempts}) {
    util::Prng prng(11);
    int calls = 0;
    const LasVegasRun run =
        core::run_las_vegas(prng, opt, nullptr, [&](Attempt&) {
          ++calls;
          return Status::Ok();
        });
    EXPECT_EQ(run.status.kind(), FailureKind::kInvalidArgument);
    EXPECT_EQ(run.attempts, 0);
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(prng(), util::Prng(11)());  // the stream was not touched
  }
}

}  // namespace
}  // namespace kp
