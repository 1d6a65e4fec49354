// Las Vegas hardening tests: the failure taxonomy (util/status.h), the
// stage-targeted retry policy of the Theorem-4 solver, the deterministic
// fault-injection harness (util/fault.h) and its sites across the charpoly /
// Newton-on-Toeplitz / Gohberg-Semencul / preconditioner paths, the
// Status-returning input validation of the public core/ entry points, and
// the singular-input "never a wrong answer" property across routes and
// worker counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/annihilator.h"
#include "core/baselines.h"
#include "core/extensions.h"
#include "core/field_lift.h"
#include "core/krylov.h"
#include "core/solver.h"
#include "core/wiedemann.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "matrix/structured.h"
#include "poly/poly_ring.h"
#include "pram/parallel_for.h"
#include "seq/gohberg_semencul.h"
#include "seq/newton_toeplitz.h"
#include "util/fault.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp {
namespace {

using util::FailureKind;
using util::Stage;
using util::Status;

using F = field::Zp<1000003>;
F f;

// Skips a test when the fault harness is compiled out (-DKP_FAULT_INJECTION=OFF).
#define KP_REQUIRE_FAULT_INJECTION()                             \
  do {                                                           \
    if (!KP_FAULT_INJECTION_ENABLED) {                           \
      GTEST_SKIP() << "fault injection compiled out";            \
    }                                                            \
  } while (0)

matrix::Matrix<F> nonsingular_matrix(std::size_t n, util::Prng& prng) {
  for (;;) {
    auto a = matrix::random_matrix(f, n, n, prng);
    if (!f.is_zero(matrix::det_gauss(f, a))) return a;
  }
}

matrix::Matrix<F> singular_matrix(std::size_t n, util::Prng& prng) {
  auto a = matrix::random_matrix(f, n, n, prng);
  for (std::size_t j = 0; j < n; ++j) a.at(n - 1, j) = a.at(0, j);
  return a;
}

matrix::Sparse<F> sparse_from_dense(const matrix::Matrix<F>& a) {
  std::vector<matrix::Sparse<F>::Entry> entries;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!f.is_zero(a.at(i, j))) entries.push_back({i, j, a.at(i, j)});
    }
  }
  return matrix::Sparse<F>(f, a.rows(), a.cols(), std::move(entries));
}

// ---------------------------------------------------------------------------
// Status / taxonomy
// ---------------------------------------------------------------------------

TEST(StatusTest, OkFailInjectedAndMessage) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().kind(), FailureKind::kNone);
  EXPECT_EQ(Status::Ok().message(), "ok");

  const auto st = Status::Fail(FailureKind::kZeroConstantTerm,
                               Stage::kCharpoly, "g(0) = 0");
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(st.injected());
  EXPECT_EQ(st.kind(), FailureKind::kZeroConstantTerm);
  EXPECT_EQ(st.stage(), Stage::kCharpoly);
  EXPECT_EQ(st.message(), "zero-constant-term at charpoly: g(0) = 0");

  const auto inj =
      Status::Injected(FailureKind::kDegenerateProjection, Stage::kProjection);
  EXPECT_FALSE(inj.ok());
  EXPECT_TRUE(inj.injected());
  EXPECT_EQ(inj.kind(), FailureKind::kDegenerateProjection);
  EXPECT_EQ(inj.detail(), "injected");
}

TEST(StatusTest, RequireAndStatusOr) {
  EXPECT_TRUE(
      util::Require(true, FailureKind::kInvalidArgument, Stage::kNone, "x")
          .ok());
  const auto bad =
      util::Require(false, FailureKind::kInvalidArgument, Stage::kNone, "x");
  EXPECT_EQ(bad.kind(), FailureKind::kInvalidArgument);

  util::StatusOr<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  util::StatusOr<int> fail(
      Status::Fail(FailureKind::kSampleSetTooSmall, Stage::kLift));
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().kind(), FailureKind::kSampleSetTooSmall);
}

TEST(StatusTest, EveryEnumeratorHasAName) {
  for (int k = 0; k <= static_cast<int>(FailureKind::kInjectedFault); ++k) {
    EXPECT_STRNE(util::to_string(static_cast<FailureKind>(k)), "unknown");
  }
  for (int s = 0; s < util::kStageCount; ++s) {
    EXPECT_STRNE(util::to_string(static_cast<Stage>(s)), "unknown");
  }
}

// ---------------------------------------------------------------------------
// Prng seeding contract
// ---------------------------------------------------------------------------

TEST(PrngTest, RecordsItsSeed) {
  util::Prng a(12345);
  EXPECT_EQ(a.seed(), 12345u);
  a.reseed(42);
  EXPECT_EQ(a.seed(), 42u);
  // A recorded seed replays the stream exactly.
  util::Prng b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(PrngTest, SeedZeroIsNotDegenerate) {
  util::Prng z(0);
  std::uint64_t acc = 0;
  for (int i = 0; i < 8; ++i) acc |= z();
  EXPECT_NE(acc, 0u);  // an all-zero xoshiro state would emit only zeros
}

TEST(PrngTest, ForkIsReproducibleAndDecorrelated) {
  // Same parent seed + same fork sequence replays identically.
  util::Prng p1(999), p2(999);
  auto c1 = p1.fork(0xabc);
  auto c2 = p2.fork(0xabc);
  EXPECT_EQ(c1.seed(), c2.seed());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(c1(), c2());

  // Distinct tags give different streams; successive forks with the SAME
  // tag differ too (each fork consumes one parent output).
  util::Prng p(7);
  auto a = p.fork(1);
  auto b = p.fork(2);
  auto c = p.fork(1);
  EXPECT_NE(a.seed(), b.seed());
  EXPECT_NE(a.seed(), c.seed());

  // Forking does not make the child track the parent.
  util::Prng q(7);
  auto child = q.fork(5);
  EXPECT_NE(child(), q());
}

// ---------------------------------------------------------------------------
// Malformed-input validation at the public core/ entry points
// ---------------------------------------------------------------------------

TEST(ValidationTest, SolverRejectsMalformedInputs) {
  util::Prng prng(1);
  auto rect = matrix::random_matrix(f, 4, 6, prng);
  std::vector<F::Element> b4(4, f.one());
  auto res = core::kp_solve(f, rect, b4, prng);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.status.kind(), FailureKind::kInvalidArgument);
  EXPECT_EQ(res.attempts, 0);

  auto res_det = core::kp_det(f, rect, prng);
  EXPECT_EQ(res_det.status.kind(), FailureKind::kInvalidArgument);

  auto sq = nonsingular_matrix(4, prng);
  std::vector<F::Element> b3(3, f.one());
  auto mismatch = core::kp_solve(f, sq, b3, prng);
  EXPECT_EQ(mismatch.status.kind(), FailureKind::kInvalidArgument);

  core::SolverOptions opt;
  opt.max_attempts = 0;
  auto no_attempts = core::kp_solve(f, sq, b4, prng, opt);
  EXPECT_EQ(no_attempts.status.kind(), FailureKind::kInvalidArgument);
}

TEST(ValidationTest, WiedemannRejectsDimensionMismatch) {
  util::Prng prng(2);
  auto a = nonsingular_matrix(5, prng);
  matrix::DenseBox<F> box(f, a);
  std::vector<F::Element> b_bad(4, f.one());
  auto res = core::wiedemann_solve_status(f, box, b_bad, prng, 1u << 20);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.status.kind(), FailureKind::kInvalidArgument);

  // An empty operator is rejected before any attempt, scalar and block.
  const matrix::Matrix<F> empty(0, 0, f.zero());
  const matrix::DenseViewBox<F> empty_box(f, empty);
  const std::vector<F::Element> b_empty;
  auto scalar0 =
      core::wiedemann_solve_status(f, empty_box, b_empty, prng, 1u << 20);
  EXPECT_EQ(scalar0.status.kind(), FailureKind::kInvalidArgument);
  EXPECT_EQ(scalar0.attempts, 0);
  EXPECT_TRUE(scalar0.diags.empty());
  auto block0 = core::block_wiedemann_solve_status(f, empty_box, b_empty, prng,
                                                   1u << 20, 4);
  EXPECT_EQ(block0.status.kind(), FailureKind::kInvalidArgument);
  EXPECT_EQ(block0.attempts, 0);
  EXPECT_TRUE(block0.diags.empty());

  auto rect = matrix::random_matrix(f, 4, 6, prng);
  core::SolverOptions det_opt;
  det_opt.sample_size = 1u << 20;
  auto det = core::kp_det(f, rect, prng, det_opt);
  EXPECT_FALSE(det.ok);
  EXPECT_EQ(det.status.kind(), FailureKind::kInvalidArgument);
}

TEST(ValidationTest, KrylovEntryPointsRejectMalformedInputs) {
  util::Prng prng(3);
  auto rect = matrix::random_matrix(f, 4, 6, prng);
  std::vector<F::Element> v4(4, f.one());
  EXPECT_EQ(core::krylov_block(f, rect, v4, 4).rows(), 0u);
  EXPECT_EQ(
      core::validate_krylov_input(f, rect.rows(), rect.cols(), v4.size())
          .kind(),
      FailureKind::kInvalidArgument);

  auto sq = matrix::random_matrix(f, 4, 4, prng);
  std::vector<F::Element> v3(3, f.one());
  EXPECT_EQ(core::krylov_block(f, sq, v3, 4).rows(), 0u);
  matrix::DenseBox<F> box(f, sq);
  EXPECT_EQ(core::krylov_block_iterative(f, box, v3, 4).rows(), 0u);

  const auto block = core::krylov_block(f, sq, v4, 4);
  std::vector<F::Element> too_many(5, f.one());
  EXPECT_TRUE(core::krylov_combine(f, block, too_many).empty());
}

TEST(ValidationTest, AnnihilatorRejectsDegenerateInput) {
  std::vector<F::Element> trivial{f.one()};
  EXPECT_EQ(core::validate_annihilator(f, trivial).kind(),
            FailureKind::kInvalidArgument);
  std::vector<F::Element> zero_const{f.zero(), f.one()};
  EXPECT_EQ(core::validate_annihilator(f, zero_const).kind(),
            FailureKind::kZeroConstantTerm);
  EXPECT_TRUE(core::solution_combination(f, trivial).empty());
  EXPECT_TRUE(core::solution_combination(f, zero_const).empty());

  util::Prng prng(4);
  auto a = nonsingular_matrix(3, prng);
  matrix::DenseBox<F> box(f, a);
  std::vector<F::Element> b(3, f.one());
  EXPECT_TRUE(core::solve_from_annihilator(f, box, zero_const, b).empty());

  std::vector<F::Element> good{f.one(), f.one()};
  EXPECT_TRUE(core::validate_annihilator(f, good).ok());
}

TEST(ValidationTest, CharpolyBaselinesRejectNonSquare) {
  util::Prng prng(5);
  auto rect = matrix::random_matrix(f, 3, 5, prng);
  EXPECT_EQ(core::validate_charpoly_input(f, rect).kind(),
            FailureKind::kInvalidArgument);
  EXPECT_TRUE(core::charpoly_csanky(f, rect).empty());
  EXPECT_TRUE(core::faddeev_leverrier(f, rect).charpoly.empty());
  EXPECT_TRUE(core::charpoly_berkowitz(f, rect).empty());
  EXPECT_TRUE(core::charpoly_chistov(f, rect).empty());
}

TEST(ValidationTest, ExtensionsRejectMalformedInputs) {
  util::Prng prng(6);
  auto rect = matrix::random_matrix(f, 3, 5, prng);
  auto ns = core::nullspace_randomized(f, rect, prng, 1u << 20);
  EXPECT_FALSE(ns.ok);
  EXPECT_EQ(ns.status.kind(), FailureKind::kInvalidArgument);
  const matrix::Matrix<F> empty(0, 0, f.zero());
  auto ns0 = core::nullspace_randomized(f, empty, prng, 1u << 20);
  EXPECT_FALSE(ns0.ok);
  EXPECT_EQ(ns0.status.kind(), FailureKind::kInvalidArgument);

  // singular_solve_randomized: a non-square A or a short b is rejected
  // before any product reads past the operands.
  auto sq = matrix::random_matrix(f, 4, 4, prng);
  std::vector<F::Element> b3(3, f.one());
  EXPECT_FALSE(
      core::singular_solve_randomized(f, rect, b3, prng, 1u << 20).has_value());
  EXPECT_FALSE(
      core::singular_solve_randomized(f, sq, b3, prng, 1u << 20).has_value());

  // least_squares is meaningful only in characteristic zero: over Zp it is
  // rejected instead of asserting.
  std::vector<F::Element> b(4, f.one());
  EXPECT_FALSE(core::least_squares(f, sq, b).has_value());
  EXPECT_FALSE(core::least_squares_randomized(f, sq, b, prng).has_value());
}

TEST(ValidationTest, ToeplitzSolveRejectsDimensionMismatch) {
  util::Prng prng(7);
  poly::PolyRing<F> ring(f);
  std::vector<F::Element> diag(2 * 4 - 1);
  for (auto& e : diag) e = f.random(prng);
  matrix::Toeplitz<F> t(4, std::move(diag));
  std::vector<F::Element> b3(3, f.one());
  EXPECT_TRUE(seq::toeplitz_solve_charpoly(f, t, b3, ring).empty());
  auto st = seq::toeplitz_solve_charpoly_status(f, t, b3, ring);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.status().kind(), FailureKind::kInvalidArgument);
}

TEST(ValidationTest, LiftDegreeStatus) {
  auto bad_p = core::lift_degree_status(1, 100);
  EXPECT_FALSE(bad_p.ok());
  EXPECT_EQ(bad_p.status().kind(), FailureKind::kInvalidArgument);

  auto ok = core::lift_degree_status(101, 10000);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2u);  // 101^2 = 10201 >= 10000

  auto small = core::lift_degree_status(101, 50);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value(), 1u);

  // The target is NOT reachable within a 64-bit word: reported, not
  // silently capped like the legacy lift_degree.
  auto overflow = core::lift_degree_status(2, ~std::uint64_t{0});
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().kind(), FailureKind::kSampleSetTooSmall);
  EXPECT_EQ(overflow.status().stage(), Stage::kLift);
}

// ---------------------------------------------------------------------------
// Fault injection: stage-targeted retries in the Theorem-4 solver
// ---------------------------------------------------------------------------

struct SolveFixture {
  std::size_t n = 12;
  matrix::Matrix<F> a;
  std::vector<F::Element> x_true, b;

  explicit SolveFixture(std::uint64_t seed = 101) : a(1, 1, f.zero()) {
    util::Prng setup(seed);
    a = nonsingular_matrix(n, setup);
    x_true.resize(n);
    for (auto& e : x_true) e = f.random(setup);
    b = matrix::mat_vec(f, a, x_true);
  }
};

TEST(FaultInjectionTest, ProjectionFaultRedrawsOnlyProjection) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  util::fault::ScopedFault fi(Stage::kProjection, /*attempt=*/1);
  util::Prng prng(77);
  auto res = core::kp_solve(f, fx.a, fx.b, prng);
  EXPECT_EQ(fi.fired(), 1u);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.x, fx.x_true);
  ASSERT_EQ(res.diags.size(), 2u);
  EXPECT_EQ(res.diags[0].kind, FailureKind::kDegenerateProjection);
  EXPECT_EQ(res.diags[0].stage, Stage::kProjection);
  EXPECT_TRUE(res.diags[0].injected);
  // The retry re-drew ONLY the projection pair: fresh u, v; H, D kept.
  EXPECT_TRUE(res.diags[1].redrew_projection);
  EXPECT_FALSE(res.diags[1].redrew_precondition);
  EXPECT_EQ(res.diags[1].precondition_seed, res.diags[0].precondition_seed);
  EXPECT_NE(res.diags[1].projection_seed, res.diags[0].projection_seed);
  EXPECT_EQ(res.diags[1].sample_size, res.diags[0].sample_size);  // no restart
}

TEST(FaultInjectionTest, PreconditionFaultRedrawsOnlyPreconditioner) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  util::fault::ScopedFault fi(Stage::kPrecondition, /*attempt=*/1);
  util::Prng prng(78);
  auto res = core::kp_solve(f, fx.a, fx.b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.x, fx.x_true);
  ASSERT_EQ(res.diags.size(), 2u);
  EXPECT_EQ(res.diags[0].kind, FailureKind::kSingularPrecondition);
  EXPECT_TRUE(res.diags[0].injected);
  EXPECT_TRUE(res.diags[1].redrew_precondition);
  EXPECT_FALSE(res.diags[1].redrew_projection);
  EXPECT_EQ(res.diags[1].projection_seed, res.diags[0].projection_seed);
  EXPECT_NE(res.diags[1].precondition_seed, res.diags[0].precondition_seed);
}

TEST(FaultInjectionTest, CharpolyFaultRedrawsOnlyPreconditioner) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  util::fault::ScopedFault fi(Stage::kCharpoly, /*attempt=*/1);
  util::Prng prng(79);
  auto res = core::kp_solve(f, fx.a, fx.b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  ASSERT_EQ(res.diags.size(), 2u);
  // g(0) = 0 implicates A-tilde, i.e. the preconditioner (A is fixed).
  EXPECT_EQ(res.diags[0].kind, FailureKind::kZeroConstantTerm);
  EXPECT_TRUE(res.diags[1].redrew_precondition);
  EXPECT_FALSE(res.diags[1].redrew_projection);
}

TEST(FaultInjectionTest, NewtonToeplitzFaultRedrawsOnlyProjection) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  util::fault::ScopedFault fi(Stage::kNewtonToeplitz, /*attempt=*/1);
  util::Prng prng(80);
  auto res = core::kp_solve(f, fx.a, fx.b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  ASSERT_EQ(res.diags.size(), 2u);
  // det(T) = 0 is the Lemma-2 event: the projection lost information.
  EXPECT_EQ(res.diags[0].kind, FailureKind::kDegenerateProjection);
  EXPECT_EQ(res.diags[0].stage, Stage::kNewtonToeplitz);
  EXPECT_TRUE(res.diags[1].redrew_projection);
  EXPECT_FALSE(res.diags[1].redrew_precondition);
}

TEST(FaultInjectionTest, DeepNewtonToeplitzSiteReportsOrganically) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  // Site 1 of the stage is the Berlekamp-Massey degree check (deg g != n,
  // i.e. det(T) = 0); the failure then surfaces through the legitimate
  // degenerate-generator path rather than the solver's own injection
  // shortcut.
  util::fault::ScopedFault fi(Stage::kNewtonToeplitz, /*attempt=*/1,
                              /*site_index=*/1);
  util::Prng prng(81);
  auto res = core::kp_solve(f, fx.a, fx.b, prng);
  EXPECT_EQ(fi.fired(), 1u);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  ASSERT_EQ(res.diags.size(), 2u);
  EXPECT_EQ(res.diags[0].kind, FailureKind::kDegenerateProjection);
  EXPECT_FALSE(res.diags[0].injected);  // took the organic det(T) = 0 branch
}

TEST(FaultInjectionTest, VerifyFaultForcesFullRestart) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  util::fault::ScopedFault fi(Stage::kVerify, /*attempt=*/1);
  util::Prng prng(82);
  auto res = core::kp_solve(f, fx.a, fx.b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  ASSERT_EQ(res.diags.size(), 2u);
  EXPECT_EQ(res.diags[0].kind, FailureKind::kVerifyMismatch);
  // A verify mismatch implicates the PAIR: both re-drawn, |S| escalated.
  EXPECT_TRUE(res.diags[1].redrew_precondition);
  EXPECT_TRUE(res.diags[1].redrew_projection);
  EXPECT_EQ(res.diags[1].sample_size, 2 * res.diags[0].sample_size);
}

TEST(FaultInjectionTest, PreconditionerDetFaultTakesTheGuardedBranch) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  // Site 1 of kPrecondition in the solver attempt is Preconditioner::det:
  // the injected zero exercises the det(H D) = 0 guard, which cannot
  // trigger organically once g(0) != 0.
  util::fault::ScopedFault fi(Stage::kPrecondition, /*attempt=*/1,
                              /*site_index=*/1);
  util::Prng prng(83);
  auto res = core::kp_solve(f, fx.a, fx.b, prng);
  EXPECT_EQ(fi.fired(), 1u);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  ASSERT_EQ(res.diags.size(), 2u);
  EXPECT_EQ(res.diags[0].kind, FailureKind::kSingularPrecondition);
  EXPECT_EQ(res.diags[0].stage, Stage::kPrecondition);
  EXPECT_FALSE(res.diags[0].injected);  // the natural zero-check reported it
}

TEST(FaultInjectionTest, RepeatedTargetedFailureEscalatesToFullRestart) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  core::SolverOptions opt;
  opt.max_attempts = 3;
  // A persistent projection fault: attempt 1 fails, attempt 2 re-draws only
  // u, v and fails AGAIN -- the pair is now implicated, so attempt 3 must be
  // a full restart with an escalated sample set.
  util::fault::ScopedFault fi(Stage::kProjection, /*attempt=*/-1,
                              /*site_index=*/-1, /*one_shot=*/false);
  util::Prng prng(84);
  auto res = core::kp_solve(f, fx.a, fx.b, prng, opt);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.attempts, opt.max_attempts + 1);
  ASSERT_EQ(res.diags.size(), 3u);
  EXPECT_TRUE(res.diags[1].redrew_projection);
  EXPECT_FALSE(res.diags[1].redrew_precondition);
  EXPECT_TRUE(res.diags[2].redrew_projection);
  EXPECT_TRUE(res.diags[2].redrew_precondition);  // escalated
  EXPECT_EQ(res.diags[2].sample_size, 2 * res.diags[0].sample_size);
  EXPECT_EQ(res.status.kind(), FailureKind::kDegenerateProjection);
  EXPECT_EQ(fi.fired(), 3u);
}

TEST(FaultInjectionTest, SoloRedrawClearsTheOtherComponentsEscalation) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  core::SolverOptions opt;
  opt.max_attempts = 4;
  // Attempt 2 re-draws u, v alone, attempt 3 re-draws H, D alone.  The
  // projection kept its value through that change, so its failure in
  // attempt 3 implicates u, v alone again: no full restart, |S| unchanged.
  util::fault::ScopedFault f1(Stage::kProjection, /*attempt=*/1);
  util::fault::ScopedFault f2(Stage::kCharpoly, /*attempt=*/2);
  util::fault::ScopedFault f3(Stage::kProjection, /*attempt=*/3);
  util::Prng prng(85);
  auto res = core::kp_solve(f, fx.a, fx.b, prng, opt);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 4);
  EXPECT_EQ(res.x, fx.x_true);
  ASSERT_EQ(res.diags.size(), 4u);
  EXPECT_TRUE(res.diags[2].redrew_precondition);
  EXPECT_FALSE(res.diags[2].redrew_projection);
  EXPECT_TRUE(res.diags[3].redrew_projection);
  EXPECT_FALSE(res.diags[3].redrew_precondition);
  EXPECT_EQ(res.diags[3].precondition_seed, res.diags[2].precondition_seed);
  EXPECT_EQ(res.diags[3].sample_size, res.diags[0].sample_size);
}

TEST(FaultInjectionTest, EveryFailureKindIsReachable) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  const matrix::Sparse<F> sp = sparse_from_dense(fx.a);
  const matrix::SparseBox<F> sbox(f, sp);

  struct Case {
    Stage stage;
    FailureKind kind;
  };
  const Case cases[] = {
      {Stage::kDraw, FailureKind::kInjectedFault},
      {Stage::kPrecondition, FailureKind::kSingularPrecondition},
      {Stage::kProjection, FailureKind::kDegenerateProjection},
      {Stage::kNewtonToeplitz, FailureKind::kDegenerateProjection},
      {Stage::kCharpoly, FailureKind::kZeroConstantTerm},
      {Stage::kSolveFinish, FailureKind::kVerifyMismatch},
      {Stage::kVerify, FailureKind::kVerifyMismatch},
  };
  for (const auto& c : cases) {
    // Dense default route (3n products with the formed A-tilde) and the
    // depth_optimal doubling route (squarings, n-column block finish).
    for (const bool deep : {false, true}) {
      const auto want =
          deep ? core::KrylovRoute::kDoubling : core::KrylovRoute::kIterative;
      const std::string where = std::string(util::to_string(c.stage)) +
                                (deep ? " (depth_optimal)" : " (default)");
      core::SolverOptions opt;
      opt.depth_optimal = deep;
      util::fault::ScopedFault fi(c.stage, /*attempt=*/1);
      util::Prng prng(90);
      auto res = core::kp_solve(f, fx.a, fx.b, prng, opt);
      EXPECT_EQ(fi.fired(), 1u) << where;
      EXPECT_EQ(res.route_used, want) << where;
      ASSERT_TRUE(res.ok) << where;
      EXPECT_EQ(res.attempts, 2) << where;
      ASSERT_GE(res.diags.size(), 1u);
      EXPECT_EQ(res.diags[0].kind, c.kind) << where;
      EXPECT_EQ(res.diags[0].stage, c.stage) << where;
      EXPECT_EQ(res.x, fx.x_true) << where;
    }
    // Sparse iterative route: same sites, same recovery.
    {
      util::fault::ScopedFault fi(c.stage, /*attempt=*/1);
      util::Prng prng(90);
      auto res = core::kp_solve(f, sbox, fx.b, prng);
      ASSERT_TRUE(res.ok) << util::to_string(c.stage) << " (sparse)";
      EXPECT_EQ(res.attempts, 2);
      EXPECT_EQ(res.diags[0].kind, c.kind) << util::to_string(c.stage);
      EXPECT_EQ(res.x, fx.x_true);
    }
  }
}

TEST(FaultInjectionTest, SampleSetTooSmallIsDiagnosedOnExhaustion) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  core::SolverOptions opt;
  opt.sample_size = 4;  // << 3 n^2 = 432: the est.-(2) bound is vacuous
  util::fault::ScopedFault fi(Stage::kCharpoly, /*attempt=*/-1,
                              /*site_index=*/-1, /*one_shot=*/false);
  util::Prng prng(85);
  auto res = core::kp_solve(f, fx.a, fx.b, prng, opt);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.status.kind(), FailureKind::kSampleSetTooSmall);
  EXPECT_EQ(res.status.stage(), Stage::kDraw);
}

TEST(FaultInjectionTest, OpBudgetDegradesToDenseBaseline) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  core::SolverOptions opt;
  opt.op_budget_per_attempt = 1;  // any failed attempt blows the budget
  util::fault::ScopedFault fi(Stage::kProjection, /*attempt=*/-1,
                              /*site_index=*/-1, /*one_shot=*/false);
  util::Prng prng(86);
  auto res = core::kp_solve(f, fx.a, fx.b, prng, opt);
  // The loop stopped after one attempt and the dense baseline settled it.
  ASSERT_TRUE(res.ok);
  EXPECT_TRUE(res.used_fallback);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.x, fx.x_true);
  EXPECT_EQ(res.det, matrix::det_gauss(f, fx.a));
}

TEST(FaultInjectionTest, DenseFallbackProvesSingularInput) {
  util::Prng setup(87);
  const std::size_t n = 8;
  auto a = singular_matrix(n, setup);
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(setup);
  core::SolverOptions opt;
  opt.dense_fallback = true;
  util::Prng prng(88);
  auto res = core::kp_solve(f, a, b, prng, opt);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.used_fallback);
  // Gaussian elimination SEPARATES bad luck from a singular input: the
  // verdict is deterministic.
  EXPECT_EQ(res.status.kind(), FailureKind::kSingularInput);
}

TEST(DenseFallbackTest, OneEliminationSettlesDetAndSolution) {
  // The fallback takes det A and x from one PLU factorization: its
  // arithmetic equals one solve_gauss, plus the zero test of det A.
  SolveFixture fx;
  const matrix::DenseBox<F> box(f, fx.a);
  core::SolveResult<F> res;
  util::OpScope fallback_scope;
  core::detail::dense_fallback_run(f, box, &fx.b, res);
  const util::OpCounts fallback = fallback_scope.counts();
  util::OpScope solve_scope;
  const auto x = matrix::solve_gauss(f, fx.a, fx.b);
  const util::OpCounts solve = solve_scope.counts();

  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.x, fx.x_true);
  EXPECT_EQ(res.x, *x);
  EXPECT_EQ(res.det, matrix::det_gauss(f, fx.a));
  EXPECT_EQ(fallback.add, solve.add);
  EXPECT_EQ(fallback.mul, solve.mul);
  EXPECT_EQ(fallback.div, solve.div);
  EXPECT_EQ(fallback.zero_test, solve.zero_test + 1);
}

// ---------------------------------------------------------------------------
// Fault injection: seq-layer sites through their own entry points
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, SeqLayerSitesReportThroughTheirOwnApis) {
  KP_REQUIRE_FAULT_INJECTION();
  util::Prng prng(89);
  poly::PolyRing<F> ring(f);
  const std::size_t n = 6;
  std::optional<matrix::Toeplitz<F>> t;
  for (;;) {
    std::vector<F::Element> diag(2 * n - 1);
    for (auto& e : diag) e = f.random(prng);
    matrix::Toeplitz<F> cand(n, std::move(diag));
    // Pick a T that satisfies BOTH Gohberg-Semencul preconditions
    // organically (det(T) != 0 and (T^{-1})_{1,1} != 0), so that only the
    // injected faults below can make the constructors fail.
    if (f.is_zero(matrix::det_gauss(f, cand.to_dense(f)))) continue;
    if (!seq::gs_from_toeplitz_gauss(f, cand).has_value()) continue;
    t.emplace(std::move(cand));
    break;
  }
  std::vector<F::Element> b(n, f.one());

  {
    util::fault::ScopedFault fi(Stage::kNewtonToeplitz);
    EXPECT_TRUE(seq::toeplitz_solve_charpoly(f, *t, b, ring).empty());
    EXPECT_EQ(fi.fired(), 1u);
  }
  {
    util::fault::ScopedFault fi(Stage::kNewtonToeplitz);
    auto st = seq::toeplitz_solve_charpoly_status(f, *t, b, ring);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.status().kind(), FailureKind::kSingularInput);
  }
  EXPECT_FALSE(seq::toeplitz_solve_charpoly(f, *t, b, ring).empty());

  // gs_from_toeplitz: site 0 is the p(0) = 0 check, site 1 the u_1 = 0
  // check of the Gohberg-Semencul precondition.
  {
    util::fault::ScopedFault fi(Stage::kGohbergSemencul, -1, /*site=*/0);
    EXPECT_FALSE(seq::gs_from_toeplitz(f, *t, ring).has_value());
    EXPECT_EQ(fi.fired(), 1u);
  }
  {
    util::fault::ScopedFault fi(Stage::kGohbergSemencul, -1, /*site=*/1);
    EXPECT_FALSE(seq::gs_from_toeplitz(f, *t, ring).has_value());
    EXPECT_EQ(fi.fired(), 1u);
  }
  {
    util::fault::ScopedFault fi(Stage::kGohbergSemencul);
    EXPECT_FALSE(seq::gs_from_toeplitz_gauss(f, *t).has_value());
    EXPECT_EQ(fi.fired(), 1u);
  }
  EXPECT_TRUE(seq::gs_from_toeplitz(f, *t, ring).has_value());
  EXPECT_TRUE(seq::gs_from_toeplitz_gauss(f, *t).has_value());
}

// ---------------------------------------------------------------------------
// Fault injection: Wiedemann's loops
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, WiedemannSolveRetriesWithFreshProjection) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  matrix::DenseBox<F> box(f, fx.a);
  util::fault::ScopedFault fi(Stage::kProjection, /*attempt=*/1);
  util::Prng prng(91);
  auto res = core::wiedemann_solve_status(f, box, fx.b, prng, 1u << 20);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.x, fx.x_true);
  ASSERT_EQ(res.diags.size(), 2u);
  EXPECT_EQ(res.diags[0].kind, FailureKind::kDegenerateProjection);
  EXPECT_TRUE(res.diags[0].injected);
  EXPECT_NE(res.diags[1].projection_seed, res.diags[0].projection_seed);
}

TEST(FaultInjectionTest, WiedemannDetTargetsTheImplicatedComponent) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx;
  core::SolverOptions det_opt;
  det_opt.sample_size = 1u << 20;
  // Projection failure: fresh u, v only.
  {
    util::fault::ScopedFault fi(Stage::kProjection, /*attempt=*/1);
    util::Prng prng(92);
    auto res = core::kp_det(f, fx.a, prng, det_opt);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.attempts, 2);
    EXPECT_EQ(res.det, matrix::det_gauss(f, fx.a));
    ASSERT_EQ(res.diags.size(), 2u);
    EXPECT_TRUE(res.diags[1].redrew_projection);
    EXPECT_FALSE(res.diags[1].redrew_precondition);
    EXPECT_EQ(res.diags[1].precondition_seed, res.diags[0].precondition_seed);
  }
  // Charpoly failure (g(0) = 0): fresh H, D only.
  {
    util::fault::ScopedFault fi(Stage::kCharpoly, /*attempt=*/1);
    util::Prng prng(93);
    auto res = core::kp_det(f, fx.a, prng, det_opt);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.attempts, 2);
    EXPECT_EQ(res.det, matrix::det_gauss(f, fx.a));
    ASSERT_EQ(res.diags.size(), 2u);
    EXPECT_TRUE(res.diags[1].redrew_precondition);
    EXPECT_FALSE(res.diags[1].redrew_projection);
    EXPECT_EQ(res.diags[1].projection_seed, res.diags[0].projection_seed);
  }
  // Preconditioner failure (the first kPrecondition site, at the draw):
  // fresh H, D.
  {
    util::fault::ScopedFault fi(Stage::kPrecondition, /*attempt=*/1);
    util::Prng prng(94);
    auto res = core::kp_det(f, fx.a, prng, det_opt);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.attempts, 2);
    ASSERT_EQ(res.diags.size(), 2u);
    EXPECT_EQ(res.diags[0].kind, FailureKind::kSingularPrecondition);
    EXPECT_TRUE(res.diags[1].redrew_precondition);
  }
}

// ---------------------------------------------------------------------------
// Fault injection: section-5 lift and the adaptive entry point
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, LiftFaultReportsSampleSetTooSmall) {
  KP_REQUIRE_FAULT_INJECTION();
  field::GFp f101(101);
  util::Prng setup(95);
  const std::size_t n = 6;
  matrix::Matrix<field::GFp> a(n, n, f101.zero());
  std::vector<field::GFp::Element> x(n), b;
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a.at(i, j) = f101.random(setup);
    }
    if (!f101.is_zero(matrix::det_gauss(f101, a))) break;
  }
  for (auto& e : x) e = f101.random(setup);
  b = matrix::mat_vec(f101, a, x);

  {
    util::fault::ScopedFault fi(Stage::kLift);
    util::Prng prng(96);
    auto res = core::kp_solve_small_field(f101, a, b, prng);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.status.kind(), FailureKind::kSampleSetTooSmall);
    EXPECT_TRUE(res.status.injected());
  }
  util::Prng prng(96);
  auto res = core::kp_solve_small_field(f101, a, b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_TRUE(res.status.ok());
  EXPECT_GE(res.extension_degree, 2u);
  EXPECT_GE(res.attempts, 1);
  EXPECT_EQ(res.x, x);

  // The adaptive entry point auto-routes: 3 n^2 = 108 > 101 forces the
  // lift here, while a small enough n stays in the base field.
  util::Prng padapt(97);
  auto adaptive = core::kp_solve_adaptive(f101, a, b, padapt);
  ASSERT_TRUE(adaptive.ok);
  EXPECT_GE(adaptive.extension_degree, 2u);
  EXPECT_EQ(adaptive.x, x);
}

TEST(RobustnessTest, AdaptiveSolveStaysInBaseFieldWhenLargeEnough) {
  // Over Zp with p ~ 10^6 and small n, card(K) >= 3 n^2: no lift.
  SolveFixture fx;
  field::GFp fp(1000003);
  matrix::Matrix<field::GFp> a(fx.n, fx.n, fp.zero());
  for (std::size_t i = 0; i < fx.n; ++i) {
    for (std::size_t j = 0; j < fx.n; ++j) {
      a.at(i, j) = fx.a.at(i, j);
    }
  }
  std::vector<field::GFp::Element> b(fx.b.begin(), fx.b.end());
  util::Prng prng(98);
  auto res = core::kp_solve_adaptive(fp, a, b, prng);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.extension_degree, 1u);
  std::vector<field::GFp::Element> want(fx.x_true.begin(), fx.x_true.end());
  EXPECT_EQ(res.x, want);
}

// ---------------------------------------------------------------------------
// Determinism across worker counts, and the never-a-wrong-answer property
// ---------------------------------------------------------------------------

void expect_same_diags(const std::vector<util::Diag>& a,
                       const std::vector<util::Diag>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].stage, b[i].stage) << i;
    EXPECT_EQ(a[i].attempt, b[i].attempt) << i;
    EXPECT_EQ(a[i].precondition_seed, b[i].precondition_seed) << i;
    EXPECT_EQ(a[i].projection_seed, b[i].projection_seed) << i;
    EXPECT_EQ(a[i].redrew_precondition, b[i].redrew_precondition) << i;
    EXPECT_EQ(a[i].redrew_projection, b[i].redrew_projection) << i;
    EXPECT_EQ(a[i].injected, b[i].injected) << i;
    EXPECT_EQ(a[i].sample_size, b[i].sample_size) << i;
    EXPECT_EQ(a[i].ops.total(), b[i].ops.total()) << i;
  }
}

TEST(FaultInjectionTest, RetryBehaviorIsBitIdenticalAcrossWorkerCounts) {
  KP_REQUIRE_FAULT_INJECTION();
  SolveFixture fx(111);
  auto& ctx = pram::ExecutionContext::global();
  auto run = [&](unsigned workers) {
    ctx.set_worker_limit(workers);
    util::fault::ScopedFault fi(Stage::kProjection, /*attempt=*/1);
    util::Prng prng(314);
    auto res = core::kp_solve(f, fx.a, fx.b, prng);
    ctx.set_worker_limit(0);
    return res;
  };
  const auto r1 = run(1);
  const auto r2 = run(2);
  const auto r8 = run(8);
  ASSERT_TRUE(r1.ok && r2.ok && r8.ok);
  EXPECT_EQ(r1.x, r2.x);
  EXPECT_EQ(r1.x, r8.x);
  EXPECT_EQ(r1.det, r2.det);
  EXPECT_EQ(r1.det, r8.det);
  expect_same_diags(r1.diags, r2.diags);
  expect_same_diags(r1.diags, r8.diags);
}

TEST(RobustnessTest, SingularInputNeverYieldsAWrongAnswer) {
  // The Las Vegas contract on singular inputs: never ok-with-wrong-x; the
  // status always names a detected failure.  Swept over draws, routes, and
  // worker counts.
  auto& ctx = pram::ExecutionContext::global();
  const std::size_t n = 8;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    util::Prng setup(200 + seed);
    const auto a = singular_matrix(n, setup);
    const auto sp = sparse_from_dense(a);
    std::vector<F::Element> b(n);
    for (auto& e : b) e = f.random(setup);

    for (unsigned workers : {1u, 2u, 8u}) {
      ctx.set_worker_limit(workers);
      // Default dense, depth_optimal dense (doubling), sparse.
      for (int route = 0; route < 3; ++route) {
        core::SolverOptions opt;
        opt.depth_optimal = route == 1;
        util::Prng prng(300 + seed);
        auto res = route < 2
                       ? core::kp_solve(f, a, b, prng, opt)
                       : core::kp_solve(f, matrix::SparseBox<F>(f, sp), b,
                                        prng, opt);
        if (res.ok) {
          // Only acceptable if b happened to be consistent: verify.
          EXPECT_EQ(matrix::mat_vec(f, a, res.x), b);
        } else {
          EXPECT_NE(res.status.kind(), FailureKind::kNone);
          const bool plausible =
              res.status.kind() == FailureKind::kDegenerateProjection ||
              res.status.kind() == FailureKind::kZeroConstantTerm ||
              res.status.kind() == FailureKind::kSingularPrecondition ||
              res.status.kind() == FailureKind::kVerifyMismatch ||
              res.status.kind() == FailureKind::kSingularInput;
          EXPECT_TRUE(plausible) << res.status.message();
          EXPECT_EQ(res.attempts, opt.max_attempts + 1);
        }
      }
    }
    ctx.set_worker_limit(0);
  }
}

TEST(RobustnessTest, DiagsRecordEveryAttemptWithOpCosts) {
  SolveFixture fx;
  util::Prng prng(400);
  auto res = core::kp_solve(f, fx.a, fx.b, prng);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.diags.size(), static_cast<std::size_t>(res.attempts));
  for (const auto& d : res.diags) {
    EXPECT_GT(d.ops.total(), 0u);
    EXPECT_GT(d.sample_size, 0u);
  }
  // Diag collection is optional for hot paths.
  core::SolverOptions opt;
  opt.collect_diag = false;
  util::Prng prng2(400);
  auto res2 = core::kp_solve(f, fx.a, fx.b, prng2, opt);
  ASSERT_TRUE(res2.ok);
  EXPECT_TRUE(res2.diags.empty());
  EXPECT_EQ(res2.x, res.x);
}

}  // namespace
}  // namespace kp
