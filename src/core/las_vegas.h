// The Las Vegas loop: the one attempt loop behind every randomized route
// (kp_solve / kp_det, the Wiedemann solves and Session::prepare's minimal
// generator draw).
//
// The paper's failure events are independent, and each one implicates a
// single random component:
//
//   * a degenerate projection (Lemma 2) implicates u, v
//     -- FailureKind::kDegenerateProjection;
//   * a singular A H D (Theorem 2, estimate (2)) implicates H, D
//     -- kSingularPrecondition, kZeroConstantTerm;
//   * anything else (a verify mismatch, an injected synthetic fault)
//     implicates the pair.
//
// The loop owns everything a retry needs, so a caller passes only its
// attempt body:
//
//   * the per-attempt bookkeeping -- util::fault::AttemptScope, an OpScope,
//     and one util::Diag per attempt;
//   * the stops: a control failure (deadline, cancel, shutdown) ends the run
//     at once, and a failed attempt over the op budget ends it with
//     kOpBudgetExhausted;
//   * the stage-targeted redraw table (RedrawPolicy) with its escalation: a
//     component re-drawn ALONE that fails again implicates the pair;
//   * |S| doubling on every full restart (estimate (2) halves the failure
//     bound with each doubling);
//   * seed derivation: attempt k of a component draws from
//     stream.fork(k).seed(), so any attempt replays from its Diag seeds.
//
// A one-component run (LasVegasOptions::preconditioned = false: the
// Wiedemann solves and Session::prepare, whose only randomness is the
// projection) re-draws the projection every attempt from the caller's
// stream and keeps |S| fixed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/deadline.h"
#include "util/fault.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp::core {

/// Fork tags of the two component streams ("pre-HD", "proj-uv").
inline constexpr std::uint64_t kPreconditionStreamTag = 0x7072652d48440000ULL;
inline constexpr std::uint64_t kProjectionStreamTag = 0x70726f6a2d757600ULL;

/// Which random components an attempt re-draws.
struct Redraw {
  bool precondition = true;  ///< H, D
  bool projection = true;    ///< u, v (or the block U, V)
};

/// The stage-targeted redraw table.  after() maps a failure onto the
/// component it implicates; a component already re-drawn ALONE since the
/// other one last changed that fails again implicates the pair, so the
/// next attempt is a full restart.  Re-drawing one component alone clears
/// the other's flag: the other has just kept its value through a change.
class RedrawPolicy {
 public:
  Redraw after(util::FailureKind kind) {
    Redraw r;
    if (kind == util::FailureKind::kDegenerateProjection) {
      r.precondition = projection_alone_;  // a repeat escalates to the pair
    } else if (kind == util::FailureKind::kSingularPrecondition ||
               kind == util::FailureKind::kZeroConstantTerm) {
      r.projection = precondition_alone_;
    }
    precondition_alone_ = r.precondition && !r.projection;
    projection_alone_ = r.projection && !r.precondition;
    return r;
  }

 private:
  bool precondition_alone_ = false;
  bool projection_alone_ = false;
};

/// Knobs of one Las Vegas run.
struct LasVegasOptions {
  std::size_t dim = 0;                 ///< n; an empty operator is rejected
  std::optional<std::size_t> rhs_dim;  ///< dim(b) of a solve; must equal n
  int max_attempts = 3;                ///< must be >= 1
  std::uint64_t sample_size = 0;       ///< |S| of the first attempt
  std::uint64_t op_budget = 0;         ///< per-attempt op cap (0 = none)
  /// true: two components, H, D and u, v, re-drawn by RedrawPolicy.
  /// false: the projection is the only component.
  bool preconditioned = true;
};

/// Outcome of a run.
struct LasVegasRun {
  /// Ok; kInvalidArgument from the entry check (attempts == 0); a control
  /// failure; kOpBudgetExhausted; or the last attempt's failure.
  util::Status status;
  int attempts = 0;               ///< max_attempts + 1 when exhausted
  std::uint64_t sample_size = 0;  ///< |S| of the last attempt
};

/// One attempt, as run_las_vegas hands it to the body.
class Attempt {
 public:
  Attempt(util::Prng& precondition_stream, util::Prng& projection_stream)
      : streams_{&precondition_stream, &projection_stream} {}

  int number() const { return diag_.attempt; }
  std::uint64_t sample_size() const { return diag_.sample_size; }
  const Redraw& redraws() const { return redraw_; }

  /// The draw point: forks fresh seeds for the components this attempt
  /// re-draws and records seeds and redraw flags in the Diag.  Call it
  /// where the attempt first consumes randomness; an attempt that fails
  /// before it leaves both streams untouched.
  void draw() {
    const auto k = static_cast<std::uint64_t>(diag_.attempt);
    if (redraw_.precondition) seeds_[0] = streams_[0]->fork(k).seed();
    if (redraw_.projection) seeds_[1] = streams_[1]->fork(k).seed();
    diag_.precondition_seed = seeds_[0];
    diag_.projection_seed = seeds_[1];
    diag_.redrew_precondition = redraw_.precondition;
    diag_.redrew_projection = redraw_.projection;
  }
  /// Current seeds (valid after draw(); kept components keep theirs).
  std::uint64_t precondition_seed() const { return seeds_[0]; }
  std::uint64_t projection_seed() const { return seeds_[1]; }

 private:
  template <class Body>
  friend LasVegasRun run_las_vegas(util::Prng&, const LasVegasOptions&,
                                   std::vector<util::Diag>*, Body&&);

  util::Prng* streams_[2];
  std::uint64_t seeds_[2] = {0, 0};
  Redraw redraw_;
  util::Diag diag_;
};

/// Runs `body` (util::Status(Attempt&)) until it succeeds, a stop fires, or
/// max_attempts are spent.  Each attempt's Diag goes to `diags` when given.
template <class Body>
LasVegasRun run_las_vegas(util::Prng& prng, const LasVegasOptions& opt,
                          std::vector<util::Diag>* diags, Body&& body) {
  using util::FailureKind;
  using util::Stage;
  using util::Status;
  LasVegasRun run;
  // Entry check: malformed inputs are rejected before any attempt.
  run.status = util::Require(opt.dim > 0, FailureKind::kInvalidArgument,
                             Stage::kNone, "operator dimension is zero");
  if (run.status.ok() && opt.rhs_dim) {
    run.status = util::Require(*opt.rhs_dim == opt.dim,
                               FailureKind::kInvalidArgument, Stage::kNone,
                               "dim(b) != dim(A)");
  }
  if (run.status.ok()) {
    run.status = util::Require(opt.max_attempts >= 1,
                               FailureKind::kInvalidArgument, Stage::kNone,
                               "max_attempts must be >= 1");
  }
  if (!run.status.ok()) return run;

  // Independent per-component streams: a targeted re-draw of one component
  // advances only its own stream, so the other's randomness is untouched.
  util::Prng pre_stream, proj_stream;
  if (opt.preconditioned) {
    pre_stream = prng.fork(kPreconditionStreamTag);
    proj_stream = prng.fork(kProjectionStreamTag);
  }
  Attempt at(pre_stream, opt.preconditioned ? proj_stream : prng);
  at.redraw_.precondition = opt.preconditioned;
  RedrawPolicy policy;
  std::uint64_t s = opt.sample_size;

  for (run.attempts = 1; run.attempts <= opt.max_attempts; ++run.attempts) {
    util::fault::AttemptScope attempt_scope(run.attempts);
    util::OpScope ops;
    at.diag_ = util::Diag{};
    at.diag_.attempt = run.attempts;
    at.diag_.sample_size = run.sample_size = s;

    run.status = body(at);

    util::Diag& diag = at.diag_;
    diag.kind = run.status.kind();
    diag.stage = run.status.stage();
    diag.injected = run.status.injected();
    diag.ops = ops.counts();
    if (diags != nullptr) diags->push_back(diag);

    // A control failure is not bad luck: the caller stopped wanting the
    // answer, so no further attempt may run.
    if (run.status.ok() || util::is_control_failure(run.status.kind())) {
      return run;
    }
    // A pathologically expensive failed attempt stops the loop instead of
    // re-rolling (kp_solve degrades to its dense baseline).
    if (opt.op_budget != 0 && diag.ops.total() > opt.op_budget) {
      run.status = Status::Fail(FailureKind::kOpBudgetExhausted,
                                run.status.stage(),
                                "attempt exceeded op_budget_per_attempt");
      return run;
    }
    if (opt.preconditioned) {
      at.redraw_ = policy.after(run.status.kind());
      const bool full_restart =
          at.redraw_.precondition && at.redraw_.projection;
      if (full_restart && s < (std::uint64_t{1} << 62)) s *= 2;
    }
  }
  return run;
}

}  // namespace kp::core
