// Failure taxonomy and diagnostics for the Las Vegas pipeline.
//
// Every stage of the Theorem-4 pipeline is Monte Carlo: a would-be division
// by zero (probability <= 3n^2/|S| per attempt, estimate (2) + Lemma 2)
// surfaces as a *detected* failure, never a wrong answer.  The paper's three
// independent failure events map onto distinct FailureKinds:
//
//   * the u/v projection loses information (Lemma 2, deg f_u < n)
//                                   -> kDegenerateProjection, re-draw u, v;
//   * the Hankel/diagonal preconditioner is singular or fails Theorem 2 /
//     estimate (1) (minpoly != charpoly)
//                                   -> kSingularPrecondition /
//                                      kZeroConstantTerm, re-draw H, D;
//   * the verified candidate mismatches (an undetected combination of both)
//                                   -> kVerifyMismatch, full restart.
//
// Status carries the kind + stage of the first detected failure; Diag is the
// per-attempt record (which randomness was drawn from which seed, how much
// work the attempt cost) that makes a failed run diagnosable after the fact.
// The taxonomy is shared by kp_solve / kp_det / the Wiedemann and
// block-Wiedemann solves / field_lift / the CRT shards / sessions and the
// service.  Entry points outside the Las Vegas pipeline (the seq-layer
// toeplitz_solve_charpoly and gs_from_toeplitz, the singular-system and
// least-squares helpers of core/extensions.h) report failure by an empty or
// nullopt result instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "util/op_count.h"

namespace kp::util {

/// What failed.  Ordered roughly by "how targeted the recovery can be".
enum class FailureKind : std::uint8_t {
  kNone = 0,               ///< success
  kDegenerateProjection,   ///< u/v projection lost information (deg f_u < n)
  kSingularPrecondition,   ///< H or D singular (det(H D) = 0)
  kZeroConstantTerm,       ///< f(0) = 0: A-tilde singular (A, H, or D)
  kVerifyMismatch,         ///< candidate failed the Las Vegas check A x = b
  kSampleSetTooSmall,      ///< |S| < 3 n^2: the est.-(2) bound is vacuous
  kSingularInput,          ///< deterministically confirmed det(A) = 0
  kInvalidArgument,        ///< malformed input (non-square, dim mismatch, ...)
  kOpBudgetExhausted,      ///< per-attempt op budget hit; degraded to baseline
  kInjectedFault,          ///< synthetic failure from the fault harness
  kDivisionByZero,         ///< a kernel was asked to invert a zero element
  kBadPrime,               ///< a CRT shard's prime divides det (or the shard
                           ///< failed deterministically under the shared
                           ///< transcript); redraw ONLY the prime
  // Service-layer kinds (core/service.h).  These are not pipeline failures:
  // they mean the caller stopped wanting the answer or the service refused
  // the work, so retry loops must not burn attempts on them.
  kDeadlineExceeded,       ///< request deadline passed (util/deadline.h)
  kCancelled,              ///< request cooperatively cancelled by the client
  kQueueOverflow,          ///< admission queue full; request shed (backpressure)
  kSessionQuarantined,     ///< session circuit-breaker open after repeated
                           ///< kVerifyMismatch; failing fast without pool time
  kShutdown,               ///< service/pool shut down before the work ran
};

/// Number of FailureKind enumerators (kNone included).  Keep in lockstep
/// with the enum; the name table below static_asserts against it.
inline constexpr int kFailureKindCount = 17;

/// Where it failed.  Stages double as fault-injection trigger keys
/// (util/fault.h), so the count below must track the enumerators.
enum class Stage : std::uint8_t {
  kNone = 0,
  kDraw,             ///< sampling the attempt's randomness
  kPrecondition,     ///< Theorem-2 H, D (draw, det, zero checks)
  kProjection,       ///< u A-tilde^i v sequence and its Lemma-1 Toeplitz
  kCharpoly,         ///< generator/charpoly recovery (g(0) zero check)
  kNewtonToeplitz,   ///< section-3 Newton-on-Toeplitz solve (det(T) check)
  kGohbergSemencul,  ///< Gohberg-Semencul construction ((T^-1)_{1,1} check)
  kSolveFinish,      ///< Cayley-Hamilton finish / unpreconditioning
  kVerify,           ///< Las Vegas verification A x = b
  kLift,             ///< section-5 field extension lift
  kCircuitEval,      ///< evaluating a recorded circuit / compiled tape
  kBlockProjection,  ///< block Krylov sequence U A^i V (width-b projections)
  kBlockGenerator,   ///< sigma-basis / matrix-BM generator recovery
  kCrtShard,                 ///< one word-size residue solve of a CRT-sharded run
  kRationalReconstruction,   ///< CRT recombination / rational reconstruction
  // Service-layer stages (core/service.h); fault-injection trigger keys like
  // every other stage, so each admission/batch/execute edge is testable.
  kServiceAdmission,         ///< admission queue: enqueue, backpressure, shed
  kServiceBatch,             ///< cross-request RHS coalescing into one batch
  kServiceExecute,           ///< running a coalesced batch on the pool
};

inline constexpr int kStageCount = 18;

namespace detail {

// Name tables indexed by enumerator value.  The static_asserts pin BOTH the
// table size and the last enumerator, so adding a FailureKind/Stage without
// naming it -- or renumbering the enum -- is a compile error, not an
// "unknown" string at runtime.
inline constexpr const char* kFailureKindNames[] = {
    "ok",
    "degenerate-projection",
    "singular-precondition",
    "zero-constant-term",
    "verify-mismatch",
    "sample-set-too-small",
    "singular-input",
    "invalid-argument",
    "op-budget-exhausted",
    "injected-fault",
    "division-by-zero",
    "bad-prime",
    "deadline-exceeded",
    "cancelled",
    "queue-overflow",
    "session-quarantined",
    "shutdown",
};
static_assert(sizeof(kFailureKindNames) / sizeof(kFailureKindNames[0]) ==
                  kFailureKindCount,
              "kFailureKindNames must name every FailureKind enumerator");
static_assert(static_cast<int>(FailureKind::kShutdown) + 1 ==
                  kFailureKindCount,
              "kFailureKindCount must track the FailureKind enum");

inline constexpr const char* kStageNames[] = {
    "none",
    "draw",
    "precondition",
    "projection",
    "charpoly",
    "newton-toeplitz",
    "gohberg-semencul",
    "solve-finish",
    "verify",
    "lift",
    "circuit-eval",
    "block-projection",
    "block-generator",
    "crt-shard",
    "rational-reconstruction",
    "service-admission",
    "service-batch",
    "service-execute",
};
static_assert(sizeof(kStageNames) / sizeof(kStageNames[0]) == kStageCount,
              "kStageNames must name every Stage enumerator");
static_assert(static_cast<int>(Stage::kServiceExecute) + 1 == kStageCount,
              "kStageCount must track the Stage enum");

}  // namespace detail

inline const char* to_string(FailureKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < static_cast<std::size_t>(kFailureKindCount)
             ? detail::kFailureKindNames[i]
             : "unknown";
}

inline const char* to_string(Stage s) {
  const auto i = static_cast<std::size_t>(s);
  return i < static_cast<std::size_t>(kStageCount) ? detail::kStageNames[i]
                                                   : "unknown";
}

/// Outcome of an operation: success, or the first detected failure with its
/// kind, stage, and a short human-readable detail.  Cheap to copy; the
/// detail string is empty on the success path.
class Status {
 public:
  Status() = default;

  static Status Ok() { return Status(); }

  static Status Fail(FailureKind kind, Stage stage, std::string detail = {}) {
    Status st;
    st.kind_ = kind;
    st.stage_ = stage;
    st.detail_ = std::move(detail);
    return st;
  }

  /// A failure forced by the fault harness (util/fault.h).  It reports the
  /// NATURAL kind of its site -- so the retry policy targets the same
  /// component a real failure would -- and is flagged so Diag records can
  /// tell synthetic failures from organic ones.
  static Status Injected(FailureKind kind, Stage stage) {
    Status st = Fail(kind, stage, "injected");
    st.injected_ = true;
    return st;
  }

  bool ok() const { return kind_ == FailureKind::kNone; }
  FailureKind kind() const { return kind_; }
  Stage stage() const { return stage_; }
  bool injected() const { return injected_; }
  const std::string& detail() const { return detail_; }

  /// "<kind> at <stage>[: detail]" -- for logs and test failure messages.
  std::string message() const {
    if (ok()) return "ok";
    std::string m = to_string(kind_);
    m += " at ";
    m += to_string(stage_);
    if (!detail_.empty()) {
      m += ": ";
      m += detail_;
    }
    return m;
  }

 private:
  FailureKind kind_ = FailureKind::kNone;
  Stage stage_ = Stage::kNone;
  bool injected_ = false;
  std::string detail_;
};

/// Returns Ok when `cond` holds, the given failure otherwise -- the one-line
/// precondition validator used by the public entry points in core/ so that
/// release builds reject malformed inputs instead of invoking UB.
inline Status Require(bool cond, FailureKind kind, Stage stage,
                      const char* detail) {
  return cond ? Status::Ok() : Status::Fail(kind, stage, detail);
}

/// A value or a Status -- the return type of the Status-threaded variants of
/// APIs whose legacy form signals failure with an empty container/nullopt.
template <class T>
class StatusOr {
 public:
  StatusOr(T value)  // NOLINT(google-explicit-constructor): by design
      : value_(std::move(value)) {}
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  const T& value() const { return value_; }
  T&& take() { return std::move(value_); }

 private:
  Status status_;
  T value_{};
};

/// One attempt of a Las Vegas loop: what randomness it used (stage-split
/// seeds, so a failure is reproducible in isolation), what was re-drawn
/// relative to the previous attempt, how it failed, and what it cost.
struct Diag {
  FailureKind kind = FailureKind::kNone;
  Stage stage = Stage::kNone;
  int attempt = 0;                       ///< 1-based attempt index
  std::uint64_t precondition_seed = 0;   ///< seed of the H/D stream
  std::uint64_t projection_seed = 0;     ///< seed of the u/v stream
  bool redrew_precondition = false;      ///< H, D freshly drawn this attempt
  bool redrew_projection = false;        ///< u, v freshly drawn this attempt
  bool injected = false;                 ///< failure came from util/fault.h
  std::uint64_t sample_size = 0;         ///< |S| this attempt used
  OpCounts ops;                          ///< field ops this attempt cost
  /// CRT sharding (core/crt_shard.h): the word-size modulus this record's
  /// residue solve ran over (0 for non-sharded attempts), and the position
  /// of the prime in the deterministic stream (-1 for non-sharded attempts).
  /// A kBadPrime record followed by a record with a larger stream index and
  /// the SAME transcript seed is the prime-only redraw in action.
  std::uint64_t shard_modulus = 0;
  std::int64_t shard_prime_index = -1;
};

/// One-line JSON object for a Diag record -- the structured form the service
/// telemetry (core/service.h) and the benches emit instead of hand-formatted
/// rows.  All fields are numbers, bools, or enum names from the
/// static_assert-pinned tables above, so no string escaping is needed.
inline std::string to_json(const Diag& d) {
  std::string j = "{";
  auto field = [&j](const char* key, const std::string& val, bool quote) {
    if (j.size() > 1) j += ",";
    j += "\"";
    j += key;
    j += "\":";
    if (quote) j += "\"";
    j += val;
    if (quote) j += "\"";
  };
  field("kind", to_string(d.kind), true);
  field("stage", to_string(d.stage), true);
  field("attempt", std::to_string(d.attempt), false);
  field("precondition_seed", std::to_string(d.precondition_seed), false);
  field("projection_seed", std::to_string(d.projection_seed), false);
  field("redrew_precondition", d.redrew_precondition ? "true" : "false",
        false);
  field("redrew_projection", d.redrew_projection ? "true" : "false", false);
  field("injected", d.injected ? "true" : "false", false);
  field("sample_size", std::to_string(d.sample_size), false);
  field("ops_add", std::to_string(d.ops.add), false);
  field("ops_mul", std::to_string(d.ops.mul), false);
  field("ops_div", std::to_string(d.ops.div), false);
  field("ops_zero_test", std::to_string(d.ops.zero_test), false);
  field("shard_modulus", std::to_string(d.shard_modulus), false);
  field("shard_prime_index", std::to_string(d.shard_prime_index), false);
  j += "}";
  return j;
}

}  // namespace kp::util
