// Multi-prime CRT sharding: exact Q/Z solves through word-size residue
// solves.
//
// Production inputs are rational or integral; the fast layers (Montgomery
// kernels, cached NTT spectra, SIMD dispatch, block-Wiedemann) all live on
// word-size Zp.  This engine routes a Rational/BigInt solve through K
// independent residue solves over distinct word-size NTT primes -- each one
// a full kp_solve on the optimized hot path -- and recombines by incremental
// CRT (core/crt_recon.h) plus Wang rational reconstruction with early
// termination:
//
//   scale      rows of [A | b] are scaled by their denominator lcm ONCE,
//              giving an integer system A_z x = B_z with the same solution
//              and det(A) = det(A_z) / prod(row scalers);
//   shard      for stream primes p_0 > p_1 > ... (field/primes.h,
//              deterministic descending NTT-prime stream), reduce the cached
//              integer system mod p_i and run kp_solve over GFp(p_i).  Every
//              shard seeds its Prng with the SAME transcript seed, so every
//              shard replays identical preconditioner/projection draws and a
//              shard is bit-identical to a standalone Zp solve with that
//              seed.  A shard whose prime divides det(A_z) (or that fails
//              for any deterministic reason) is reported as
//              FailureKind::kBadPrime at Stage::kCrtShard and retried with
//              ONLY the next stream prime -- never a new transcript;
//   recombine  after each batch of shards, fold the residues into the
//              product-tree Garner accumulator and attempt reconstruction;
//              terminate as soon as sentinel entries are stable across two
//              consecutive batches AND the fully reconstructed candidate
//              verifies against the original system over Z (Las Vegas,
//              exact).  A Hadamard-bound cap bounds K a priori; inputs that
//              would exceed CrtOptions::max_shards fall back to the generic
//              multi-precision route, as does a run that burns its bad-prime
//              budget (singular inputs look like "every prime is bad", and
//              only the generic route can PROVE singularity).
//
// Scheduling: shards of one batch are independent tasks over
// pram::ExecutionContext.  Each shard runs single-worker (nested regions are
// serial), so a batch of shards saturates the pool.  Results and
// diagnostics are keyed by prime-stream index and sorted, so the output is
// deterministic regardless of completion order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/crt_recon.h"
#include "core/solver.h"
#include "field/bigint.h"
#include "field/primes.h"
#include "field/rational.h"
#include "field/zp.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "pram/parallel_for.h"
#include "util/fault.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp::core {

/// Tuning knobs for the CRT sharding engine.
struct CrtOptions {
  /// Bit width of the stream primes (primes live in [2^(bits-1), 2^bits)).
  int prime_bits = 62;
  /// Minimum two-adicity of p - 1 (0 = derived from n so that every
  /// transform length the per-shard pipeline needs is available).
  int min_two_adicity = 0;
  /// Shards launched per batch (0 = max(pool worker count, 4)).  Early
  /// termination triggers at batch granularity, so smaller batches stop
  /// earlier but reconstruct more often.
  std::size_t batch_size = 0;
  /// Hard cap on K.  When the Hadamard bound says more shards than this
  /// could be needed, the engine does not start at all and falls back to
  /// the generic multi-precision route.
  std::size_t max_shards = 1024;
  /// Total bad primes tolerated before concluding the input is probably
  /// singular and falling back to the generic route (which proves it).
  int max_bad_primes = 8;
  /// Attempt reconstruction after every batch and stop once it stabilizes
  /// and verifies; off = run straight to the Hadamard bound.
  bool early_termination = true;
  /// Keep each successful shard's raw residues in the result (tests,
  /// debugging; off by default -- it is O(K n) extra memory).
  bool keep_residues = false;
  /// Per-shard pipeline knobs (depth goal, op budget, |S|...).  The
  /// engine forces verify + dense_fallback on top, see
  /// shard_solver_options().
  SolverOptions solver;
  /// Warm-start pinning for sessions (core/session.h): primes a previous
  /// solve of the SAME operator proved good, pre-seeded into the stream
  /// cache so repeat solves skip the next_ntt_prime certification work, and
  /// the transcript seed that run used (0 = fork a fresh one from the
  /// caller's prng).  Correctness is unaffected: a pinned prime that turns
  /// bad for a new right-hand side is still detected and redrawn, because
  /// pinning only pre-populates the deterministic stream.
  std::vector<std::uint64_t> pinned_primes;
  std::uint64_t pinned_transcript_seed = 0;
};

/// Raw output of one successful shard (keep_residues only).
struct CrtShardResidue {
  std::uint64_t prime = 0;
  std::int64_t prime_index = -1;  ///< position in the deterministic stream
  std::vector<std::uint64_t> x;   ///< solution residues (empty for det-only)
  std::uint64_t det = 0;          ///< det(A_z) mod prime
};

/// Outcome of a sharded solve.
struct CrtSolveResult {
  bool ok = false;
  std::vector<field::Rational> x;  ///< exact solution of A x = b
  field::Rational det;             ///< det(A); see det_certified
  /// True when the accumulated modulus exceeds the Hadamard bound on
  /// |det(A_z)|, i.e. det is unconditionally determined.  Under early
  /// termination x is always verified exactly, but det is a by-product that
  /// may stop short of its own bound.
  bool det_certified = false;
  std::vector<std::uint64_t> primes;      ///< good primes, stream order
  std::vector<util::Diag> diags;          ///< one per shard attempt, by index
  util::Status status;
  std::size_t shards_used = 0;            ///< good shards folded
  std::size_t batches = 0;
  std::size_t hadamard_cap = 0;           ///< a-priori K bound for this input
  bool early_terminated = false;
  bool used_generic = false;              ///< answer from the generic route
  std::uint64_t transcript_seed = 0;      ///< the shared shard seed
  std::vector<CrtShardResidue> residues;  ///< keep_residues only
};

/// The exact SolverOptions every shard runs with: caller knobs plus forced
/// verification (so a bad prime is always DETECTED, making shard failure a
/// deterministic function of (transcript, prime)) and the dense settle path
/// (so det = 0 mod p yields kSingularInput instead of retry noise).  Public
/// so the bit-identity tests can run a standalone solve with the identical
/// configuration.
inline SolverOptions shard_solver_options(const CrtOptions& opt) {
  SolverOptions s = opt.solver;
  s.verify = true;
  s.dense_fallback = true;
  s.collect_diag = false;
  return s;
}

namespace detail {

/// Thread-safe memoized view of the deterministic descending NTT-prime
/// stream: at(i) is the i-th prime, the same on every host and for every
/// interleaving.  Returns 0 when the stream is exhausted.
class NttPrimeStream {
 public:
  NttPrimeStream(int bits, int min_two_adicity)
      : bits_(bits), adicity_(min_two_adicity) {}

  /// Pre-seeds the memo with primes certified by a previous run over the
  /// same operator (CrtOptions::pinned_primes): positions 0..k-1 are served
  /// from the pin without re-running next_ntt_prime, and the stream
  /// continues descending past the last pinned prime on demand (so bad-prime
  /// redraws still work).  A non-descending or zero-containing pin is
  /// ignored -- the stream must stay strictly descending to be duplicate-
  /// free.
  NttPrimeStream(int bits, int min_two_adicity,
                 const std::vector<std::uint64_t>& pinned)
      : bits_(bits), adicity_(min_two_adicity) {
    for (const std::uint64_t p : pinned) {
      if (p == 0 || (!cache_.empty() && p >= cache_.back())) {
        cache_.clear();
        return;
      }
      cache_.push_back(p);
    }
  }

  std::uint64_t at(std::size_t index) {
    std::lock_guard<std::mutex> lk(m_);
    while (cache_.size() <= index) {
      if (!cache_.empty() && cache_.back() == 0) return 0;  // exhausted
      const std::uint64_t prev = cache_.empty() ? 0 : cache_.back();
      cache_.push_back(field::next_ntt_prime(bits_, adicity_, prev));
    }
    return cache_[index];
  }

 private:
  std::mutex m_;
  std::vector<std::uint64_t> cache_;
  int bits_;
  int adicity_;
};

/// The row-scaled integer image of a rational system: A_z x = B_z has the
/// same solution as A x = b, and det(A_z) = det(A) * row_scale.  Built once;
/// every shard reduces these cached BigInts mod its own prime.
struct IntegerSystem {
  std::size_t n = 0;
  std::vector<field::BigInt> a;  ///< n x n, row-major
  std::vector<field::BigInt> b;  ///< empty for det-only runs
  field::BigInt row_scale;       ///< product of the per-row denominator lcms
  std::size_t entry_bits = 1;    ///< max bit length over A_z
  std::size_t rhs_bits = 1;      ///< max bit length over B_z
};

inline IntegerSystem scale_to_integers(
    const matrix::Matrix<field::RationalField>& a,
    const std::vector<field::Rational>* rhs) {
  using field::BigInt;
  IntegerSystem sys;
  sys.n = a.rows();
  sys.a.resize(sys.n * sys.n);
  if (rhs != nullptr) sys.b.resize(sys.n);
  sys.row_scale = BigInt(1);
  for (std::size_t i = 0; i < sys.n; ++i) {
    BigInt l(1);
    auto fold_den = [&l](const BigInt& den) {
      l = l / BigInt::gcd(l, den) * den;  // lcm
    };
    for (std::size_t j = 0; j < sys.n; ++j) fold_den(a.at(i, j).den());
    if (rhs != nullptr) fold_den((*rhs)[i].den());
    for (std::size_t j = 0; j < sys.n; ++j) {
      const field::Rational& e = a.at(i, j);
      BigInt v = e.num() * (l / e.den());
      sys.entry_bits = std::max(sys.entry_bits, v.bit_length());
      sys.a[i * sys.n + j] = std::move(v);
    }
    if (rhs != nullptr) {
      const field::Rational& e = (*rhs)[i];
      BigInt v = e.num() * (l / e.den());
      sys.rhs_bits = std::max(sys.rhs_bits, v.bit_length());
      sys.b[i] = std::move(v);
    }
    sys.row_scale *= l;
  }
  return sys;
}

/// One shard attempt: reduce the cached integer system mod p (done once per
/// prime) and run the full word-size pipeline with the shared transcript.
struct ShardOutcome {
  bool ok = false;
  std::uint64_t prime = 0;
  std::size_t index = 0;
  std::vector<std::uint64_t> x;
  std::uint64_t det = 0;
  util::Diag diag;
};

inline ShardOutcome run_shard(const IntegerSystem& sys, std::uint64_t p,
                              std::size_t index, std::uint64_t transcript_seed,
                              const CrtOptions& opt) {
  using util::FailureKind;
  using util::Stage;
  ShardOutcome out;
  out.prime = p;
  out.index = index;
  out.diag.attempt = static_cast<int>(index) + 1;
  out.diag.stage = Stage::kCrtShard;
  out.diag.shard_modulus = p;
  out.diag.shard_prime_index = static_cast<std::int64_t>(index);
  out.diag.precondition_seed = transcript_seed;
  out.diag.projection_seed = transcript_seed;
  if (KP_FAULT_POINT(Stage::kCrtShard)) {
    out.diag.kind = FailureKind::kBadPrime;
    out.diag.injected = true;
    return out;
  }
  const field::GFp f(p);
  const std::size_t n = sys.n;
  matrix::Matrix<field::GFp> ap(n, n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ap.at(i, j) = sys.a[i * n + j].mod_u64(p);
    }
  }
  util::Prng prng(transcript_seed);
  const SolverOptions sopt = shard_solver_options(opt);
  if (sys.b.empty()) {
    auto res = kp_det(f, ap, prng, sopt);
    out.diag.sample_size = res.sample_size_used;
    if (!res.ok || f.is_zero(res.det)) {
      out.diag.kind = FailureKind::kBadPrime;
      out.diag.injected = res.status.injected();
      return out;
    }
    out.det = res.det;
  } else {
    std::vector<std::uint64_t> bp(n);
    for (std::size_t i = 0; i < n; ++i) bp[i] = sys.b[i].mod_u64(p);
    auto res = kp_solve(f, ap, bp, prng, sopt);
    out.diag.sample_size = res.sample_size_used;
    if (!res.ok) {
      // verify is forced on, so failure here is deterministic in (seed, p):
      // the canonical cause is p | det(A_z).  Retry with the NEXT prime
      // only; the transcript is shared state and never redrawn.
      out.diag.kind = FailureKind::kBadPrime;
      out.diag.injected = res.status.injected();
      return out;
    }
    out.x = std::move(res.x);
    out.det = res.det;
  }
  out.ok = true;
  return out;
}

/// Exact verification over Z: with x_j = n_j / d_j, L = lcm(d_j) and
/// y_j = n_j * (L / d_j), checks A_z y = L * B_z row by row (rows fan out
/// over the pool).  This is the Las Vegas gate that makes early termination
/// sound.
inline bool verify_candidate(const IntegerSystem& sys,
                             const std::vector<field::Rational>& x) {
  using field::BigInt;
  const std::size_t n = sys.n;
  BigInt l(1);
  for (const auto& e : x) l = l / BigInt::gcd(l, e.den()) * e.den();
  std::vector<BigInt> y(n);
  for (std::size_t j = 0; j < n; ++j) y[j] = x[j].num() * (l / x[j].den());
  std::vector<char> row_ok(n, 0);
  pram::parallel_for(0, n, [&](std::size_t i) {
    BigInt acc(0);
    for (std::size_t j = 0; j < n; ++j) acc += sys.a[i * n + j] * y[j];
    row_ok[i] = acc == sys.b[i] * l ? 1 : 0;
  });
  return std::all_of(row_ok.begin(), row_ok.end(),
                     [](char c) { return c != 0; });
}

}  // namespace detail

/// Sharded solve of A x = b over Q.  Pass rhs = nullptr for a
/// determinant-only run.  See the header comment for the lifecycle.
inline CrtSolveResult crt_solve(const field::RationalField& f,
                                const matrix::Matrix<field::RationalField>& a,
                                const std::vector<field::Rational>* rhs,
                                util::Prng& prng, CrtOptions opt = {}) {
  using field::BigInt;
  using field::Rational;
  using util::FailureKind;
  using util::Stage;
  using util::Status;

  CrtSolveResult out;
  const std::size_t n = a.rows();
  out.status = util::Require(
      a.is_square() && n > 0 && (rhs == nullptr || rhs->size() == n),
      FailureKind::kInvalidArgument, Stage::kCrtShard,
      "A must be square and match b");
  if (!out.status.ok()) return out;
  const bool det_only = rhs == nullptr;

  // The shared transcript: one fork of the caller's stream seeds EVERY
  // shard, so all per-shard randomness (preconditioners, projections) is
  // replayed identically and diagnostics aggregate across shards.
  out.transcript_seed =
      opt.pinned_transcript_seed != 0
          ? opt.pinned_transcript_seed  // session warm start: replay the
                                        // transcript the pinned primes were
                                        // certified under
          : prng.fork(0x6372742d73686472ULL).seed();  // "crt-shdr"

  // Generic multi-precision fallback, also the singularity prover.
  auto run_generic = [&](Status why) {
    // The deterministic multi-precision baseline: fraction-arithmetic
    // Gaussian elimination straight over Q.  The randomized pipeline on a
    // rational field compounds fraction blowup through every Krylov stage
    // and loses to plain elimination by orders of magnitude, so the
    // fallback goes directly to the cheaper exact route -- which is also
    // the one that PROVES kSingularInput.
    out.used_generic = true;
    // One elimination settles both det A and x.
    const auto fac = matrix::plu_decompose(f, a);
    out.det = fac.det;
    out.det_certified = true;  // exact by construction, even when zero
    if (f.is_zero(out.det)) {
      out.ok = false;
      out.status = util::Status::Fail(util::FailureKind::kSingularInput,
                                      util::Stage::kSolveFinish,
                                      "Gaussian elimination: det(A) = 0");
      return;
    }
    if (!det_only) out.x = matrix::solve_plu(f, fac, *rhs);
    out.ok = true;
    out.status = std::move(why);
  };

  // Scale to integers once; every shard reduces these cached BigInts.
  const detail::IntegerSystem sys =
      detail::scale_to_integers(a, det_only ? nullptr : rhs);

  // A-priori bit budget (Cramer + Hadamard) -> cap on K.
  const std::size_t det_bits = hadamard_det_bits(n, sys.entry_bits) + 2;
  const std::size_t needed_bits =
      det_only ? det_bits
               : solution_modulus_bits(n, sys.entry_bits, sys.rhs_bits);
  const std::size_t bits_per_prime =
      static_cast<std::size_t>(opt.prime_bits - 1);
  out.hadamard_cap = (needed_bits + bits_per_prime - 1) / bits_per_prime;
  if (out.hadamard_cap > opt.max_shards) {
    run_generic(Status::Ok());
    return out;
  }

  int adicity = opt.min_two_adicity;
  if (adicity == 0) {
    // Transforms up to length ~8 n^2 (the Theorem-3 Toeplitz charpoly
    // multiplies degree-n^2-scale products) must exist; a too-small
    // two-adicity silently degrades those muls to the slow generic
    // convolution, ~10x per shard.  The default route runs no Toeplitz
    // charpoly: only depth_optimal shards and det(H)'s Theorem-3 fallback
    // for a non-normal H need the long transforms.  Two extra levels of
    // margin.
    adicity = 3;
    while ((std::size_t{1} << adicity) < 8 * n * n) ++adicity;
    adicity += 2;
  }
  detail::NttPrimeStream stream(opt.prime_bits, adicity, opt.pinned_primes);

  const std::size_t batch =
      opt.batch_size != 0
          ? opt.batch_size
          : std::max<std::size_t>(pram::worker_count(), 4);

  const std::size_t slots = det_only ? 1 : n + 1;  // x entries + det
  const std::size_t det_slot = det_only ? 0 : n;
  CrtCombiner combiner(slots);

  std::atomic<std::size_t> next_index{0};
  std::atomic<int> bad_primes{0};
  std::atomic<bool> stream_exhausted{false};
  std::mutex diag_mu;

  // Early-termination state: candidates from the previous batch.
  std::vector<std::optional<Rational>> prev_sentinels;
  std::optional<BigInt> prev_det;
  const std::size_t sentinel_count = det_only ? 0 : std::min<std::size_t>(n, 4);

  while (combiner.modulus().bit_length() < needed_bits) {
    // ---- run one batch of shards ---------------------------------------
    const std::size_t b = std::min(
        batch, out.hadamard_cap > out.shards_used
                   ? out.hadamard_cap - out.shards_used
                   : std::size_t{1});
    std::vector<detail::ShardOutcome> good(b);
    auto lane = [&](std::size_t slot) {
      while (bad_primes.load(std::memory_order_relaxed) <=
             opt.max_bad_primes) {
        const std::size_t idx =
            next_index.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t p = stream.at(idx);
        if (p == 0) {
          stream_exhausted.store(true, std::memory_order_relaxed);
          return;
        }
        detail::ShardOutcome sh =
            detail::run_shard(sys, p, idx, out.transcript_seed, opt);
        {
          std::lock_guard<std::mutex> lk(diag_mu);
          out.diags.push_back(sh.diag);
        }
        if (sh.ok) {
          good[slot] = std::move(sh);
          return;
        }
        bad_primes.fetch_add(1, std::memory_order_relaxed);
      }
    };
    pram::parallel_for(0, b, lane);
    ++out.batches;

    if (bad_primes.load() > opt.max_bad_primes) {
      // Every prime looking bad is exactly what a singular input produces;
      // only the generic route can prove or refute that.
      std::sort(out.diags.begin(), out.diags.end(),
                [](const util::Diag& x, const util::Diag& y) {
                  return x.shard_prime_index < y.shard_prime_index;
                });
      run_generic(Status::Ok());
      return out;
    }
    if (stream_exhausted.load()) {
      run_generic(Status::Ok());
      return out;
    }

    // ---- fold the batch (deterministic order: sort by stream index) ----
    std::sort(good.begin(), good.end(),
              [](const detail::ShardOutcome& x, const detail::ShardOutcome& y) {
                return x.index < y.index;
              });
    std::vector<std::uint64_t> batch_primes(b);
    std::vector<std::vector<std::uint64_t>> residues(
        slots, std::vector<std::uint64_t>(b));
    for (std::size_t j = 0; j < b; ++j) {
      batch_primes[j] = good[j].prime;
      if (!det_only) {
        for (std::size_t s = 0; s < n; ++s) residues[s][j] = good[j].x[s];
      }
      residues[det_slot][j] = good[j].det;
      out.primes.push_back(good[j].prime);
      if (opt.keep_residues) {
        CrtShardResidue r;
        r.prime = good[j].prime;
        r.prime_index = static_cast<std::int64_t>(good[j].index);
        r.x = std::move(good[j].x);
        r.det = good[j].det;
        out.residues.push_back(std::move(r));
      }
    }
    combiner.fold_batch(batch_primes, residues);
    out.shards_used += b;

    // ---- early termination ---------------------------------------------
    const bool last_batch = combiner.modulus().bit_length() >= needed_bits;
    if (!opt.early_termination && !last_batch) continue;
    const RatBounds bounds = balanced_bounds(combiner.modulus());
    const BigInt det_now =
        symmetric_residue(combiner.value(det_slot), combiner.modulus());

    bool stable = true;
    std::vector<std::optional<Rational>> sentinels(sentinel_count);
    for (std::size_t s = 0; s < sentinel_count; ++s) {
      sentinels[s] = rational_reconstruct(combiner.value(s),
                                          combiner.modulus(), bounds.num,
                                          bounds.den);
      stable = stable && sentinels[s].has_value() &&
               !prev_sentinels.empty() && prev_sentinels[s].has_value() &&
               *sentinels[s] == *prev_sentinels[s];
    }
    if (det_only) {
      stable = prev_det.has_value() && *prev_det == det_now;
    }
    prev_sentinels = std::move(sentinels);
    prev_det = det_now;

    if ((stable || last_batch) && !KP_FAULT_POINT(Stage::kRationalReconstruction)) {
      // Full reconstruction + exact verification: the Las Vegas gate.
      bool complete = true;
      std::vector<Rational> x(det_only ? 0 : n);
      if (!det_only) {
        std::vector<char> entry_ok(n, 0);
        pram::parallel_for(0, n, [&](std::size_t s) {
          auto r = rational_reconstruct(combiner.value(s), combiner.modulus(),
                                        bounds.num, bounds.den);
          if (r.has_value()) {
            x[s] = std::move(*r);
            entry_ok[s] = 1;
          }
        });
        complete = std::all_of(entry_ok.begin(), entry_ok.end(),
                               [](char c) { return c != 0; });
      }
      if (complete && (det_only || detail::verify_candidate(sys, x))) {
        out.ok = true;
        out.early_terminated = !last_batch;
        out.x = std::move(x);
        // det(A) = det(A_z) / row_scale, exact over Q; certified once the
        // modulus passed the Hadamard det bound.
        out.det = Rational(det_now, sys.row_scale);
        out.det_certified = combiner.modulus().bit_length() >= det_bits;
        break;
      }
      if (last_batch) {
        // The bound guarantees reconstruction succeeds and verifies for any
        // nonsingular input; reaching here means det(A) = 0 slipped through
        // every shard (impossible for good primes) or a logic error.
        util::Diag d;
        d.kind = FailureKind::kVerifyMismatch;
        d.stage = Stage::kRationalReconstruction;
        out.diags.push_back(d);
        run_generic(Status::Ok());
        return out;
      }
    } else if (stable || last_batch) {
      // Injected kRationalReconstruction fault: delay acceptance one batch.
      util::Diag d;
      d.kind = FailureKind::kInjectedFault;
      d.stage = Stage::kRationalReconstruction;
      d.injected = true;
      out.diags.push_back(d);
      if (last_batch) {
        run_generic(Status::Ok());
        return out;
      }
    }
  }

  std::sort(out.diags.begin(), out.diags.end(),
            [](const util::Diag& x, const util::Diag& y) {
              return x.shard_prime_index < y.shard_prime_index;
            });
  if (out.ok) out.status = Status::Ok();
  return out;
}

/// Sharded solve with a right-hand side.
inline CrtSolveResult crt_solve(const field::RationalField& f,
                                const matrix::Matrix<field::RationalField>& a,
                                const std::vector<field::Rational>& b,
                                util::Prng& prng, CrtOptions opt = {}) {
  return crt_solve(f, a, &b, prng, std::move(opt));
}

/// Sharded determinant.
inline CrtSolveResult crt_det(const field::RationalField& f,
                              const matrix::Matrix<field::RationalField>& a,
                              util::Prng& prng, CrtOptions opt = {}) {
  return crt_solve(f, a, nullptr, prng, std::move(opt));
}

/// The adaptive entry point for Q: Rational/BigInt inputs auto-route through
/// the sharded engine (the whole optimized word-size stack), falling back to
/// the generic multi-precision route when the Hadamard cap says sharding
/// cannot pay off -- the Q-side sibling of the GF(p) kp_solve_adaptive in
/// core/field_lift.h.
inline CrtSolveResult kp_solve_adaptive(
    const field::RationalField& f,
    const matrix::Matrix<field::RationalField>& a,
    const std::vector<field::Rational>& b, util::Prng& prng,
    CrtOptions opt = {}) {
  return crt_solve(f, a, &b, prng, std::move(opt));
}

}  // namespace kp::core
