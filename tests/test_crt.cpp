// Tests for the CRT sharding engine (core/crt_shard.h), the CRT /
// rational-reconstruction layer (core/crt_recon.h), the deterministic
// NTT-prime stream (field/primes.h) and the BigInt helpers they ride on.
// The contracts under test: round-trip exactness (CRT + Wang reconstruction
// recover arbitrary rationals, in any prime order), per-shard solves
// bit-identical to standalone Zp solves under the shared transcript at
// 1/2/8 workers, bad primes retried with ONLY the prime redrawn, the
// Hadamard cap falling back to the generic route, and early termination
// stopping short of the cap exactly when the answer is small.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/crt_recon.h"
#include "core/crt_shard.h"
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

namespace kp {
namespace {

using core::CrtOptions;
using core::CrtSolveResult;
using field::BigInt;
using field::Rational;
using field::RationalField;
using util::FailureKind;
using util::Stage;

#define KP_REQUIRE_FAULT_INJECTION()                  \
  do {                                                \
    if (!KP_FAULT_INJECTION_ENABLED) {                \
      GTEST_SKIP() << "fault injection compiled out"; \
    }                                                 \
  } while (0)

/// Worker-limit pin restored on scope exit.
class ScopedWorkers {
 public:
  explicit ScopedWorkers(unsigned limit)
      : saved_(pram::ExecutionContext::global().worker_limit()) {
    pram::ExecutionContext::global().set_worker_limit(limit);
  }
  ~ScopedWorkers() {
    pram::ExecutionContext::global().set_worker_limit(saved_);
  }

 private:
  unsigned saved_;
};

RationalField q;

matrix::Matrix<RationalField> random_rational_matrix(std::size_t n,
                                                     util::Prng& prng,
                                                     bool with_dens = true) {
  matrix::Matrix<RationalField> a(n, n, q.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::int64_t num = static_cast<std::int64_t>(prng.below(19)) - 9;
      const std::int64_t den =
          with_dens ? static_cast<std::int64_t>(prng.below(9)) + 1 : 1;
      a.at(i, j) = Rational(BigInt(num), BigInt(den));
    }
  }
  return a;
}

std::vector<Rational> random_rational_vector(std::size_t n, util::Prng& prng,
                                             bool with_dens = true) {
  std::vector<Rational> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t num = static_cast<std::int64_t>(prng.below(19)) - 9;
    const std::int64_t den =
        with_dens ? static_cast<std::int64_t>(prng.below(9)) + 1 : 1;
    b[i] = Rational(BigInt(num), BigInt(den));
  }
  return b;
}

matrix::Matrix<RationalField> nonsingular_rational(std::size_t n,
                                                   util::Prng& prng,
                                                   bool with_dens = true) {
  for (;;) {
    auto a = random_rational_matrix(n, prng, with_dens);
    if (!q.is_zero(matrix::det_gauss(q, a))) return a;
  }
}

// ---------------------------------------------------------------------------
// field/primes.h: deterministic NTT-prime stream
// ---------------------------------------------------------------------------

TEST(NttPrimeStream, DescendingCertifiedStream) {
  constexpr int kBits = 62;
  constexpr int kAdicity = 24;
  std::uint64_t prev = 0;
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t p = field::next_ntt_prime(kBits, kAdicity, prev);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(field::is_prime_u64(p));
    EXPECT_GE(p, 1ULL << (kBits - 1));
    EXPECT_LT(p, 1ULL << kBits);
    EXPECT_GE(std::countr_zero(p - 1), kAdicity);
    if (prev != 0) {
      EXPECT_LT(p, prev);
    }
    first.push_back(p);
    prev = p;
  }
  // Replaying the stream yields the identical primes: it is a pure function
  // of (bits, adicity, below).
  prev = 0;
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t p = field::next_ntt_prime(kBits, kAdicity, prev);
    EXPECT_EQ(p, first[static_cast<std::size_t>(i)]);
    prev = p;
  }
}

TEST(NttPrimeStream, MatchesBruteForceSmallRange) {
  // Every prime of the right shape in [2^19, 2^20) must appear, descending,
  // with none skipped -- cross-checked against trial division.
  constexpr int kBits = 20;
  constexpr int kAdicity = 8;
  std::vector<std::uint64_t> stream;
  for (std::uint64_t prev = 0;;) {
    const std::uint64_t p = field::next_ntt_prime(kBits, kAdicity, prev);
    if (p == 0) break;
    stream.push_back(p);
    prev = p;
  }
  std::vector<std::uint64_t> brute;
  for (std::uint64_t p = (1ULL << kBits) - 1; p >= (1ULL << (kBits - 1));
       --p) {
    if (std::countr_zero(p - 1) < kAdicity) continue;
    bool prime = p >= 2;
    for (std::uint64_t d = 2; d * d <= p; ++d) {
      if (p % d == 0) {
        prime = false;
        break;
      }
    }
    if (prime) brute.push_back(p);
  }
  EXPECT_EQ(stream, brute);
  EXPECT_FALSE(stream.empty());
}

TEST(NttPrimeStream, RejectsDegenerateArguments) {
  EXPECT_EQ(field::next_ntt_prime(2, 1), 0u);
  EXPECT_EQ(field::next_ntt_prime(64, 10), 0u);
  EXPECT_EQ(field::next_ntt_prime(62, 0), 0u);
  EXPECT_EQ(field::next_ntt_prime(62, 61), 0u);
  // Exhausted cap: nothing below the smallest admissible candidate.
  EXPECT_EQ(field::next_ntt_prime(62, 24, 1ULL << 61), 0u);
}

// ---------------------------------------------------------------------------
// field/bigint.h helpers: binary GCD fast path and mod_u64
// ---------------------------------------------------------------------------

TEST(CrtRecon, BinaryGcdMatchesReference) {
  // The word-size fast path (binary GCD) must agree with std::gcd on random
  // operands of every magnitude, including zero and sign variations.
  util::Prng prng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t a =
        static_cast<std::int64_t>(prng() >> (1 + prng.below(48)));
    const std::int64_t b =
        static_cast<std::int64_t>(prng() >> (1 + prng.below(48)));
    const std::int64_t expect = std::gcd(a, b);
    EXPECT_EQ(BigInt::gcd(BigInt(a), BigInt(-b)), BigInt(expect));
  }
  // Large operands still agree with the plain-Euclid contract
  // (gcd(k x, k y) = k gcd(x, y)) and handle signs.
  const BigInt k("123456789123456789123456789");
  EXPECT_EQ(BigInt::gcd(k * BigInt(462), k * BigInt(-1071)), k * BigInt(21));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(-7)), BigInt(7));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)), BigInt(0));
}

TEST(CrtRecon, ModU64MatchesBigIntRemainder) {
  util::Prng prng(12);
  for (int i = 0; i < 500; ++i) {
    BigInt v(static_cast<std::int64_t>(prng() >> 1));
    for (int j = 0; j < 4; ++j) {
      v = v * BigInt(static_cast<std::int64_t>(prng() >> 1));
    }
    if (prng.below(2)) v = -v;
    const std::uint64_t m = (prng() >> 2) | 1;
    BigInt r = v % BigInt(static_cast<std::int64_t>(m));
    if (r.is_negative()) r += BigInt(static_cast<std::int64_t>(m));
    ASSERT_TRUE(r.fits_int64());
    EXPECT_EQ(v.mod_u64(m), static_cast<std::uint64_t>(r.to_int64()));
  }
}

// ---------------------------------------------------------------------------
// core/crt_recon.h: Garner CRT + Wang reconstruction
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> stream_primes(std::size_t count, int bits = 62,
                                         int adicity = 20) {
  std::vector<std::uint64_t> ps;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    prev = field::next_ntt_prime(bits, adicity, prev);
    ps.push_back(prev);
  }
  return ps;
}

TEST(CrtRecon, BigIntInvmodRoundTrip) {
  util::Prng prng(21);
  const BigInt m("987654321987654321987654323");
  for (int i = 0; i < 50; ++i) {
    const BigInt a(static_cast<std::int64_t>(prng() >> 1) + 1);
    const auto inv = core::bigint_invmod(a, m);
    if (!inv.has_value()) continue;  // shared factor: fine, just skip
    BigInt prod = (a * *inv) % m;
    if (prod.is_negative()) prod += m;
    EXPECT_EQ(prod, BigInt(1));
  }
  EXPECT_FALSE(core::bigint_invmod(BigInt(6), BigInt(9)).has_value());
}

TEST(CrtRecon, GarnerRecoversIntegerInAnyPrimeOrder) {
  util::Prng prng(22);
  // A ~300-bit integer, recovered from residues folded in adversarial
  // (ascending, i.e. reverse-stream) order and in batches of mixed size.
  BigInt x(1);
  for (int i = 0; i < 5; ++i) {
    x *= BigInt(static_cast<std::int64_t>(prng() >> 1));
  }
  auto primes = stream_primes(7);
  std::reverse(primes.begin(), primes.end());
  core::CrtCombiner comb(1);
  std::size_t at = 0;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::uint64_t> ps(primes.begin() + static_cast<std::ptrdiff_t>(at),
                                  primes.begin() + static_cast<std::ptrdiff_t>(at + batch));
    std::vector<std::vector<std::uint64_t>> res(1, std::vector<std::uint64_t>(batch));
    for (std::size_t j = 0; j < batch; ++j) res[0][j] = x.mod_u64(ps[j]);
    comb.fold_batch(ps, res);
    at += batch;
  }
  EXPECT_EQ(comb.value(0), x % comb.modulus());
  EXPECT_EQ(core::symmetric_residue(comb.value(0), comb.modulus()), x);
}

TEST(CrtRecon, WangRoundTripLargeDenominator) {
  util::Prng prng(23);
  // n/d with a ~190-bit denominator; both fit the balanced bounds once the
  // modulus passes ~2*190 bits, i.e. 7 62-bit primes.
  BigInt n(static_cast<std::int64_t>(prng() >> 4));
  BigInt d(1);
  for (int i = 0; i < 3; ++i) d *= BigInt(static_cast<std::int64_t>(prng() >> 1) | 1);
  d = d.abs();
  const BigInt g = BigInt::gcd(n, d);
  n /= g;
  d /= g;
  if (prng.below(2)) n = -n;

  const auto primes = stream_primes(8);
  core::CrtCombiner comb(1);
  std::vector<std::vector<std::uint64_t>> res(1, std::vector<std::uint64_t>(primes.size()));
  for (std::size_t j = 0; j < primes.size(); ++j) {
    const std::uint64_t p = primes[j];
    // residue of n * d^{-1} mod p
    const field::GFp f(p);
    res[0][j] = f.mul(n.mod_u64(p), f.inv(d.mod_u64(p)));
  }
  comb.fold_batch(primes, res);
  const auto bounds = core::balanced_bounds(comb.modulus());
  const auto rec = core::rational_reconstruct(comb.value(0), comb.modulus(),
                                              bounds.num, bounds.den);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->num(), n);
  EXPECT_EQ(rec->den(), d);
}

TEST(CrtRecon, WangRejectsWhenModulusTooSmall) {
  // The denominator needs ~190 bits; 2 primes (~124 bits) cannot certify any
  // candidate within balanced bounds -- Wang must return nullopt, never a
  // wrong fraction that would then fail system verification.
  util::Prng prng(24);
  BigInt d(1);
  for (int i = 0; i < 3; ++i) d *= BigInt(static_cast<std::int64_t>(prng() >> 1) | 1);
  d = d.abs();
  const BigInt n(7);
  const auto primes = stream_primes(2);
  core::CrtCombiner comb(1);
  std::vector<std::vector<std::uint64_t>> res(1, std::vector<std::uint64_t>(primes.size()));
  for (std::size_t j = 0; j < primes.size(); ++j) {
    const field::GFp f(primes[j]);
    res[0][j] = f.mul(n.mod_u64(primes[j]), f.inv(d.mod_u64(primes[j])));
  }
  comb.fold_batch(primes, res);
  const auto bounds = core::balanced_bounds(comb.modulus());
  const auto rec = core::rational_reconstruct(comb.value(0), comb.modulus(),
                                              bounds.num, bounds.den);
  if (rec.has_value()) {
    // If anything came back within bounds it must NOT claim to be n/d.
    EXPECT_NE(rec->den(), d);
  }
}

// ---------------------------------------------------------------------------
// core/crt_shard.h: the sharded solve
// ---------------------------------------------------------------------------

TEST(CrtShardSolver, SolvesRationalSystemExactly) {
  util::Prng prng(31);
  const std::size_t n = 6;
  const auto a = nonsingular_rational(n, prng);
  const auto b = random_rational_vector(n, prng);
  const auto direct = matrix::solve_gauss(q, a, b);
  ASSERT_TRUE(direct.has_value());

  util::Prng solver_prng(99);
  auto res = core::crt_solve(q, a, b, solver_prng);
  ASSERT_TRUE(res.ok) << res.status.message();
  EXPECT_FALSE(res.used_generic);
  ASSERT_EQ(res.x.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(res.x[i], (*direct)[i]);
  if (res.det_certified) {
    EXPECT_EQ(res.det, matrix::det_gauss(q, a));
  }
}

TEST(CrtShardSolver, AdaptiveAutoRoutesRationalInputs) {
  util::Prng prng(32);
  const std::size_t n = 5;
  const auto a = nonsingular_rational(n, prng, /*with_dens=*/false);
  const auto b = random_rational_vector(n, prng, /*with_dens=*/false);
  util::Prng solver_prng(7);
  auto res = core::kp_solve_adaptive(q, a, b, solver_prng);
  ASSERT_TRUE(res.ok) << res.status.message();
  EXPECT_FALSE(res.used_generic);
  const auto direct = matrix::solve_gauss(q, a, b);
  ASSERT_TRUE(direct.has_value());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(res.x[i], (*direct)[i]);
}

TEST(CrtShardSolver, HadamardCapFallsBackToGeneric) {
  util::Prng prng(33);
  const std::size_t n = 5;
  const auto a = nonsingular_rational(n, prng);
  const auto b = random_rational_vector(n, prng);
  CrtOptions opt;
  opt.max_shards = 1;  // any real input needs more than one 62-bit prime
  util::Prng solver_prng(7);
  auto res = core::kp_solve_adaptive(q, a, b, solver_prng, opt);
  ASSERT_TRUE(res.ok) << res.status.message();
  EXPECT_TRUE(res.used_generic);
  const auto direct = matrix::solve_gauss(q, a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(res.x[i], (*direct)[i]);
}

TEST(CrtShardSolver, SingularInputProvedThroughGenericFallback) {
  const std::size_t n = 4;
  matrix::Matrix<RationalField> a(n, n, q.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a.at(i, j) = Rational(static_cast<std::int64_t>(i + j));  // rank 2
    }
  }
  std::vector<Rational> b(n, q.one());
  util::Prng solver_prng(7);
  auto res = core::crt_solve(q, a, b, solver_prng);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.used_generic);
  EXPECT_EQ(res.status.kind(), FailureKind::kSingularInput);
}

TEST(CrtShardSolver, BadPrimeRetriesWithOnlyPrimeRedrawn) {
  // det(A) = p0, the first stream prime: shard 0 deterministically reports
  // kBadPrime and the engine retries with the NEXT prime under the SAME
  // transcript seed.
  const std::size_t n = 4;
  CrtOptions opt;
  opt.min_two_adicity = 24;
  opt.keep_residues = true;
  const std::uint64_t p0 = field::next_ntt_prime(opt.prime_bits, 24);
  ASSERT_NE(p0, 0u);
  matrix::Matrix<RationalField> a(n, n, q.zero());
  a.at(0, 0) = Rational(BigInt(static_cast<std::int64_t>(p0)), BigInt(1));
  for (std::size_t i = 1; i < n; ++i) a.at(i, i) = q.one();
  std::vector<Rational> b(n, q.one());

  util::Prng solver_prng(7);
  auto res = core::crt_solve(q, a, b, solver_prng, opt);
  ASSERT_TRUE(res.ok) << res.status.message();
  EXPECT_FALSE(res.used_generic);
  // x = (1/p0, 1, 1, 1).
  EXPECT_EQ(res.x[0], Rational(BigInt(1), BigInt(static_cast<std::int64_t>(p0))));
  EXPECT_EQ(res.x[1], q.one());

  // Exactly one kBadPrime record, for prime index 0 / modulus p0; every
  // diag (bad and good) carries the same transcript seed.
  int bad = 0;
  for (const auto& d : res.diags) {
    EXPECT_EQ(d.precondition_seed, res.transcript_seed);
    if (d.kind == FailureKind::kBadPrime) {
      ++bad;
      EXPECT_EQ(d.stage, Stage::kCrtShard);
      EXPECT_EQ(d.shard_modulus, p0);
      EXPECT_EQ(d.shard_prime_index, 0);
    }
  }
  EXPECT_EQ(bad, 1);
  // p0 itself never contributes to the reconstruction.
  for (const auto p : res.primes) EXPECT_NE(p, p0);
}

TEST(CrtShardSolver, EarlyTerminationStopsShortOfHadamardCap) {
  // b = A x for a small integer x: the true answer has tiny numerators, so
  // reconstruction stabilizes long before the a-priori Hadamard cap.
  util::Prng prng(34);
  const std::size_t n = 16;
  const auto a = nonsingular_rational(n, prng, /*with_dens=*/false);
  std::vector<Rational> x_true(n);
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = Rational(static_cast<std::int64_t>(prng.below(10)));
  }
  std::vector<Rational> b(n, q.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b[i] = b[i] + a.at(i, j) * x_true[j];
    }
  }
  CrtOptions opt;
  opt.batch_size = 2;
  util::Prng solver_prng(7);
  auto res = core::crt_solve(q, a, b, solver_prng, opt);
  ASSERT_TRUE(res.ok) << res.status.message();
  EXPECT_TRUE(res.early_terminated);
  EXPECT_LT(res.shards_used, res.hadamard_cap);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(res.x[i], x_true[i]);
}

TEST(CrtShardSolver, DetOnlyMatchesGauss) {
  util::Prng prng(35);
  const std::size_t n = 5;
  const auto a = nonsingular_rational(n, prng);
  CrtOptions opt;
  opt.early_termination = false;  // run to the bound: det certified
  util::Prng solver_prng(7);
  auto res = core::crt_det(q, a, solver_prng, opt);
  ASSERT_TRUE(res.ok) << res.status.message();
  EXPECT_FALSE(res.used_generic);
  EXPECT_TRUE(res.det_certified);
  EXPECT_EQ(res.det, matrix::det_gauss(q, a));
}

// The acceptance criterion: each shard's residues are bit-identical to a
// standalone Zp solve of the reduced system with the same transcript seed
// and the same options, at 1, 2 and 8 workers.
TEST(CrtShardScheduler, ShardsBitIdenticalToStandaloneZpSolves) {
  util::Prng prng(36);
  const std::size_t n = 8;
  const auto a = nonsingular_rational(n, prng, /*with_dens=*/false);
  const auto b = random_rational_vector(n, prng, /*with_dens=*/false);

  CrtOptions opt;
  opt.keep_residues = true;
  CrtSolveResult ref;
  for (const unsigned workers : {1u, 2u, 8u}) {
    ScopedWorkers pin(workers);
    util::Prng solver_prng(7);
    auto res = core::crt_solve(q, a, b, solver_prng, opt);
    ASSERT_TRUE(res.ok) << res.status.message();
    ASSERT_FALSE(res.residues.empty());

    for (const auto& shard : res.residues) {
      // Standalone reduced solve: same prime, same seed, same options.
      const field::GFp f(shard.prime);
      matrix::Matrix<field::GFp> ap(n, n, 0);
      std::vector<std::uint64_t> bp(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ap.at(i, j) = a.at(i, j).num().mod_u64(shard.prime);
        }
        bp[i] = b[i].num().mod_u64(shard.prime);
      }
      util::Prng shard_prng(res.transcript_seed);
      auto standalone =
          core::kp_solve(f, ap, bp, shard_prng, core::shard_solver_options(opt));
      ASSERT_TRUE(standalone.ok);
      EXPECT_EQ(standalone.x, shard.x) << "prime " << shard.prime;
      EXPECT_EQ(standalone.det, shard.det);
    }

    if (workers == 1u) {
      ref = res;
    } else {
      // Full determinism across worker counts.
      EXPECT_EQ(res.primes, ref.primes);
      EXPECT_EQ(res.shards_used, ref.shards_used);
      EXPECT_EQ(res.early_terminated, ref.early_terminated);
      EXPECT_EQ(res.det, ref.det);
      ASSERT_EQ(res.x.size(), ref.x.size());
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(res.x[i], ref.x[i]);
      ASSERT_EQ(res.diags.size(), ref.diags.size());
      for (std::size_t i = 0; i < res.diags.size(); ++i) {
        EXPECT_EQ(res.diags[i].kind, ref.diags[i].kind);
        EXPECT_EQ(res.diags[i].shard_modulus, ref.diags[i].shard_modulus);
        EXPECT_EQ(res.diags[i].shard_prime_index,
                  ref.diags[i].shard_prime_index);
      }
      ASSERT_EQ(res.residues.size(), ref.residues.size());
      for (std::size_t i = 0; i < res.residues.size(); ++i) {
        EXPECT_EQ(res.residues[i].prime, ref.residues[i].prime);
        EXPECT_EQ(res.residues[i].x, ref.residues[i].x);
        EXPECT_EQ(res.residues[i].det, ref.residues[i].det);
      }
    }
  }
}

TEST(CrtShardScheduler, FaultInjectionShardSiteRetriesPrime) {
  KP_REQUIRE_FAULT_INJECTION();
  ScopedWorkers pin(1);  // shard sites run on pool workers; pin for determinism
  util::Prng prng(38);
  const std::size_t n = 4;
  const auto a = nonsingular_rational(n, prng);
  const auto b = random_rational_vector(n, prng);
  const auto direct = matrix::solve_gauss(q, a, b);
  util::fault::ScopedFault fi(Stage::kCrtShard);
  util::Prng solver_prng(7);
  auto res = core::crt_solve(q, a, b, solver_prng);
  EXPECT_EQ(fi.fired(), 1u);
  ASSERT_TRUE(res.ok) << res.status.message();
  int injected = 0;
  for (const auto& d : res.diags) {
    if (d.injected) {
      ++injected;
      EXPECT_EQ(d.kind, FailureKind::kBadPrime);
      EXPECT_EQ(d.stage, Stage::kCrtShard);
    }
  }
  EXPECT_EQ(injected, 1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(res.x[i], (*direct)[i]);
}

TEST(CrtShardScheduler, FaultInjectionReconstructionSiteDelaysTermination) {
  KP_REQUIRE_FAULT_INJECTION();
  ScopedWorkers pin(1);
  util::Prng prng(39);
  const std::size_t n = 8;
  const auto a = nonsingular_rational(n, prng, /*with_dens=*/false);
  std::vector<Rational> x_true(n, q.one());
  std::vector<Rational> b(n, q.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] = b[i] + a.at(i, j) * x_true[j];
  }
  CrtOptions opt;
  opt.batch_size = 2;

  util::Prng p_ref(7);
  auto ref = core::crt_solve(q, a, b, p_ref, opt);
  ASSERT_TRUE(ref.ok);

  util::fault::ScopedFault fi(Stage::kRationalReconstruction);
  util::Prng p_fi(7);
  auto res = core::crt_solve(q, a, b, p_fi, opt);
  EXPECT_EQ(fi.fired(), 1u);
  ASSERT_TRUE(res.ok) << res.status.message();
  // Termination was pushed back (>= one more batch), the answer unchanged.
  EXPECT_GE(res.batches, ref.batches);
  bool delayed = false;
  for (const auto& d : res.diags) {
    if (d.injected && d.stage == Stage::kRationalReconstruction) delayed = true;
  }
  EXPECT_TRUE(delayed);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(res.x[i], ref.x[i]);
}

}  // namespace
}  // namespace kp
