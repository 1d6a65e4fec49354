// Exact rational solve through multi-prime CRT sharding.
//
// Solves a dense system over Q by K independent word-size residue solves
// (each the full SIMD GFp pipeline) stitched back together with CRT and
// Wang rational reconstruction -- early-terminating as soon as the answer
// stabilizes AND verifies exactly over Z.  Shows the knobs, the shard
// diagnostics, and the Hadamard-cap fallback to the generic route.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/exact_rational_solve
#include <cstdio>

#include "core/crt_shard.h"
#include "field/rational.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "util/prng.h"

using kp::field::Rational;
using kp::field::RationalField;

int main() {
  RationalField q;
  kp::util::Prng prng(2024);

  // A 24x24 system with single-digit fractional entries and a known small
  // rational solution -- the regime where early termination shines: the
  // answer needs far fewer primes than the worst-case Hadamard bound.
  const std::size_t n = 24;
  kp::matrix::Matrix<RationalField> a(n, n, q.zero());
  std::vector<Rational> x_true(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto num = static_cast<std::int64_t>(prng.below(19)) - 9;
      const auto den = static_cast<std::int64_t>(1 + prng.below(4));
      a.at(i, j) = Rational(num, den);
    }
    a.at(i, i) = Rational(static_cast<std::int64_t>(10 * n), 1);
    x_true[i] = Rational(static_cast<std::int64_t>(prng.below(7)) - 3,
                         static_cast<std::int64_t>(1 + prng.below(3)));
  }
  std::vector<Rational> b(n, q.zero());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b[i] = q.add(b[i], q.mul(a.at(i, j), x_true[j]));
    }
  }

  // kp_solve_adaptive on RationalField routes through the CRT engine
  // automatically; crt_solve exposes the tuning knobs.
  auto res = kp::core::kp_solve_adaptive(q, a, b, prng);
  std::printf("exact solve over Q: ok=%d\n", res.ok ? 1 : 0);
  std::printf("  answer exact: %s\n", res.x == x_true ? "yes" : "no");
  std::printf("  shards used: %zu of a Hadamard cap of %zu (%zu batches)\n",
              res.shards_used, res.hadamard_cap, res.batches);
  std::printf("  early terminated: %s   det certified: %s\n",
              res.early_terminated ? "yes" : "no",
              res.det_certified ? "yes" : "no");
  const auto det_ref = kp::matrix::det_gauss(q, a);
  std::printf("  det(A) = %s (elimination: %s)\n", q.to_string(res.det).c_str(),
              det_ref == res.det ? "same" : "DIFFERENT");
  if (!res.primes.empty()) {
    std::printf("  first shard prime: %llu\n",
                static_cast<unsigned long long>(res.primes.front()));
  }

  // Every shard left a Diag: which prime, which index, which transcript.
  std::printf("  per-shard diagnostics: %zu records, transcript seed %llu\n",
              res.diags.size(),
              static_cast<unsigned long long>(res.transcript_seed));

  // Force the Hadamard-cap fallback: allow at most one shard and the
  // engine refuses to start, running the generic fraction-arithmetic
  // route instead -- same exact answer, no sharding.
  kp::core::CrtOptions tight;
  tight.max_shards = 1;
  kp::util::Prng prng2(2024);
  auto generic = kp::core::crt_solve(q, a, b, prng2, tight);
  std::printf("capped at 1 shard: used_generic=%d, answer exact: %s\n",
              generic.used_generic ? 1 : 0,
              generic.x == x_true ? "yes" : "no");

  // A wrong answer is a failure of the library, not of the example: say so
  // in the exit status.
  const bool ok = res.ok && res.x == x_true && res.det == det_ref &&
                  generic.ok && generic.x == x_true &&
                  generic.det == det_ref;
  if (!ok) std::printf("MISMATCH: an answer differs from its reference\n");
  return ok ? 0 : 1;
}
