// Deterministic 64-bit primality testing, the NTT-prime stream and
// primitive roots.
//
// Used to validate user-supplied moduli (GF(p^k), NTT tables), to walk the
// NTT-friendly primes p = c * 2^a + 1 that CRT sharding runs over, and to
// find the generators the NTT roots of unity come from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "field/zp.h"

namespace kp::field {

/// Deterministic Miller-Rabin for 64-bit integers using the standard witness
/// set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}, which is exact for all
/// n < 3.3 * 10^24.
inline bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    std::uint64_t x = detail::powmod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = detail::mulmod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

/// Deterministic NTT-prime iterator: the LARGEST prime p = c * 2^a + 1 with
/// a >= min_two_adicity, p in [2^(bits-1), 2^bits), and p < below (pass
/// below = 0 for "no upper cap beyond 2^bits").  Primality is certified by
/// the deterministic Miller-Rabin above (exact for all 64-bit inputs).
///
/// Iterating
///
///   p0 = next_ntt_prime(bits, a);
///   p1 = next_ntt_prime(bits, a, p0);
///   p2 = next_ntt_prime(bits, a, p1); ...
///
/// walks a strictly descending, machine-independent stream of distinct
/// NTT-friendly primes -- the prime source for CRT sharding
/// (core/crt_shard.h), where "shard i uses the i-th stream prime" must mean
/// the same modulus on every host.  Returns 0 when the range [2^(bits-1),
/// min(below, 2^bits)) holds no further prime of the required shape.
inline std::uint64_t next_ntt_prime(int bits, int min_two_adicity,
                                    std::uint64_t below = 0) {
  if (bits < 3 || bits > 63) return 0;
  const int a = min_two_adicity;
  if (a < 1 || a >= bits - 1) return 0;
  const std::uint64_t step = 1ULL << a;
  const std::uint64_t hi = 1ULL << bits;       // exclusive
  const std::uint64_t lo = 1ULL << (bits - 1);  // inclusive
  const std::uint64_t cap = (below == 0 || below > hi) ? hi : below;
  if (cap <= lo) return 0;
  // Largest c with c * 2^a + 1 < cap; candidates descend from there.  Even c
  // just means two-adicity > a, which still satisfies the minimum, so every
  // c is admissible and the first prime hit really is the largest in range.
  for (std::uint64_t c = (cap - 2) >> a; c >= 1; --c) {
    const std::uint64_t p = c * step + 1;
    if (p < lo) break;
    if (p < cap && is_prime_u64(p)) return p;
  }
  return 0;
}

namespace detail {

/// Pollard's rho (Brent variant) returning a non-trivial factor of composite n.
inline std::uint64_t pollard_rho(std::uint64_t n) {
  if ((n & 1) == 0) return 2;
  std::uint64_t c = 1;
  while (true) {
    std::uint64_t x = 2, y = 2, d = 1;
    auto f = [&](std::uint64_t v) { return (mulmod(v, v, n) + c) % n; };
    while (d == 1) {
      x = f(x);
      y = f(f(y));
      const std::uint64_t diff = x > y ? x - y : y - x;
      d = std::gcd(diff, n);
    }
    if (d != n) return d;
    ++c;  // unlucky cycle; retry with a different polynomial
  }
}

inline void factor_u64(std::uint64_t n, std::vector<std::uint64_t>& primes) {
  if (n == 1) return;
  if (is_prime_u64(n)) {
    primes.push_back(n);
    return;
  }
  // Strip small factors first; rho handles the remaining hard composites.
  for (std::uint64_t p = 2; p <= 1000 && p * p <= n; p = (p == 2 ? 3 : p + 2)) {
    while (n % p == 0) {
      primes.push_back(p);
      n /= p;
    }
  }
  if (n == 1) return;
  if (is_prime_u64(n)) {
    primes.push_back(n);
    return;
  }
  const std::uint64_t d = pollard_rho(n);
  factor_u64(d, primes);
  factor_u64(n / d, primes);
}

}  // namespace detail

/// A generator of the multiplicative group of Z/pZ (p prime).
inline std::uint64_t primitive_root(std::uint64_t p) {
  std::vector<std::uint64_t> primes;
  detail::factor_u64(p - 1, primes);
  std::sort(primes.begin(), primes.end());
  primes.erase(std::unique(primes.begin(), primes.end()), primes.end());
  for (std::uint64_t g = 2;; ++g) {
    bool ok = true;
    for (std::uint64_t q : primes) {
      if (detail::powmod(g, (p - 1) / q, p) == 1) {
        ok = false;
        break;
      }
    }
    if (ok) return g;
  }
}

}  // namespace kp::field
