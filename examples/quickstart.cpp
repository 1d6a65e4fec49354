// Quickstart: solve a linear system, compute a determinant and an inverse
// over two different fields with the library's main entry points.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/solver.h"
#include "field/rational.h"
#include "field/zp.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "util/prng.h"

int main() {
  // ---------------------------------------------------------------- Z/pZ --
  using F = kp::field::Zp<1000003>;
  F f;
  kp::util::Prng prng(1);

  // A random 8x8 system over Z/1000003.
  const std::size_t n = 8;
  auto a = kp::matrix::random_matrix(f, n, n, prng);
  std::vector<F::Element> x_true(n);
  for (auto& e : x_true) e = f.random(prng);
  auto b = kp::matrix::mat_vec(f, a, x_true);

  // The Kaltofen-Pan Theorem-4 solver: randomized, Las Vegas (the result is
  // verified; res.ok == false means A was singular or the randomness was
  // unlucky max_attempts times, probability <= (3n^2/|S|)^attempts).
  auto res = kp::core::kp_solve(f, a, b, prng);
  const auto det_ref = kp::matrix::det_gauss(f, a);
  std::printf("kp_solve over Z/1000003: ok=%d, attempts=%d\n", res.ok, res.attempts);
  std::printf("  solution matches: %s\n", res.x == x_true ? "yes" : "no");
  std::printf("  det(A) = %s (pipeline) = %s (elimination)\n",
              f.to_string(res.det).c_str(), f.to_string(det_ref).c_str());
  bool ok = res.ok && res.x == x_true && res.det == det_ref;

  // ------------------------------------------------------------------- Q --
  using kp::field::BigInt;
  using kp::field::Rational;
  kp::field::RationalField q;

  // The 3x3 Hilbert-like system, solved exactly.
  kp::matrix::Matrix<kp::field::RationalField> h(3, 3, q.zero());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      h.at(i, j) = Rational(BigInt(1), BigInt(static_cast<std::int64_t>(i + j + 1)));
    }
  }
  std::vector<Rational> rhs{Rational(1), Rational(0), Rational(0)};
  auto hres = kp::core::kp_solve(q, h, rhs, prng);
  std::printf("\nHilbert 3x3 over Q: ok=%d\n", hres.ok);
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("  x[%zu] = %s\n", i, hres.x[i].to_string().c_str());
  }
  std::printf("  det(H3) = %s (exact; known value 1/2160)\n",
              hres.det.to_string().c_str());
  // H3^{-1} e_1 = (9, -36, 30).
  const std::vector<Rational> hx{Rational(9), Rational(-36), Rational(30)};
  ok = ok && hres.ok && hres.x == hx &&
       hres.det == Rational(BigInt(1), BigInt(2160));

  // A wrong answer is a failure of the library, not of the example: say so
  // in the exit status.
  if (!ok) std::printf("\nMISMATCH: an answer differs from its reference\n");
  return ok ? 0 : 1;
}
