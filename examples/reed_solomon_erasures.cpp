// Reed-Solomon erasure recovery as structured linear algebra.
//
// An [n, k] Reed-Solomon codeword is the evaluation of a degree < k message
// polynomial at n points.  Recovering the message from any k surviving
// evaluations IS solving a k x k Vandermonde system -- which this library
// offers three ways:
//   1. interpolation (the structured fast path; cf. the section-4 remark
//      that transposed Vandermonde solving = interpolation),
//   2. Wiedemann's black-box solver on the Vandermonde operator,
//   3. the Theorem-4 randomized dense solver.
// All three must agree, over a word-sized prime field GF(p).
#include <cstdio>
#include <string>
#include <vector>

#include "core/solver.h"
#include "core/wiedemann.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "util/prng.h"

using F = kp::field::Zp<65537>;  // GF(2^16 + 1): the classic FFT prime

int main() {
  F f;
  kp::util::Prng prng(1234);
  kp::poly::PolyRing<F> ring(f);

  const std::size_t k = 11;  // message symbols
  const std::size_t n = 16;  // codeword symbols

  // Message: "KALTOFEN-P="... any k field symbols.
  const std::string text = "KALTOFEN&PAN91!";
  std::vector<F::Element> message(k);
  for (std::size_t i = 0; i < k; ++i) {
    message[i] = static_cast<F::Element>(text[i % text.size()]);
  }

  // Encode: evaluate at alpha_i = i + 1.
  std::vector<F::Element> points(n);
  for (std::size_t i = 0; i < n; ++i) points[i] = static_cast<F::Element>(i + 1);
  kp::matrix::Vandermonde<F> encoder(points, k);
  auto codeword = encoder.apply(f, message);
  std::printf("encoded %zu message symbols into %zu codeword symbols\n", k, n);

  // Erase n-k random positions.
  std::vector<bool> erased(n, false);
  for (std::size_t erasures = 0; erasures < n - k;) {
    const std::size_t pos = prng.below(n);
    if (!erased[pos]) {
      erased[pos] = true;
      ++erasures;
    }
  }
  std::vector<F::Element> surv_points, surv_values;
  for (std::size_t i = 0; i < n; ++i) {
    if (!erased[i]) {
      surv_points.push_back(points[i]);
      surv_values.push_back(codeword[i]);
    }
  }
  std::printf("erased %zu symbols; recovering from the surviving %zu\n", n - k,
              surv_points.size());

  // --- Route 1: interpolation (structured fast path). ----------------------
  kp::matrix::Vandermonde<F> survivor(surv_points, k);
  auto decoded1 = survivor.solve(ring, surv_values);

  // --- Route 2: Wiedemann black box on the survivor Vandermonde. -----------
  kp::matrix::DenseBox<F> box(f, survivor.to_dense(f));
  auto decoded2 =
      kp::core::wiedemann_solve_status(f, box, surv_values, prng, 1u << 16);

  // --- Route 3: the Theorem-4 randomized solver. ----------------------------
  auto decoded3 =
      kp::core::kp_solve(f, survivor.to_dense(f), surv_values, prng);

  const bool ok1 = decoded1 == message;
  const bool ok2 = decoded2.ok && decoded2.x == message;
  const bool ok3 = decoded3.ok && decoded3.x == message;
  std::printf("  interpolation route: %s\n", ok1 ? "recovered" : "FAILED");
  std::printf("  wiedemann route:     %s\n", ok2 ? "recovered" : "FAILED");
  std::printf("  kp (Theorem 4):      %s\n", ok3 ? "recovered" : "FAILED");

  std::string recovered;
  for (std::size_t i = 0; i < k; ++i) {
    recovered.push_back(static_cast<char>(decoded1[i]));
  }
  std::printf("  message: \"%s\"\n", recovered.c_str());
  return (ok1 && ok2 && ok3) ? 0 : 1;
}
