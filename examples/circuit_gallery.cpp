// Circuit gallery: the paper's objects made concrete.
//
// Builds the Theorem-4 solver circuit, the Theorem-6 inverse circuit, and
// the section-4 transposed-solver circuit for a small n; prints each DAG's
// instrumented stats (size / depth / randomness) side by side with its
// compiled-tape stats (instructions after dead-code elimination, levels,
// register slots, pooled constants); evaluates through the compiled tape
// with node-at-a-time evaluation as the checked reference -- including a
// deliberately unlucky evaluation showing the division-by-zero failure
// event the theorems bound -- and finishes by saving the Theorem-6 inverse
// tape with an embedded self-check vector, reloading it, and verifying it
// with ensure().
#include <cstdio>
#include <string>
#include <vector>

#include "circuit/builders.h"
#include "circuit/tape.h"
#include "circuit/tape_eval.h"
#include "circuit/tape_io.h"
#include "field/zp.h"
#include "matrix/gauss.h"
#include "util/prng.h"

using F = kp::field::GFp;

int main() {
  F f(kp::field::kNttPrime);
  kp::util::Prng prng(5);
  const std::size_t n = 4;

  auto solver = kp::circuit::build_solver_circuit(n, kp::field::kNttPrime);
  auto inverse = kp::circuit::build_inverse_circuit(n, kp::field::kNttPrime);
  auto transposed =
      kp::circuit::build_transposed_solver_circuit(n, kp::field::kNttPrime);

  std::printf("randomized algebraic circuits for n = %zu:\n\n", n);
  auto describe = [](const char* name, const kp::circuit::Circuit& c) {
    const kp::circuit::Tape t = kp::circuit::compile(c);
    std::printf(
        "  %-22s size=%-8zu depth=%-5u inputs=%-4zu outputs=%-4zu randoms=%zu\n",
        name, c.size(), c.depth(), c.num_inputs(), c.num_outputs(),
        c.num_randoms());
    std::printf(
        "  %-22s instrs=%-6zu levels=%-5zu regs=%-6u constants pooled=%zu\n",
        "    -> compiled tape", t.num_instrs(), t.num_levels(), t.num_regs,
        t.constants.size());
    return t;
  };
  auto solver_tape = describe("solver (Thm 4)", solver);
  auto inverse_tape = describe("inverse (Thm 6)", inverse);
  describe("transposed (sec. 4)", transposed);

  // A sample system.
  auto a = kp::matrix::random_matrix(f, n, n, prng);
  std::vector<F::Element> x(n);
  for (auto& e : x) e = f.random(prng);
  auto b = kp::matrix::mat_vec(f, a, x);
  std::vector<F::Element> in(a.data().begin(), a.data().end());
  in.insert(in.end(), b.begin(), b.end());

  // Lucky evaluation, through the compiled tape (B = 1 lane), with
  // node-at-a-time evaluation as the checked reference.
  std::vector<F::Element> rnd(solver.num_randoms());
  for (auto& e : rnd) e = f.sample(prng, 1u << 30);
  const kp::circuit::TapeEvaluator<F> ev(f, solver_tape);
  std::vector<std::vector<F::Element>> in_lanes, rnd_lanes;
  for (auto v : in) in_lanes.push_back({v});
  for (auto v : rnd) rnd_lanes.push_back({v});
  const auto res = ev.evaluate(in_lanes, rnd_lanes);
  const auto ref = solver.evaluate_status(f, in, rnd);
  std::printf("\ntape evaluation with |S| = 2^30 random leaves: %s\n",
              res.status.ok() ? "no zero-division"
                              : "zero-division (unlucky!)");
  bool ok = true;  // every checked answer agrees with its reference
  if (res.status.ok()) {
    bool solves = true, matches = ref.status.ok();
    for (std::size_t i = 0; i < n; ++i) {
      solves = solves && res.outputs[i][0] == x[i];
      matches = matches && ref.outputs[i] == res.outputs[i][0];
    }
    std::printf("  solves the system: %s\n", solves ? "yes" : "no");
    std::printf("  matches node-at-a-time evaluate_status(): %s\n",
                matches ? "yes" : "NO (bug!)");
    ok = solves && matches;
  }

  // Unlucky evaluation: all random leaves zero -> A-tilde = 0, certain
  // division by zero, exactly the failure event of Theorem 4.  The tape
  // reports the failing level and lane through the Status taxonomy.
  std::vector<std::vector<F::Element>> zero_lanes(solver.num_randoms(),
                                                  {f.zero()});
  const auto bad = ev.evaluate(in_lanes, zero_lanes);
  std::printf("evaluation with all-zero random leaves: %s\n",
              bad.status.ok() ? "UNEXPECTEDLY ok"
                              : bad.status.message().c_str());
  ok = ok && !bad.status.ok();

  // Empirical failure rate at a tiny sample set vs the 3n^2/|S| bound.
  const std::uint64_t s = 64;
  int fails = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    for (auto& lane : rnd_lanes) lane[0] = f.sample(prng, s);
    if (!ev.evaluate(in_lanes, rnd_lanes).status.ok()) ++fails;
  }
  std::printf(
      "\nempirical failure rate with |S| = %llu: %.3f   (Theorem-4 bound: %.3f)\n",
      static_cast<unsigned long long>(s), static_cast<double>(fails) / trials,
      3.0 * static_cast<double>(n * n) / static_cast<double>(s));

  // The Theorem-6 inverse as a shippable artifact: embed a self-check
  // vector, save, reload, and verify.
  const std::string path = "inverse_thm6.kptape";
  if (const auto st = kp::circuit::add_test_vector(
          inverse_tape, kp::field::kNttPrime, prng);
      !st.ok()) {
    std::printf("\ncould not record self-check: %s\n", st.message().c_str());
    return 1;
  }
  if (const auto st = kp::circuit::save_tape(inverse_tape, path); !st.ok()) {
    std::printf("\ncould not save tape: %s\n", st.message().c_str());
    return 1;
  }
  const auto loaded = kp::circuit::load_tape(path);
  if (!loaded.ok()) {
    std::printf("\ncould not reload tape: %s\n",
                loaded.status().message().c_str());
    return 1;
  }
  const auto check = kp::circuit::ensure(loaded.value());
  std::printf(
      "\nsaved Theorem-6 inverse tape to %s (%zu instrs, %zu embedded "
      "self-checks); reload + ensure(): %s\n",
      path.c_str(), loaded.value().num_instrs(), loaded.value().tests.size(),
      check.message().c_str());
  std::remove(path.c_str());
  return ok && check.ok() ? 0 : 1;
}
