// Experiment E9 (section 4): solving the TRANSPOSED system from a solver
// circuit at 4x the length and O(1)x the depth, and the transposed-
// Vandermonde special case (transposed solving <-> interpolation).
#include <cstdio>
#include <vector>

#include "circuit/builders.h"
#include "circuit/tape.h"
#include "circuit/tape_eval.h"
#include "field/zp.h"
#include "matrix/gauss.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "util/bench_json.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/tables.h"

using F = kp::field::GFp;

int main() {
  F f(kp::field::kNttPrime);
  kp::util::Prng prng(31337);
  kp::util::BenchReport report("transpose");

  std::printf("E9 (section 4): transposed-system circuits\n\n");
  kp::util::Table t({"n", "solver size", "solver depth", "transposed size",
                     "transposed depth", "size ratio", "depth ratio", "eval"});
  for (std::size_t n : {2u, 3u, 4u, 6u, 8u}) {
    kp::util::WallTimer wt;
    auto solver = kp::circuit::build_solver_circuit(n, kp::field::kNttPrime);
    auto trans = kp::circuit::build_transposed_solver_circuit(n, kp::field::kNttPrime);

    // Evaluate through the compiled tape: outputs must solve A^T y = b,
    // and must match node-at-a-time evaluate_status() (the checked reference).
    const auto tape = kp::circuit::compile(trans);
    const kp::circuit::TapeEvaluator<F> ev(f, tape);
    std::string check = "-";
    auto a = kp::matrix::random_matrix(f, n, n, prng);
    if (!f.is_zero(kp::matrix::det_gauss(f, a))) {
      std::vector<F::Element> b(n);
      for (auto& e : b) e = f.random(prng);
      std::vector<F::Element> in(a.data().begin(), a.data().end());
      std::vector<F::Element> xdummy(n, f.one());
      in.insert(in.end(), xdummy.begin(), xdummy.end());
      in.insert(in.end(), b.begin(), b.end());
      check = "FAIL";
      for (int attempt = 0; attempt < 5; ++attempt) {
        std::vector<F::Element> rnd(trans.num_randoms());
        for (auto& e : rnd) e = f.sample(prng, 1u << 20);
        std::vector<std::vector<F::Element>> in_lanes, rnd_lanes;
        for (auto v : in) in_lanes.push_back({v});
        for (auto v : rnd) rnd_lanes.push_back({v});
        auto res = ev.evaluate(in_lanes, rnd_lanes);
        if (!res.status.ok()) continue;
        auto node = trans.evaluate_status(f, in, rnd);
        std::vector<F::Element> y(res.outputs.size());
        bool identical = node.status.ok();
        for (std::size_t i = 0; i < y.size(); ++i) {
          y[i] = res.outputs[i][0];
          identical = identical && f.eq(node.outputs[i], y[i]);
        }
        auto atx = kp::matrix::mat_vec(f, kp::matrix::mat_transpose(f, a), y);
        check = (identical && atx == b) ? "ok" : "FAIL";
        break;
      }
    }

    report.begin_row("E9_circuit");
    report.put("n", n);
    report.put("solver_size", std::uint64_t{solver.size()});
    report.put("solver_depth", static_cast<std::uint64_t>(solver.depth()));
    report.put("transposed_size", std::uint64_t{trans.size()});
    report.put("transposed_depth", static_cast<std::uint64_t>(trans.depth()));
    report.put("eval_check", check);
    report.put("wall_ms", wt.elapsed_ms());
    t.add_row({std::to_string(n), kp::util::Table::num(std::uint64_t{solver.size()}),
               std::to_string(solver.depth()),
               kp::util::Table::num(std::uint64_t{trans.size()}),
               std::to_string(trans.depth()),
               kp::util::Table::num(static_cast<double>(trans.size()) /
                                        static_cast<double>(solver.size()),
                                    3),
               kp::util::Table::num(static_cast<double>(trans.depth()) /
                                        static_cast<double>(solver.depth()),
                                    3),
               check});
  }
  t.print();
  std::printf("\nSection 4 predicts size ratio <= ~4 and depth ratio O(1).\n\n");

  // --- Transposed Vandermonde: the paper's "fast transposed Vandermonde
  // system solver based on fast polynomial interpolation". -----------------
  std::printf("Transposed Vandermonde check (V c = values solved by interpolation\n"
              "vs V^T y = b solved by Gaussian elimination; both verified):\n\n");
  kp::poly::PolyRing<F> ring(f);
  kp::util::Table tv({"n", "interp ops (V c = v)", "gauss ops (V^T y = b)", "both correct"});
  for (std::size_t n : {8u, 16u, 32u, 64u}) {
    std::vector<F::Element> pts(n);
    for (std::size_t i = 0; i < n; ++i) pts[i] = static_cast<F::Element>(3 * i + 1);
    kp::matrix::Vandermonde<F> v(pts);

    std::vector<F::Element> coeffs(n), b(n);
    for (auto& e : coeffs) e = f.random(prng);
    for (auto& e : b) e = f.random(prng);

    kp::util::OpScope s1;
    auto sol1 = v.solve(ring, v.apply(f, coeffs));
    const auto ops1 = s1.counts().total();

    kp::util::OpScope s2;
    auto dense_t = kp::matrix::mat_transpose(f, v.to_dense(f));
    auto sol2 = kp::matrix::solve_gauss(f, dense_t, b);
    const auto ops2 = s2.counts().total();

    const bool ok1 = sol1 == coeffs;
    const bool ok2 = sol2 && v.apply_transpose(f, *sol2) == b;
    tv.add_row({std::to_string(n), kp::util::Table::num(ops1),
                kp::util::Table::num(ops2), (ok1 && ok2) ? "yes" : "NO"});
    report.begin_row("vandermonde");
    report.put("n", n);
    report.put("ops_interp", ops1);
    report.put("ops_gauss", ops2);
    report.put("check", ok1 && ok2);
  }
  tv.print();
  std::printf("\nInterpolation-based solving is the O(n^2)->O(M(n) log n) fast path the\n"
              "section-4 transform generalizes to arbitrary matrices.\n");
  return 0;
}
