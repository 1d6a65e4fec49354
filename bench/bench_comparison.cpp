// Experiment E11 (the section-1 positioning): work comparison of every
// determinant/charpoly method in the library, reproducing the paper's
// landscape --
//
//   Gaussian elimination    O(n^3) work, depth ~n (sequential)
//   Wiedemann + BM          O(n^3) work, randomized (kp_det's default)
//   Kaltofen-Pan (Thm 4)    O(n^3 polylog) work, depth O(log^2 n)
//                           (kp_det under depth_optimal)
//   Csanky/Leverrier        O(n^4) work (the processor gap the paper closes)
//   Faddeev-LeVerrier       O(n^4) work
//   Berkowitz               O(n^4) work, division-free, any characteristic
//   Chistov                 O(n^4) work, any characteristic
//
// "Who wins": elimination has the least raw work but linear depth; the KP
// pipeline pays only a polylog factor over elimination while all earlier
// NC^2 methods (Csanky/Berkowitz/Chistov) pay a factor ~n.
#include <cmath>
#include <cstdio>
#include <vector>

#include "circuit/builders.h"
#include "circuit/field.h"
#include "core/baselines.h"
#include "core/solver.h"
#include "field/zp.h"
#include "matrix/gauss.h"
#include "util/bench_json.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/tables.h"

using F = kp::field::Zp<1000003>;

int main() {
  F f;
  kp::util::Prng prng(2024);
  kp::util::BenchReport report("comparison");

  std::printf("E11: determinant work comparison (field operations)\n\n");
  kp::util::Table t({"n", "gauss", "wiedemann + BM", "kp (Thm 4)", "csanky",
                     "faddeev", "berkowitz", "chistov"});
  std::vector<double> ns, kp_ops, cs_ops;
  for (std::size_t n : {8u, 16u, 32u, 48u, 64u}) {
    kp::util::WallTimer wt;
    auto a = kp::matrix::random_matrix(f, n, n, prng);
    const auto det_ref = kp::matrix::det_gauss(f, a);
    if (f.is_zero(det_ref)) continue;

    kp::util::OpScope s0;
    (void)kp::matrix::det_gauss(f, a);
    const auto ops_gauss = s0.counts().total();

    // The default kp_det is Wiedemann's preconditioned method: 2n products
    // with the formed A-tilde and the Berlekamp-Massey generator.
    kp::util::OpScope s1;
    auto wd = kp::core::kp_det(f, a, prng);
    const auto ops_wied = s1.counts().total();

    // Theorem 4 as the paper states it: Krylov doubling, the Theorem-3
    // generator and det(H) -- the circuit builders' options.
    kp::core::SolverOptions deep;
    deep.depth_optimal = true;
    kp::util::OpScope s2;
    auto kpd = kp::core::kp_det(f, a, prng, deep);
    const auto ops_kp = s2.counts().total();

    std::uint64_t ops_csanky = 0, ops_faddeev = 0, ops_berk = 0, ops_chistov = 0;
    bool all_ok = wd.ok && f.eq(wd.det, det_ref) && kpd.ok && f.eq(kpd.det, det_ref);
    if (n <= 48) {
      kp::util::OpScope s3;
      auto pc = kp::core::charpoly_csanky(f, a);
      ops_csanky = s3.counts().total();
      kp::util::OpScope s4;
      auto pf = kp::core::faddeev_leverrier(f, a).charpoly;
      ops_faddeev = s4.counts().total();
      kp::util::OpScope s5;
      auto pb = kp::core::charpoly_berkowitz(f, a);
      ops_berk = s5.counts().total();
      kp::util::OpScope s6;
      auto pch = kp::core::charpoly_chistov(f, a);
      ops_chistov = s6.counts().total();
      // det = (-1)^n p(0).
      const auto d = (n % 2 == 0) ? pc[0] : f.neg(pc[0]);
      all_ok = all_ok && f.eq(d, det_ref) && pc == pf && pf == pb && pb == pch;
      cs_ops.push_back(static_cast<double>(ops_csanky));
    }
    if (!all_ok) {
      std::printf("MISMATCH at n=%zu\n", n);
      return 1;
    }
    ns.push_back(static_cast<double>(n));
    kp_ops.push_back(static_cast<double>(ops_kp));
    auto cell = [](std::uint64_t v) {
      return v ? kp::util::Table::num(v) : std::string("-");
    };
    t.add_row({std::to_string(n), kp::util::Table::num(ops_gauss),
               kp::util::Table::num(ops_wied), kp::util::Table::num(ops_kp),
               cell(ops_csanky), cell(ops_faddeev), cell(ops_berk),
               cell(ops_chistov)});
    report.begin_row("E11_work");
    report.put("n", n);
    report.put("ops_gauss", ops_gauss);
    report.put("ops_wiedemann", ops_wied);
    report.put("ops_kp", ops_kp);
    report.put("ops_csanky", ops_csanky);
    report.put("ops_faddeev", ops_faddeev);
    report.put("ops_berkowitz", ops_berk);
    report.put("ops_chistov", ops_chistov);
    report.put("wall_ms", wt.elapsed_ms());
  }
  t.print();

  std::printf("\nfitted exponents: kp (Thm 4) %.2f (expect ~3 + log factors), csanky %.2f (expect ~4)\n",
              kp::util::fit_exponent(ns, kp_ops),
              kp::util::fit_exponent(
                  std::vector<double>(ns.begin(),
                                      ns.begin() + static_cast<std::ptrdiff_t>(cs_ops.size())),
                  cs_ops));
  std::printf(
      "\nShape reproduced from the paper: the NC^2 predecessors (csanky,\n"
      "berkowitz, chistov) pay a factor ~n over elimination; the KP pipeline\n"
      "pays only polylog factors while keeping O(log^2 n) circuit depth.\n\n");

  // --- Circuit depths: record each charpoly/det algorithm symbolically. ----
  // Note: Csanky/Berkowitz/Chistov ARE NC^2 algorithms in their parallel
  // formulations, but the textbook sequential recurrences implemented here
  // (and in most references) have linear-depth chains; the KP pipeline is
  // the one whose NATURAL program is polylog-deep.  The table shows the
  // depth of the programs as implemented.
  std::printf("Recorded circuit depth of each determinant program:\n\n");
  kp::util::Table td(
      {"n", "kp (Thm 4)", "kp/log2(n)^2", "csanky", "berkowitz", "chistov"});
  std::vector<double> dns, d_kp, d_cs;
  for (std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    auto build_with = [&](auto&& algo) {
      kp::circuit::Circuit c;
      kp::circuit::CircuitBuilderField cf(c, kp::field::kNttPrime);
      kp::matrix::Matrix<kp::circuit::CircuitBuilderField> a(n, n, cf.zero());
      for (auto& e : a.data()) e = c.input();
      c.mark_output(algo(cf, a));
      return c.depth();
    };
    // The KP circuit at n = 64 would need gigabytes; its depth is the
    // established ~50 log^2 n series (bench_solver), so stop at 32.
    std::uint32_t kp_depth = 0;
    if (n <= 32) {
      kp_depth = kp::circuit::build_det_circuit(n, kp::field::kNttPrime).depth();
    }
    const auto cs = build_with([](const auto& cf, const auto& a) {
      return kp::core::charpoly_csanky(cf, a)[0];
    });
    const auto bk = build_with([](const auto& cf, const auto& a) {
      return kp::core::charpoly_berkowitz(cf, a)[0];
    });
    const auto ch = build_with([](const auto& cf, const auto& a) {
      return kp::core::charpoly_chistov(cf, a)[0];
    });
    const double lg = std::log2(static_cast<double>(n));
    dns.push_back(static_cast<double>(n));
    if (kp_depth) d_kp.push_back(kp_depth);
    d_cs.push_back(static_cast<double>(cs));
    report.begin_row("E11_depth");
    report.put("n", n);
    report.put("depth_kp", static_cast<std::uint64_t>(kp_depth));
    report.put("depth_csanky", static_cast<std::uint64_t>(cs));
    report.put("depth_berkowitz", static_cast<std::uint64_t>(bk));
    report.put("depth_chistov", static_cast<std::uint64_t>(ch));
    td.add_row({std::to_string(n),
                kp_depth ? std::to_string(kp_depth) : std::string("(see E6)"),
                kp_depth ? kp::util::Table::num(kp_depth / (lg * lg), 3)
                         : std::string("~50"),
                std::to_string(cs), std::to_string(bk), std::to_string(ch)});
  }
  td.print();
  std::printf(
      "\nfitted depth exponents: csanky %.2f (linear chain of matrix powers),\n"
      "kp %.2f over its range (polylog).  The baselines' depth grows ~n while\n",
      kp::util::fit_exponent(dns, d_cs),
      kp::util::fit_exponent(
          std::vector<double>(dns.begin(),
                              dns.begin() + static_cast<std::ptrdiff_t>(d_kp.size())),
          d_kp));
  std::printf(
      "kp's stays ~50 log^2 n: the crossover sits in the low hundreds -- the\n"
      "asymptotic regime the paper's NC^2 claim concerns.  (As published,\n"
      "Csanky/Berkowitz/Chistov also admit NC^2 circuits via parallel-prefix\n"
      "power computation, but at the processor counts the paper criticizes;\n"
      "the rows above measure the natural sequential-recurrence programs.)\n");
  std::printf("\n(Gaussian elimination cannot be recorded as a circuit at all:\n"
              "its pivoting branches on zero-tests, which the model forbids.)\n");
  return 0;
}
