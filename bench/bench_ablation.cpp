// Ablations of the design choices DESIGN.md calls out:
//   A1. polynomial multiplication kernel: schoolbook / Karatsuba / NTT
//   A2. matrix multiplication black box: classical vs Strassen
//   A3. Newton identities: O(n^2) triangular solve vs power-series exp
//   A4. Krylov sequence: doubling (9) vs 2n sequential products
//   A5. Toeplitz solve finish: iterated applies vs doubling (depth_optimal)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/krylov.h"
#include "core/solver.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/matmul.h"
#include "poly/poly.h"
#include "seq/newton_identities.h"
#include "util/bench_json.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/tables.h"

using FN = kp::field::GFp;  // runtime modulus: NTT-friendly prime

int main() {
  FN f(kp::field::kNttPrime);
  kp::util::Prng prng(123);
  kp::util::BenchReport report("ablation");

  std::printf("A1: polynomial multiplication kernels (field ops, equal inputs)\n\n");
  kp::util::Table t1({"deg", "schoolbook", "karatsuba", "ntt"});
  for (std::size_t deg : {32u, 128u, 512u, 2048u}) {
    kp::util::WallTimer wt;
    kp::poly::PolyRing<FN> school(f, kp::poly::MulStrategy::kSchoolbook);
    kp::poly::PolyRing<FN> karat(f, kp::poly::MulStrategy::kKaratsuba);
    kp::poly::PolyRing<FN> ntt(f, kp::poly::MulStrategy::kNtt);
    auto a = school.random_degree(prng, static_cast<std::int64_t>(deg));
    auto b = school.random_degree(prng, static_cast<std::int64_t>(deg));
    kp::util::OpScope s1;
    auto r1 = school.mul(a, b);
    const auto o1 = s1.counts().total();
    kp::util::OpScope s2;
    auto r2 = karat.mul(a, b);
    const auto o2 = s2.counts().total();
    kp::util::OpScope s3;
    auto r3 = ntt.mul(a, b);
    const auto o3 = s3.counts().total();
    if (!school.eq(r1, r2) || !school.eq(r1, r3)) {
      std::printf("MISMATCH deg=%zu\n", deg);
      return 1;
    }
    t1.add_row({std::to_string(deg), kp::util::Table::num(o1),
                kp::util::Table::num(o2), kp::util::Table::num(o3)});
    report.begin_row("A1_polymul");
    report.put("deg", deg);
    report.put("ops_schoolbook", o1);
    report.put("ops_karatsuba", o2);
    report.put("ops_ntt", o3);
    report.put("wall_ms", wt.elapsed_ms());
  }
  t1.print();

  std::printf("\nA2: matrix multiplication black box (field ops)\n\n");
  kp::util::Table t2({"n", "classical", "strassen(thresh 16)", "ratio"});
  for (std::size_t n : {32u, 64u, 128u}) {
    kp::util::WallTimer wt;
    auto a = kp::matrix::random_matrix(f, n, n, prng);
    auto b = kp::matrix::random_matrix(f, n, n, prng);
    kp::util::OpScope s1;
    auto c1 = kp::matrix::mat_mul(f, a, b, kp::matrix::MatMulStrategy::kClassical);
    const auto o1 = s1.counts().total();
    kp::util::OpScope s2;
    auto c2 = kp::matrix::mat_mul(f, a, b, kp::matrix::MatMulStrategy::kStrassen, 16);
    const auto o2 = s2.counts().total();
    if (!kp::matrix::mat_eq(f, c1, c2)) {
      std::printf("MISMATCH n=%zu\n", n);
      return 1;
    }
    t2.add_row({std::to_string(n), kp::util::Table::num(o1), kp::util::Table::num(o2),
                kp::util::Table::num(static_cast<double>(o2) / static_cast<double>(o1), 3)});
    report.begin_row("A2_matmul");
    report.put("n", n);
    report.put("ops_classical", o1);
    report.put("ops_strassen", o2);
    report.put("wall_ms", wt.elapsed_ms());
  }
  t2.print();

  // Wall clock of the same choice at solver sizes, over the register-tiled
  // classical kernel: Strassen at the default threshold (recursing to 32)
  // and at n/2 (one level, seven tiled half-size products).
  std::printf("\nA2: matrix multiplication black box (wall ms, best of 3)\n\n");
  kp::util::Table t2w({"n", "classical", "strassen(thresh 32)",
                       "strassen(thresh n/2)"});
  for (std::size_t n : {256u, 512u}) {
    auto a = kp::matrix::random_matrix(f, n, n, prng);
    auto b = kp::matrix::random_matrix(f, n, n, prng);
    const auto c = kp::matrix::mat_mul(f, a, b);
    auto best_ms = [&](kp::matrix::MatMulStrategy strategy, std::size_t th) {
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        kp::util::WallTimer wt;
        const auto d = kp::matrix::mat_mul(f, a, b, strategy, th);
        const double ms = wt.elapsed_ms();
        if (!kp::matrix::mat_eq(f, c, d)) {
          std::printf("MISMATCH n=%zu threshold=%zu\n", n, th);
          std::exit(1);
        }
        if (ms < best) best = ms;
      }
      return best;
    };
    const double ms_c = best_ms(kp::matrix::MatMulStrategy::kClassical, 32);
    const double ms_s = best_ms(kp::matrix::MatMulStrategy::kStrassen, 32);
    const double ms_h = best_ms(kp::matrix::MatMulStrategy::kStrassen, n / 2);
    t2w.add_row({std::to_string(n), kp::util::Table::num(ms_c, 4),
                 kp::util::Table::num(ms_s, 4), kp::util::Table::num(ms_h, 4)});
    report.begin_row("A2_matmul_wall");
    report.put("n", n);
    report.put("classical_ms", ms_c);
    report.put("strassen_ms", ms_s);
    report.put("strassen_one_level_ms", ms_h);
  }
  t2w.print();

  std::printf("\nA3: Newton identities (power sums -> charpoly), field ops\n\n");
  kp::util::Table t3({"n", "triangular O(n^2)", "series exp"});
  for (std::size_t n : {32u, 128u, 512u, 1024u}) {
    kp::util::WallTimer wt;
    std::vector<FN::Element> s(n);
    // Power sums of a random monic polynomial (valid inputs).
    std::vector<FN::Element> p(n + 1);
    for (std::size_t i = 0; i < n; ++i) p[i] = f.random(prng);
    p[n] = f.one();
    s = kp::seq::power_sums_from_charpoly(f, p, n);
    kp::util::OpScope s1;
    auto c1 = kp::seq::charpoly_from_power_sums(
        f, s, kp::seq::NewtonIdentityMethod::kTriangularSolve);
    const auto o1 = s1.counts().total();
    kp::util::OpScope s2;
    auto c2 = kp::seq::charpoly_from_power_sums(
        f, s, kp::seq::NewtonIdentityMethod::kPowerSeriesExp);
    const auto o2 = s2.counts().total();
    if (c1 != c2) {
      std::printf("MISMATCH n=%zu\n", n);
      return 1;
    }
    t3.add_row({std::to_string(n), kp::util::Table::num(o1), kp::util::Table::num(o2)});
    report.begin_row("A3_newton");
    report.put("n", n);
    report.put("ops_triangular", o1);
    report.put("ops_series_exp", o2);
    report.put("wall_ms", wt.elapsed_ms());
  }
  t3.print();

  std::printf("\nA4: Krylov sequence u A^i v, i < 2n (field ops)\n\n");
  kp::util::Table t4({"n", "doubling (9)", "iterative 2n matvecs", "ratio"});
  for (std::size_t n : {16u, 32u, 64u, 128u}) {
    kp::util::WallTimer wt;
    auto a = kp::matrix::random_matrix(f, n, n, prng);
    std::vector<FN::Element> u(n), v(n);
    for (auto& e : u) e = f.random(prng);
    for (auto& e : v) e = f.random(prng);
    kp::util::OpScope s1;
    auto seq1 = kp::core::krylov_sequence_doubling(f, a, u, v, 2 * n);
    const auto o1 = s1.counts().total();
    kp::matrix::DenseBox<FN> box(f, a);
    kp::util::OpScope s2;
    auto seq2 = kp::matrix::krylov_sequence_iterative(f, box, u, v, 2 * n);
    const auto o2 = s2.counts().total();
    if (seq1 != seq2) {
      std::printf("MISMATCH n=%zu\n", n);
      return 1;
    }
    t4.add_row({std::to_string(n), kp::util::Table::num(o1), kp::util::Table::num(o2),
                kp::util::Table::num(static_cast<double>(o1) / static_cast<double>(o2), 3)});
    report.begin_row("A4_krylov");
    report.put("n", n);
    report.put("ops_doubling", o1);
    report.put("ops_iterative", o2);
    report.put("wall_ms", wt.elapsed_ms());
  }
  t4.print();
  std::printf("\nDoubling pays ~log n extra work to win O(log^2 n) depth --\n"
              "exactly the paper's trade.\n");

  std::printf("\nA5: full solve, sequential finishes vs depth-optimal finishes\n\n");
  kp::util::Table t5({"n", "work-optimal ops", "depth-optimal ops", "ratio"});
  for (std::size_t n : {16u, 32u, 64u}) {
    kp::util::WallTimer wt;
    auto a = kp::matrix::random_matrix(f, n, n, prng);
    std::vector<FN::Element> b(n);
    for (auto& e : b) e = f.random(prng);
    kp::core::SolverOptions seqopt;
    kp::core::SolverOptions depopt;
    depopt.depth_optimal = true;
    depopt.newton = kp::seq::NewtonIdentityMethod::kPowerSeriesExp;
    kp::util::OpScope s1;
    auto r1 = kp::core::kp_solve(f, a, b, prng, seqopt);
    const auto o1 = s1.counts().total();
    kp::util::OpScope s2;
    auto r2 = kp::core::kp_solve(f, a, b, prng, depopt);
    const auto o2 = s2.counts().total();
    if (!r1.ok || !r2.ok || r1.x != r2.x) {
      std::printf("solve mismatch/failure n=%zu\n", n);
      continue;
    }
    t5.add_row({std::to_string(n), kp::util::Table::num(o1), kp::util::Table::num(o2),
                kp::util::Table::num(static_cast<double>(o2) / static_cast<double>(o1), 3)});
    report.begin_row("A5_solve");
    report.put("n", n);
    report.put("ops_work_optimal", o1);
    report.put("ops_depth_optimal", o2);
    report.put("wall_ms", wt.elapsed_ms());
  }
  t5.print();
  return 0;
}
