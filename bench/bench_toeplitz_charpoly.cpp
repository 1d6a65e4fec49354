// Experiment E5 (Theorem 3): characteristic polynomial of an n x n Toeplitz
// matrix in O(n^2 polylog n) work and polylog depth.
//
// Reported series:
//   1. field-operation counts of the Newton-on-Toeplitz route vs n, with the
//      fitted growth exponent (paper: ~2 + polylog, vs 4 for the
//      division-free baselines);
//   2. the same for Berkowitz (O(n^4)) and Faddeev-LeVerrier (O(n^4)) on the
//      dense copy, including the work crossover;
//   3. size and depth of the recorded Theorem-3 circuit vs n (depth must
//      grow polylogarithmically);
//   4. det(H) of a random Hankel matrix -- the Theorem-4 step-5 side
//      quantity -- by Berlekamp-Massey discrepancies (seq::hankel_det,
//      O(n^2)), by Theorem 3 on the row-mirror Toeplitz (section 4), and by
//      Gaussian elimination; any value mismatch exits 1.
#include <cmath>
#include <cstdio>
#include <vector>

#include "circuit/builders.h"
#include "core/baselines.h"
#include "field/zp.h"
#include "matrix/gauss.h"
#include "poly/ntt.h"
#include "pram/parallel_for.h"
#include "seq/berlekamp_massey.h"
#include "seq/newton_toeplitz.h"
#include "util/bench_json.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/tables.h"


namespace {
/// Last points of a series: the asymptotic regime (the NTT bivariate kernel
/// engages from n = 8, so small-n points measure a different kernel).
std::vector<double> tail(const std::vector<double>& v) {
  const std::size_t keep = v.size() > 3 ? 3 : v.size();
  return {v.end() - static_cast<std::ptrdiff_t>(keep), v.end()};
}
}  // namespace

using F = kp::field::GFp;  // NTT-friendly prime: fast bivariate mult

int main() {
  F f(kp::field::kNttPrime);
  kp::util::Prng prng(42);
  kp::util::BenchReport report("toeplitz_charpoly");

  std::printf("E5 (Theorem 3): Toeplitz characteristic polynomial work counts\n\n");
  kp::util::Table t({"n", "newton-toeplitz ops", "berkowitz ops", "faddeev ops",
                     "newton/n^2", "berkowitz/n^4"});
  std::vector<double> ns, newton_ops, berk_ops;
  for (std::size_t n : {8u, 16u, 32u, 64u, 128u}) {
    kp::util::WallTimer wt;
    std::vector<F::Element> diag(2 * n - 1);
    for (auto& v : diag) v = f.random(prng);
    kp::matrix::Toeplitz<F> tp(n, diag);

    kp::util::OpScope s1;
    auto p1 = kp::seq::toeplitz_charpoly(f, tp);
    const auto ops_newton = s1.counts().total();

    std::uint64_t ops_berk = 0, ops_fadd = 0;
    if (n <= 64) {
      auto dense = tp.to_dense(f);
      kp::util::OpScope s2;
      auto p2 = kp::core::charpoly_berkowitz(f, dense);
      ops_berk = s2.counts().total();
      kp::util::OpScope s3;
      auto p3 = kp::core::faddeev_leverrier(f, dense).charpoly;
      ops_fadd = s3.counts().total();
      if (p1 != p2 || p1 != p3) {
        std::printf("MISMATCH at n=%zu!\n", n);
        return 1;
      }
    }
    ns.push_back(static_cast<double>(n));
    newton_ops.push_back(static_cast<double>(ops_newton));
    report.begin_row("E5_work");
    report.put("n", n);
    report.put("ops_newton_toeplitz", ops_newton);
    report.put("ops_berkowitz", ops_berk);
    report.put("ops_faddeev", ops_fadd);
    report.put("wall_ms", wt.elapsed_ms());
    if (ops_berk) berk_ops.push_back(static_cast<double>(ops_berk));

    const double n2 = static_cast<double>(n) * static_cast<double>(n);
    const double n4 = n2 * n2;
    t.add_row({std::to_string(n), kp::util::Table::num(ops_newton),
               ops_berk ? kp::util::Table::num(ops_berk) : "-",
               ops_fadd ? kp::util::Table::num(ops_fadd) : "-",
               kp::util::Table::num(static_cast<double>(ops_newton) / n2, 3),
               ops_berk ? kp::util::Table::num(static_cast<double>(ops_berk) / n4, 3)
                        : "-"});
  }
  t.print();
  std::printf("\nfitted work exponent (newton-toeplitz): %.2f   (paper: 2 + polylog)\n",
              kp::util::fit_exponent(ns, newton_ops));
  std::vector<double> bns(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(berk_ops.size()));
  std::printf("fitted work exponent (berkowitz):       %.2f   (theory: 4)\n\n",
              kp::util::fit_exponent(bns, berk_ops));

  std::printf("Theorem-3 circuit size and depth (recorded program):\n\n");
  kp::util::Table tc({"n", "size", "depth", "size/n^2", "depth/log2(n)^2"});
  std::vector<double> cns, sizes, depths;
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    auto c = kp::circuit::build_toeplitz_charpoly_circuit(n, kp::field::kNttPrime);
    report.begin_row("E5_circuit");
    report.put("n", n);
    report.put("size", std::uint64_t{c.size()});
    report.put("depth", static_cast<std::uint64_t>(c.depth()));
    cns.push_back(static_cast<double>(n));
    sizes.push_back(static_cast<double>(c.size()));
    depths.push_back(static_cast<double>(c.depth()));
    const double lg = std::log2(static_cast<double>(n));
    tc.add_row({std::to_string(n), kp::util::Table::num(std::uint64_t{c.size()}),
                std::to_string(c.depth()),
                kp::util::Table::num(static_cast<double>(c.size()) /
                                         (static_cast<double>(n) * static_cast<double>(n)),
                                     3),
                kp::util::Table::num(static_cast<double>(c.depth()) /
                                         (lg * lg > 0 ? lg * lg : 1),
                                     3)});
  }
  tc.print();
  std::printf("\nfitted size exponent:  %.2f  (paper: ~2 up to log factors)\n",
              kp::util::fit_exponent(tail(cns), tail(sizes)));
  std::printf("fitted depth exponent: %.2f  (polylog: exponent must be ~0)\n",
              kp::util::fit_exponent(tail(cns), tail(depths)));

  std::printf("\ndet(H) of a random Hankel matrix: Berlekamp-Massey vs Theorem 3 "
              "vs Gauss\n\n");
  kp::util::Table th({"n", "bm ops", "bm ms", "thm3 ops", "thm3 ms",
                      "gauss ops", "gauss ms", "bm/n^2"});
  for (std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
    kp::util::Prng ph(500 + n);
    const auto h = kp::matrix::Hankel<F>::random(f, n, ph, f.modulus());
    kp::util::WallTimer w1;
    kp::util::OpScope o1;
    const auto det_bm = kp::seq::hankel_det(f, h.entries());
    const auto ops_bm = o1.counts().total();
    const double ms_bm = w1.elapsed_ms();
    kp::util::WallTimer w2;
    kp::util::OpScope o2;
    auto det_thm3 = kp::seq::toeplitz_det(f, h.row_mirror_toeplitz());
    if (h.mirror_det_sign() < 0) det_thm3 = f.neg(det_thm3);
    const auto ops_thm3 = o2.counts().total();
    const double ms_thm3 = w2.elapsed_ms();
    const auto dense = h.to_dense(f);
    kp::util::WallTimer w3;
    kp::util::OpScope o3;
    const auto det_gauss = kp::matrix::det_gauss(f, dense);
    const auto ops_gauss = o3.counts().total();
    const double ms_gauss = w3.elapsed_ms();
    if (!det_bm || *det_bm != det_gauss || det_thm3 != det_gauss) {
      std::printf("HANKEL DET MISMATCH at n=%zu%s\n", n,
                  det_bm ? "" : " (not normal)");
      return 1;
    }
    report.begin_row("hankel_det");
    report.put("n", n);
    report.put("ops_bm", ops_bm);
    report.put("wall_ms_bm", ms_bm);
    report.put("ops_theorem3", ops_thm3);
    report.put("wall_ms_theorem3", ms_thm3);
    report.put("ops_gauss", ops_gauss);
    report.put("wall_ms_gauss", ms_gauss);
    const double n2 = static_cast<double>(n) * static_cast<double>(n);
    th.add_row({std::to_string(n), kp::util::Table::num(ops_bm),
                kp::util::Table::num(ms_bm, 2), kp::util::Table::num(ops_thm3),
                kp::util::Table::num(ms_thm3, 2), kp::util::Table::num(ops_gauss),
                kp::util::Table::num(ms_gauss, 2),
                kp::util::Table::num(static_cast<double>(ops_bm) / n2, 3)});
  }
  th.print();
  std::printf("\nSame det(H) in all three columns; Berlekamp-Massey needs every\n"
              "leading minor non-zero (true w.h.p. for random entries), else\n"
              "the solver falls back to Theorem 3.\n");

  // Transform layer (batched ntt_many + TransformedPoly caching): wall-clock
  // across worker counts, and forward transforms avoided by operand caching.
  // Values and logical op counts are identical in every configuration; only
  // the wall clock and the diagnostic transform counters move.
  std::printf("\nTransform layer: worker sweep and operand-cache ablation\n\n");
  auto& ctx = kp::pram::ExecutionContext::global();
  const unsigned hw = kp::pram::worker_count();
  kp::util::Table ts({"n", "workers", "cache", "wall ms", "fwd ntt",
                      "fwd avoided", "ops"});
  for (std::size_t n : {256u, 512u, 1024u}) {
    for (const bool cache_on : {true, false}) {
      for (const unsigned workers : {1u, 2u, hw}) {
        if (!cache_on && workers != hw) continue;  // ablation at hw only
        kp::poly::transform_cache_enabled().store(cache_on);
        ctx.set_worker_limit(workers);
        kp::util::Prng p2(1000 + n);
        std::vector<F::Element> diag(2 * n - 1);
        for (auto& v : diag) v = f.random(p2);
        kp::matrix::Toeplitz<F> tp(n, diag);
        kp::poly::reset_transform_stats();
        kp::util::WallTimer wt;
        kp::util::OpScope ops;
        auto cp = kp::seq::toeplitz_charpoly(f, tp);
        const double ms = wt.elapsed_ms();
        const auto total = ops.counts().total();
        const auto stats = kp::poly::transform_stats();
        ctx.set_worker_limit(0);
        if (cp.size() != n + 1) {
          std::printf("BAD CHARPOLY at n=%zu\n", n);
          return 1;
        }
        report.begin_row("E5_transform_sweep");
        report.put("n", n);
        report.put("workers", std::uint64_t{workers});
        report.put("cache", cache_on);
        report.put("wall_ms", ms);
        report.put("forward_ntt", stats.forward);
        report.put("inverse_ntt", stats.inverse);
        report.put("transforms_avoided", stats.forward_avoided);
        report.put("ops", total);
        ts.add_row({std::to_string(n), std::to_string(workers),
                    cache_on ? "on" : "off", kp::util::Table::num(ms, 2),
                    kp::util::Table::num(stats.forward),
                    kp::util::Table::num(stats.forward_avoided),
                    kp::util::Table::num(total)});
      }
    }
  }
  kp::poly::transform_cache_enabled().store(true);
  ts.print();
  std::printf("\n'fwd avoided' counts forward NTTs served from operand caches;\n"
              "logical op counts are charged as if recomputed (constant across\n"
              "cached rows).  Cache off also takes whole Toeplitz products\n"
              "instead of half-length middle products.\n");

  // Hot-path kernel at large n: repeated Toeplitz products against a fixed
  // matrix, cold (cache off, both forward transforms per product) vs
  // cached+batched (one varying-side transform per product).
  std::printf("\nHot-path kernels at n >= 2048 (single fixed operand reuse)\n\n");
  kp::util::Table tk({"kernel", "n", "cold ms", "cached ms", "speedup"});
  for (std::size_t n : {2048u, 4096u}) {
    kp::util::Prng p3(300 + n);
    std::vector<F::Element> diag(2 * n - 1);
    for (auto& v : diag) v = f.random(p3);
    const std::size_t kRhs = 8, kRounds = 12;
    std::vector<std::vector<F::Element>> xs(kRhs);
    std::vector<const std::vector<F::Element>*> xp(kRhs);
    for (std::size_t k = 0; k < kRhs; ++k) {
      xs[k].resize(n);
      for (auto& e : xs[k]) e = f.random(p3);
      xp[k] = &xs[k];
    }
    kp::poly::PolyRing<F> ring(f);

    kp::poly::transform_cache_enabled().store(false);
    kp::matrix::Toeplitz<F> t_cold(n, diag);
    std::vector<F::Element> sink_cold;
    kp::util::WallTimer wc;
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t k = 0; k < kRhs; ++k) {
        sink_cold = t_cold.apply(ring, xs[k]);
      }
    }
    const double ms_cold = wc.elapsed_ms();

    kp::poly::transform_cache_enabled().store(true);
    kp::matrix::Toeplitz<F> t_warm(n, diag);
    kp::util::WallTimer ww;
    std::vector<std::vector<F::Element>> warm_out;
    for (std::size_t round = 0; round < kRounds; ++round) {
      warm_out = t_warm.apply_many(ring, xp);
    }
    const double ms_warm = ww.elapsed_ms();
    if (warm_out.back() != sink_cold) {
      std::printf("TOEPLITZ APPLY MISMATCH at n=%zu\n", n);
      return 1;
    }
    tk.add_row({"toeplitz-apply", std::to_string(n),
                kp::util::Table::num(ms_cold, 2),
                kp::util::Table::num(ms_warm, 2),
                kp::util::Table::num(ms_cold / ms_warm, 2)});
    report.begin_row("E5_hotpath_kernel");
    report.put("kernel", "toeplitz_apply");
    report.put("n", n);
    report.put("rhs", std::uint64_t{kRhs});
    report.put("rounds", std::uint64_t{kRounds});
    report.put("wall_ms_cold", ms_cold);
    report.put("wall_ms_cached", ms_warm);
    report.put("speedup", ms_cold / ms_warm);
  }
  tk.print();
  std::printf("\n'cold' recomputes every operand transform; 'cached' reuses the\n"
              "fixed side's spectrum (toeplitz-apply).  Same values in both\n"
              "columns.\n");
  return 0;
}
