// Experiment E6 (Theorem 4): the randomized solver circuit has size
// O(n^omega log n), depth O(log^2 n), and O(n) random nodes.
//
// Reported series:
//   1. recorded circuit size / depth / #randoms vs n, with fitted exponents
//      (classical matmul black box => size exponent ~3);
//   2. direct-implementation work counts of kp_solve vs Gaussian
//      elimination, and the work ratio (the "processor efficiency" claim:
//      within a polylog factor of matrix multiplication).  The default
//      route iterates on the formed A-tilde; depth_optimal, the circuits'
//      options (doubling (9) and the Theorem-3 generator), keeps a tracked
//      cost beside it;
//   3. CPU and wall medians of the default dense route at n = 256..1024
//      and 1 and 4 workers.
#include <cmath>
#include <cstdio>
#include <vector>

#include "circuit/builders.h"
#include "core/solver.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/structured.h"
#include "poly/ntt.h"
#include "pram/parallel_for.h"
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
  kp::util::Prng prng(7);
  kp::util::BenchReport report("solver");

  std::printf("E6 (Theorem 4): solver circuit measures\n\n");
  kp::util::Table tc({"n", "size", "depth", "randoms", "size/(n^3 log n)",
                      "depth/log2(n)^2"});
  std::vector<double> ns, sizes, depths;
  for (std::size_t n : {2u, 4u, 8u, 16u, 24u, 32u}) {
    kp::util::WallTimer wt;
    auto c = kp::circuit::build_solver_circuit(n, kp::field::kNttPrime);
    report.begin_row("E6_circuit");
    report.put("n", n);
    report.put("size", std::uint64_t{c.size()});
    report.put("depth", static_cast<std::uint64_t>(c.depth()));
    report.put("randoms", static_cast<std::uint64_t>(c.num_randoms()));
    report.put("wall_ms", wt.elapsed_ms());
    ns.push_back(static_cast<double>(n));
    sizes.push_back(static_cast<double>(c.size()));
    depths.push_back(static_cast<double>(c.depth()));
    const double nn = static_cast<double>(n);
    const double lg = std::log2(nn);
    tc.add_row(
        {std::to_string(n), kp::util::Table::num(std::uint64_t{c.size()}),
         std::to_string(c.depth()), std::to_string(c.num_randoms()),
         kp::util::Table::num(sizes.back() / (nn * nn * nn * (lg > 0 ? lg : 1)), 3),
         kp::util::Table::num(depths.back() / (lg * lg > 0 ? lg * lg : 1), 3)});
  }
  tc.print();
  std::printf("\nfitted size exponent:  %.2f  (paper: omega + o(1); classical => ~3)\n",
              kp::util::fit_exponent(tail(ns), tail(sizes)));
  std::printf("fitted depth exponent: %.2f  (polylog: must be ~0)\n",
              kp::util::fit_exponent(tail(ns), tail(depths)));
  std::printf("random nodes are exactly 5n-1 = (2n-1) Hankel + n diagonal + 2n projections\n\n");

  std::printf("Direct implementation: work vs Gaussian elimination\n\n");
  kp::util::Table tw({"n", "kp_solve ops", "depth_optimal ops", "gauss ops",
                      "ratio", "ratio/log2(n)^2"});
  kp::core::SolverOptions deep;
  deep.depth_optimal = true;
  for (std::size_t n : {8u, 16u, 32u, 64u, 96u}) {
    kp::util::WallTimer wt;
    auto a = kp::matrix::random_matrix(f, n, n, prng);
    std::vector<F::Element> b(n);
    for (auto& e : b) e = f.random(prng);

    kp::util::Prng pd = prng;  // the same draws under depth_optimal
    kp::util::OpScope s1;
    auto res = kp::core::kp_solve(f, a, b, prng);
    const auto kp_ops = s1.counts().total();
    if (!res.ok) {
      std::printf("kp_solve FAILED at n=%zu: %s\n", n,
                  res.status.message().c_str());
      return 1;
    }
    kp::util::OpScope s3;
    const auto dres = kp::core::kp_solve(f, a, b, pd, deep);
    const auto deep_ops = s3.counts().total();
    if (!dres.ok || dres.x != res.x || dres.det != res.det) {
      std::printf("ROUTE MISMATCH at n=%zu\n", n);
      return 1;
    }

    kp::util::OpScope s2;
    auto ref = kp::matrix::solve_gauss(f, a, b);
    const auto gauss_ops = s2.counts().total();
    if (!ref || *ref != res.x) {
      std::printf("MISMATCH at n=%zu\n", n);
      return 1;
    }
    report.begin_row("E6_work");
    report.put("n", n);
    report.put("ops_kp_solve", kp_ops);
    report.put("ops_kp_solve_depth_optimal", deep_ops);
    report.put("ops_gauss", gauss_ops);
    report.put("wall_ms", wt.elapsed_ms());
    const double ratio = static_cast<double>(kp_ops) / static_cast<double>(gauss_ops);
    const double lg = std::log2(static_cast<double>(n));
    tw.add_row({std::to_string(n), kp::util::Table::num(kp_ops),
                kp::util::Table::num(deep_ops),
                kp::util::Table::num(gauss_ops), kp::util::Table::num(ratio, 3),
                kp::util::Table::num(ratio / (lg * lg), 3)});
  }
  tw.print();
  std::printf(
      "\nThe randomized pipeline pays a polylog work factor over elimination\n"
      "(the paper's processor-efficiency claim) but realizes an O(log^2 n)-deep\n"
      "circuit where elimination is inherently sequential (depth ~n).\n");

  // The default dense route in time: medians of 11 solves per row (5 at
  // n = 1024) on one fresh system, each run with its own draws.  CPU time
  // is the whole process's, so pooled products pay for every worker.
  std::printf("\nDense default route (2n + n products)\n\n");
  auto& ctx = kp::pram::ExecutionContext::global();
  kp::util::Table td({"n", "workers", "cpu ms", "wall ms", "ops"});
  for (std::size_t n : {256u, 512u, 1024u}) {
    kp::util::Prng setup(300 + n);
    const auto a = kp::matrix::random_matrix(f, n, n, setup);
    std::vector<F::Element> b(n);
    for (auto& e : b) e = f.random(setup);
    for (const unsigned workers : {1u, 4u}) {
      ctx.set_worker_limit(workers);
      std::vector<double> cpu, wall;
      std::uint64_t ops = 0;
      std::vector<F::Element> x;
      const int runs = n < 1024 ? 11 : 5;
      for (int run = 0; run < runs; ++run) {
        kp::util::Prng p(run);
        kp::util::OpScope scope;
        kp::util::CpuTimer ct;
        kp::util::WallTimer wt;
        const auto res = kp::core::kp_solve(f, a, b, p);
        wall.push_back(wt.elapsed_ms());
        cpu.push_back(ct.elapsed_ms());
        ops = scope.counts().total();
        if (x.empty()) x = res.x;
        if (!res.ok || res.x != x) {
          std::printf("DENSE ROUTE MISMATCH at n=%zu\n", n);
          return 1;
        }
      }
      const double cpu_ms = kp::util::median(cpu);
      const double wall_ms = kp::util::median(wall);
      report.begin_row("E6_dense_routes");
      report.put("n", n);
      report.put("workers", std::uint64_t{workers});
      report.put("runs", runs);
      report.put("cpu_ms_median", cpu_ms);
      report.put("wall_ms_median", wall_ms);
      report.put("ops", ops);
      td.add_row({std::to_string(n), std::to_string(workers),
                  kp::util::Table::num(cpu_ms), kp::util::Table::num(wall_ms),
                  kp::util::Table::num(ops)});
    }
    ctx.set_worker_limit(0);
  }
  td.print();

  // Transform layer on the iterative (black-box) route: a Toeplitz system
  // solved through ToeplitzBox, where the matrix symbol and preconditioner
  // operands are cached across the 2n Krylov products.  Rows sweep the
  // worker count and toggle the operand cache; results are bit-identical in
  // every configuration.
  std::printf("\nIterative route: worker sweep and transform-cache ablation\n\n");
  const unsigned hw = kp::pram::worker_count();
  kp::util::Table tt({"n", "workers", "cache", "wall ms", "fwd ntt",
                      "fwd avoided", "ops"});
  for (std::size_t n : {128u, 256u}) {
    kp::util::Prng setup(900 + n);
    kp::matrix::Toeplitz<F> tp = [&] {
      for (;;) {
        std::vector<F::Element> diag(2 * n - 1);
        for (auto& v : diag) v = f.random(setup);
        kp::matrix::Toeplitz<F> cand(n, std::move(diag));
        if (!f.is_zero(kp::matrix::det_gauss(f, cand.to_dense(f)))) return cand;
      }
    }();
    std::vector<F::Element> b(n);
    for (auto& e : b) e = f.random(setup);
    kp::poly::PolyRing<F> ring(f);

    std::vector<F::Element> ref_x;
    for (const bool cache_on : {true, false}) {
      for (const unsigned workers : {1u, 2u, hw}) {
        if (!cache_on && workers != hw) continue;  // ablation at hw only
        kp::poly::transform_cache_enabled().store(cache_on);
        ctx.set_worker_limit(workers);
        kp::util::Prng p2(5000 + n);
        kp::matrix::ToeplitzBox<F> box(ring, tp);
        kp::poly::reset_transform_stats();
        kp::util::WallTimer wt;
        kp::util::OpScope ops;
        auto res = kp::core::kp_solve(f, box, b, p2);
        const double ms = wt.elapsed_ms();
        const auto total = ops.counts().total();
        const auto stats = kp::poly::transform_stats();
        ctx.set_worker_limit(0);
        if (!res.ok) {
          std::printf("SOLVE FAILED at n=%zu\n", n);
          return 1;
        }
        if (ref_x.empty()) ref_x = res.x;
        if (res.x != ref_x) {
          std::printf("NON-DETERMINISTIC RESULT at n=%zu\n", n);
          return 1;
        }
        report.begin_row("E6_transform_sweep");
        report.put("n", n);
        report.put("workers", std::uint64_t{workers});
        report.put("cache", cache_on);
        report.put("wall_ms", ms);
        report.put("forward_ntt", stats.forward);
        report.put("inverse_ntt", stats.inverse);
        report.put("transforms_avoided", stats.forward_avoided);
        report.put("ops", total);
        tt.add_row({std::to_string(n), std::to_string(workers),
                    cache_on ? "on" : "off", kp::util::Table::num(ms, 2),
                    kp::util::Table::num(stats.forward),
                    kp::util::Table::num(stats.forward_avoided),
                    kp::util::Table::num(total)});
      }
    }
  }
  kp::poly::transform_cache_enabled().store(true);
  tt.print();
  std::printf("\nCached symbols cut the forward-NTT count on the 2n black-box\n"
              "products; op counts stay constant across cached rows by the\n"
              "recharge contract.  Cache off also takes whole products instead\n"
              "of half-length middle products, so those rows count more ops.\n");
  return 0;
}
