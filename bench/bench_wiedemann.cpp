// Experiment E14 (section 2): Wiedemann's black-box method on sparse
// systems.  Work is 2n black-box products + Berlekamp-Massey, i.e. O(n*nnz),
// versus O(n^3) dense elimination: the sparse crossover the method exists
// for.  Field independence is demonstrated over Z_p and GF(2^8).
//
// Second report (BENCH_block_wiedemann.json): the block-width sweep
// b in {1, 2, 4, 8, 16} of block_wiedemann_solve_status on one large sparse
// system.  b = 1 IS the scalar iterative route (the call delegates); every
// block answer is cross-checked against it, so the sweep doubles as a
// correctness gate in CI.  Exits non-zero on any mismatch.
#include <cstdio>
#include <vector>

#include "core/block_krylov.h"
#include "core/wiedemann.h"
#include "field/gfpk.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "matrix/structured.h"
#include "poly/ntt.h"
#include "util/bench_json.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/tables.h"

using F = kp::field::Zp<1000003>;

namespace {

/// One n = 2048, 64 nnz/row sparse solve over `f` at b in {1, 2, 4, 8, 16},
/// a table and one report row per width.  Returns false on any mismatch.
template <class Fld>
bool width_sweep(const Fld& f, kp::util::BenchReport& breport) {
  const std::size_t n = 2048, per_row = 64;
  kp::util::Prng psetup(90210);
  auto sp = kp::matrix::Sparse<Fld>::random(f, n, per_row, psetup);
  std::vector<typename Fld::Element> x_true(n);
  for (auto& e : x_true) e = f.random(psetup);
  const auto b = sp.apply(f, x_true);
  kp::matrix::SparseBox<Fld> box(f, sp);

  std::printf("p = %llu\n", static_cast<unsigned long long>(f.characteristic()));
  kp::util::Table ts({"b", "wall ms", "speedup vs b=1", "ops", "check"});
  bool all_ok = true;
  double base_ms = 0.0;
  std::vector<typename Fld::Element> base_x;
  for (std::size_t bw : {1u, 2u, 4u, 8u, 16u}) {
    kp::util::Prng p(7117);  // same projection stream for every width
    kp::util::WallTimer wt;
    kp::util::OpScope s;
    auto res =
        kp::core::block_wiedemann_solve_status(f, box, b, p, 1u << 30, bw);
    const double ms = wt.elapsed_ms();
    const auto ops = s.counts().total();
    bool ok = res.ok && sp.apply(f, res.x) == b;
    if (bw == 1) {
      base_ms = ms;
      base_x = res.x;
      ok = ok && res.x == x_true;
    } else {
      ok = ok && res.x == base_x;  // identical to the scalar route
    }
    all_ok = all_ok && ok;
    const double speedup = ms > 0.0 ? base_ms / ms : 0.0;
    ts.add_row({std::to_string(bw), kp::util::Table::num(ms, 2),
                kp::util::Table::num(speedup, 3), kp::util::Table::num(ops),
                ok ? "ok" : "FAIL"});
    breport.begin_row("block_width_sweep");
    breport.put("p", f.characteristic());
    breport.put("n", n);
    breport.put("nnz_per_row", per_row);
    breport.put("block_width", bw);
    breport.put("wall_ms", ms);
    breport.put("speedup_vs_b1", speedup);
    breport.put("ops", ops);
    breport.put("attempts", res.attempts);
    breport.put("check", ok);
  }
  ts.print();
  return all_ok;
}

}  // namespace

int main() {
  F f;
  kp::util::Prng prng(4242);
  kp::util::BenchReport report("wiedemann");
  bool all_ok = true;

  std::printf("E14 (section 2): sparse black-box solve, Wiedemann vs elimination\n\n");
  kp::util::Table t({"n", "nnz/row", "wiedemann ops", "gauss ops", "ratio", "check"});
  for (std::size_t n : {32u, 64u, 128u, 256u}) {
    for (std::size_t per_row : {3u, 8u}) {
      auto sp = kp::matrix::Sparse<F>::random(f, n, per_row, prng);
      auto dense = sp.to_dense(f);
      if (f.is_zero(kp::matrix::det_gauss(f, dense))) continue;
      std::vector<F::Element> x(n);
      for (auto& e : x) e = f.random(prng);
      auto b = sp.apply(f, x);

      kp::matrix::SparseBox<F> box(f, sp);
      kp::poly::reset_transform_stats();
      kp::util::WallTimer wt;
      kp::util::OpScope s1;
      auto sol = kp::core::wiedemann_solve_status(f, box, b, prng, 1u << 30);
      const auto ops_w = s1.counts().total();
      const double wied_ms = wt.elapsed_ms();
      const auto tstats = kp::poly::transform_stats();

      kp::util::OpScope s2;
      auto ref = kp::matrix::solve_gauss(f, dense, b);
      const auto ops_g = s2.counts().total();

      const bool ok = sol.ok && ref && sol.x == x && *ref == x;
      all_ok = all_ok && ok;
      t.add_row({std::to_string(n), std::to_string(per_row),
                 kp::util::Table::num(ops_w), kp::util::Table::num(ops_g),
                 kp::util::Table::num(static_cast<double>(ops_w) /
                                          static_cast<double>(ops_g),
                                      3),
                 ok ? "ok" : "FAIL"});
      report.begin_row("wiedemann_vs_gauss");
      report.put("n", n);
      report.put("nnz_per_row", per_row);
      report.put("ops_wiedemann", ops_w);
      report.put("ops_gauss", ops_g);
      report.put("wall_ms", wied_ms);
      report.put("transforms_avoided", tstats.forward_avoided);
      report.put("check", ok);
    }
  }
  t.print();
  std::printf("\nThe ratio falls as n grows at fixed sparsity: Wiedemann is\n"
              "O(n * nnz + n^2) against elimination's O(n^3).\n\n");

  std::printf("Field independence: the same black-box code over GF(2^8)\n");
  {
    kp::field::GFpk gf(2, 8);
    kp::util::Prng p2(5);
    const std::size_t n = 24;
    auto sp = kp::matrix::Sparse<kp::field::GFpk>::random(gf, n, 3, p2);
    std::vector<kp::field::GFpk::Element> x;
    for (std::size_t i = 0; i < n; ++i) x.push_back(gf.random(p2));
    auto b = sp.apply(gf, x);
    kp::matrix::SparseBox<kp::field::GFpk> box(gf, sp);
    auto sol = kp::core::wiedemann_solve_status(gf, box, b, p2, 256);
    bool ok = sol.ok;
    if (ok) {
      for (std::size_t i = 0; i < n; ++i) ok = ok && gf.eq(sol.x[i], x[i]);
    }
    all_ok = all_ok && ok;
    std::printf("  n=%zu over GF(256): %s\n", n, ok ? "ok" : "FAIL");
    report.begin_row("wiedemann_gf256");
    report.put("n", n);
    report.put("check", ok);
  }

  // Structured black box: Wiedemann over a Toeplitz operator, where every
  // product reuses the matrix's cached symbol transform.  The avoided
  // forward NTTs (one per product after the first) ride alongside wall-ms.
  std::printf("\nToeplitz black box: cached-symbol transforms\n\n");
  {
    using G = kp::field::GFp;
    G g(kp::field::kNttPrime);
    kp::poly::PolyRing<G> ring(g);
    kp::util::Table tb({"n", "wall ms", "fwd ntt", "fwd avoided", "check"});
    for (std::size_t n : {64u, 128u, 256u}) {
      kp::util::Prng p3(7000 + n);
      kp::matrix::Toeplitz<G> tp = [&] {
        for (;;) {
          std::vector<G::Element> diag(2 * n - 1);
          for (auto& v : diag) v = g.random(p3);
          kp::matrix::Toeplitz<G> cand(n, std::move(diag));
          if (!g.is_zero(kp::matrix::det_gauss(g, cand.to_dense(g)))) {
            return cand;
          }
        }
      }();
      std::vector<G::Element> x(n), b;
      for (auto& e : x) e = g.random(p3);
      b = tp.apply(ring, x);
      kp::matrix::ToeplitzBox<G> box(ring, tp);
      kp::poly::reset_transform_stats();
      kp::util::WallTimer wt;
      auto sol = kp::core::wiedemann_solve_status(g, box, b, p3, 1u << 30);
      const double ms = wt.elapsed_ms();
      const auto tstats = kp::poly::transform_stats();
      const bool ok = sol.ok && sol.x == x;
      all_ok = all_ok && ok;
      tb.add_row({std::to_string(n), kp::util::Table::num(ms, 2),
                  kp::util::Table::num(tstats.forward),
                  kp::util::Table::num(tstats.forward_avoided),
                  ok ? "ok" : "FAIL"});
      report.begin_row("wiedemann_toeplitz_cache");
      report.put("n", n);
      report.put("wall_ms", ms);
      report.put("forward_ntt", tstats.forward);
      report.put("transforms_avoided", tstats.forward_avoided);
      report.put("check", ok);
    }
    tb.print();
  }

  // Block-Wiedemann width sweep: one large sparse solve, b = 1 (the scalar
  // iterative route -- block_wiedemann_solve_status delegates) against
  // b in {2, 4, 8, 16}, over Z_1000003 and over the word-size NTT prime the
  // sparse benchmark workload uses (whose block applies take the IFMA SpMM
  // body where the CPU has it).  Blocking cuts the finish from n to ~n/b
  // products and streams each CSR row stripe once per block instead of once
  // per vector; the price is the b x b projection batches and the
  // sigma-basis.  Every block answer must equal the scalar route's answer
  // exactly.
  std::printf("\nBlock-Wiedemann width sweep (BENCH_block_wiedemann.json)\n\n");
  {
    kp::util::BenchReport breport("block_wiedemann");
    all_ok = width_sweep(f, breport) && all_ok;
    all_ok = width_sweep(kp::field::Zp<kp::field::kNttPrime>(), breport) &&
             all_ok;
    std::printf("\nb = 1 is the scalar iterative route; block answers are\n"
                "cross-checked element-for-element against it.\n");
  }

  if (!all_ok) std::printf("\nFAIL: at least one cross-check mismatched\n");
  return all_ok ? 0 : 1;
}
