// Wall-clock benchmarks of the fast modular-arithmetic kernel layer
// (field/fastmod.h, field/kernels.h) against the frozen seed arithmetic
// (field/reference.h).  These complement the op-count experiments: op counts
// are the paper's cost model and are asserted IDENTICAL between the two
// paths here; wall time shows the constants the kernel layer buys.
//
// Exits non-zero on any value or op-count mismatch, so CI can run this as a
// correctness smoke test; timing is reported, never gated.  Emits
// BENCH_kernels.json (util/bench_json.h) for machine consumption.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/solver.h"
#include "field/bigint.h"
#include "field/reference.h"
#include "field/simd.h"
#include "field/zp.h"
#include "matrix/matmul.h"
#include "matrix/sparse.h"
#include "poly/ntt.h"
#include "util/bench_json.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/tables.h"

namespace {

using Fast = kp::field::GFp;
using FastZp = kp::field::Zp<kp::field::kNttPrime>;
using Ref = kp::field::GFpReference;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("MISMATCH: %s\n", what);
    ++failures;
  }
}

bool same_counts(const kp::util::OpCounts& a, const kp::util::OpCounts& b) {
  return a.add == b.add && a.mul == b.mul && a.div == b.div &&
         a.zero_test == b.zero_test;
}

/// Best-of-reps wall time of fn(), in milliseconds.
template <class Fn>
double time_ms(Fn&& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    kp::util::WallTimer t;
    fn();
    const double ms = t.elapsed_ms();
    if (ms < best) best = ms;
  }
  return best;
}

std::vector<std::uint64_t> random_residues(std::uint64_t p, std::size_t n,
                                           std::uint64_t seed) {
  kp::util::Prng prng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = prng.below(p);
  return v;
}

template <class F>
kp::matrix::Matrix<F> matrix_from(const F& f,
                                  const std::vector<std::uint64_t>& vals,
                                  std::size_t rows, std::size_t cols) {
  kp::matrix::Matrix<F> m(rows, cols, f.zero());
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m.at(i, j) = vals[i * cols + j];
  }
  return m;
}

}  // namespace

int main() {
  const std::uint64_t p = kp::field::kNttPrime;
  Fast fast(p);
  FastZp zp;
  Ref ref(p);
  kp::util::BenchReport report("kernels");
  kp::util::Table table(
      {"kernel", "n", "ref ms", "fast ms", "speedup", "ops", "match"});

  auto add_row = [&](const char* kernel, std::size_t n, double ref_ms,
                     double fast_ms, std::uint64_t ops, bool match) {
    const double speedup = fast_ms > 0 ? ref_ms / fast_ms : 0;
    table.add_row({kernel, std::to_string(n), kp::util::Table::num(ref_ms, 3),
                   kp::util::Table::num(fast_ms, 3),
                   kp::util::Table::num(speedup, 2), kp::util::Table::num(ops),
                   match ? "yes" : "NO"});
    report.begin_row(kernel);
    report.put("n", n);
    report.put("ref_ms", ref_ms);
    report.put("fast_ms", fast_ms);
    report.put("speedup", speedup);
    report.put("ops", ops);
    report.put("match", match);
  };

  std::printf("Fast-kernel layer vs frozen seed arithmetic (p = %llu)\n\n",
              static_cast<unsigned long long>(p));

  {
    // Elementwise field multiplication (independent products, the regime
    // every kernel runs in): the REDC chains of the runtime-modulus GFp and
    // compile-time Zp<P> against the 128-bit `%` of the seed.
    const std::size_t n = 1 << 21;
    const auto va = random_residues(p, n, 1);
    const auto vb = random_residues(p, n, 2);
    std::vector<std::uint64_t> out_ref(n), out_fast(n), out_zp(n);
    const double ms_ref = time_ms([&] {
      for (std::size_t i = 0; i < n; ++i) out_ref[i] = ref.mul(va[i], vb[i]);
    });
    const double ms_fast = time_ms([&] {
      for (std::size_t i = 0; i < n; ++i) out_fast[i] = fast.mul(va[i], vb[i]);
    });
    const double ms_zp = time_ms([&] {
      for (std::size_t i = 0; i < n; ++i) out_zp[i] = zp.mul(va[i], vb[i]);
    });
    check(out_ref == out_fast, "field mul GFp");
    check(out_ref == out_zp, "field mul Zp");
    add_row("mul_gfp", n, ms_ref, ms_fast, n, out_ref == out_fast);
    add_row("mul_zp", n, ms_ref, ms_zp, n, out_ref == out_zp);
  }

  for (const std::size_t n : {1024u, 4096u}) {
    // Dense mat_vec: the delayed-reduction dot kernel.
    const auto vals = random_residues(p, n * n, 2);
    const auto x = random_residues(p, n, 3);
    const auto ma = matrix_from(ref, vals, n, n);
    const auto mb = matrix_from(fast, vals, n, n);
    std::vector<std::uint64_t> yr, yf;
    kp::util::OpScope sr;
    yr = kp::matrix::mat_vec(ref, ma, x);
    const auto cr = sr.counts();
    kp::util::OpScope sf;
    yf = kp::matrix::mat_vec(fast, mb, x);
    const auto cf = sf.counts();
    const bool match = yr == yf && same_counts(cr, cf);
    check(yr == yf, "mat_vec values");
    check(same_counts(cr, cf), "mat_vec op counts");
    const double ms_ref = time_ms([&] { yr = kp::matrix::mat_vec(ref, ma, x); });
    const double ms_fast = time_ms([&] { yf = kp::matrix::mat_vec(fast, mb, x); });
    add_row("mat_vec", n, ms_ref, ms_fast, cr.total(), match);
  }

  for (const std::size_t n : {256u, 512u}) {
    // Classical matrix product: the register-tiled gemm kernel.
    const auto va = random_residues(p, n * n, 4);
    const auto vb = random_residues(p, n * n, 5);
    const auto ar = matrix_from(ref, va, n, n), br = matrix_from(ref, vb, n, n);
    const auto af = matrix_from(fast, va, n, n), bf = matrix_from(fast, vb, n, n);
    kp::util::OpScope sr;
    auto mr = kp::matrix::mat_mul(ref, ar, br);
    const auto cr = sr.counts();
    kp::util::OpScope sf;
    auto mf = kp::matrix::mat_mul(fast, af, bf);
    const auto cf = sf.counts();
    const bool match = mr.data() == mf.data() && same_counts(cr, cf);
    check(mr.data() == mf.data(), "mat_mul values");
    check(same_counts(cr, cf), "mat_mul op counts");
    const double ms_ref = time_ms([&] { mr = kp::matrix::mat_mul(ref, ar, br); });
    const double ms_fast = time_ms([&] { mf = kp::matrix::mat_mul(fast, af, bf); });
    add_row("mat_mul_classical", n, ms_ref, ms_fast, cr.total(), match);
  }

  {
    // CSR apply: the gathered delayed-reduction kernel.
    const std::size_t n = 1 << 16;
    kp::util::Prng pr(6), pf(6);
    const auto sr_mat = kp::matrix::Sparse<Ref>::random(ref, n, 8, pr);
    const auto sf_mat = kp::matrix::Sparse<Fast>::random(fast, n, 8, pf);
    const auto x = random_residues(p, n, 7);
    kp::util::OpScope sr;
    auto yr = sr_mat.apply(ref, x);
    const auto cr = sr.counts();
    kp::util::OpScope sf;
    auto yf = sf_mat.apply(fast, x);
    const auto cf = sf.counts();
    const bool match = yr == yf && same_counts(cr, cf);
    check(yr == yf, "sparse apply values");
    check(same_counts(cr, cf), "sparse apply op counts");
    const double ms_ref = time_ms([&] { yr = sr_mat.apply(ref, x); });
    const double ms_fast = time_ms([&] { yf = sf_mat.apply(fast, x); });
    add_row("sparse_apply", sr_mat.nnz(), ms_ref, ms_fast, cr.total(), match);
  }

  for (const std::size_t n : {1024u, 4096u}) {
    // NTT polynomial product: cached Shoup twiddles vs the generic butterfly.
    const auto va = random_residues(p, n, 8);
    const auto vb = random_residues(p, n, 9);
    kp::poly::PolyRing<Ref> rr(ref, kp::poly::MulStrategy::kNtt);
    kp::poly::PolyRing<Fast> rf(fast, kp::poly::MulStrategy::kNtt);
    kp::util::OpScope sr;
    auto prod_r = rr.mul(va, vb);
    const auto cr = sr.counts();
    kp::util::OpScope sf;
    auto prod_f = rf.mul(va, vb);
    const auto cf = sf.counts();
    const bool match = prod_r == prod_f && same_counts(cr, cf);
    check(prod_r == prod_f, "ntt_mul values");
    check(same_counts(cr, cf), "ntt_mul op counts");
    const double ms_ref = time_ms([&] { prod_r = rr.mul(va, vb); });
    const double ms_fast = time_ms([&] { prod_f = rf.mul(va, vb); });
    add_row("ntt_mul", n, ms_ref, ms_fast, cr.total(), match);
  }

  {
    // Batched inversion (Montgomery's trick) vs n extended Euclids.
    const std::size_t n = 4096;
    auto vals = random_residues(p, n, 10);
    for (auto& v : vals) v |= 1;  // nonzero
    std::vector<std::uint64_t> out_r(n), out_f;
    kp::util::OpScope sr;
    for (std::size_t i = 0; i < n; ++i) out_r[i] = ref.inv(vals[i]);
    const auto cr = sr.counts();
    out_f = vals;
    kp::util::OpScope sf;
    kp::field::kernels::batch_inverse(fast, out_f.data(), n);
    const auto cf = sf.counts();
    const bool match = out_r == out_f && same_counts(cr, cf);
    check(out_r == out_f, "batch_inverse values");
    check(same_counts(cr, cf), "batch_inverse op counts");
    const double ms_ref = time_ms([&] {
      for (std::size_t i = 0; i < n; ++i) out_r[i] = ref.inv(vals[i]);
    });
    const double ms_fast = time_ms([&] {
      out_f = vals;
      kp::field::kernels::batch_inverse(fast, out_f.data(), n);
    });
    add_row("batch_inverse", n, ms_ref, ms_fast, cr.total(), match);
  }

  {
    // End-to-end Theorem-4 solve, fast field vs seed field.
    const std::size_t n = 96;
    const auto va = random_residues(p, n * n, 11);
    const auto vb = random_residues(p, n, 12);
    const auto ar = matrix_from(ref, va, n, n);
    const auto af = matrix_from(fast, va, n, n);
    kp::util::Prng pr(13), pf(13);
    kp::util::OpScope sr;
    auto res_r = kp::core::kp_solve(ref, ar, vb, pr);
    const auto cr = sr.counts();
    kp::util::OpScope sf;
    auto res_f = kp::core::kp_solve(fast, af, vb, pf);
    const auto cf = sf.counts();
    const bool match = res_r.ok == res_f.ok && res_r.x == res_f.x &&
                       same_counts(cr, cf);
    check(res_r.ok == res_f.ok && res_r.x == res_f.x, "kp_solve values");
    check(same_counts(cr, cf), "kp_solve op counts");
    const double ms_ref = time_ms([&] {
      kp::util::Prng pp(13);
      auto r = kp::core::kp_solve(ref, ar, vb, pp);
      (void)r;
    });
    const double ms_fast = time_ms([&] {
      kp::util::Prng pp(13);
      auto r = kp::core::kp_solve(fast, af, vb, pp);
      (void)r;
    });
    add_row("kp_solve", n, ms_ref, ms_fast, cr.total(), match);
  }

  {
    // Rational normalization: BigInt::gcd's binary (Stein) fast path for
    // word-size operands -- the hot loop of CRT rational reconstruction --
    // against a plain division-based Euclid on the same BigInt values.
    using kp::field::BigInt;
    const std::size_t n = 1 << 14;
    kp::util::Prng prng(17);
    std::vector<BigInt> as, bs;
    as.reserve(n);
    bs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto g = 1 + prng.below(1u << 20);
      as.push_back(BigInt(static_cast<std::int64_t>(g * (1 + prng.below(1u << 20)))));
      bs.push_back(BigInt(static_cast<std::int64_t>(g * (1 + prng.below(1u << 20)))));
    }
    auto euclid = [](BigInt a, BigInt b) {
      while (!b.is_zero()) {
        BigInt r = a % b;
        a = std::move(b);
        b = std::move(r);
      }
      return a.is_negative() ? -a : a;
    };
    std::vector<BigInt> out_ref(n), out_fast(n);
    const double ms_ref = time_ms([&] {
      for (std::size_t i = 0; i < n; ++i) out_ref[i] = euclid(as[i], bs[i]);
    });
    const double ms_fast = time_ms([&] {
      for (std::size_t i = 0; i < n; ++i) out_fast[i] = BigInt::gcd(as[i], bs[i]);
    });
    const bool match = out_ref == out_fast;
    check(match, "binary gcd vs division euclid");
    add_row("bigint_gcd_word", n, ms_ref, ms_fast, n, match);
  }

  {
    // SIMD dispatch-level ablation: the same fast kernels with the vector
    // backend pinned to each level, timed against the forced-scalar kernel
    // path (what this binary measured before the SIMD backend existed).
    // Values are asserted bit-identical across levels -- the backend is
    // invisible except in wall clock.
    namespace simd = kp::field::simd;
    const simd::SimdLevel max_level = simd::simd_max_level();
    const std::size_t n = 4096;
    const auto va = random_residues(p, n, 20);
    const auto vb = random_residues(p, n, 21);
    kp::poly::PolyRing<Fast> rf(fast, kp::poly::MulStrategy::kNtt);

    struct Lvl {
      const char* name;
      simd::SimdLevel level;
      bool ifma;
    };
    const Lvl levels[] = {
        {"dot@scalar", simd::SimdLevel::kScalar, false},
        {"dot@avx2", simd::SimdLevel::kAvx2, false},
        {"dot@avx512", simd::SimdLevel::kAvx512, false},
        {"dot@avx512+ifma", simd::SimdLevel::kAvx512, true},
    };
    double dot_scalar_ms = 0;
    std::uint64_t dot_scalar_val = 0;
    const int dot_iters = 4000;
    for (const auto& l : levels) {
      if (simd::set_simd_level(l.level) != l.level) continue;  // unavailable
      simd::set_simd_ifma(l.ifma);
      if (l.ifma && !simd::simd_ifma()) continue;  // no IFMA hardware
      std::uint64_t sink = 0;
      const double ms = time_ms([&] {
        for (int it = 0; it < dot_iters; ++it) {
          sink ^= kp::field::kernels::dot(fast, va.data(), vb.data(), n);
        }
      });
      const std::uint64_t val =
          kp::field::kernels::dot(fast, va.data(), vb.data(), n);
      if (l.level == simd::SimdLevel::kScalar) {
        dot_scalar_ms = ms;
        dot_scalar_val = val;
      }
      const bool match = val == dot_scalar_val;
      check(match, "simd ablation: dot value vs scalar kernel");
      add_row(l.name, n, dot_scalar_ms, ms, static_cast<std::uint64_t>(n), match);
      (void)sink;
    }

    const Lvl ntt_levels[] = {
        {"ntt_mul@scalar", simd::SimdLevel::kScalar, false},
        {"ntt_mul@avx2", simd::SimdLevel::kAvx2, false},
        {"ntt_mul@avx512", simd::SimdLevel::kAvx512, false},
    };
    double ntt_scalar_ms = 0;
    std::vector<std::uint64_t> ntt_scalar_prod;
    const int ntt_iters = 40;
    for (const auto& l : ntt_levels) {
      if (simd::set_simd_level(l.level) != l.level) continue;
      std::vector<std::uint64_t> prod;
      const double ms = time_ms([&] {
        for (int it = 0; it < ntt_iters; ++it) prod = rf.mul(va, vb);
      });
      if (l.level == simd::SimdLevel::kScalar) {
        ntt_scalar_ms = ms;
        ntt_scalar_prod = prod;
      }
      const bool match = prod == ntt_scalar_prod;
      check(match, "simd ablation: ntt_mul value vs scalar kernel");
      add_row(l.name, n, ntt_scalar_ms, ms, static_cast<std::uint64_t>(n), match);
    }
    simd::set_simd_level(max_level);
    simd::set_simd_ifma(true);
  }

  table.print();
  report.write();
  if (failures) {
    std::printf("\n%d kernel mismatch(es)\n", failures);
    return 1;
  }
  std::printf("\nall kernels bit-identical to the seed path, op counts equal\n");
  return 0;
}
