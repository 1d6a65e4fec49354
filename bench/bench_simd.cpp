// Per-dispatch-level ablation of the SIMD kernel backend (field/simd.h).
//
// Every kernel family (dot, sum, gather, batch_inverse, NTT product, the
// register-tiled mat_mul at n = 256, and the SpMM of a b = 4 block sparse
// apply over 2048 rows of ~65 entries, the sparse_block workload's shape;
// dot also at n = 96, 256 and 2048, the lengths the solver workloads run)
// is timed with the backend pinned to each available level -- scalar, AVX2,
// AVX-512, AVX-512+IFMA -- over the same inputs.  The bit-identity contract is asserted in-bench: each
// row carries an FNV-1a checksum of the output elements, and every level's
// checksum must equal the scalar kernel's.
// Those checksums land in BENCH_simd.json, so a forced-scalar build
// (-DKP_SIMD=OFF), a KP_SIMD=off environment, and the full SIMD build can
// be diffed for byte-identical element checksums across configurations.
//
// Exits non-zero on any mismatch; timing is reported, never gated.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "field/kernels.h"
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

namespace simd = kp::field::simd;
using Fast = kp::field::GFp;
using simd::SimdLevel;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("MISMATCH: %s\n", what);
    ++failures;
  }
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

/// FNV-1a over the output residues: an order-sensitive element checksum.
/// Identical across build configurations iff the elements are identical.
std::uint64_t fnv1a(const std::uint64_t* a, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 8; ++b) {
      h ^= (a[i] >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// The dispatch levels the ablation requests.  A level is skipped (not
/// degraded) when the hardware or the build lacks it, so a forced-scalar
/// build produces a scalar-only table with the same checksums.
struct Lvl {
  const char* name;
  SimdLevel level;
  bool ifma;
};
constexpr Lvl kLevels[] = {
    {"scalar", SimdLevel::kScalar, false},
    {"avx2", SimdLevel::kAvx2, false},
    {"avx512", SimdLevel::kAvx512, false},
    {"avx512+ifma", SimdLevel::kAvx512, true},
};

bool enter_level(const Lvl& l) {
  if (simd::set_simd_level(l.level) != l.level) return false;
  simd::set_simd_ifma(l.ifma);
  if (l.ifma && !simd::simd_ifma()) return false;
  // Non-IFMA rows on IFMA hardware must actually measure the 4-limb body.
  return l.ifma == simd::simd_ifma();
}

}  // namespace

int main() {
  const std::uint64_t p = kp::field::kNttPrime;
  Fast fast(p);
  kp::util::BenchReport report("simd");
  kp::util::Table table(
      {"kernel", "level", "n", "ms", "speedup", "checksum", "match"});

  // One output buffer per kernel family; the scalar row fixes the expected
  // checksum, every later level must reproduce it.
  auto add_row = [&](const char* kernel, const char* level, std::size_t n,
                     double scalar_ms, double ms, std::uint64_t checksum,
                     std::uint64_t scalar_checksum) {
    const bool match = checksum == scalar_checksum;
    check(match, kernel);
    const double speedup = ms > 0 ? scalar_ms / ms : 0;
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(checksum));
    table.add_row({kernel, level, std::to_string(n),
                   kp::util::Table::num(ms, 3), kp::util::Table::num(speedup, 2),
                   hex, match ? "yes" : "NO"});
    report.begin_row(kernel);
    report.put("level", level);
    report.put("n", n);
    report.put("ms", ms);
    report.put("speedup_vs_scalar", speedup);
    report.put("checksum", std::string(hex));
    report.put("match", match);
  };

  std::printf("SIMD dispatch-level ablation (p = %llu, max level %s%s)\n\n",
              static_cast<unsigned long long>(p),
              to_string(simd::simd_max_level()),
              simd::simd_ifma() ? "+ifma" : "");

  const std::size_t n = 4096;
  const auto va = random_residues(p, n, 1);
  const auto vb = random_residues(p, n, 2);
  const auto x = random_residues(p, 4 * n, 3);
  kp::util::Prng ip(4);
  std::vector<std::size_t> col(n);
  for (auto& c : col) c = ip.below(4 * n);
  auto nz = random_residues(p, n, 5);
  for (auto& v : nz) v |= 1;  // nonzero, for batch_inverse
  kp::poly::PolyRing<Fast> ring(fast, kp::poly::MulStrategy::kNtt);
  const std::size_t mn = 256;
  kp::util::Prng mp(6);
  const auto ma = kp::matrix::random_matrix(fast, mn, mn, mp);
  const auto mb = kp::matrix::random_matrix(fast, mn, mn, mp);
  const std::size_t sn = 2048;
  const auto sp = kp::matrix::Sparse<Fast>::random(fast, sn, 64, mp);
  std::vector<std::vector<std::uint64_t>> sx(4);
  std::vector<const std::vector<std::uint64_t>*> sxp;
  for (std::size_t k = 0; k < sx.size(); ++k) {
    sx[k] = random_residues(p, sn, 7 + k);
    sxp.push_back(&sx[k]);
  }

  // `len` is the n a row reports; dot runs over the first len elements of
  // its inputs, and its rows below n = 4096 keep about the same total work
  // per timing.
  struct Fam {
    const char* name;
    int iters;
    std::size_t len;
  };
  const Fam fams[] = {{"dot", 170000, 96},   {"dot", 64000, 256},
                      {"dot", 8000, 2048},   {"dot", 4000, n},
                      {"sum", 4000, n},      {"dot_gather", 2000, n},
                      {"batch_inverse", 200, n},
                      {"ntt_mul", 40, n},    {"mat_mul", 3, mn},
                      {"spmm", 20, sn}};

  for (const auto& fam : fams) {
    double scalar_ms = 0;
    std::uint64_t scalar_sum = 0;
    for (const auto& l : kLevels) {
      if (!enter_level(l)) continue;
      std::uint64_t sum = 0;
      double ms = 0;
      const std::string name = fam.name;
      if (name == "dot") {
        ms = time_ms([&] {
          for (int it = 0; it < fam.iters; ++it) {
            sum = kp::field::kernels::dot(fast, va.data(), vb.data(),
                                          fam.len);
          }
        });
      } else if (name == "sum") {
        ms = time_ms([&] {
          for (int it = 0; it < fam.iters; ++it) {
            sum = kp::field::kernels::sum(fast, va.data(), n);
          }
        });
      } else if (name == "dot_gather") {
        ms = time_ms([&] {
          for (int it = 0; it < fam.iters; ++it) {
            sum = kp::field::kernels::dot_gather(fast, va.data(), col.data(),
                                                 x.data(), n);
          }
        });
      } else if (name == "batch_inverse") {
        std::vector<std::uint64_t> buf;
        ms = time_ms([&] {
          for (int it = 0; it < fam.iters; ++it) {
            buf = nz;
            const auto st =
                kp::field::kernels::batch_inverse(fast, buf.data(), n);
            check(st.ok(), "batch_inverse status");
          }
        });
        sum = fnv1a(buf.data(), buf.size());
      } else if (name == "ntt_mul") {
        std::vector<std::uint64_t> prod;
        ms = time_ms([&] {
          for (int it = 0; it < fam.iters; ++it) prod = ring.mul(va, vb);
        });
        sum = fnv1a(prod.data(), prod.size());
      } else if (name == "spmm") {
        std::vector<std::vector<std::uint64_t>> ys;
        ms = time_ms([&] {
          for (int it = 0; it < fam.iters; ++it) ys = sp.apply_many(fast, sxp);
        });
        std::vector<std::uint64_t> flat;
        for (const auto& y : ys) flat.insert(flat.end(), y.begin(), y.end());
        sum = fnv1a(flat.data(), flat.size());
      } else {  // mat_mul
        kp::matrix::Matrix<Fast> prod(0, 0, 0);
        ms = time_ms([&] {
          for (int it = 0; it < fam.iters; ++it) {
            prod = kp::matrix::mat_mul(fast, ma, mb);
          }
        });
        sum = fnv1a(prod.data().data(), prod.data().size());
      }
      if (l.level == SimdLevel::kScalar) {
        scalar_ms = ms;
        scalar_sum = sum;
      }
      add_row(fam.name, l.name, fam.len, scalar_ms, ms, sum, scalar_sum);
    }
  }

  simd::set_simd_level(simd::simd_max_level());
  simd::set_simd_ifma(true);

  table.print();

  const auto stats = simd::simd_stats();
  std::printf(
      "\nsimd_stats: level=%s ifma=%d dot=%llu sum=%llu gather=%llu "
      "spmm=%llu gemm=%llu batch_inverse=%llu ntt=%llu pointwise=%llu "
      "scale=%llu\n",
      stats.level, stats.ifma ? 1 : 0,
      static_cast<unsigned long long>(stats.dot),
      static_cast<unsigned long long>(stats.sum),
      static_cast<unsigned long long>(stats.gather),
      static_cast<unsigned long long>(stats.spmm),
      static_cast<unsigned long long>(stats.gemm),
      static_cast<unsigned long long>(stats.batch_inverse),
      static_cast<unsigned long long>(stats.ntt),
      static_cast<unsigned long long>(stats.pointwise),
      static_cast<unsigned long long>(stats.scale));

  report.write();
  if (failures) {
    std::printf("\n%d SIMD mismatch(es)\n", failures);
    return 1;
  }
  std::printf("\nall levels bit-identical to the scalar kernel path\n");
  return 0;
}
