// The SIMD backend contract (field/simd.h): every vector kernel must be
// indistinguishable from the scalar path except in wall clock -- same
// canonical elements as both the scalar fast kernels and the frozen seed
// arithmetic (field/reference.h), same logical op counts, at every dispatch
// level, for every tail length n mod lanes, for misaligned operands, and
// composed end-to-end (NTT products, charpoly, the Theorem-4 solver) at any
// worker count with fault injection armed.  The tests sweep set_simd_level /
// set_simd_ifma; on hardware without a level the setter clamps downward and
// the sweep degenerates to re-checking the levels that do exist.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/solver.h"
#include "field/kernels.h"
#include "field/reference.h"
#include "field/simd.h"
#include "field/zp.h"
#include "matrix/gauss.h"
#include "matrix/matmul.h"
#include "matrix/sparse.h"
#include "poly/interp.h"
#include "poly/ntt.h"
#include "pram/parallel_for.h"
#include "seq/matrix_berlekamp_massey.h"
#include "seq/newton_identities.h"
#include "util/fault.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp {
namespace {

using field::GFp;
using field::GFpReference;
using field::Zp;
using field::kNttPrime;
using field::kP61;
namespace simd = field::simd;
using simd::SimdLevel;

// All levels the sweep requests; set_simd_level clamps each to the nearest
// available one, so on any hardware the sweep covers scalar plus whatever
// vector levels exist (requesting kAvx512 on an AVX2-only CPU lands on
// kAvx2, any vector level off x86 lands on scalar).
constexpr SimdLevel kSweep[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                                SimdLevel::kAvx512};

/// Restores the ambient dispatch level (and IFMA flag) on scope exit so a
/// failing assertion cannot leak a forced level into later tests.
struct LevelGuard {
  SimdLevel saved = simd::simd_level();
  bool saved_ifma = simd::simd_ifma();
  ~LevelGuard() {
    simd::set_simd_level(saved);
    simd::set_simd_ifma(saved_ifma);
  }
};

bool same_counts(const util::OpCounts& a, const util::OpCounts& b) {
  return a.add == b.add && a.mul == b.mul && a.div == b.div &&
         a.zero_test == b.zero_test;
}

std::vector<std::uint64_t> random_residues(std::uint64_t p, std::size_t n,
                                           std::uint64_t seed) {
  util::Prng prng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = prng.below(p);
  return v;
}

// ---------------------------------------------------------------------------
// Kernel equivalence: each entry point, every dispatch level and IFMA
// setting, every tail length around the widest lane count, misaligned
// operand bases, against BOTH the forced-scalar kernel path and the seed.

TEST(SimdKernels, DotSumEquivalenceAllLevelsTailsOffsets) {
  LevelGuard guard;
  for (std::uint64_t p :
       {std::uint64_t{65537}, kP61, kNttPrime}) {
    GFp fast(p);
    GFpReference ref(p);
    // Sizes crossing kMinSimdN and covering every n mod 8 (and n mod 16).
    std::vector<std::size_t> sizes = {1, 7, 31, 32, 100};
    for (std::size_t m = 0; m < 16; ++m) sizes.push_back(256 + m);
    for (std::size_t n : sizes) {
      const auto base_a = random_residues(p, n + 8, p % 97 + n);
      const auto base_b = random_residues(p, n + 8, p % 89 + 2 * n);
      for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
        const std::uint64_t* a = base_a.data() + off;
        const std::uint64_t* b = base_b.data() + off;
        // Seed-path reference values.
        std::uint64_t dot_ref = 0;
        for (std::size_t i = 0; i < n; ++i) {
          dot_ref = ref.add(dot_ref, ref.mul(a[i], b[i]));
        }
        for (auto want : kSweep) {
          for (int ifma = 0; ifma < 2; ++ifma) {
            simd::set_simd_level(want);
            simd::set_simd_ifma(ifma != 0);
            util::OpScope sf;
            const auto dot_f = field::kernels::dot(fast, a, b, n);
            const auto cf = sf.counts();
            ASSERT_EQ(dot_f, dot_ref)
                << "dot p=" << p << " n=" << n << " off=" << off
                << " level=" << to_string(simd::simd_level());
            // The kernel contract charges n muls, n-1 adds at every level.
            ASSERT_EQ(cf.mul, n);
            ASSERT_EQ(cf.add, n - 1);
            std::uint64_t sum_ref = 0;
            for (std::size_t i = 0; i < n; ++i) sum_ref = ref.add(sum_ref, a[i]);
            util::OpScope ss;
            const auto sum_f = field::kernels::sum(fast, a, n);
            ASSERT_EQ(sum_f, sum_ref) << "sum p=" << p << " n=" << n;
            ASSERT_EQ(ss.counts().add, n - 1);
          }
        }
      }
    }
  }
}

TEST(SimdKernels, CrossLevelBitIdentityIncludingOpCounts) {
  // Every level must agree with the forced-scalar kernel bit-for-bit AND
  // charge identical counts (the stronger form of the invisibility rule).
  LevelGuard guard;
  for (std::uint64_t p : {std::uint64_t{65537}, kP61, kNttPrime}) {
    GFp fast(p);
    for (std::size_t n : {32u, 33u, 39u, 257u, 4096u}) {
      const auto a = random_residues(p, n, 3 * n + 1);
      auto b = random_residues(p, n, 5 * n + 7);
      b[n / 2] = 0;
      b[0] = 0;
      simd::set_simd_level(SimdLevel::kScalar);
      util::OpScope s0;
      const auto dot0 = field::kernels::dot(fast, b.data(), a.data(), n);
      const auto c0 = s0.counts();
      for (auto want : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
        for (int ifma = 0; ifma < 2; ++ifma) {
          simd::set_simd_level(want);
          simd::set_simd_ifma(ifma != 0);
          util::OpScope s1;
          const auto dot1 = field::kernels::dot(fast, b.data(), a.data(), n);
          ASSERT_EQ(dot1, dot0) << p << " " << n;
          ASSERT_TRUE(same_counts(s1.counts(), c0)) << p << " " << n;
        }
      }
    }
  }
}

/// A rows x cols matrix with the accumulator extremes mixed in: row 1 all
/// zero, row 2 and every fifth row from row 4 on all p - 1, and scattered
/// zeros in the other rows (the zero-skip accounting must see them).
template <class F>
matrix::Matrix<F> stress_matrix(const F& f, std::uint64_t p, std::size_t rows,
                                std::size_t cols, std::uint64_t seed) {
  util::Prng prng(seed);
  matrix::Matrix<F> m(rows, cols, f.zero());
  for (std::size_t i = 0; i < rows; ++i) {
    const bool max_row = i == 2 || (i >= 4 && i % 5 == 4);
    for (std::size_t j = 0; j < cols; ++j) {
      const std::uint64_t v = prng.below(p);
      if (max_row) {
        m.at(i, j) = p - 1;
      } else if (i != 1 && prng.below(8) != 0) {
        m.at(i, j) = v;
      }
    }
  }
  return m;
}

/// The seed arithmetic's generic zero-skipping product of the same entries,
/// then mat_mul over GFp at every level, IFMA on and off, 1, 2 and 4 workers:
/// identical elements and OpCounts each time.
void expect_mat_mul_matches_seed(std::uint64_t p,
                                 const matrix::Matrix<GFp>& af,
                                 const matrix::Matrix<GFp>& bf) {
  GFp fast(p);
  GFpReference ref(p);
  matrix::Matrix<GFpReference> ar(af.rows(), af.cols(), 0);
  matrix::Matrix<GFpReference> br(bf.rows(), bf.cols(), 0);
  ar.data() = af.data();
  br.data() = bf.data();
  util::OpScope sr;
  const auto want = matrix::mat_mul(ref, ar, br);
  const auto cr = sr.counts();
  auto& ctx = pram::ExecutionContext::global();
  for (auto lvl : kSweep) {
    for (int ifma = 0; ifma < 2; ++ifma) {
      for (std::size_t workers : {1u, 2u, 4u}) {
        simd::set_simd_level(lvl);
        simd::set_simd_ifma(ifma != 0);
        ctx.set_worker_limit(workers);
        util::OpScope sf;
        const auto got = matrix::mat_mul(fast, af, bf);
        const auto cf = sf.counts();
        ctx.set_worker_limit(0);
        ASSERT_EQ(got.data(), want.data())
            << "p=" << p << " rows=" << af.rows() << " k=" << af.cols()
            << " cols=" << bf.cols() << " ifma=" << ifma
            << " workers=" << workers
            << " level=" << to_string(simd::simd_level());
        ASSERT_TRUE(same_counts(cf, cr))
            << "p=" << p << " rows=" << af.rows() << " k=" << af.cols()
            << " cols=" << bf.cols();
      }
    }
  }
}

TEST(SimdKernels, MatMulCrossLevelBitIdentityIncludingOpCounts) {
  // The register-tiled mat_mul against the seed arithmetic: ragged rows and
  // columns around every tile width, K = 1100 crossing the 1024-step
  // accumulator spill, and all-(p - 1) operands (the largest lane gain per
  // k-step) over one and two spills.
  LevelGuard guard;
  for (std::uint64_t p : {std::uint64_t{65537}, kP61, kNttPrime}) {
    GFp fast(p);
    for (std::size_t k : {1u, 31u, 1100u}) {
      for (std::size_t rows : {1u, 3u, 5u, 257u}) {
        for (std::size_t cols : {1u, 7u, 8u, 15u, 16u, 17u, 33u}) {
          const auto seed = p % 1009 + 7 * k + 31 * rows + cols;
          ASSERT_NO_FATAL_FAILURE(expect_mat_mul_matches_seed(
              p, stress_matrix(fast, p, rows, k, seed),
              stress_matrix(fast, p, k, cols, seed + 1)));
        }
      }
    }
    for (std::size_t k : {1100u, 2100u}) {
      ASSERT_NO_FATAL_FAILURE(expect_mat_mul_matches_seed(
          p, matrix::Matrix<GFp>(5, k, p - 1),
          matrix::Matrix<GFp>(k, 17, p - 1)));
    }
  }
}

TEST(SimdKernels, VecMatCrossLevelBitIdentityIncludingOpCounts) {
  // vec_mat is a one-row gemm charged as a dense dot per column (no zero
  // skip, exactly the generic loop's count).
  LevelGuard guard;
  for (std::uint64_t p : {std::uint64_t{65537}, kP61, kNttPrime}) {
    GFp fast(p);
    GFpReference ref(p);
    for (std::size_t k : {1u, 31u, 1100u}) {
      for (std::size_t cols : {1u, 7u, 17u, 33u}) {
        const auto mr = stress_matrix(ref, p, k, cols, k + cols);
        const auto mf = stress_matrix(fast, p, k, cols, k + cols);
        auto x = random_residues(p, k, 3 * k + cols);
        x[0] = 0;
        x[k - 1] = p - 1;
        util::OpScope sr;
        const auto want = matrix::vec_mat(ref, x, mr);
        const auto cr = sr.counts();
        for (auto lvl : kSweep) {
          for (int ifma = 0; ifma < 2; ++ifma) {
            simd::set_simd_level(lvl);
            simd::set_simd_ifma(ifma != 0);
            util::OpScope sf;
            const auto got = matrix::vec_mat(fast, x, mf);
            ASSERT_EQ(got, want) << "p=" << p << " k=" << k << " cols=" << cols
                                 << " level=" << to_string(simd::simd_level());
            ASSERT_TRUE(same_counts(sf.counts(), cr)) << p << " " << k;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, GatherEquivalenceAllLevels) {
  LevelGuard guard;
  for (std::uint64_t p : {std::uint64_t{65537}, kNttPrime}) {
    GFp fast(p);
    GFpReference ref(p);
    for (std::size_t n : {32u, 37u, 40u, 1000u}) {
      const auto val = random_residues(p, n, n + 11);
      const auto x = random_residues(p, 4 * n, n + 13);
      util::Prng prng(n);
      std::vector<std::size_t> col(n);
      for (auto& c : col) c = prng.below(4 * n);
      std::uint64_t want_val = 0;
      for (std::size_t k = 0; k < n; ++k) {
        want_val = ref.add(want_val, ref.mul(val[k], x[col[k]]));
      }
      util::OpCounts scalar_counts{};
      for (auto want : kSweep) {
        simd::set_simd_level(want);
        util::OpScope s;
        const auto got =
            field::kernels::dot_gather(fast, val.data(), col.data(), x.data(), n);
        ASSERT_EQ(got, want_val)
            << p << " n=" << n << " level=" << to_string(simd::simd_level());
        if (want == SimdLevel::kScalar) {
          scalar_counts = s.counts();
        } else {
          ASSERT_TRUE(same_counts(s.counts(), scalar_counts));
        }
      }
    }
  }
}

TEST(SimdKernels, SubmulCrossLevelBitIdentityIncludingOpCounts) {
  // The sigma-basis axpy dst[i] -= coef * src[i] (Shoup product on
  // AVX-512) against the seed arithmetic at every level: coefficient
  // extremes, lengths on both sides of kMinSimdN and around the 8-lane
  // tail, canonical operand extremes in src and dst.
  LevelGuard guard;
  for (std::uint64_t p : {std::uint64_t{65537}, kP61, kNttPrime}) {
    GFp fast(p);
    GFpReference ref(p);
    for (std::size_t n : {8u, 9u, 31u, 32u, 33u, 1000u}) {
      auto src = random_residues(p, n, 7 * n + p % 101);
      auto dst0 = random_residues(p, n, 11 * n + p % 103);
      src[0] = p - 1;
      src[n - 1] = 0;
      dst0[0] = 0;
      dst0[n / 2] = p - 1;
      for (std::uint64_t coef :
           {std::uint64_t{0}, std::uint64_t{1}, p - 1,
            util::Prng(n + p).below(p)}) {
        auto want = dst0;
        util::OpScope sr;
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = ref.sub(want[i], ref.mul(coef, src[i]));
        }
        const auto cr = sr.counts();
        for (auto lvl : kSweep) {
          simd::set_simd_level(lvl);
          auto got = dst0;
          util::OpScope sf;
          seq::detail::axpy_sub(fast, got.data(), src.data(), n, coef);
          ASSERT_EQ(got, want) << "p=" << p << " n=" << n << " coef=" << coef
                               << " level=" << to_string(simd::simd_level());
          ASSERT_TRUE(same_counts(sf.counts(), cr)) << p << " " << n;
        }
      }
    }
  }
}

TEST(SimdKernels, BatchInverseEquivalenceAllLevels) {
  LevelGuard guard;
  for (std::uint64_t p : {std::uint64_t{65537}, kP61, kNttPrime}) {
    GFp fast(p);
    GFpReference ref(p);
    for (std::size_t n : {1u, 31u, 32u, 33u, 39u, 100u, 4096u}) {
      auto vals = random_residues(p, n, 7 * n + 3);
      for (auto& v : vals) v = 1 + v % (p - 1);  // nonzero
      std::vector<std::uint64_t> want_inv(n);
      util::OpScope sr;
      for (std::size_t i = 0; i < n; ++i) want_inv[i] = ref.inv(vals[i]);
      const auto cr = sr.counts();
      for (auto want : kSweep) {
        simd::set_simd_level(want);
        auto got = vals;
        util::OpScope sf;
        const auto st = field::kernels::batch_inverse(fast, got.data(), n);
        ASSERT_TRUE(st.ok());
        ASSERT_EQ(got, want_inv)
            << p << " n=" << n << " level=" << to_string(simd::simd_level());
        ASSERT_TRUE(same_counts(sf.counts(), cr)) << p << " " << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite fix: zero input is a reported failure in every build mode, not
// an assert-only precondition, and the input is left untouched.

TEST(SimdKernels, BatchInverseZeroReportsDivisionByZero) {
  LevelGuard guard;
  GFp fast(kNttPrime);
  for (auto want : kSweep) {
    simd::set_simd_level(want);
    auto vals = random_residues(kNttPrime, 64, 99);
    for (auto& v : vals) v |= 1;
    vals[41] = 0;
    const auto before = vals;
    const auto st = field::kernels::batch_inverse(fast, vals.data(), vals.size());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), util::FailureKind::kDivisionByZero);
    EXPECT_EQ(vals, before) << "failed batch_inverse must not mutate input";
  }
}

TEST(SimdKernels, InterpolateStatusReportsCoincidentPoints) {
  GFp fast(65537);
  poly::PolyRing<GFp> ring(fast);
  std::vector<std::uint64_t> pts = {1, 2, 3, 2};  // duplicate
  std::vector<std::uint64_t> vals = {5, 6, 7, 8};
  const auto r = poly::interpolate_status(ring, pts, vals);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().kind(), util::FailureKind::kDivisionByZero);
  // Distinct points still interpolate exactly.
  pts = {1, 2, 3, 4};
  auto good = poly::interpolate_status(ring, pts, vals);
  ASSERT_TRUE(good.ok());
  const auto q = good.take();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(ring.eval(q, pts[i]), vals[i]);
  }
}

// ---------------------------------------------------------------------------
// NTT: full product bit-identity across dispatch levels, sizes spanning the
// small-half permute path and the chunked big-half path.

TEST(SimdNtt, NttMulBitIdenticalAcrossLevels) {
  LevelGuard guard;
  using F = Zp<kNttPrime>;
  F f;
  for (std::size_t n : {8u, 60u, 500u, 2048u, 5000u}) {
    const auto ar = random_residues(kNttPrime, n, n);
    const auto br = random_residues(kNttPrime, n, 2 * n);
    std::vector<std::uint64_t> a(ar), b(br);
    simd::set_simd_level(SimdLevel::kScalar);
    util::OpScope s0;
    const auto want_prod = poly::ntt_mul_prime_field(f, a, b);
    const auto c0 = s0.counts();
    for (auto want : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
      simd::set_simd_level(want);
      util::OpScope s1;
      const auto got = poly::ntt_mul_prime_field(f, a, b);
      ASSERT_EQ(got, want_prod) << "n=" << n
                                << " level=" << to_string(simd::simd_level());
      ASSERT_TRUE(same_counts(s1.counts(), c0)) << n;
    }
  }
}

TEST(SimdNtt, NttWorkerCountAndLevelIndependence) {
  // The vector path must compose with PR 3's thread chunking: identical
  // spectra for 1/2/8 workers x every dispatch level.
  LevelGuard guard;
  using F = Zp<kNttPrime>;
  F f;
  auto& ctx = pram::ExecutionContext::global();
  const std::size_t n = 1 << 15;  // big enough to actually chunk
  const auto ar = random_residues(kNttPrime, n, 4242);
  std::vector<std::uint64_t> expect;
  for (auto want : {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    simd::set_simd_level(want);
    for (std::size_t workers : {1u, 2u, 8u}) {
      ctx.set_worker_limit(workers);
      auto s = poly::ntt_forward(f, ar, n);
      ctx.set_worker_limit(0);
      if (expect.empty()) {
        expect = s.data;
      } else {
        ASSERT_EQ(s.data, expect)
            << "workers=" << workers
            << " level=" << to_string(simd::simd_level());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: charpoly and the Theorem-4 solver are bit-identical with SIMD
// on/off at 1/2/8 workers, including with a fault injected mid-pipeline.

TEST(SimdEndToEnd, CharpolyBitIdenticalAcrossLevelsAndWorkers) {
  LevelGuard guard;
  using F = Zp<kNttPrime>;
  F f;
  auto& ctx = pram::ExecutionContext::global();
  const std::size_t n = 48;
  auto s = random_residues(kNttPrime, n, 777);
  std::vector<std::uint64_t> expect;
  for (auto want : {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    simd::set_simd_level(want);
    for (std::size_t workers : {1u, 2u, 8u}) {
      ctx.set_worker_limit(workers);
      auto cp = seq::charpoly_from_power_sums(
          f, s, seq::NewtonIdentityMethod::kPowerSeriesExp);
      ctx.set_worker_limit(0);
      if (expect.empty()) {
        expect = cp;
      } else {
        ASSERT_EQ(cp, expect) << "workers=" << workers
                              << " level=" << to_string(simd::simd_level());
      }
    }
  }
}

TEST(SimdEndToEnd, SolveBitIdenticalSimdOnOffAcrossWorkers) {
  LevelGuard guard;
  using F = Zp<kNttPrime>;
  F f;
  auto& ctx = pram::ExecutionContext::global();
  const std::size_t n = 24;
  util::Prng setup(2026);
  auto a = matrix::random_matrix(f, n, n, setup);
  std::vector<F::Element> x_true(n);
  for (auto& e : x_true) e = f.random(setup);
  const auto b = matrix::mat_vec(f, a, x_true);
  ASSERT_FALSE(f.is_zero(matrix::det_gauss(f, a)));
  std::vector<F::Element> expect_x;
  F::Element expect_det{};
  for (auto want : {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    simd::set_simd_level(want);
    for (std::size_t workers : {1u, 2u, 8u}) {
      ctx.set_worker_limit(workers);
      util::Prng prng(31337);  // same randomness stream for every config
      auto res = core::kp_solve(f, a, b, prng);
      ctx.set_worker_limit(0);
      ASSERT_TRUE(res.ok);
      if (expect_x.empty()) {
        expect_x = res.x;
        expect_det = res.det;
      } else {
        ASSERT_EQ(res.x, expect_x)
            << "workers=" << workers
            << " level=" << to_string(simd::simd_level());
        ASSERT_EQ(res.det, expect_det);
      }
      ASSERT_EQ(res.x, x_true);
    }
  }
}

TEST(SimdEndToEnd, SolveWithInjectedFaultBitIdenticalSimdOnOff) {
#if !KP_FAULT_INJECTION_ENABLED
  GTEST_SKIP() << "fault injection compiled out";
#else
  // The retry path (redraw after an injected projection fault) must also be
  // SIMD-invisible: same diags, same final answer.
  LevelGuard guard;
  using F = Zp<kNttPrime>;
  F f;
  const std::size_t n = 16;
  util::Prng setup(404);
  auto a = matrix::random_matrix(f, n, n, setup);
  std::vector<F::Element> x_true(n);
  for (auto& e : x_true) e = f.random(setup);
  const auto b = matrix::mat_vec(f, a, x_true);
  ASSERT_FALSE(f.is_zero(matrix::det_gauss(f, a)));
  std::vector<F::Element> expect_x;
  int expect_attempts = 0;
  for (auto want : {SimdLevel::kScalar, SimdLevel::kAvx512}) {
    simd::set_simd_level(want);
    util::fault::ScopedFault fi(util::Stage::kProjection, /*attempt=*/1);
    util::Prng prng(5150);
    auto res = core::kp_solve(f, a, b, prng);
    EXPECT_EQ(fi.fired(), 1u);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.x, x_true);
    if (expect_x.empty()) {
      expect_x = res.x;
      expect_attempts = res.attempts;
    } else {
      ASSERT_EQ(res.x, expect_x);
      ASSERT_EQ(res.attempts, expect_attempts);
    }
  }
#endif
}

// ---------------------------------------------------------------------------
// Dispatch plumbing: clamping, env semantics are covered implicitly (the
// setter IS the env parser's back end); stats move only when vector groups
// actually run.

TEST(SimdDispatch, SetLevelClampsToAvailable) {
  LevelGuard guard;
  const SimdLevel max = simd::simd_max_level();
  for (auto want : kSweep) {
    const SimdLevel got = simd::set_simd_level(want);
    EXPECT_LE(static_cast<int>(got), static_cast<int>(want));
    EXPECT_LE(static_cast<int>(got), static_cast<int>(max));
    EXPECT_EQ(got, simd::simd_level());
  }
  // Scalar is always accepted verbatim.
  EXPECT_EQ(simd::set_simd_level(SimdLevel::kScalar), SimdLevel::kScalar);
}

TEST(SimdDispatch, StatsCountVectorGroupsOnlyWhenVectorPathRuns) {
  LevelGuard guard;
  GFp fast(kNttPrime);
  const std::size_t n = 4096;
  const auto a = random_residues(kNttPrime, n, 1);
  const auto b = random_residues(kNttPrime, n, 2);

  simd::set_simd_level(SimdLevel::kScalar);
  simd::reset_simd_stats();
  (void)field::kernels::dot(fast, a.data(), b.data(), n);
  EXPECT_EQ(simd::simd_stats().dot, 0u) << "scalar run must not bump stats";

  matrix::Matrix<GFp> m(64, 64, 0);
  for (std::size_t i = 0; i < 64 * 64; ++i) m.data()[i] = a[i % n];
  const std::vector<std::uint64_t> x256(a.begin(), a.begin() + 256);
  simd::reset_simd_stats();
  (void)matrix::mat_mul(fast, m, m);
  EXPECT_EQ(simd::simd_stats().gemm, 0u) << "scalar gemm must not bump stats";

  // A block apply over 40-entry rows (above the SpMM row-length gate) and a
  // single-vector apply, whose gathered dot is scalar at every level.
  util::Prng prng(5);
  const auto sp = matrix::Sparse<GFp>::random(fast, 256, 40, prng);
  const std::vector<const std::vector<std::uint64_t>*> block = {
      &x256, &x256, &x256, &x256};
  simd::reset_simd_stats();
  (void)sp.apply_many(fast, block);
  (void)sp.apply(fast, x256);
  EXPECT_EQ(simd::simd_stats().spmm, 0u) << "scalar SpMM must not bump stats";

  if (simd::simd_max_level() >= SimdLevel::kAvx2) {
    simd::set_simd_level(simd::simd_max_level());
    simd::reset_simd_stats();
    (void)field::kernels::dot(fast, a.data(), b.data(), n);
    EXPECT_GT(simd::simd_stats().dot, 0u);
    (void)matrix::mat_mul(fast, m, m);
    if (simd::simd_level() == SimdLevel::kAvx512) {
      EXPECT_GT(simd::simd_stats().gemm, 0u);
    } else {
      EXPECT_EQ(simd::simd_stats().gemm, 0u) << "AVX2 gemm runs the scalar tile";
    }
    (void)sp.apply(fast, x256);
    EXPECT_EQ(simd::simd_stats().gather, 0u);
    // The counters are per-thread shards: the pooled apply's rows, bumped
    // from several workers, must sum to the serial count.
    auto& ctx = pram::ExecutionContext::global();
    ctx.set_worker_limit(1);
    simd::reset_simd_stats();
    (void)sp.apply_many(fast, block);
    const std::uint64_t serial = simd::simd_stats().spmm;
    ctx.set_worker_limit(4);
    simd::reset_simd_stats();
    (void)sp.apply_many(fast, block);
    EXPECT_EQ(simd::simd_stats().spmm, serial);
    ctx.set_worker_limit(0);
    if (simd::simd_ifma()) {
      EXPECT_GT(serial, 0u);
    } else {
      EXPECT_EQ(serial, 0u) << "SpMM has no non-IFMA body";
    }
  }
}

}  // namespace
}  // namespace kp
