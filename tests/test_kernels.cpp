// The fast-kernel layer contract (field/kernels.h, field/fastmod.h):
// every trait-selected kernel must return the SAME canonical field elements
// as the frozen seed arithmetic (field/reference.h) and charge the SAME
// logical operation counts -- an OpScope must not be able to tell the two
// paths apart.  These are randomized equivalence properties swept across
// edge moduli (tiny primes, the Mersenne prime kP61, the NTT prime) and
// across sizes that span the parallel grain, plus edge values {0, 1, p-1}.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "circuit/field.h"
#include "field/fastmod.h"
#include "field/kernels.h"
#include "field/primes.h"
#include "field/reference.h"
#include "field/zp.h"
#include "matrix/matmul.h"
#include "matrix/sparse.h"
#include "poly/ntt.h"
#include "pram/parallel_for.h"
#include "seq/newton_identities.h"
#include "util/op_count.h"
#include "util/prng.h"

namespace kp {
namespace {

using field::GFp;
using field::GFpReference;
using field::Zp;
using field::kNttPrime;
using field::kP61;

// The trait opts exactly the word-sized prime fields into the fast kernels;
// the symbolic circuit recorder and the reference field must stay generic.
static_assert(field::kernels::FastField<GFp>);
static_assert(field::kernels::FastField<Zp<kNttPrime>>);
static_assert(!field::FieldKernels<GFpReference>::kFast);
static_assert(!field::FieldKernels<circuit::CircuitBuilderField>::kFast);

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

template <class F>
matrix::Matrix<F> matrix_from(const F& f, const std::vector<std::uint64_t>& v,
                              std::size_t rows, std::size_t cols) {
  matrix::Matrix<F> m(rows, cols, f.zero());
  for (std::size_t i = 0; i < rows * cols; ++i) m.data()[i] = v[i];
  return m;
}

// ---------------------------------------------------------------------------
// Scalar arithmetic: fast fields vs the reference `%` path, including the
// edge values 0, 1, p-1 on both sides of every operation.

template <class FastF>
void check_scalar_ops(const FastF& f, std::uint64_t p) {
  GFpReference ref(p);
  util::Prng prng(p ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::uint64_t> probes = {0, 1 % p, p - 1};
  for (int i = 0; i < 200; ++i) probes.push_back(prng.below(p));
  for (std::uint64_t a : probes) {
    for (std::uint64_t b : {probes[0], probes[1], probes[2],
                            prng.below(p), prng.below(p)}) {
      util::OpScope sf;
      const auto mf = f.mul(a, b);
      const auto af = f.add(a, b);
      const auto nf = f.neg(a);
      const auto cf = sf.counts();
      util::OpScope sr;
      const auto mr = ref.mul(a, b);
      const auto ar = ref.add(a, b);
      const auto nr = ref.neg(a);
      const auto cr = sr.counts();
      ASSERT_EQ(mf, mr) << "mul " << a << "*" << b << " mod " << p;
      ASSERT_EQ(af, ar);
      ASSERT_EQ(nf, nr);
      ASSERT_TRUE(same_counts(cf, cr));
      if (b != 0) {
        util::OpScope df;
        const auto qf = f.div(a, b);
        const auto cdf = df.counts();
        util::OpScope dr;
        const auto qr = ref.div(a, b);
        const auto cdr = dr.counts();
        ASSERT_EQ(qf, qr) << "div " << a << "/" << b << " mod " << p;
        ASSERT_TRUE(same_counts(cdf, cdr));
      }
    }
  }
}

TEST(Kernels, ScalarOpsMatchReferenceAcrossModuli) {
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 1000003ULL,
                          static_cast<unsigned long long>(kP61),
                          static_cast<unsigned long long>(kNttPrime)}) {
    check_scalar_ops(GFp(p), p);
  }
  check_scalar_ops(Zp<3>(), 3);
  check_scalar_ops(Zp<5>(), 5);
  check_scalar_ops(Zp<kP61>(), kP61);
  check_scalar_ops(Zp<kNttPrime>(), kNttPrime);
}

// ---------------------------------------------------------------------------
// Fused block kernels vs reference formulas, sizes spanning the grain.

template <class FastF>
void check_block_kernels(const FastF& f, std::uint64_t p, std::uint64_t seed) {
  GFpReference ref(p);
  // Sizes below, at, and above the delayed-reduction spill cadence for tiny
  // p (capacity ~3) and around typical row lengths.
  for (std::size_t n : {1u, 2u, 3u, 4u, 7u, 64u, 257u}) {
    auto a = random_residues(p, n, seed + n);
    auto b = random_residues(p, n, seed + 2 * n + 1);
    if (n >= 3) {  // plant edge values inside the accumulation
      a[0] = 0;
      a[1] = p - 1;
      b[1] = p - 1;
      a[2] = 1 % p;
    }

    util::OpScope ssf;
    auto terms_f = a;
    const auto sum_f = matrix::balanced_sum(f, terms_f);
    const auto csf = ssf.counts();
    util::OpScope ssr;
    auto terms_r = a;
    const auto sum_r = matrix::balanced_sum(ref, terms_r);
    const auto csr = ssr.counts();
    ASSERT_EQ(sum_f, sum_r) << "sum n=" << n << " p=" << p;
    ASSERT_TRUE(same_counts(csf, csr));

    util::OpScope sdf;
    const auto dot_f = field::kernels::dot(f, a.data(), b.data(), n);
    const auto cdf = sdf.counts();
    util::OpScope sdr;
    auto acc = ref.zero();
    for (std::size_t i = 0; i < n; ++i) {
      const auto prod = ref.mul(a[i], b[i]);
      acc = i == 0 ? prod : ref.add(acc, prod);
    }
    const auto cdr = sdr.counts();
    ASSERT_EQ(dot_f, acc) << "dot n=" << n << " p=" << p;
    ASSERT_TRUE(same_counts(cdf, cdr));
  }
}

// Barrett::reduce_full against the hardware remainder on both sides of
// the one-reduction branch: high limbs 0, p - 1 (the last value reduce
// takes directly), p and 2^64 - 1 (the two-step path), each with low limbs
// at the edges and at random.
TEST(Kernels, ReduceFullMatchesU128Remainder) {
  using field::fastmod::u128;
  using field::fastmod::u64;
  const u64 stream_prime = field::next_ntt_prime(62, 20);
  ASSERT_NE(stream_prime, 0u);
  util::Prng prng(128);
  for (const u64 p : {kNttPrime, stream_prime, u64{536870909}}) {
    const field::fastmod::Barrett bar(p);
    for (const u64 hi : {u64{0}, p - 1, p, ~u64{0}}) {
      std::vector<u64> lows = {0, 1, p - 1, p, ~u64{0}};
      for (int i = 0; i < 64; ++i) lows.push_back(prng());
      for (const u64 lo : lows) {
        const u128 x = (static_cast<u128>(hi) << 64) | lo;
        ASSERT_EQ(bar.reduce_full(x), static_cast<u64>(x % p))
            << "p " << p << " hi " << hi << " lo " << lo;
      }
    }
  }
}

TEST(Kernels, BlockKernelsMatchReferenceAcrossModuli) {
  for (std::uint64_t p : {3ULL, 5ULL, 1000003ULL,
                          static_cast<unsigned long long>(kP61),
                          static_cast<unsigned long long>(kNttPrime)}) {
    check_block_kernels(GFp(p), p, p);
  }
  check_block_kernels(Zp<3>(), 3, 17);
  check_block_kernels(Zp<kP61>(), kP61, 23);
  check_block_kernels(Zp<kNttPrime>(), kNttPrime, 29);
}

// ---------------------------------------------------------------------------
// Matrix kernels: one size above the parallel grain (300*300 > 2^15), one
// below, against the reference field running the same generic algorithms.

TEST(Kernels, MatVecMatchesReferenceAcrossGrain) {
  const std::uint64_t p = kNttPrime;
  GFp fast(p);
  GFpReference ref(p);
  for (std::size_t n : {5u, 300u}) {
    const auto vals = random_residues(p, n * n, n);
    const auto x = random_residues(p, n, n + 1);
    const auto mf = matrix_from(fast, vals, n, n);
    const auto mr = matrix_from(ref, vals, n, n);
    util::OpScope sf;
    const auto yf = matrix::mat_vec(fast, mf, x);
    const auto cf = sf.counts();
    util::OpScope sr;
    const auto yr = matrix::mat_vec(ref, mr, x);
    const auto cr = sr.counts();
    EXPECT_EQ(yf, yr) << "mat_vec n=" << n;
    EXPECT_TRUE(same_counts(cf, cr));
    util::OpScope tf;
    const auto zf = matrix::vec_mat(fast, x, mf);
    const auto ctf = tf.counts();
    util::OpScope tr;
    const auto zr = matrix::vec_mat(ref, x, mr);
    const auto ctr = tr.counts();
    EXPECT_EQ(zf, zr) << "vec_mat n=" << n;
    EXPECT_TRUE(same_counts(ctf, ctr));
  }
}

TEST(Kernels, PooledVecMatMatchesOneRowGemmAcrossWorkers) {
  // Past kVecMatParallelGrain vec_mat splits its output columns over the
  // pool.  Every slice is the one-row tiled product's own columns, so the
  // elements and the charge match the unsplit kernel at 1 and 4 workers,
  // and the generic path agrees.
  const std::uint64_t p = kNttPrime;
  GFp fast(p);
  GFpReference ref(p);
  auto& ctx = pram::ExecutionContext::global();
  for (std::size_t n : {512u, 600u}) {
    ASSERT_GE(n * n, matrix::kVecMatParallelGrain);
    const auto vals = random_residues(p, n * n, n);
    const auto mf = matrix_from(fast, vals, n, n);
    const auto x = random_residues(p, n, 7 * n);
    std::vector<std::uint64_t> want(n);
    field::kernels::gemm_rows(fast, x.data(), n, mf.data().data(), n,
                              want.data(), n, 1, n, n);
    const util::OpCounts charge{(n - 1) * n, n * n, 0, 0};
    for (const unsigned workers : {1u, 4u}) {
      ctx.set_worker_limit(workers);
      util::OpScope scope;
      const auto got = matrix::vec_mat(fast, x, mf);
      EXPECT_TRUE(same_counts(scope.counts(), charge)) << n << " " << workers;
      EXPECT_EQ(got, want) << n << " " << workers;
    }
    ctx.set_worker_limit(4);
    const auto mr = matrix_from(ref, vals, n, n);
    util::OpScope generic;
    EXPECT_EQ(matrix::vec_mat(ref, x, mr), want) << n;
    EXPECT_TRUE(same_counts(generic.counts(), charge)) << n;
    ctx.set_worker_limit(0);
  }
}

TEST(Kernels, MatMulClassicalSkipsZerosLikeReference) {
  const std::uint64_t p = 1000003;
  GFp fast(p);
  GFpReference ref(p);
  const std::size_t n = 48;
  auto va = random_residues(p, n * n, 3);
  const auto vb = random_residues(p, n * n, 4);
  util::Prng prng(5);
  for (auto& v : va) {  // ~1/3 zeros: exercises the zero-skip accounting
    if (prng.below(3) == 0) v = 0;
  }
  const auto af = matrix_from(fast, va, n, n), bf = matrix_from(fast, vb, n, n);
  const auto ar = matrix_from(ref, va, n, n), br = matrix_from(ref, vb, n, n);
  util::OpScope sf;
  const auto pf = matrix::mat_mul(fast, af, bf);
  const auto cf = sf.counts();
  util::OpScope sr;
  const auto pr = matrix::mat_mul(ref, ar, br);
  const auto cr = sr.counts();
  EXPECT_EQ(pf.data(), pr.data());
  EXPECT_TRUE(same_counts(cf, cr));
}

TEST(Kernels, StrassenSquarePow2AndPaddedAgreeWithClassical) {
  const std::uint64_t p = kNttPrime;
  GFp f(p);
  // Square power-of-two (the no-pad fast path) and an odd rectangle (the
  // padded path) must both match the classical kernel.
  {
    const std::size_t n = 64;
    const auto a = matrix_from(f, random_residues(p, n * n, 6), n, n);
    const auto b = matrix_from(f, random_residues(p, n * n, 7), n, n);
    const auto cs = matrix::mat_mul(f, a, b, matrix::MatMulStrategy::kStrassen);
    const auto cc = matrix::mat_mul(f, a, b, matrix::MatMulStrategy::kClassical);
    EXPECT_EQ(cs.data(), cc.data());
  }
  {
    const auto a = matrix_from(f, random_residues(p, 45 * 37, 8), 45, 37);
    const auto b = matrix_from(f, random_residues(p, 37 * 50, 9), 37, 50);
    const auto cs = matrix::mat_mul(f, a, b, matrix::MatMulStrategy::kStrassen);
    const auto cc = matrix::mat_mul(f, a, b, matrix::MatMulStrategy::kClassical);
    EXPECT_EQ(cs.data(), cc.data());
  }
}

TEST(Kernels, SparseApplyMatchesReference) {
  const std::uint64_t p = kP61;
  GFp fast(p);
  GFpReference ref(p);
  const std::size_t n = 500;
  util::Prng pf(11), pr(11);
  const auto sf_mat = matrix::Sparse<GFp>::random(fast, n, 7, pf);
  const auto sr_mat = matrix::Sparse<GFpReference>::random(ref, n, 7, pr);
  const auto x = random_residues(p, n, 12);
  util::OpScope sf;
  const auto yf = sf_mat.apply(fast, x);
  const auto cf = sf.counts();
  util::OpScope sr;
  const auto yr = sr_mat.apply(ref, x);
  const auto cr = sr.counts();
  EXPECT_EQ(yf, yr);
  EXPECT_TRUE(same_counts(cf, cr));
}

// ---------------------------------------------------------------------------
// NTT: cached Shoup twiddles + Harvey lazy butterflies vs the generic
// transform run by the reference field, across sizes (and hence levels).

TEST(Kernels, NttMulMatchesReferenceTransforms) {
  const std::uint64_t p = kNttPrime;
  GFp fast(p);
  GFpReference ref(p);
  poly::PolyRing<GFp> rf(fast, poly::MulStrategy::kNtt);
  poly::PolyRing<GFpReference> rr(ref, poly::MulStrategy::kNtt);
  for (std::size_t n : {4u, 33u, 256u, 1000u}) {
    const auto a = random_residues(p, n, 20 + n);
    const auto b = random_residues(p, n, 21 + n);
    util::OpScope sf;
    const auto pf = rf.mul(a, b);
    const auto cf = sf.counts();
    util::OpScope sr;
    const auto pr = rr.mul(a, b);
    const auto cr = sr.counts();
    ASSERT_EQ(pf, pr) << "ntt_mul n=" << n;
    ASSERT_TRUE(same_counts(cf, cr));
  }
}

// ---------------------------------------------------------------------------
// Batched inversion and the Newton-identity wiring that consumes it.

TEST(Kernels, BatchInverseMatchesElementwiseInv) {
  for (std::uint64_t p : {3ULL, 5ULL, static_cast<unsigned long long>(kP61),
                          static_cast<unsigned long long>(kNttPrime)}) {
    GFp fast(p);
    GFpReference ref(p);
    for (std::size_t n : {1u, 2u, 3u, 100u}) {
      util::Prng prng(p + n);
      std::vector<std::uint64_t> vals(n);
      for (auto& v : vals) v = 1 + prng.below(p - 1);  // nonzero
      auto fast_out = vals;
      util::OpScope sf;
      field::kernels::batch_inverse(fast, fast_out.data(), n);
      const auto cf = sf.counts();
      std::vector<std::uint64_t> ref_out(n);
      util::OpScope sr;
      for (std::size_t i = 0; i < n; ++i) ref_out[i] = ref.inv(vals[i]);
      const auto cr = sr.counts();
      ASSERT_EQ(fast_out, ref_out) << "batch_inverse n=" << n << " p=" << p;
      ASSERT_TRUE(same_counts(cf, cr));
    }
  }
}

TEST(Kernels, NewtonIdentitiesMatchReferenceBothMethods) {
  const std::uint64_t p = kNttPrime;
  GFp fast(p);
  GFpReference ref(p);
  const std::size_t n = 40;
  const auto s = random_residues(p, n, 31);
  for (auto method : {seq::NewtonIdentityMethod::kTriangularSolve,
                      seq::NewtonIdentityMethod::kPowerSeriesExp}) {
    util::OpScope sf;
    const auto cpf = seq::charpoly_from_power_sums(fast, s, method);
    const auto cf = sf.counts();
    util::OpScope sr;
    const auto cpr = seq::charpoly_from_power_sums(ref, s, method);
    const auto cr = sr.counts();
    ASSERT_EQ(cpf, cpr);
    ASSERT_TRUE(same_counts(cf, cr));
  }
}

}  // namespace
}  // namespace kp
