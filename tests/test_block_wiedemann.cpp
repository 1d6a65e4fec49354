// Tests for the block-Wiedemann route: block Krylov projections
// (core/block_krylov.h), the sigma-basis matrix Berlekamp-Massey
// (seq/matrix_berlekamp_massey.h), the solve / det recovery in
// core/wiedemann.h, and the kp_solve block_width integration.  The
// contracts under test: width-1 degenerates to the scalar pipeline
// element-for-element; block answers match the scalar answers exactly;
// every result is bit-identical (including op counts) for any worker count
// and SIMD level; degenerate blocks surface through the failure taxonomy
// and re-draw only the projection stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/block_krylov.h"
#include "core/solver.h"
#include "core/wiedemann.h"
#include "field/reference.h"
#include "field/simd.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "matrix/sparse.h"
#include "matrix/structured.h"
#include "poly/interp.h"
#include "pram/parallel_for.h"
#include "seq/berlekamp_massey.h"
#include "seq/matrix_berlekamp_massey.h"
#include "util/fault.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp {
namespace {

using util::FailureKind;
using util::Stage;

using F = field::Zp<1000003>;
F f;

#define KP_REQUIRE_FAULT_INJECTION()                             \
  do {                                                           \
    if (!KP_FAULT_INJECTION_ENABLED) {                           \
      GTEST_SKIP() << "fault injection compiled out";            \
    }                                                            \
  } while (0)

matrix::Matrix<F> nonsingular_matrix(std::size_t n, util::Prng& prng) {
  for (;;) {
    auto a = matrix::random_matrix(f, n, n, prng);
    if (!f.is_zero(matrix::det_gauss(f, a))) return a;
  }
}

matrix::Sparse<F> nonsingular_sparse(std::size_t n, std::size_t per_row,
                                     util::Prng& prng) {
  for (;;) {
    auto sp = matrix::Sparse<F>::random(f, n, per_row, prng);
    if (!f.is_zero(matrix::det_gauss(f, sp.to_dense(f)))) return sp;
  }
}

/// Reference characteristic polynomial det(xI - A), monic, by evaluation at
/// n + 1 points and interpolation (the field is far larger than n).
std::vector<F::Element> charpoly_reference(const matrix::Matrix<F>& a) {
  const std::size_t n = a.rows();
  std::vector<F::Element> pts(n + 1), vals(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    pts[i] = f.from_int(static_cast<std::int64_t>(i));
    auto m = a;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) m.at(r, c) = f.neg(m.at(r, c));
      m.at(r, r) = f.add(m.at(r, r), pts[i]);
    }
    vals[i] = matrix::det_gauss(f, m);
  }
  poly::PolyRing<F> ring(f);
  return poly::interpolate(ring, pts, vals);
}

void expect_counts_eq(const util::OpCounts& a, const util::OpCounts& b,
                      const char* what) {
  EXPECT_EQ(a.add, b.add) << what;
  EXPECT_EQ(a.mul, b.mul) << what;
  EXPECT_EQ(a.div, b.div) << what;
  EXPECT_EQ(a.zero_test, b.zero_test) << what;
}

// ---------------------------------------------------------------------------
// Sigma-basis matrix Berlekamp-Massey.

TEST(SigmaBasisTest, WidthOneMatchesScalarBerlekampMassey) {
  util::Prng prng(211);
  // Random projected Krylov sequences (the exact input the route feeds it)
  // plus a hand-rolled short LFSR.
  for (std::size_t n : {3u, 5u, 8u, 11u}) {
    const auto a = nonsingular_matrix(n, prng);
    std::vector<F::Element> u(n), v(n);
    for (auto& e : u) e = f.random(prng);
    for (auto& e : v) e = f.random(prng);
    std::vector<F::Element> scalar_seq;
    auto w = v;
    for (std::size_t i = 0; i < 2 * n; ++i) {
      if (i) w = matrix::mat_vec(f, a, w);
      auto acc = f.zero();
      for (std::size_t j = 0; j < n; ++j) acc = f.add(acc, f.mul(u[j], w[j]));
      scalar_seq.push_back(acc);
    }

    std::vector<matrix::Matrix<F>> block_seq;
    for (const auto& e : scalar_seq) {
      matrix::Matrix<F> s(1, 1, e);
      block_seq.push_back(std::move(s));
    }
    auto gen = seq::matrix_berlekamp_massey(f, block_seq);
    ASSERT_TRUE(gen.ok()) << n;
    const auto g = seq::scalar_generator(f, gen.value());
    const auto ref = seq::berlekamp_massey(f, scalar_seq);
    ASSERT_EQ(g.size(), ref.size()) << n;
    for (std::size_t i = 0; i < g.size(); ++i) {
      EXPECT_TRUE(f.eq(g[i], ref[i])) << n << " coeff " << i;
    }
  }
}

TEST(SigmaBasisTest, GeneratorDeterminantRecoversCharpoly) {
  util::Prng prng(212);
  const std::size_t n = 12;
  const auto a = nonsingular_matrix(n, prng);
  const auto ref = charpoly_reference(a);
  const matrix::DenseBox<F> box(f, a);
  for (std::size_t b : {2u, 3u, 4u}) {
    const auto ut = core::random_block_rows(f, b, n, prng, 1u << 20);
    const auto v = core::random_block_columns(f, b, n, prng, 1u << 20);
    const std::size_t count = 2 * ((n + b - 1) / b) + 2;
    const auto sq = core::block_krylov_sequence(f, box, ut, v, count);
    auto gen = seq::matrix_berlekamp_massey(f, sq);
    ASSERT_TRUE(gen.ok()) << b;
    auto det = core::detail::generator_determinant(f, gen.value());
    ASSERT_TRUE(det.ok()) << b;
    auto g = det.take();
    ASSERT_EQ(g.size(), n + 1) << b;
    const auto ilc = f.inv(g.back());
    for (auto& e : g) e = f.mul(e, ilc);
    for (std::size_t i = 0; i <= n; ++i) {
      EXPECT_TRUE(f.eq(g[i], ref[i])) << "b=" << b << " coeff " << i;
    }
  }
}

TEST(SigmaBasisTest, EveryReturnedColumnGenerates) {
  util::Prng prng(213);
  const std::size_t n = 10, b = 3;
  const auto a = nonsingular_matrix(n, prng);
  const matrix::DenseBox<F> box(f, a);
  const auto ut = core::random_block_rows(f, b, n, prng, 1u << 20);
  const auto v = core::random_block_columns(f, b, n, prng, 1u << 20);
  const auto sq =
      core::block_krylov_sequence(f, box, ut, v, 2 * ((n + b - 1) / b) + 2);
  auto gen = seq::matrix_berlekamp_massey(f, sq);
  ASSERT_TRUE(gen.ok());
  ASSERT_GE(gen.value().columns.size(), b);
  for (const auto& col : gen.value().columns) {
    EXPECT_TRUE(seq::block_generates(f, sq, col));
  }
}

TEST(SigmaBasisTest, EarlyTerminationOnLowMinpolyDegree) {
  // A = 7 I has minpoly degree 1: every generator column must terminate at
  // degree <= 1 long before the worst-case ceil(n/b) bound.
  util::Prng prng(214);
  const std::size_t n = 6, b = 2;
  matrix::Matrix<F> a(n, n, f.zero());
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) = f.from_int(7);
  const matrix::DenseBox<F> box(f, a);
  const auto ut = core::random_block_rows(f, b, n, prng, 1u << 20);
  const auto v = core::random_block_columns(f, b, n, prng, 1u << 20);
  const auto sq =
      core::block_krylov_sequence(f, box, ut, v, 2 * ((n + b - 1) / b) + 2);
  auto gen = seq::matrix_berlekamp_massey(f, sq);
  ASSERT_TRUE(gen.ok());
  ASSERT_FALSE(gen.value().columns.empty());
  EXPECT_LE(gen.value().max_degree(), 1u);
  for (const auto& col : gen.value().columns) {
    EXPECT_TRUE(seq::block_generates(f, sq, col));
  }
}

TEST(SigmaBasisTest, RejectsMalformedSequences) {
  auto empty = seq::matrix_berlekamp_massey(f, {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().kind(), FailureKind::kInvalidArgument);
  EXPECT_EQ(empty.status().stage(), Stage::kBlockGenerator);

  std::vector<matrix::Matrix<F>> mixed;
  mixed.emplace_back(2, 2, f.zero());
  mixed.emplace_back(3, 3, f.zero());
  auto bad = seq::matrix_berlekamp_massey(f, mixed);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().kind(), FailureKind::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Block Krylov projections.

TEST(BlockKrylovTest, SequenceMatchesNaiveProjection) {
  util::Prng prng(221);
  const std::size_t n = 9, b = 3, count = 8;
  const auto a = nonsingular_matrix(n, prng);
  const matrix::DenseBox<F> box(f, a);
  const auto ut = core::random_block_rows(f, b, n, prng, 1u << 20);
  const auto v = core::random_block_columns(f, b, n, prng, 1u << 20);
  const auto sq = core::block_krylov_sequence(f, box, ut, v, count);
  ASSERT_EQ(sq.size(), count);
  for (std::size_t c = 0; c < b; ++c) {
    auto w = v[c];
    for (std::size_t i = 0; i < count; ++i) {
      if (i) w = matrix::mat_vec(f, a, w);
      for (std::size_t r = 0; r < b; ++r) {
        auto acc = f.zero();
        for (std::size_t j = 0; j < n; ++j) {
          acc = f.add(acc, f.mul(ut.at(r, j), w[j]));
        }
        EXPECT_TRUE(f.eq(sq[i].at(r, c), acc)) << i << "," << r << "," << c;
      }
    }
  }
}

/// The block Krylov sequence of one sparse operator over GFp (fused SIMD
/// projection dots) and over the seed arithmetic GFpReference (the generic
/// chain): identical elements and identical OpCounts.
TEST(BlockKrylovTest, SequenceOverGFpMatchesReferenceFieldAndOpCounts) {
  const std::uint64_t p = 1000003;
  const std::size_t n = 50, b = 3, count = 8;
  const field::GFp fast(p);
  const field::GFpReference ref(p);
  util::Prng prng(222);
  std::vector<matrix::Sparse<field::GFp>::Entry> fe;
  std::vector<matrix::Sparse<field::GFpReference>::Entry> re;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t c = prng.below(n);
      const std::uint64_t v = prng.below(p);
      fe.push_back({i, c, v});
      re.push_back({i, c, v});
    }
  }
  const matrix::SparseBox<field::GFp> fbox(
      fast, matrix::Sparse<field::GFp>(fast, n, n, std::move(fe)));
  const matrix::SparseBox<field::GFpReference> rbox(
      ref, matrix::Sparse<field::GFpReference>(ref, n, n, std::move(re)));
  matrix::Matrix<field::GFp> fut(b, n, 0);
  matrix::Matrix<field::GFpReference> rut(b, n, 0);
  std::vector<std::vector<std::uint64_t>> v(b, std::vector<std::uint64_t>(n));
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      fut.at(r, j) = rut.at(r, j) = prng.below(p);
      v[r][j] = prng.below(p);
    }
  }
  util::OpScope fast_scope;
  const auto got = core::block_krylov_sequence(fast, fbox, fut, v, count);
  const auto fast_ops = fast_scope.counts();
  util::OpScope ref_scope;
  const auto want = core::block_krylov_sequence(ref, rbox, rut, v, count);
  expect_counts_eq(fast_ops, ref_scope.counts(), "block_krylov_sequence ops");
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t c = 0; c < b; ++c) {
        EXPECT_EQ(got[i].at(r, c), want[i].at(r, c)) << i << "," << r << "," << c;
      }
    }
  }
}

/// CSR entries of a rows x kSweepCols matrix for the word-size-prime SpMM
/// sweep: rows 0..5 have {0, 1, 31, 32, 33, 65} entries (both sides of the
/// vector body's row-length gate), row 6 has 3000 entries of p - 1 on
/// columns 100..3099, and the rest cycle through the short lengths.  At
/// p = kP61 row 6 would overflow the 64-bit lanes without the vector body's
/// spills (after ~1366 entries in either lane layout).
constexpr std::size_t kSweepCols = 3100;

template <class R>
std::vector<typename matrix::Sparse<R>::Entry> spmm_sweep_entries(
    std::uint64_t p, std::size_t rows, std::uint64_t seed) {
  constexpr std::size_t kLens[] = {0, 1, 31, 32, 33, 65};
  util::Prng prng(seed);
  std::vector<typename matrix::Sparse<R>::Entry> e;
  for (std::size_t i = 0; i < rows; ++i) {
    if (i == 6) {
      for (std::size_t c = 100; c < kSweepCols; ++c) e.push_back({i, c, p - 1});
      continue;
    }
    for (std::size_t k = 0; k < kLens[i % 6]; ++k) {
      e.push_back({i, prng.below(kSweepCols), prng.below(p)});
    }
  }
  return e;
}

/// apply_many over GFp(p) against the seed arithmetic's looped applies, at
/// every level, IFMA on and off, 1 and 4 workers: identical elements and
/// OpCounts.  Even-numbered block vectors are p - 1 on the long row's
/// columns, so that row's lanes take the largest gain per entry.
void expect_wide_prime_apply_many(std::uint64_t p, std::size_t b) {
  const std::size_t rows = 256, n = kSweepCols;
  const field::GFp fast(p);
  const field::GFpReference ref(p);
  const matrix::Sparse<field::GFp> sp(
      fast, rows, n, spmm_sweep_entries<field::GFp>(p, rows, p + b));
  const matrix::Sparse<field::GFpReference> sr(
      ref, rows, n, spmm_sweep_entries<field::GFpReference>(p, rows, p + b));
  util::Prng prng(b);
  std::vector<std::vector<std::uint64_t>> xs(b);
  std::vector<const std::vector<std::uint64_t>*> ptrs(b);
  for (std::size_t k = 0; k < b; ++k) {
    xs[k].resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      xs[k][c] = c >= 100 && k % 2 == 0 ? p - 1 : prng.below(p);
    }
    ptrs[k] = &xs[k];
  }
  util::OpScope loop_scope;
  std::vector<std::vector<std::uint64_t>> want;
  for (std::size_t k = 0; k < b; ++k) want.push_back(sr.apply(ref, xs[k]));
  const auto want_ops = loop_scope.counts();

  constexpr field::simd::SimdLevel kSweep[] = {
      field::simd::SimdLevel::kScalar, field::simd::SimdLevel::kAvx2,
      field::simd::SimdLevel::kAvx512};
  auto& ctx = pram::ExecutionContext::global();
  for (const auto lvl : kSweep) {
    for (const bool ifma : {false, true}) {
      for (const unsigned workers : {1u, 4u}) {
        field::simd::set_simd_level(lvl);
        field::simd::set_simd_ifma(ifma);
        ctx.set_worker_limit(workers);
        util::OpScope scope;
        const auto got = sp.apply_many(fast, ptrs);
        const auto ops = scope.counts();
        ctx.set_worker_limit(0);
        ASSERT_EQ(got, want) << "p=" << p << " b=" << b << " ifma=" << ifma
                             << " workers=" << workers << " level="
                             << field::simd::to_string(
                                    field::simd::simd_level());
        expect_counts_eq(ops, want_ops, "wide-prime apply_many ops");
      }
    }
  }
}

TEST(BlockKrylovTest, SparseApplyManyMatchesLoopedApplies) {
  util::Prng prng(223);
  // Small (serial) and large (parallel grid: nnz * b >= kParallelGrain)
  // shapes; elements AND op counts must match the looped applies exactly.
  struct Shape { std::size_t n, per_row, b; };
  for (const Shape sh : {Shape{24, 3, 4}, Shape{1024, 8, 8}}) {
    const auto sp = matrix::Sparse<F>::random(f, sh.n, sh.per_row, prng);
    std::vector<std::vector<F::Element>> xs(sh.b);
    std::vector<const std::vector<F::Element>*> ptrs(sh.b);
    for (std::size_t k = 0; k < sh.b; ++k) {
      xs[k].resize(sh.n);
      for (auto& e : xs[k]) e = f.random(prng);
      ptrs[k] = &xs[k];
    }
    util::OpScope batch_scope;
    const auto batched = sp.apply_many(f, ptrs);
    const auto batch_ops = batch_scope.counts();
    util::OpScope loop_scope;
    std::vector<std::vector<F::Element>> looped;
    for (std::size_t k = 0; k < sh.b; ++k) looped.push_back(sp.apply(f, xs[k]));
    expect_counts_eq(batch_ops, loop_scope.counts(), "sparse apply_many ops");
    EXPECT_EQ(batched, looped) << "n=" << sh.n;
  }

  // Word-size primes: the IFMA SpMM body (packed for b <= 4 and for the
  // chunk of 1 after 8 at b = 9, one entry per zmm for b = 5, 8) and the
  // scalar loop, each against the seed arithmetic.
  const auto saved_level = field::simd::simd_level();
  const bool saved_ifma = field::simd::simd_ifma();
  field::simd::set_simd_ifma(true);
  if (!field::simd::simd_ifma()) {
    std::printf("note: no AVX-512 IFMA on this host; the vector SpMM body is "
                "not exercised, only the scalar loop\n");
  }
  for (std::uint64_t p : {std::uint64_t{65537}, field::kP61, field::kNttPrime}) {
    for (std::size_t b : {2u, 3u, 4u, 5u, 8u, 9u}) {
      ASSERT_NO_FATAL_FAILURE(expect_wide_prime_apply_many(p, b));
    }
  }
  field::simd::set_simd_level(saved_level);
  field::simd::set_simd_ifma(saved_ifma);
}

// ---------------------------------------------------------------------------
// Block-Wiedemann solve / det.

TEST(BlockWiedemannTest, SolveMatchesScalarRoute) {
  util::Prng setup(231);
  const std::size_t n = 48;
  const auto sp = nonsingular_sparse(n, 4, setup);
  const matrix::SparseBox<F> box(f, sp);
  std::vector<F::Element> x_true(n);
  for (auto& e : x_true) e = f.random(setup);
  const auto b = sp.apply(f, x_true);

  util::Prng p0(555);
  auto scalar = core::wiedemann_solve_status(f, box, b, p0, 1u << 20);
  ASSERT_TRUE(scalar.ok);
  ASSERT_EQ(scalar.x, x_true);  // unique: A non-singular

  for (std::size_t bw : {2u, 4u, 8u}) {
    util::Prng p(555);
    auto res = core::block_wiedemann_solve_status(f, box, b, p, 1u << 20, bw);
    ASSERT_TRUE(res.ok) << "bw=" << bw << ": " << res.status.message();
    EXPECT_EQ(res.x, scalar.x) << "bw=" << bw;
    EXPECT_EQ(sp.apply(f, res.x), b) << "bw=" << bw;
  }
}

TEST(BlockWiedemannTest, WidthOneDelegatesToScalarExactly) {
  util::Prng setup(232);
  const std::size_t n = 20;
  const auto sp = nonsingular_sparse(n, 3, setup);
  const matrix::SparseBox<F> box(f, sp);
  std::vector<F::Element> x_true(n);
  for (auto& e : x_true) e = f.random(setup);
  const auto b = sp.apply(f, x_true);

  util::Prng p1(99), p2(99);
  util::OpScope s1;
  auto scalar = core::wiedemann_solve_status(f, box, b, p1, 1u << 20);
  const auto c1 = s1.counts();
  util::OpScope s2;
  auto block = core::block_wiedemann_solve_status(f, box, b, p2, 1u << 20, 1);
  expect_counts_eq(c1, s2.counts(), "width-1 delegation ops");
  ASSERT_TRUE(scalar.ok);
  ASSERT_TRUE(block.ok);
  EXPECT_EQ(block.x, scalar.x);
  EXPECT_EQ(block.attempts, scalar.attempts);
  ASSERT_EQ(block.diags.size(), scalar.diags.size());
  for (std::size_t i = 0; i < block.diags.size(); ++i) {
    EXPECT_EQ(block.diags[i].projection_seed, scalar.diags[i].projection_seed);
  }
}

TEST(BlockWiedemannTest, DetMatchesGauss) {
  util::Prng prng(233);
  for (std::size_t n : {6u, 13u}) {
    const auto a = nonsingular_matrix(n, prng);
    const auto expect = matrix::det_gauss(f, a);
    for (std::size_t bw : {2u, 4u}) {
      util::Prng p(1000 + n);
      core::SolverOptions opt;
      opt.sample_size = 1u << 20;
      opt.block_width = bw;
      auto res = core::kp_det(f, a, p, opt);
      ASSERT_TRUE(res.ok) << "n=" << n << " bw=" << bw << ": "
                          << res.status.message();
      EXPECT_TRUE(f.eq(res.det, expect)) << "n=" << n << " bw=" << bw;
    }
  }
}

/// A b = 4 block solve over `fld` with ~per_row entries per row, replayed at
/// 1/2/4/8 workers, every SIMD level, IFMA on and off: the same x, attempts
/// and OpCounts as the forced-scalar serial run.
template <class Fld>
void expect_block_solve_bit_identical(const Fld& fld, std::size_t n,
                                      std::size_t per_row, std::uint64_t seed) {
  util::Prng setup(seed);
  auto sp = matrix::Sparse<Fld>::random(fld, n, per_row, setup);
  while (fld.is_zero(matrix::det_gauss(fld, sp.to_dense(fld)))) {
    sp = matrix::Sparse<Fld>::random(fld, n, per_row, setup);
  }
  const matrix::SparseBox<Fld> box(fld, sp);
  std::vector<typename Fld::Element> x_true(n);
  for (auto& e : x_true) e = fld.random(setup);
  const auto b = sp.apply(fld, x_true);

  auto run = [&]() {
    util::Prng p(4242);
    util::OpScope scope;
    auto res = core::block_wiedemann_solve_status(fld, box, b, p, 1u << 20, 4);
    return std::pair(std::move(res), scope.counts());
  };

  auto& ctx = pram::ExecutionContext::global();
  const auto saved_level = field::simd::simd_level();
  const bool saved_ifma = field::simd::simd_ifma();
  ctx.set_worker_limit(1);
  field::simd::set_simd_level(field::simd::SimdLevel::kScalar);
  const auto [base, base_ops] = run();
  ASSERT_TRUE(base.ok);
  ASSERT_EQ(base.x, x_true);

  constexpr field::simd::SimdLevel kSweep[] = {
      field::simd::SimdLevel::kScalar, field::simd::SimdLevel::kAvx2,
      field::simd::SimdLevel::kAvx512};
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    for (const auto want : kSweep) {
      for (const bool ifma : {false, true}) {
        ctx.set_worker_limit(workers);
        field::simd::set_simd_level(want);
        field::simd::set_simd_ifma(ifma);
        const auto [res, ops] = run();
        ASSERT_TRUE(res.ok) << workers << " workers";
        EXPECT_EQ(res.x, base.x)
            << workers << " workers, ifma " << ifma << ", level "
            << field::simd::to_string(field::simd::simd_level());
        EXPECT_EQ(res.attempts, base.attempts);
        expect_counts_eq(ops, base_ops, "block solve ops across workers/SIMD");
      }
    }
  }
  ctx.set_worker_limit(0);
  field::simd::set_simd_level(saved_level);
  field::simd::set_simd_ifma(saved_ifma);
}

TEST(BlockWiedemannTest, BitIdenticalAcrossWorkersAndSimdLevels) {
  ASSERT_NO_FATAL_FAILURE(expect_block_solve_bit_identical(f, 256, 6, 234));
  // The benchmark's word-size prime, with rows of ~40 entries so the
  // block applies cross the vector SpMM body's row-length gate.
  const field::Zp<field::kNttPrime> wide;
  if (!field::simd::simd_ifma()) {
    std::printf("note: no AVX-512 IFMA on this host; the kNttPrime solve "
                "does not exercise the vector SpMM body\n");
  }
  ASSERT_NO_FATAL_FAILURE(expect_block_solve_bit_identical(wide, 256, 40, 236));
}

TEST(BlockWiedemannTest, KpSolveBlockWidthMatchesScalarRoute) {
  util::Prng setup(235);
  const std::size_t n = 32;
  const auto sp = nonsingular_sparse(n, 4, setup);
  const matrix::SparseBox<F> box(f, sp);
  std::vector<F::Element> x_true(n);
  for (auto& e : x_true) e = f.random(setup);
  const auto b = sp.apply(f, x_true);

  core::SolverOptions scalar_opt;
  util::Prng p1(77);
  const auto scalar = core::kp_solve(f, box, b, p1, scalar_opt);
  ASSERT_TRUE(scalar.ok);
  ASSERT_EQ(scalar.x, x_true);

  for (std::size_t bw : {2u, 4u, 8u}) {
    core::SolverOptions opt = scalar_opt;
    opt.block_width = bw;
    util::Prng p2(77);
    const auto block = core::kp_solve(f, box, b, p2, opt);
    ASSERT_TRUE(block.ok) << "bw=" << bw << ": " << block.status.message();
    // Same preconditioner stream, same canonical charpoly of A-tilde, same
    // unique solution and determinant -- only the Krylov phase differs.
    EXPECT_EQ(block.x, scalar.x) << "bw=" << bw;
    EXPECT_TRUE(f.eq(block.det, scalar.det)) << "bw=" << bw;
    ASSERT_EQ(block.charpoly_at.size(), scalar.charpoly_at.size());
    for (std::size_t i = 0; i < block.charpoly_at.size(); ++i) {
      EXPECT_TRUE(f.eq(block.charpoly_at[i], scalar.charpoly_at[i]))
          << "bw=" << bw << " coeff " << i;
    }
  }
}

TEST(BlockWiedemannTest, KpSolveSmallFieldFallsBackToScalar) {
  // Zp<31> cannot supply the 2n + 2 evaluation points at n = 20, so
  // block_width must quietly resolve to the scalar route: identical
  // answers AND identical op counts.
  using Fs = field::Zp<31>;
  Fs fs;
  util::Prng setup(236);
  const std::size_t n = 20;
  matrix::Matrix<Fs> a(n, n, fs.zero());
  for (;;) {
    a = matrix::random_matrix(fs, n, n, setup);
    if (!fs.is_zero(matrix::det_gauss(fs, a))) break;
  }
  std::vector<Fs::Element> x_true(n);
  for (auto& e : x_true) e = fs.random(setup);
  const auto b = matrix::mat_vec(fs, a, x_true);
  const matrix::DenseBox<Fs> box(fs, a);

  core::SolverOptions opt1;
  core::SolverOptions opt4 = opt1;
  opt4.block_width = 4;

  util::Prng p1(31), p4(31);
  util::OpScope s1;
  const auto r1 = core::kp_solve(fs, box, b, p1, opt1);
  const auto c1 = s1.counts();
  util::OpScope s4;
  const auto r4 = core::kp_solve(fs, box, b, p4, opt4);
  expect_counts_eq(c1, s4.counts(), "small-field fallback ops");
  ASSERT_EQ(r1.ok, r4.ok);
  EXPECT_EQ(r4.x, r1.x);
  EXPECT_EQ(r4.attempts, r1.attempts);
}

// ---------------------------------------------------------------------------
// Fault injection: the new stages are deterministically reachable and the
// retries re-draw only the projection stream.

TEST(BlockWiedemannFaultInjectionTest, BlockProjectionFaultRetries) {
  KP_REQUIRE_FAULT_INJECTION();
  util::Prng setup(241);
  const std::size_t n = 24;
  const auto sp = nonsingular_sparse(n, 3, setup);
  const matrix::SparseBox<F> box(f, sp);
  std::vector<F::Element> x_true(n);
  for (auto& e : x_true) e = f.random(setup);
  const auto b = sp.apply(f, x_true);

  util::fault::ScopedFault fi(Stage::kBlockProjection, /*attempt=*/1);
  util::Prng p(11);
  auto res = core::block_wiedemann_solve_status(f, box, b, p, 1u << 20, 4);
  EXPECT_EQ(fi.fired(), 1u);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.x, x_true);
  ASSERT_EQ(res.diags.size(), 2u);
  EXPECT_EQ(res.diags[0].kind, FailureKind::kDegenerateProjection);
  EXPECT_EQ(res.diags[0].stage, Stage::kBlockProjection);
  EXPECT_TRUE(res.diags[0].injected);
  EXPECT_NE(res.diags[1].projection_seed, res.diags[0].projection_seed);
}

TEST(BlockWiedemannFaultInjectionTest, BlockGeneratorFaultRetries) {
  KP_REQUIRE_FAULT_INJECTION();
  util::Prng setup(242);
  const std::size_t n = 24;
  const auto sp = nonsingular_sparse(n, 3, setup);
  const matrix::SparseBox<F> box(f, sp);
  std::vector<F::Element> x_true(n);
  for (auto& e : x_true) e = f.random(setup);
  const auto b = sp.apply(f, x_true);

  util::fault::ScopedFault fi(Stage::kBlockGenerator, /*attempt=*/1);
  util::Prng p(12);
  auto res = core::block_wiedemann_solve_status(f, box, b, p, 1u << 20, 4);
  EXPECT_EQ(fi.fired(), 1u);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.x, x_true);
  ASSERT_EQ(res.diags.size(), 2u);
  EXPECT_EQ(res.diags[0].stage, Stage::kBlockGenerator);
  EXPECT_TRUE(res.diags[0].injected);
}

TEST(BlockWiedemannFaultInjectionTest, KpSolveBlockFaultRedrawsOnlyProjection) {
  KP_REQUIRE_FAULT_INJECTION();
  util::Prng setup(243);
  const std::size_t n = 24;
  const auto sp = nonsingular_sparse(n, 3, setup);
  const matrix::SparseBox<F> box(f, sp);
  std::vector<F::Element> x_true(n);
  for (auto& e : x_true) e = f.random(setup);
  const auto b = sp.apply(f, x_true);

  core::SolverOptions opt;
  opt.block_width = 4;
  util::fault::ScopedFault fi(Stage::kBlockProjection, /*attempt=*/1);
  util::Prng p(13);
  auto res = core::kp_solve(f, box, b, p, opt);
  EXPECT_EQ(fi.fired(), 1u);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.x, x_true);
  ASSERT_EQ(res.diags.size(), 2u);
  EXPECT_EQ(res.diags[0].kind, FailureKind::kDegenerateProjection);
  EXPECT_EQ(res.diags[0].stage, Stage::kBlockProjection);
  EXPECT_TRUE(res.diags[0].injected);
  // kDegenerateProjection targets the projection stream only: H, D kept.
  EXPECT_TRUE(res.diags[1].redrew_projection);
  EXPECT_FALSE(res.diags[1].redrew_precondition);
  EXPECT_EQ(res.diags[1].precondition_seed, res.diags[0].precondition_seed);
  EXPECT_NE(res.diags[1].projection_seed, res.diags[0].projection_seed);
}

}  // namespace
}  // namespace kp
