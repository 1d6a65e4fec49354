// Tests for the PRAM execution layer: parallel_for determinism and
// coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "field/zp.h"
#include "matrix/dense.h"
#include "matrix/gauss.h"
#include "matrix/matmul.h"
#include "matrix/sparse.h"
#include "pram/parallel_for.h"
#include "util/op_count.h"
#include "util/prng.h"

namespace kp {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pram::parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, RespectsRangeBounds) {
  std::vector<std::atomic<int>> hits(20);
  pram::parallel_for(5, 15, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 15) ? 1 : 0) << i;
  }
  // Empty and reversed ranges are no-ops.
  pram::parallel_for(7, 7, [&](std::size_t) { FAIL(); });
  pram::parallel_for(9, 3, [&](std::size_t) { FAIL(); });
}

TEST(ParallelForTest, DeterministicWithSeedPerIndex) {
  // The contract: per-index seeding makes results independent of the
  // thread count.
  using F = field::Zp<1000003>;
  F f;
  auto run = [&](unsigned workers) {
    return pram::parallel_map<F::Element>(
        64,
        [&](std::size_t i) {
          util::Prng prng(1000 + i);
          auto a = matrix::random_matrix(f, 4, 4, prng);
          return matrix::det_gauss(f, a);
        },
        workers);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ExecutionContextTest, ReusesPooledThreadsAcrossCalls) {
  auto& ctx = pram::ExecutionContext::global();
  std::atomic<int> sink{0};
  // Warm the pool, then hammer it: the spawn counter must not move -- the
  // whole point of the persistent context is no thread spawn per call.
  pram::parallel_for(0, 64, [&](std::size_t) { sink.fetch_add(1); });
  const auto started = ctx.threads_started();
  EXPECT_LE(started, pram::worker_count());
  for (int round = 0; round < 50; ++round) {
    pram::parallel_for(0, 256, [&](std::size_t) { sink.fetch_add(1); });
  }
  EXPECT_EQ(ctx.threads_started(), started);
  EXPECT_EQ(sink.load(), 64 + 50 * 256);
}

TEST(ExecutionContextTest, KernelsBitIdenticalForOneAndManyWorkers) {
  // The acceptance contract of the pooled kernels: results do not depend on
  // the degree of parallelism.  Run the parallel-kernel paths (mat_mul,
  // mat_vec, sparse apply are all above the grain at n = 96) with the
  // worker limit pinned to 1 and unlimited, and compare bit-for-bit.
  using F = field::Zp<1000003>;
  F f;
  auto& ctx = pram::ExecutionContext::global();
  auto run = [&] {
    util::Prng prng(4242);
    auto a = matrix::random_matrix(f, 96, 96, prng);
    auto b = matrix::random_matrix(f, 96, 96, prng);
    auto prod = matrix::mat_mul(f, a, b);
    std::vector<F::Element> x(96);
    for (auto& e : x) e = f.random(prng);
    auto y = matrix::mat_vec(f, prod, x);
    auto sp = matrix::Sparse<F>::random(f, 512, 64, prng);
    std::vector<F::Element> xs(512);
    for (auto& e : xs) e = f.random(prng);
    auto z = sp.apply(f, xs);
    y.insert(y.end(), z.begin(), z.end());
    return y;
  };
  ctx.set_worker_limit(1);
  const auto serial = run();
  ctx.set_worker_limit(0);
  const auto parallel = run();
  EXPECT_EQ(serial, parallel);
}

TEST(ExecutionContextTest, OpCountsFoldBackIntoSubmitter) {
  // An OpScope around a parallel kernel must measure the same work as the
  // serial run: workers report their thread-local counts back to the
  // submitting thread.
  using F = field::Zp<1000003>;
  F f;
  util::Prng prng(7);
  auto a = matrix::random_matrix(f, 128, 128, prng);
  std::vector<F::Element> x(128);
  for (auto& e : x) e = f.random(prng);

  auto& ctx = pram::ExecutionContext::global();
  ctx.set_worker_limit(1);
  util::OpScope serial_scope;
  auto y1 = matrix::mat_vec(f, a, x);
  const auto serial_ops = serial_scope.counts().total();
  ctx.set_worker_limit(0);
  util::OpScope parallel_scope;
  auto y2 = matrix::mat_vec(f, a, x);
  const auto parallel_ops = parallel_scope.counts().total();
  EXPECT_EQ(y1, y2);
  EXPECT_EQ(serial_ops, parallel_ops);
  EXPECT_GT(serial_ops, 0u);
}

TEST(ExecutionContextTest, NestedRegionsRunSeriallyWithoutDeadlock) {
  std::atomic<int> sink{0};
  pram::parallel_for(0, 8, [&](std::size_t) {
    // A nested region from inside a running region must complete serially
    // on the issuing thread rather than waiting on the (busy) pool.
    pram::parallel_for(0, 100, [&](std::size_t) { sink.fetch_add(1); });
  });
  EXPECT_EQ(sink.load(), 800);
}

TEST(ExecutionContextTest, WorkerExceptionPropagatesToSubmitter) {
  // The first exception thrown by any participant must surface on the
  // submitting thread once the batch retires -- not crash a worker, not
  // deadlock the waiters.
  EXPECT_THROW(
      pram::parallel_for(0, 256,
                         [&](std::size_t i) {
                           if (i == 97) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(ExecutionContextTest, PoolStaysUsableAfterException) {
  auto& ctx = pram::ExecutionContext::global();
  std::atomic<int> sink{0};
  pram::parallel_for(0, 64, [&](std::size_t) { sink.fetch_add(1); });
  const auto started = ctx.threads_started();
  EXPECT_THROW(pram::parallel_for(0, 256,
                                  [&](std::size_t i) {
                                    if (i % 3 == 0) {
                                      throw std::runtime_error("boom");
                                    }
                                    sink.fetch_add(1);
                                  }),
               std::runtime_error);
  // The pool is not poisoned: the next regions run normally on the SAME
  // threads, cover every index, and still fold op counts back.
  sink.store(0);
  pram::parallel_for(0, 512, [&](std::size_t) { sink.fetch_add(1); });
  EXPECT_EQ(sink.load(), 512);
  EXPECT_EQ(ctx.threads_started(), started);

  using F = field::Zp<1000003>;
  F f;
  util::Prng prng(11);
  auto a = matrix::random_matrix(f, 96, 96, prng);
  std::vector<F::Element> x(96);
  for (auto& e : x) e = f.random(prng);
  util::OpScope scope;
  auto y = matrix::mat_vec(f, a, x);
  EXPECT_GT(scope.counts().total(), 0u);
  EXPECT_EQ(y.size(), 96u);
}

TEST(ExecutionContextTest, ExceptionPropagatesAtEveryWorkerCount) {
  // The Las Vegas retry loops sit above throwing kernels; their behavior
  // must be identical under 1, 2, and 8 workers.
  auto& ctx = pram::ExecutionContext::global();
  for (unsigned workers : {1u, 2u, 8u}) {
    ctx.set_worker_limit(workers);
    std::atomic<int> before{0};
    EXPECT_THROW(pram::parallel_for(0, 64,
                                    [&](std::size_t i) {
                                      if (i == 40) throw std::logic_error("x");
                                      before.fetch_add(1);
                                    }),
                 std::logic_error)
        << workers << " workers";
    // And the pool still serves the next region at this limit.
    std::atomic<int> after{0};
    pram::parallel_for(0, 64, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 64) << workers << " workers";
  }
  ctx.set_worker_limit(0);
}

TEST(ExecutionContextTest, NestedRegionExceptionPropagates) {
  // A nested region runs serially on the issuing participant; its exception
  // must travel through the outer batch to the outer submitter.
  EXPECT_THROW(pram::parallel_for(0, 8,
                                  [&](std::size_t i) {
                                    pram::parallel_for(
                                        0, 16, [&](std::size_t j) {
                                          if (i == 3 && j == 7) {
                                            throw std::runtime_error("inner");
                                          }
                                        });
                                  }),
               std::runtime_error);
  std::atomic<int> sink{0};
  pram::parallel_for(0, 32, [&](std::size_t) { sink.fetch_add(1); });
  EXPECT_EQ(sink.load(), 32);
}

}  // namespace
}  // namespace kp
