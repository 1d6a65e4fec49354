// Shared-memory parallel execution of independent iterations.
//
// The paper's model is an algebraic PRAM; this library reproduces its
// *depth* claims exactly through the circuit framework (circuit/), and uses
// the pooled ExecutionContext below to actually exploit whatever hardware
// parallelism exists: matrix kernels (mat_mul, mat_vec, sparse apply, the
// Krylov block merge), Monte Carlo probability sweeps, multiple bench
// configurations.  On a single-core host it degrades to the serial loop.
//
// Determinism contract: iterations must be independent, write disjoint
// outputs, and derive any randomness from their own index (seed-per-index),
// so results are identical for every worker count.
//
// Pool lifecycle: worker threads are started lazily on the first parallel
// region, reused by every subsequent region (no thread spawn per call), and
// joined when the process exits.  Field-operation counts performed by the
// workers are folded back into the submitting thread's thread-local
// counters, so an OpScope around a parallel kernel still measures the exact
// total work in the paper's own units.
//
// Exception safety: if fn(i) throws on any participant, the first exception
// is captured, the batch's remaining blocks are drained without running
// their iterations, and the exception rethrows on the *submitting* thread
// once every participant has left the batch.  The pool itself is never
// poisoned -- workers survive and the next region runs normally -- so a
// Las Vegas retry loop above a throwing kernel behaves identically at any
// worker count.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/op_count.h"
#include "util/status.h"

namespace kp::pram {

/// Number of workers a parallel region will use by default (hardware
/// concurrency, >= 1).
inline unsigned worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// A persistent pool of worker threads executing parallel-for batches.
///
/// One batch is in flight at a time (regions are short; serializing them
/// keeps the queue trivial and starvation-free).  The submitting thread
/// participates in its own batch, and a nested parallel_for issued from
/// inside a region runs serially on the issuing thread -- which both
/// preserves the determinism contract and makes the pool deadlock-free by
/// construction (no pool thread ever blocks on another batch).
class ExecutionContext {
 public:
  static ExecutionContext& global() {
    static ExecutionContext ctx;
    return ctx;
  }

  ExecutionContext() = default;

  ~ExecutionContext() { shutdown(); }

  /// Stops and joins the pool.  Idempotent and safe to race with in-flight
  /// regions: a batch already running retires normally (its submitter
  /// participates, so losing the workers cannot strand it), workers exit
  /// once idle, and join() waits for them.  After shutdown, parallel_for
  /// degrades to the serial loop (defined behavior, no new threads).
  void shutdown() {
    std::vector<std::thread> joining;
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_.store(true, std::memory_order_relaxed);
      joining.swap(threads_);
    }
    cv_.notify_all();
    submit_cv_.notify_all();
    for (auto& th : joining) th.join();
  }

  bool is_shutdown() const { return stop_.load(std::memory_order_relaxed); }

  /// Total threads ever spawned by this context; stays at most one less
  /// than the largest degree ever requested (worker_count() - 1 unless a
  /// region or worker pin asked for more), which is how the tests pin down
  /// "pooled, not per-call" behavior.
  std::uint64_t threads_started() const {
    return threads_started_.load(std::memory_order_relaxed);
  }

  /// Pins the parallelism degree of subsequent regions (0 = hardware).
  /// A pin below worker_count() caps the degree; a pin above it is honored
  /// too (the pool grows on demand, up to kMaxPoolThreads), so worker-count
  /// sweeps in the benches measure real thread interleavings even on hosts
  /// with few cores.  Used by tests to compare 1-worker and N-worker runs
  /// bit-for-bit.
  void set_worker_limit(unsigned limit) { worker_limit_.store(limit); }
  unsigned worker_limit() const { return worker_limit_.load(); }

  /// Hard ceiling on pool threads regardless of requested degree.
  static constexpr unsigned kMaxPoolThreads = 32;

  /// Runs fn(i) for i in [begin, end), blocking until every iteration
  /// finished.  If fn throws, the first exception (in claim order) rethrows
  /// here after the remaining blocks are drained; the pool stays usable.
  /// max_workers limits this region's parallelism (0 = default).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    unsigned max_workers = 0) {
    const unsigned workers = region_degree(begin, end, max_workers);
    // Serial fast path: empty/one-worker regions, a nested region (a pool
    // thread or a region-running submitter must never wait on the pool
    // again), or a shut-down pool (the serial loop is defined behavior; no
    // thread is spawned after join).
    if (workers <= 1 || in_region() || is_shutdown()) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
      return;
    }
    const kp::util::Status st = submit_region(begin, end, fn, workers);
    if (!st.ok()) {
      // Lost the shutdown race while waiting for the batch slot: fall back
      // to the same serial loop the pre-submit check would have taken.
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  }

 private:
  /// Effective parallelism degree of a region after the worker pin, the
  /// iteration count, and the pool ceiling are applied.
  unsigned region_degree(std::size_t begin, std::size_t end,
                         unsigned max_workers) const {
    const std::size_t count = end > begin ? end - begin : 0;
    if (count == 0) return 0;
    unsigned workers = max_workers == 0 ? worker_count() : max_workers;
    if (const unsigned limit = worker_limit(); limit != 0) {
      // A pin overrides the default degree in both directions; an explicit
      // per-region max_workers is still only ever capped by it.
      workers = max_workers == 0 ? limit : std::min(workers, limit);
    }
    if (workers > count) workers = static_cast<unsigned>(count);
    if (workers > kMaxPoolThreads + 1) workers = kMaxPoolThreads + 1;
    return workers;
  }

  /// The pooled submission path behind parallel_for.  Returns kShutdown
  /// (without running anything) if the pool stopped before the batch was
  /// installed.
  kp::util::Status submit_region(std::size_t begin, std::size_t end,
                                 const std::function<void(std::size_t)>& fn,
                                 unsigned workers) {
    const std::size_t count = end - begin;
    // Static block partition: iterations are assumed comparable in cost
    // (rows, Monte Carlo trials); blocks avoid false sharing of counters.
    Batch batch;
    batch.fn = &fn;
    batch.begin = begin;
    batch.end = end;
    batch.chunk = (count + workers - 1) / workers;
    batch.blocks = (count + batch.chunk - 1) / batch.chunk;

    std::unique_lock<std::mutex> lk(m_);
    if (stop_.load(std::memory_order_relaxed)) {
      return kp::util::Status::Fail(kp::util::FailureKind::kShutdown,
                                    kp::util::Stage::kServiceExecute,
                                    "execution context shut down");
    }
    ensure_started(lk, workers);
    // Serialize batches from concurrent submitters.
    submit_cv_.wait(lk, [&] {
      return batch_ == nullptr || stop_.load(std::memory_order_relaxed);
    });
    if (stop_.load(std::memory_order_relaxed)) {
      return kp::util::Status::Fail(kp::util::FailureKind::kShutdown,
                                    kp::util::Stage::kServiceExecute,
                                    "execution context shut down");
    }
    batch_ = &batch;
    ++epoch_;
    cv_.notify_all();
    in_region() = true;     // nested regions from fn must not resubmit
    run_blocks(batch, lk);  // the submitter works on its own batch too
    in_region() = false;
    done_cv_.wait(lk, [&] {
      return batch.done == batch.blocks && batch.inside == 0;
    });
    batch_ = nullptr;
    submit_cv_.notify_one();
    lk.unlock();
    // Fold the workers' field-op counts into this thread's counters so the
    // measured work is independent of the degree of parallelism.
    kp::util::tl_op_counts += batch.worker_ops;
    if (batch.error) std::rethrow_exception(batch.error);
    return kp::util::Status::Ok();
  }
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t begin = 0, end = 0, chunk = 1;
    std::size_t blocks = 0;
    std::size_t next = 0;    ///< next unclaimed block (guarded by m_)
    std::size_t done = 0;    ///< completed blocks (guarded by m_)
    int inside = 0;          ///< threads currently touching the batch
    kp::util::OpCounts worker_ops;  ///< ops performed by pool threads
    std::exception_ptr error;       ///< first exception (guarded by m_)
  };

  static bool& in_region() {
    thread_local bool flag = false;
    return flag;
  }

  /// Grows the pool (lazily, on demand) until it can serve a region of
  /// `workers` participants: the submitter plus workers-1 pool threads.
  /// Never shrinks; repeat requests at or below the high-water mark spawn
  /// nothing, preserving the pooled-not-per-call property.
  void ensure_started(std::unique_lock<std::mutex>&, unsigned workers) {
    if (stop_.load(std::memory_order_relaxed)) return;  // never spawn
    const unsigned want =
        std::min(workers > 0 ? workers - 1 : 0, kMaxPoolThreads);
    while (threads_.size() < want) {
      threads_.emplace_back([this] { worker_loop(); });
      threads_started_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Claims and runs blocks of the batch until none remain.  Called with
  /// the lock held; runs iterations unlocked.  Once any participant's
  /// iteration throws, the remaining blocks are claimed but their iterations
  /// are skipped (drained), so done reaches blocks and every waiter wakes;
  /// the submitter rethrows the stored exception after the batch retires.
  void run_blocks(Batch& b, std::unique_lock<std::mutex>& lk) {
    ++b.inside;
    while (b.next < b.blocks) {
      const std::size_t k = b.next++;
      const std::size_t lo = b.begin + k * b.chunk;
      const std::size_t hi = std::min(b.end, lo + b.chunk);
      const bool drain = b.error != nullptr;
      lk.unlock();
      if (!drain) {
        try {
          for (std::size_t i = lo; i < hi; ++i) (*b.fn)(i);
        } catch (...) {
          lk.lock();
          if (!b.error) b.error = std::current_exception();
          ++b.done;
          continue;
        }
      }
      lk.lock();
      ++b.done;
    }
    --b.inside;
    if (b.done == b.blocks && b.inside == 0) done_cv_.notify_all();
  }

  void worker_loop() {
    in_region() = true;  // nested regions from this thread run serially
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      cv_.wait(lk, [&] {
        return stop_.load(std::memory_order_relaxed) || epoch_ != seen;
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      seen = epoch_;
      if (Batch* b = batch_) {
        const kp::util::OpCounts before = kp::util::tl_op_counts;
        run_blocks(*b, lk);
        b->worker_ops += kp::util::tl_op_counts - before;
        kp::util::tl_op_counts = before;  // submitter re-credits the total
      }
    }
  }

  std::mutex m_;
  std::condition_variable cv_;         ///< workers: new batch / stop
  std::condition_variable done_cv_;    ///< submitter: batch finished
  std::condition_variable submit_cv_;  ///< submitters: batch slot free
  std::vector<std::thread> threads_;
  Batch* batch_ = nullptr;
  std::uint64_t epoch_ = 0;
  /// Set under m_ (condition-variable correctness) but readable lock-free
  /// by is_shutdown() and the serial-fallback checks.
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> worker_limit_{0};
  std::atomic<std::uint64_t> threads_started_{0};
};

/// Runs fn(i) for i in [begin, end) on the global pooled context.
inline void parallel_for(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& fn,
                         unsigned max_workers = 0) {
  ExecutionContext::global().parallel_for(begin, end, fn, max_workers);
}

/// Map over [0, n) into a result vector (each slot written by exactly one
/// iteration).
template <class T, class Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn, unsigned max_workers = 0) {
  std::vector<T> out(n);
  parallel_for(
      0, n, [&](std::size_t i) { out[i] = fn(i); }, max_workers);
  return out;
}

}  // namespace kp::pram
