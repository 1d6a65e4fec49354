// SolverService: the long-running, many-clients front of the solver
// sessions -- ROADMAP open item 2, hardened.
//
// Lifecycle: a client registers an operator once (register_operator builds
// and prepares a Session, core/session.h, pinning the operator's own
// minimal generator), then streams right-hand sides with submit().  The service coalesces queued
// requests of the same session into one batch -- the annihilator finish then
// runs all of them through the operator's apply_many path together -- and
// completes each request's future with the solution plus structured
// RequestTelemetry built from the pipeline's Diag records.
//
// Hardening, edge by edge:
//
//   * Admission: a BOUNDED queue.  At capacity, submit() completes the
//     request immediately with FailureKind::kQueueOverflow -- backpressure,
//     never unbounded growth.  Requests whose deadline expired or whose
//     cancel flag tripped while queued are shed at dispatch time without
//     touching the pool.
//   * Deadlines/cancellation: each request carries a util/deadline.h token;
//     the batch runs under the earliest member deadline and every member's
//     own token is honored at stage boundaries (kDeadlineExceeded /
//     kCancelled at the stage that noticed).
//   * Quarantine: sessions count consecutive verify mismatches; past the
//     threshold the circuit breaker opens and requests fail fast with
//     kSessionQuarantined (the quarantine Diag attached) instead of burning
//     pool time.  reset_session() closes the breaker.
//   * Graceful degradation: a failed batched attempt retries each member
//     solo (kSingleRhs), and a failed solo attempt settles on the
//     deterministic dense baseline (kDenseBaseline) -- never a wrong
//     answer, and the level is recorded per request.  Control failures and
//     open breakers never degrade: the caller stopped wanting the answer.
//   * Shutdown: stops dispatchers, then completes everything still queued
//     with kShutdown.  Safe to call twice; the destructor calls it.
//
// Every one of these paths has a deterministic fault-injection site
// (Stage::kServiceAdmission / kServiceBatch / kServiceExecute plus the
// existing pipeline stages), so the full failure matrix is testable without
// races or timing assumptions.  With dispatchers = 0 the service runs no
// threads of its own and run_once() drains one batch inline -- the
// deterministic mode the fault-matrix tests drive.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/session.h"
#include "matrix/blackbox.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/status.h"

namespace kp::core {

/// Service-level tuning knobs.
struct ServiceConfig {
  /// Admission-queue capacity; submissions past it are shed immediately
  /// with kQueueOverflow (backpressure contract: the queue never grows
  /// beyond this).
  std::size_t queue_capacity = 64;
  /// Most requests coalesced into one session batch.
  std::size_t max_batch = 8;
  /// Dispatcher threads owned by the service.  0 = no threads: the caller
  /// drains the queue with run_once() -- the deterministic test mode.
  unsigned dispatchers = 1;
  /// Knobs for sessions the service creates.
  SessionOptions session;
};

/// Structured per-request telemetry, built from the pipeline's Diag records.
struct RequestTelemetry {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  util::FailureKind kind = util::FailureKind::kNone;  ///< final status kind
  util::Stage stage = util::Stage::kNone;             ///< final status stage
  bool injected = false;
  DegradationLevel level = DegradationLevel::kBatched;
  std::size_t batch_size = 0;  ///< coalesced batch this request rode in
  int attempts = 0;            ///< execution attempts (batched/solo/dense)
  std::int64_t queue_wait_ns = 0;
  std::int64_t exec_ns = 0;
  std::vector<util::Diag> diags;  ///< prepare/retry records of the batch

  std::string to_json() const {
    std::string j = "{";
    auto num = [&j](const char* key, std::int64_t v) {
      if (j.size() > 1) j += ",";
      j += "\"";
      j += key;
      j += "\":";
      j += std::to_string(v);
    };
    auto str = [&j](const char* key, const char* v) {
      if (j.size() > 1) j += ",";
      j += "\"";
      j += key;
      j += "\":\"";
      j += v;
      j += "\"";
    };
    num("request_id", static_cast<std::int64_t>(request_id));
    num("session_id", static_cast<std::int64_t>(session_id));
    str("kind", util::to_string(kind));
    str("stage", util::to_string(stage));
    str("injected", injected ? "true" : "false");
    str("level", to_string(level));
    num("batch_size", static_cast<std::int64_t>(batch_size));
    num("attempts", attempts);
    num("queue_wait_ns", queue_wait_ns);
    num("exec_ns", exec_ns);
    j += ",\"diags\":[";
    for (std::size_t i = 0; i < diags.size(); ++i) {
      if (i) j += ",";
      j += util::to_json(diags[i]);
    }
    j += "]}";
    return j;
  }
};

/// What a completed request's future resolves to.
template <kp::field::Field F>
struct RequestResult {
  util::Status status;
  std::vector<typename F::Element> x;  ///< verified solution when status.ok()
  RequestTelemetry telemetry;
};

/// Monotonic counters describing the service's life so far.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected_overflow = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t failed = 0;  ///< all non-ok completions except overflow
  std::uint64_t deadline_expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t quarantine_rejections = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced_requests = 0;  ///< requests served in size>1 batches
  std::uint64_t degraded_single = 0;
  std::uint64_t degraded_dense = 0;
};

/// The long-running solver front end.  Thread-safe: any thread may register
/// sessions and submit requests; cfg.dispatchers internal threads (or the
/// caller, via run_once) execute them.  Sessions themselves are
/// single-owner objects -- the service serializes execution per session
/// (a busy session's requests wait; other sessions' requests proceed).
template <kp::field::Field F>
class SolverService {
 public:
  using E = typename F::Element;
  using Result = RequestResult<F>;

  explicit SolverService(const F& f, ServiceConfig cfg = {})
      : f_(f), cfg_(cfg) {
    for (unsigned i = 0; i < cfg_.dispatchers; ++i) {
      dispatchers_.emplace_back([this] { dispatcher_loop(); });
    }
  }

  ~SolverService() { shutdown(); }

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Registers an operator and eagerly prepares its session: the minimal
  /// generator draw (2n products with A plus Berlekamp-Massey) happens
  /// HERE, once; every subsequent solve pays deg m products with A.
  /// Returns the session id, or the prepare failure (a singular operator
  /// fails with kZeroConstantTerm at kCharpoly).
  util::StatusOr<std::uint64_t> register_operator(matrix::AnyBox<F> a,
                                                  std::uint64_t seed) {
    auto sess = std::make_unique<Session<F>>(f_, std::move(a), seed,
                                             cfg_.session);
    const util::Status st = sess->prepare();
    if (!st.ok()) return st;
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      return util::Status::Fail(util::FailureKind::kShutdown,
                                util::Stage::kServiceAdmission,
                                "service shut down");
    }
    const std::uint64_t id = next_session_id_++;
    sessions_.emplace(id, std::move(sess));
    return id;
  }

  /// Direct access to a session (tests, quarantine inspection).  The
  /// pointer stays valid for the service's lifetime; do NOT call solve
  /// methods on it while dispatchers run -- the service owns execution.
  Session<F>* session(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.get();
  }

  /// Closes a session's circuit breaker (fresh generator on next use).
  bool reset_session(std::uint64_t id) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    it->second->reset_quarantine();
    return true;
  }

  /// Submits one right-hand side.  Never blocks on solver work: the future
  /// completes when a dispatcher (or run_once) served the request, or
  /// immediately on admission failure (overflow, unknown session,
  /// shutdown, pre-expired deadline).
  std::future<Result> submit(std::uint64_t session_id, std::vector<E> b,
                             util::Deadline deadline = {},
                             util::CancelFlag cancel = {}) {
    Request req;
    req.id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    req.session_id = session_id;
    req.b = std::move(b);
    req.control = util::ExecControl(deadline, std::move(cancel));
    req.enqueued = std::chrono::steady_clock::now();
    std::future<Result> fut = req.promise.get_future();
    submitted_.fetch_add(1, std::memory_order_relaxed);

    if (KP_FAULT_POINT(util::Stage::kServiceAdmission)) {
      complete(req,
               util::Status::Injected(util::FailureKind::kQueueOverflow,
                                      util::Stage::kServiceAdmission),
               {}, DegradationLevel::kBatched, 0, 0, {});
      return fut;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) {
        complete(req,
                 util::Status::Fail(util::FailureKind::kShutdown,
                                    util::Stage::kServiceAdmission,
                                    "service shut down"),
                 {}, DegradationLevel::kBatched, 0, 0, {});
        return fut;
      }
      if (sessions_.find(session_id) == sessions_.end()) {
        complete(req,
                 util::Status::Fail(util::FailureKind::kInvalidArgument,
                                    util::Stage::kServiceAdmission,
                                    "unknown session"),
                 {}, DegradationLevel::kBatched, 0, 0, {});
        return fut;
      }
      if (queue_.size() >= cfg_.queue_capacity) {
        complete(req,
                 util::Status::Fail(util::FailureKind::kQueueOverflow,
                                    util::Stage::kServiceAdmission,
                                    "admission queue full"),
                 {}, DegradationLevel::kBatched, 0, 0, {});
        return fut;
      }
      queue_.push_back(std::move(req));
      cv_.notify_one();
    }
    return fut;
  }

  /// Convenience blocking solve through the queue.
  Result solve(std::uint64_t session_id, std::vector<E> b,
               util::Deadline deadline = {}) {
    auto fut = submit(session_id, std::move(b), deadline);
    if (cfg_.dispatchers == 0) {
      while (fut.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        if (run_once() == 0) break;
      }
    }
    return fut.get();
  }

  /// Drains ONE coalesced batch inline on the calling thread; returns the
  /// number of requests it completed (0 = queue empty or all sessions
  /// busy).  The deterministic dispatch mode for dispatchers = 0.
  std::size_t run_once() {
    std::vector<Request> batch;
    std::uint64_t sid = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (!take_batch(lk, batch, sid)) return 0;
    }
    return execute_batch(sid, std::move(batch));
  }

  /// Stops dispatchers and fails everything still queued with kShutdown.
  /// Idempotent; also called by the destructor.
  void shutdown() {
    std::vector<std::thread> joining;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
      joining.swap(dispatchers_);
    }
    cv_.notify_all();
    for (auto& th : joining) th.join();
    std::deque<Request> drained;
    {
      std::lock_guard<std::mutex> lk(mu_);
      drained.swap(queue_);
    }
    for (auto& req : drained) {
      complete(req,
               util::Status::Fail(util::FailureKind::kShutdown,
                                  util::Stage::kServiceAdmission,
                                  "service shut down"),
               {}, DegradationLevel::kBatched, 0, 0, {});
    }
  }

  ServiceStats stats() const {
    ServiceStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.rejected_overflow = rejected_overflow_.load(std::memory_order_relaxed);
    s.completed_ok = completed_ok_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
    s.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.quarantine_rejections =
        quarantine_rejections_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.coalesced_requests =
        coalesced_requests_.load(std::memory_order_relaxed);
    s.degraded_single = degraded_single_.load(std::memory_order_relaxed);
    s.degraded_dense = degraded_dense_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Request {
    std::uint64_t id = 0;
    std::uint64_t session_id = 0;
    std::vector<E> b;
    util::ExecControl control;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<Result> promise;
  };

  /// Fulfills a request's promise and bumps the matching counters.
  void complete(Request& req, util::Status st, std::vector<E> x,
                DegradationLevel level, std::size_t batch_size, int attempts,
                std::vector<util::Diag> diags, std::int64_t exec_ns = 0) {
    Result r;
    r.telemetry.request_id = req.id;
    r.telemetry.session_id = req.session_id;
    r.telemetry.kind = st.kind();
    r.telemetry.stage = st.stage();
    r.telemetry.injected = st.injected();
    r.telemetry.level = level;
    r.telemetry.batch_size = batch_size;
    r.telemetry.attempts = attempts;
    r.telemetry.exec_ns = exec_ns;
    r.telemetry.diags = std::move(diags);
    const auto now = std::chrono::steady_clock::now();
    r.telemetry.queue_wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                             req.enqueued)
            .count() -
        exec_ns;
    if (r.telemetry.queue_wait_ns < 0) r.telemetry.queue_wait_ns = 0;
    switch (st.kind()) {
      case util::FailureKind::kNone:
        completed_ok_.fetch_add(1, std::memory_order_relaxed);
        break;
      case util::FailureKind::kQueueOverflow:
        rejected_overflow_.fetch_add(1, std::memory_order_relaxed);
        break;
      case util::FailureKind::kDeadlineExceeded:
        deadline_expired_.fetch_add(1, std::memory_order_relaxed);
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case util::FailureKind::kCancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case util::FailureKind::kSessionQuarantined:
        quarantine_rejections_.fetch_add(1, std::memory_order_relaxed);
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    switch (level) {
      case DegradationLevel::kSingleRhs:
        degraded_single_.fetch_add(1, std::memory_order_relaxed);
        break;
      case DegradationLevel::kDenseBaseline:
        degraded_dense_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;
    }
    r.status = std::move(st);
    r.x = std::move(x);
    req.promise.set_value(std::move(r));
  }

  /// Pops one session's coalesced batch off the queue.  Requires mu_.
  /// Skips (and immediately completes) requests already dead on arrival;
  /// skips sessions another dispatcher is executing.  Returns false when
  /// nothing is runnable.
  bool take_batch(std::unique_lock<std::mutex>&, std::vector<Request>& batch,
                  std::uint64_t& sid_out) {
    // Shed queued requests whose control already tripped -- cheapest
    // possible handling, no pool time.
    for (auto it = queue_.begin(); it != queue_.end();) {
      const util::Status ctl =
          it->control.check(util::Stage::kServiceAdmission);
      if (!ctl.ok()) {
        complete(*it, ctl, {}, DegradationLevel::kBatched, 0, 0, {});
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (busy_sessions_.count(it->session_id) != 0) continue;
      const std::uint64_t sid = it->session_id;
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
      while (it != queue_.end() && batch.size() < cfg_.max_batch) {
        if (it->session_id == sid) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      busy_sessions_.insert(sid);
      sid_out = sid;
      return true;
    }
    return false;
  }

  /// Runs one popped batch to completion (no lock held).  Returns the
  /// number of requests completed.
  std::size_t execute_batch(std::uint64_t sid, std::vector<Request> batch) {
    Session<F>* sess;
    {
      std::lock_guard<std::mutex> lk(mu_);
      sess = sessions_.at(sid).get();
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (batch.size() > 1) {
      coalesced_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
    }
    const auto exec_start = std::chrono::steady_clock::now();

    // Batch control: earliest member deadline; cancellation stays
    // per-member (checked inside the session at the verify boundary and
    // here between degradation levels).
    util::Deadline batch_deadline;
    for (const auto& r : batch) {
      batch_deadline =
          util::Deadline::earlier(batch_deadline, r.control.deadline);
    }
    util::ExecControl batch_control(batch_deadline);
    std::vector<const std::vector<E>*> rhs;
    std::vector<const util::ExecControl*> member_controls;
    rhs.reserve(batch.size());
    member_controls.reserve(batch.size());
    for (const auto& r : batch) {
      rhs.push_back(&r.b);
      member_controls.push_back(&r.control);
    }

    // Level 0: the coalesced batched route.  An injected kServiceBatch
    // fault skips it entirely, forcing the degradation path.
    SessionBatchResult<F> batched;
    bool batched_ran = false;
    if (!KP_FAULT_POINT(util::Stage::kServiceBatch)) {
      batched = sess->solve_many(rhs, &batch_control, &member_controls);
      batched_ran = true;
    } else {
      batched.items.resize(batch.size());
      for (auto& item : batched.items) {
        item.status = util::Status::Injected(util::FailureKind::kInjectedFault,
                                             util::Stage::kServiceBatch);
      }
    }

    const auto finish_one = [&](Request& req, SessionItem<F>&& item,
                                int attempts) {
      const auto exec_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - exec_start)
              .count();
      complete(req, std::move(item.status), std::move(item.x), item.level,
               batch.size(), attempts, batched.diags, exec_ns);
    };

    for (std::size_t k = 0; k < batch.size(); ++k) {
      Request& req = batch[k];
      SessionItem<F> item = std::move(batched.items[k]);
      int attempts = batched_ran ? 1 : 0;
      // Final outcomes that must not degrade: success, open circuit
      // breaker, malformed input -- and control failures, but only when the
      // MEMBER's own token tripped.  The batch ran under the earliest
      // member deadline, so a batch-level kDeadlineExceeded may reflect a
      // different member's deadline; anyone whose own token is still live
      // deserves the solo retry.
      bool final_outcome =
          item.status.ok() ||
          item.status.kind() == util::FailureKind::kSessionQuarantined ||
          item.status.kind() == util::FailureKind::kInvalidArgument;
      if (!final_outcome && util::is_control_failure(item.status.kind())) {
        final_outcome = !control_ok(req.control);
      }
      if (!final_outcome) {
        // Level 1: solo retry.  The injected kServiceExecute fault forces
        // the drop to the dense baseline.
        if (control_ok(req.control) &&
            !KP_FAULT_POINT(util::Stage::kServiceExecute)) {
          item = sess->solve_one(req.b, &req.control);
          ++attempts;
        } else if (!control_ok(req.control)) {
          item.status = req.control.check(util::Stage::kServiceExecute);
          item.x.clear();
        } else {
          item.status = util::Status::Injected(
              util::FailureKind::kInjectedFault, util::Stage::kServiceExecute);
          item.x.clear();
        }
      }
      if (!item.status.ok() && !util::is_control_failure(item.status.kind()) &&
          item.status.kind() != util::FailureKind::kSessionQuarantined &&
          item.status.kind() != util::FailureKind::kInvalidArgument) {
        // Level 2: deterministic dense settle -- exact answer or a proven
        // kSingularInput, no Las Vegas loop left to spin.
        if (control_ok(req.control)) {
          item = sess->solve_dense(req.b);
          ++attempts;
        }
      }
      finish_one(req, std::move(item), attempts);
    }

    {
      std::lock_guard<std::mutex> lk(mu_);
      busy_sessions_.erase(sid);
    }
    cv_.notify_all();
    return batch.size();
  }

  static bool control_ok(const util::ExecControl& ctl) {
    return ctl.check(util::Stage::kServiceExecute).ok();
  }

  void dispatcher_loop() {
    for (;;) {
      std::vector<Request> batch;
      std::uint64_t sid = 0;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
        if (stopping_) return;
        if (!take_batch(lk, batch, sid)) {
          // Everything runnable is held by busy sessions; wait for one to
          // retire (or for new work) instead of spinning.
          cv_.wait_for(lk, std::chrono::milliseconds(1));
          continue;
        }
      }
      execute_batch(sid, std::move(batch));
    }
  }

  F f_;
  ServiceConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  std::map<std::uint64_t, std::unique_ptr<Session<F>>> sessions_;
  std::unordered_set<std::uint64_t> busy_sessions_;
  std::vector<std::thread> dispatchers_;
  bool stopping_ = false;
  std::uint64_t next_session_id_ = 1;

  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_overflow_{0};
  std::atomic<std::uint64_t> completed_ok_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> quarantine_rejections_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> coalesced_requests_{0};
  std::atomic<std::uint64_t> degraded_single_{0};
  std::atomic<std::uint64_t> degraded_dense_{0};
};

}  // namespace kp::core
