// service_stream: a SolverService with sessions pinned on sparse n = 96
// operators, registered in set-up.  A fixed set of callers each submit one
// request and wait for its reply (closed loop); the shared queue coalesces
// requests of one session into batches, and three dispatchers execute
// batches of different sessions at once.  One thread generates the load for
// all callers and re-submits for each caller as its reply arrives.
#include <cstdint>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common.h"
#include "core/preconditioners.h"
#include "core/service.h"
#include "core/session.h"
#include "field/zp.h"
#include "loop.h"
#include "pram/parallel_for.h"
#include "matrix/blackbox.h"
#include "matrix/sparse.h"
#include "matrix/structured.h"
#include "poly/poly_ring.h"
#include "seq/newton_toeplitz.h"
#include "util/prng.h"

namespace kpbench {

namespace {

using F = kp::field::Zp<kp::field::kNttPrime>;
using E = F::Element;
using Service = kp::core::SolverService<F>;

constexpr std::size_t kN = 96;
constexpr std::size_t kNnzPerRow = 8;
/// Dispatchers plus the load thread fill the 4 cores the workload is sized
/// for.  Twice as many sessions as dispatchers keep a full batch queued for
/// each dispatcher while the load thread re-submits.
constexpr unsigned kDispatchers = 3;
constexpr std::size_t kSessions = 2 * kDispatchers;
constexpr std::size_t kCallersPerSession = 4;
constexpr std::size_t kCallers = kSessions * kCallersPerSession;
/// Right-hand sides per session; callers cycle through them.
constexpr std::size_t kRhs = 64;
/// Wall time of one CPU-time window of the timed phase (CpuMeter).
constexpr double kCpuWindowMs = 250.0;
/// Most requests the traced run replays through Session::solve_many.
constexpr std::size_t kMaxReplays = 256;

struct Rhs {
  std::vector<E> x;
  std::vector<E> b;
};

struct LoopStats {
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  double elapsed_ms = 0;
  std::vector<double> latency, queue_wait, exec;
  double batch_sum = 0, attempts = 0, degraded = 0, dense = 0;
  std::vector<std::pair<std::size_t, std::size_t>> served;  ///< (session, rhs)
};

class ServiceStream {
 public:
  explicit ServiceStream(std::uint64_t seed) : seed_(seed) {
    kp::core::ServiceConfig cfg;
    cfg.queue_capacity = 64;
    cfg.max_batch = 8;
    cfg.dispatchers = kDispatchers;
    svc_ = std::make_unique<Service>(f_, cfg);
    for (std::size_t s = 0; s < kSessions; ++s) {
      kp::util::Prng prng(derive_seed(seed, 100 + s));
      ops_.push_back(kp::matrix::Sparse<F>::random(f_, kN, kNnzPerRow, prng));
      std::vector<Rhs> rhs(kRhs);
      for (auto& r : rhs) {
        r.x.resize(kN);
        for (auto& e : r.x) e = f_.random(prng);
        r.b = ops_.back().apply(f_, r.x);
      }
      rhs_.push_back(std::move(rhs));
      const auto t0 = Clock::now();
      const auto id = svc_->register_operator(
          kp::matrix::AnyBox<F>(kp::matrix::SparseBox<F>(f_, ops_.back())),
          session_seed(s));
      prepare_ms_.push_back(ms_since(t0));
      ids_.push_back(id.ok() ? id.value() : 0);  // 0: unknown session, fails
    }
    (void)run_loop(0.0);  // warm-up: one request per caller
  }

  /// Closed loop for `seconds` (0: one request per caller).  Dispatchers
  /// take the oldest queued request's session next, so the load thread
  /// blocks on the oldest request in flight, then picks up every reply that
  /// has landed and re-submits for those callers.  Batches that finish
  /// before the oldest wait at most one batch for their re-submission;
  /// meanwhile the dispatchers serve the other sessions' queued batches.
  LoopStats run_loop(double seconds, CpuMeter* cpu = nullptr) {
    struct Pending {
      std::size_t caller, session, rhs;
      Clock::time_point t0;
      std::future<Service::Result> reply;
    };
    LoopStats st;
    std::vector<Pending> inflight;  // oldest first
    std::vector<std::size_t> issued(kCallers, 0);
    const auto submit = [&](std::size_t c) {
      const std::size_t s = c % kSessions;
      const std::size_t k = (c / kSessions * 7 + issued[c]++) % kRhs;
      inflight.push_back({c, s, k, Clock::now(), svc_->submit(ids_[s], rhs_[s][k].b)});
    };
    const auto start = Clock::now();
    auto end = start;
    for (std::size_t c = 0; c < kCallers; ++c) submit(c);
    std::vector<std::size_t> again;
    while (!inflight.empty()) {
      inflight.front().reply.wait();
      // A batch completes its members back to back; let the rest land.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      again.clear();
      for (auto it = inflight.begin(); it != inflight.end();) {
        if (it->reply.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++it;
          continue;
        }
        const auto r = it->reply.get();
        end = Clock::now();
        record(st, r, it->session, it->rhs, ms_between(it->t0, end));
        if (ms_between(start, end) < seconds * 1000.0) again.push_back(it->caller);
        it = inflight.erase(it);
      }
      for (const std::size_t c : again) submit(c);
      if (cpu) cpu->tick(st.latency.size());
    }
    st.elapsed_ms = ms_between(start, end);
    return st;
  }

  void measure(const Options& opt, Report& rep) {
    CpuMeter cpu(kCpuWindowMs);
    const LoopStats st = run_loop(opt.seconds, &cpu);
    rep.attempted += st.attempted;
    rep.failed += st.failed;
    rep.correct = rep.correct && st.correct;
    cpu.put(rep);
  }

  void traced(const Options& opt, Report& rep, Trace& tr) {
    Layers& layers = tr.layers;
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (!replay_prepare(s, tr.tracer)) rep.correct = false;
    }
    double prepare_sum = 0;
    for (const double ms : prepare_ms_) prepare_sum += ms;
    layers.set("core.session_prepare_ms", prepare_sum / kSessions);
    for (const char* stage : {"core.precondition", "core.krylov_sequence",
                              "seq.toeplitz_solve", "seq.toeplitz_det"}) {
      layers.stage(tr.tracer, stage, kSessions);
    }

    Work loop_work;
    LoopStats st;
    {
      WorkMeter meter;
      st = run_loop(opt.seconds);
      meter.add_to(loop_work);
    }
    rep.attempted += st.attempted;
    rep.failed += st.failed;
    rep.correct = rep.correct && st.correct;
    const double served = static_cast<double>(st.latency.size());
    put_latency(layers, rep, st.latency, st.elapsed_ms);
    put_work(layers, loop_work, served);
    if (served > 0) {
      layers.set("core.service_queue_wait_ms", median(st.queue_wait));
      layers.set("core.service_exec_ms", median(st.exec));
      layers.set("core.service_batch_size", st.batch_sum / served);
      layers.set("core.attempts_per_solve", st.attempts / served);
    }
    layers.set("core.service_degraded", st.degraded);
    layers.set("core.dense_fallbacks", st.dense);

    // The dispatchers have stopped: the sessions are the caller's to drive.
    svc_->shutdown();
    replay_sessions(st, rep, tr);
    if (auto* sess = svc_->session(ids_[0])) {
      layers.set("pram.parallel_speedup", parallel_speedup(5, [&] {
                   std::vector<const std::vector<E>*> batch;
                   for (std::size_t k = 0; k < 8; ++k) batch.push_back(&rhs_[0][k].b);
                   (void)sess->solve_many(batch);
                 }));
    }
  }

 private:
  std::uint64_t session_seed(std::size_t s) const { return derive_seed(seed_, 200 + s); }

  /// Checks one reply against the generated solution and records it.
  void record(LoopStats& st, const Service::Result& r, std::size_t session,
              std::size_t rhs, double latency_ms) const {
    ++st.attempted;
    if (!r.status.ok() || r.x != rhs_[session][rhs].x) {
      ++st.failed;
      if (r.status.ok()) st.correct = false;
      return;
    }
    st.latency.push_back(latency_ms);
    st.queue_wait.push_back(static_cast<double>(r.telemetry.queue_wait_ns) / 1e6);
    st.exec.push_back(static_cast<double>(r.telemetry.exec_ns) / 1e6);
    st.batch_sum += static_cast<double>(r.telemetry.batch_size);
    st.attempts += r.telemetry.attempts;
    if (r.telemetry.level != kp::core::DegradationLevel::kBatched) ++st.degraded;
    if (r.telemetry.level == kp::core::DegradationLevel::kDenseBaseline) ++st.dense;
    st.served.emplace_back(session, rhs);
  }

  /// Session::prepare's first attempt stage by stage (root span "prepare");
  /// true when its det(A) is the one the registered session pinned.
  bool replay_prepare(std::size_t s, Tracer& tr) {
    const kp::matrix::AnyBox<F> a(kp::matrix::SparseBox<F>(f_, ops_[s]));
    const kp::poly::PolyRing<F> ring(f_);
    const std::uint64_t size = kp::core::SolverOptions{}.sample_size;
    Tracer::Scope root(tr, "prepare", s);
    kp::util::Prng prng(session_seed(s));
    kp::util::Prng draw = prng.fork(0x73657373696f6e00ULL + 1);  // "session" + 1
    std::optional<kp::core::Preconditioner<F>> pre;
    std::optional<kp::matrix::PreconditionedBox<F, kp::matrix::AnyBox<F>>> box;
    std::vector<E> u(kN), v(kN);
    {
      Tracer::Scope span(tr, "core.precondition", s);
      pre = kp::core::Preconditioner<F>::draw(f_, kN, draw, size);
      box.emplace(f_, ring, a, pre->hankel, pre->diagonal);
      for (auto& e : u) e = f_.sample(draw, size);
      for (auto& e : v) e = f_.sample(draw, size);
    }
    std::vector<E> seq;
    {
      Tracer::Scope span(tr, "core.krylov_sequence", s);
      seq = kp::matrix::krylov_sequence_iterative(f_, *box, u, v, 2 * kN);
    }
    std::vector<E> y;
    {
      Tracer::Scope span(tr, "seq.toeplitz_solve", s);
      const auto t = kp::matrix::Toeplitz<F>::from_sequence(kN, seq);
      const std::vector<E> rhs(seq.begin() + static_cast<std::ptrdiff_t>(kN), seq.end());
      y = kp::seq::toeplitz_solve_charpoly(f_, t, rhs, ring);
    }
    E det_hd{};
    {
      Tracer::Scope span(tr, "seq.toeplitz_det", s);
      det_hd = pre->det(f_);
    }
    if (y.empty() || f_.is_zero(det_hd)) return false;
    // g(0) = -c_0 = -y[n-1]; det(A~) = (-1)^n g(0).
    const E g0 = f_.neg(y[kN - 1]);
    const E det_at = kN % 2 == 0 ? g0 : f_.neg(g0);
    const auto* sess = svc_->session(ids_[s]);
    return sess != nullptr && f_.eq(f_.div(det_at, det_hd), sess->det());
  }

  /// The answered requests again, one Session::solve_many per right-hand
  /// side, untraced and traced in alternating order.
  void replay_sessions(const LoopStats& st, Report& rep, Trace& tr) {
    Work work;
    double mono_ms = 0, traced_ms = 0;
    const std::size_t count = std::min(st.served.size(), kMaxReplays);
    for (std::size_t i = 0; i < count; ++i) {
      const auto [s, k] = st.served[i];
      auto* sess = svc_->session(ids_[s]);
      const Rhs& r = rhs_[s][k];
      const std::vector<const std::vector<E>*> one{&r.b};
      const auto untraced = [&] {
        WorkMeter meter;
        const auto t0 = Clock::now();
        const auto out = sess->solve_many(one);
        mono_ms += ms_since(t0);
        meter.add_to(work);
        if (!out.items[0].status.ok() || out.items[0].x != r.x) rep.correct = false;
      };
      const auto replayed = [&] {
        const auto t0 = Clock::now();
        Tracer::Scope root(tr.tracer, "request", i);
        std::vector<E> x;
        {
          Tracer::Scope span(tr.tracer, "core.session_solve_many", i);
          auto out = sess->solve_many(one);
          if (out.items[0].status.ok()) x = std::move(out.items[0].x);
        }
        bool verified = false;
        {
          Tracer::Scope span(tr.tracer, "matrix.verify", i);
          verified = !x.empty() && ops_[s].apply(f_, x) == r.b;
        }
        traced_ms += ms_since(t0);
        if (!verified || x != r.x) rep.correct = false;
      };
      if (i % 2 == 0) {
        untraced();
        replayed();
      } else {
        replayed();
        untraced();
      }
    }
    if (count == 0) return;
    const double n = static_cast<double>(count);
    tr.layers.set("field.ops_per_solve", work.ops / n);
    tr.layers.set("field.divs_per_solve", work.divs / n);
    tr.layers.stage(tr.tracer, "core.session_solve_many", n);
    tr.layers.stage(tr.tracer, "matrix.verify", n);
    tr.layers.set("trace.overhead_pct", (traced_ms - mono_ms) / mono_ms * 100.0);
  }

  F f_;
  std::uint64_t seed_;
  std::vector<kp::matrix::Sparse<F>> ops_;
  std::vector<std::vector<Rhs>> rhs_;
  std::vector<double> prepare_ms_;
  std::vector<std::uint64_t> ids_;
  std::unique_ptr<Service> svc_;  // last: destroyed, dispatcher joined, first
};

}  // namespace

void run_service(const Options& opt, Report& rep, Trace* trace) {
  // Batches run on the dispatcher thread alone: at n = 96 the pooled
  // regions are too small to pay, and their barriers made the latency track
  // host scheduling noise (NOTES.md).
  kp::pram::ExecutionContext::global().set_worker_limit(1);
  double setup_s = 0.0;
  auto w = timed_setup<ServiceStream>(setup_s, opt.seed);
  if (trace) {
    w->traced(opt, rep, *trace);
  } else {
    w->measure(opt, rep);
    rep.put("setup_s", setup_s, "s");
  }
}

}  // namespace kpbench
