// Service-layer benchmark: what the hardened SolverService delivers under
// friendly load, overload, and injected faults.
//
//   S1  Unloaded latency: bursts of max_batch requests against one
//       prepared session; per-request p50 (queue wait + execution).
//   S2  Session reuse: solves/sec streaming RHS through one pinned session
//       (the operator's own minimal generator stays pinned) vs paying
//       register_operator + prepare for every request, reported only.  The
//       gate is in counted field operations: a request through the
//       registered session costs exactly one finish (field_ops_per_rhs, a
//       one-RHS solve on a prepared session) and never re-prepares, and a
//       fresh registration plus its request costs at least prepare_ops +
//       field_ops_per_rhs.
//   S3  Overload: 2x queue-capacity offered load.  The bounded queue must
//       shed the excess with kQueueOverflow, every admitted request must
//       return the exact known solution, and the admitted p50 must stay
//       within 2x of the unloaded p50 (backpressure keeps latency flat
//       instead of letting the queue grow).
//   S4  Fault legs (KP_FAULT_INJECTION builds): persistent kServiceBatch
//       faults must degrade every request to the single-RHS route,
//       persistent kServiceExecute faults to the dense baseline -- both
//       still returning the exact solution -- and kServiceAdmission faults
//       must shed at the door.
//   S5  Aggregate solves/sec vs concurrent sessions (reported, not gated).
//
// Exits non-zero on any wrong answer, missed shed, broken degradation
// level, or S2 op-count violation, so CI runs it as a correctness gate
// (--quick).  Latency ratios are
// gated only in the full run; timing is always reported.  Emits
// BENCH_service.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/service.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/sparse.h"
#include "util/bench_json.h"
#include "util/fault.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/status.h"
#include "util/tables.h"

namespace {

using F = kp::field::Zp<kp::field::kNttPrime>;
using kp::core::DegradationLevel;
using kp::core::ServiceConfig;
using kp::core::SolverService;
using kp::util::Stage;

F f;
int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("MISMATCH: %s\n", what);
    ++failures;
  }
}

/// A workload: one sparse operator plus `count` (b, x_true) pairs with
/// b = A x_true, so every service answer can be checked exactly.
struct Workload {
  kp::matrix::Sparse<F> a;
  std::vector<std::vector<F::Element>> b;
  std::vector<std::vector<F::Element>> x;

  Workload(std::size_t n, std::size_t count, std::uint64_t seed)
      : a(make_operator(n, seed)) {
    kp::matrix::SparseBox<F> box(f, a);
    kp::util::Prng prng(seed ^ 0x5248532d67656eULL);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<F::Element> xi(n);
      for (auto& e : xi) e = f.random(prng);
      b.push_back(box.apply(xi));
      x.push_back(std::move(xi));
    }
  }

  static kp::matrix::Sparse<F> make_operator(std::size_t n,
                                             std::uint64_t seed) {
    // Upper triangular with a non-zero diagonal: non-singular by
    // construction, so no leg ever spins on unlucky operators.
    kp::util::Prng prng(seed);
    std::vector<kp::matrix::Sparse<F>::Entry> entries;
    for (std::size_t i = 0; i < n; ++i) {
      auto d = f.random(prng);
      while (f.is_zero(d)) d = f.random(prng);
      entries.push_back({i, i, d});
      if (i + 1 < n) entries.push_back({i, i + 1, f.random(prng)});
      if (i + 5 < n) entries.push_back({i, i + 5, f.random(prng)});
    }
    return kp::matrix::Sparse<F>(f, n, n, std::move(entries));
  }

  kp::matrix::AnyBox<F> box() const {
    return kp::matrix::AnyBox<F>(kp::matrix::SparseBox<F>(f, a));
  }
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

double latency_ms(const kp::core::RequestTelemetry& t) {
  return (t.queue_wait_ns + t.exec_ns) * 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t n = quick ? 48 : 96;
  const int rounds = quick ? 6 : 24;
  const int reuse_iters = quick ? 8 : 32;

  kp::util::BenchReport report("service");
  std::printf("bench_service: n=%zu %s\n", n, quick ? "(quick)" : "");

  ServiceConfig cfg;
  cfg.queue_capacity = 8;
  cfg.max_batch = 8;
  cfg.dispatchers = 2;

  Workload wl(n, cfg.queue_capacity * 2, 42);

  // ---------------------------------------------------------- S1 + S3 ----
  // Same service instance for the unloaded and overloaded sweeps so the
  // comparison isolates offered load.
  double p50_unloaded = 0.0;
  double p50_overload = 0.0;
  {
    SolverService<F> svc(f, cfg);
    auto sid = svc.register_operator(wl.box(), 7);
    check(sid.ok(), "register_operator failed");
    if (!sid.ok()) return 1;

    const auto run_round =
        [&](std::size_t burst, std::vector<double>& lat, std::uint64_t& shed,
            std::uint64_t& wrong) {
          std::vector<std::future<SolverService<F>::Result>> futs;
          futs.reserve(burst);
          for (std::size_t i = 0; i < burst; ++i) {
            futs.push_back(svc.submit(sid.value(), wl.b[i % wl.b.size()]));
          }
          for (std::size_t i = 0; i < burst; ++i) {
            auto r = futs[i].get();
            if (r.status.kind() == kp::util::FailureKind::kQueueOverflow) {
              ++shed;
              continue;
            }
            if (!r.status.ok() || r.x != wl.x[i % wl.x.size()]) {
              ++wrong;
              continue;
            }
            lat.push_back(latency_ms(r.telemetry));
          }
        };

    // Unloaded: bursts that fit the queue exactly, quiescing in between.
    std::vector<double> lat;
    std::uint64_t shed = 0, wrong = 0;
    for (int r = 0; r < rounds; ++r) {
      run_round(cfg.queue_capacity, lat, shed, wrong);
    }
    check(wrong == 0, "unloaded leg returned a wrong/failed answer");
    check(shed == 0, "unloaded leg shed requests");
    p50_unloaded = percentile(lat, 0.5);
    report.begin_row("S1_unloaded");
    report.put("n", static_cast<std::uint64_t>(n));
    report.put("requests", static_cast<std::uint64_t>(lat.size()));
    report.put("p50_ms", p50_unloaded);
    report.put("p90_ms", percentile(lat, 0.9));

    // Overload: 2x queue capacity offered per burst.  The excess must be
    // shed at admission; the admitted must stay exact and fast.
    std::vector<double> olat;
    std::uint64_t oshed = 0, owrong = 0;
    for (int r = 0; r < rounds; ++r) {
      run_round(cfg.queue_capacity * 2, olat, oshed, owrong);
    }
    check(owrong == 0, "overload leg returned a wrong/failed answer");
    check(oshed > 0, "overload leg never shed (queue bound not enforced?)");
    p50_overload = percentile(olat, 0.5);
    const double ratio =
        p50_unloaded > 0 ? p50_overload / p50_unloaded : 0.0;
    if (!quick) {
      check(ratio <= 2.0, "overloaded p50 exceeded 2x the unloaded p50");
    }
    const auto s = svc.stats();
    check(s.rejected_overflow == oshed, "overflow counter disagrees");
    report.begin_row("S3_overload");
    report.put("offered_per_round",
               static_cast<std::uint64_t>(cfg.queue_capacity * 2));
    report.put("admitted", static_cast<std::uint64_t>(olat.size()));
    report.put("shed", oshed);
    report.put("p50_ms", p50_overload);
    report.put("p50_vs_unloaded", ratio);
    std::printf(
        "  S1/S3: unloaded p50 %.3f ms; overloaded p50 %.3f ms (%.2fx), "
        "%llu shed\n",
        p50_unloaded, p50_overload, ratio,
        static_cast<unsigned long long>(oshed));
  }

  // ----------------------------------------------------------------- S2 --
  // Session reuse vs re-registering the operator per request.  Every count
  // runs on this thread: register_operator prepares on its caller, and a
  // service's session is driven directly once its dispatchers stop.
  {
    const std::vector<const std::vector<F::Element>*> one_rhs{&wl.b[0]};
    const auto one_request_ok = [&](const kp::core::SessionBatchResult<F>& r) {
      return r.items.size() == 1 && r.items[0].status.ok() &&
             r.items[0].x == wl.x[0];
    };
    std::uint64_t prepare_ops = 0;
    std::uint64_t ops_per_rhs = 0;
    {
      kp::core::Session<F> sess(f, wl.box(), 7, cfg.session);
      kp::util::OpScope prep_scope;
      check(sess.prepare().ok(), "S2 counted prepare failed");
      prepare_ops = prep_scope.counts().total();
      kp::util::OpScope finish_scope;
      check(one_request_ok(sess.solve_many(one_rhs)),
            "S2 counted finish answer wrong");
      ops_per_rhs = finish_scope.counts().total();
    }
    double reuse_ms = 0.0;
    {
      SolverService<F> svc(f, cfg);
      auto sid = svc.register_operator(wl.box(), 7);
      check(sid.ok(), "S2 register failed");
      kp::util::WallTimer t;
      for (int i = 0; i < reuse_iters; i += static_cast<int>(cfg.max_batch)) {
        std::vector<std::future<SolverService<F>::Result>> futs;
        for (std::size_t k = 0; k < cfg.max_batch; ++k) {
          futs.push_back(
              svc.submit(sid.value(), wl.b[(i + k) % wl.b.size()]));
        }
        for (std::size_t k = 0; k < futs.size(); ++k) {
          auto r = futs[k].get();
          check(r.status.ok() && r.x == wl.x[(i + k) % wl.x.size()],
                "S2 reuse answer wrong");
        }
      }
      reuse_ms = t.elapsed_ms();
      svc.shutdown();
      auto* sess = svc.session(sid.value());
      kp::util::OpScope scope;
      check(one_request_ok(sess->solve_many(one_rhs)),
            "S2 reuse counted answer wrong");
      check(scope.counts().total() == ops_per_rhs,
            "S2 request through the registered session is not one finish");
      check(sess->prepares() == 1, "S2 registered session re-prepared");
    }
    double fresh_ms = 0.0;
    {
      SolverService<F> svc(f, cfg);
      kp::util::WallTimer t;
      for (int i = 0; i < reuse_iters; ++i) {
        auto sid = svc.register_operator(wl.box(),
                                         7 + static_cast<std::uint64_t>(i));
        check(sid.ok(), "S2 fresh register failed");
        auto r = svc.submit(sid.value(), wl.b[i % wl.b.size()]).get();
        check(r.status.ok() && r.x == wl.x[i % wl.x.size()],
              "S2 fresh answer wrong");
      }
      fresh_ms = t.elapsed_ms();
    }
    {
      SolverService<F> svc(f, cfg);
      kp::util::OpScope scope;
      auto sid = svc.register_operator(wl.box(), 7);
      check(sid.ok(), "S2 counted fresh register failed");
      svc.shutdown();
      check(one_request_ok(svc.session(sid.value())->solve_many(one_rhs)),
            "S2 counted fresh answer wrong");
      check(scope.counts().total() >= prepare_ops + ops_per_rhs,
            "S2 fresh registration cost under prepare + finish");
    }
    const double reuse_sps = reuse_iters / (reuse_ms * 1e-3);
    const double fresh_sps = reuse_iters / (fresh_ms * 1e-3);
    const double speedup = fresh_ms > 0 ? reuse_sps / fresh_sps : 0.0;
    report.begin_row("S2_session_reuse");
    report.put("solves", reuse_iters);
    report.put("reuse_solves_per_sec", reuse_sps);
    report.put("fresh_solves_per_sec", fresh_sps);
    report.put("speedup", speedup);
    report.put("prepare_ops", prepare_ops);
    report.put("field_ops_per_rhs", ops_per_rhs);
    std::printf(
        "  S2: reuse %.1f solves/s vs fresh %.1f solves/s (%.1fx), "
        "%llu field ops per prepare, %llu per RHS\n",
        reuse_sps, fresh_sps, speedup,
        static_cast<unsigned long long>(prepare_ops),
        static_cast<unsigned long long>(ops_per_rhs));
  }

  // ----------------------------------------------------------------- S4 --
#if KP_FAULT_INJECTION_ENABLED
  {
    SolverService<F> svc(f, cfg);
    auto sid = svc.register_operator(wl.box(), 7);
    check(sid.ok(), "S4 register failed");

    // Persistent batch fault: every request must still come back exact,
    // served one level down (single-RHS).
    {
      kp::util::fault::ScopedFault fi(Stage::kServiceBatch, /*attempt=*/-1,
                                      /*site_index=*/-1, /*one_shot=*/false);
      for (std::size_t i = 0; i < 4; ++i) {
        auto r = svc.submit(sid.value(), wl.b[i]).get();
        check(r.status.ok() && r.x == wl.x[i], "S4 batch-fault answer wrong");
        check(r.telemetry.level == DegradationLevel::kSingleRhs,
              "S4 batch fault did not degrade to single-RHS");
      }
      report.begin_row("S4_fault_batch");
      report.put("requests", static_cast<std::uint64_t>(4));
      report.put("level", kp::core::to_string(DegradationLevel::kSingleRhs));
      report.put("fired", static_cast<std::uint64_t>(fi.fired()));
    }
    // Persistent execute fault on top: the solo retry is also denied, so
    // the dense baseline must settle the request -- still exact.
    {
      kp::util::fault::ScopedFault fb(Stage::kServiceBatch, -1, -1, false);
      kp::util::fault::ScopedFault fe(Stage::kServiceExecute, -1, -1, false);
      auto r = svc.submit(sid.value(), wl.b[0]).get();
      check(r.status.ok() && r.x == wl.x[0], "S4 dense-settle answer wrong");
      check(r.telemetry.level == DegradationLevel::kDenseBaseline,
            "S4 execute fault did not settle on the dense baseline");
      report.begin_row("S4_fault_execute");
      report.put("level",
                 kp::core::to_string(DegradationLevel::kDenseBaseline));
    }
    // Admission fault: shed at the door with the injected flag set.
    {
      kp::util::fault::ScopedFault fa(Stage::kServiceAdmission);
      auto r = svc.submit(sid.value(), wl.b[0]).get();
      check(r.status.kind() == kp::util::FailureKind::kQueueOverflow &&
                r.status.injected(),
            "S4 admission fault did not shed");
      report.begin_row("S4_fault_admission");
      report.put("kind", kp::util::to_string(r.status.kind()));
      report.put_json("diag_sample", r.telemetry.to_json());
    }
    std::printf("  S4: fault legs degraded/shed as designed\n");
  }
#else
  std::printf("  S4: skipped (fault injection compiled out)\n");
#endif

  // ----------------------------------------------------------------- S5 --
  {
    kp::util::Table t({"sessions", "solves", "wall_ms", "solves_per_sec"});
    for (const std::size_t nsess : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
      SolverService<F> svc(f, cfg);
      std::vector<std::uint64_t> sids;
      std::vector<Workload> wls;
      wls.reserve(nsess);
      for (std::size_t s = 0; s < nsess; ++s) {
        wls.emplace_back(n, cfg.max_batch, 100 + s);
        auto sid = svc.register_operator(wls.back().box(), 100 + s);
        check(sid.ok(), "S5 register failed");
        sids.push_back(sid.value());
      }
      const std::size_t per_sess = quick ? 4 : 16;
      std::uint64_t ok_count = 0;
      kp::util::WallTimer timer;
      std::vector<std::future<SolverService<F>::Result>> futs;
      for (std::size_t i = 0; i < per_sess; ++i) {
        for (std::size_t s = 0; s < nsess; ++s) {
          futs.push_back(
              svc.submit(sids[s], wls[s].b[i % wls[s].b.size()]));
        }
        if (futs.size() >= cfg.queue_capacity || i + 1 == per_sess) {
          for (auto& fu : futs) {
            auto r = fu.get();
            if (r.status.ok()) ++ok_count;
          }
          futs.clear();
        }
      }
      const double ms = timer.elapsed_ms();
      const double sps = static_cast<double>(ok_count) / (ms * 1e-3);
      t.add_row({std::to_string(nsess), std::to_string(ok_count),
                 kp::util::Table::num(ms, 2), kp::util::Table::num(sps, 1)});
      report.begin_row("S5_concurrent_sessions");
      report.put("sessions", static_cast<std::uint64_t>(nsess));
      report.put("solves", ok_count);
      report.put("wall_ms", ms);
      report.put("solves_per_sec", sps);
    }
    std::printf("  S5: aggregate throughput vs concurrent sessions\n");
    t.print();
  }

  report.write();
  if (failures) {
    std::printf("bench_service: %d FAILURE(S)\n", failures);
    return 1;
  }
  std::printf("bench_service: all checks passed\n");
  return 0;
}
