// The request loops shared by the one-caller workloads (dense_doubling,
// sparse_block, exact_rational).  A workload W provides
//
//   explicit W(std::uint64_t seed);     set-up: inputs, operators, warm-up
//   Outcome solve(std::size_t i);       request i through the public entry
//   bool replay(std::size_t i, Tracer&) request i stage by stage under spans;
//                                       true when the answer is the expected x
//   bool replay_extra(std::size_t i, Tracer&)   optional: more replays after
//                                       the request's root span closed
//   void layer_metrics(const Tracer&, Layers&, double requests) const;
//                                       stage metrics and workload extras
//
// and the loops below time it untraced, or replay it traced.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common.h"

namespace kpbench {

/// Builds the workload once (input generation, operator set-up and warm-up
/// requests); `setup_s` is its process CPU time.  It is the process's first
/// set-up, so it pays for cold caches and pool start-up.
template <class W>
std::unique_ptr<W> timed_setup(double& setup_s, std::uint64_t seed) {
  const double cpu0 = process_cpu_ms();
  auto w = std::make_unique<W>(seed);
  setup_s = (process_cpu_ms() - cpu0) / 1000.0;
  return w;
}

/// One caller, closed loop: request i + 1 is issued when request i returned,
/// until opt.seconds have passed.
template <class W>
void closed_loop(W& w, const Options& opt, Report& rep) {
  std::size_t verified = 0;
  CpuMeter cpu(0.0);  // one window per request
  const auto start = Clock::now();
  for (std::size_t i = 0; ms_since(start) < opt.seconds * 1000.0; ++i) {
    const Outcome o = w.solve(i);
    ++rep.attempted;
    if (!o.ok || !o.correct) {
      ++rep.failed;
      if (o.ok) rep.correct = false;  // an answer that is wrong
      continue;
    }
    cpu.tick(++verified);
  }
  cpu.put(rep);
}

/// Wall-clock latency of the verified requests (p50; p90 only with at least
/// 100 samples, so that ten lie beyond it), throughput over `elapsed_ms`,
/// and the error rate, for the per-layer table.
inline void put_latency(Layers& layers, const Report& rep,
                        const std::vector<double>& latency, double elapsed_ms) {
  layers.set("error_rate", rep.attempted == 0
                               ? 0.0
                               : static_cast<double>(rep.failed) /
                                     static_cast<double>(rep.attempted));
  layers.set("solve_samples", static_cast<double>(latency.size()));
  layers.set("solve_p50_ms", median(latency));
  layers.set("solve_p90_ms",
             latency.size() >= 100 ? percentile(latency, 0.9) : 0.0);
  layers.set("solves_per_s", elapsed_ms > 0 ? static_cast<double>(latency.size()) /
                                                  (elapsed_ms / 1000.0)
                                            : 0.0);
}

/// The traced run: each request runs once untraced (counters read around it)
/// and once replayed stage by stage under spans, alternating which goes
/// first; both answers must be the generated solution.
template <class W>
void traced_loop(W& w, const Options& opt, Report& rep, Trace& tr) {
  Work work;
  std::vector<double> latency;
  double mono_ms = 0.0, traced_ms = 0.0, attempts = 0.0, fallbacks = 0.0;
  const auto start = Clock::now();
  std::size_t i = 0;
  for (; i == 0 || ms_since(start) < opt.seconds * 1000.0; ++i) {
    const auto untraced = [&] {
      WorkMeter meter;
      const auto t0 = Clock::now();
      const Outcome o = w.solve(i);
      const double ms = ms_since(t0);
      meter.add_to(work);
      ++rep.attempted;
      attempts += o.attempts;
      fallbacks += o.fallback ? 1.0 : 0.0;
      if (!o.ok || !o.correct) {
        ++rep.failed;
        if (o.ok) rep.correct = false;
        return;
      }
      mono_ms += ms;
      latency.push_back(ms);
    };
    const auto replayed = [&] {
      const auto t0 = Clock::now();
      bool same = false;
      {
        Tracer::Scope root(tr.tracer, "request", i);
        same = w.replay(i, tr.tracer);
      }
      traced_ms += ms_since(t0);
      if constexpr (requires { w.replay_extra(i, tr.tracer); }) {
        same = same && w.replay_extra(i, tr.tracer);
      }
      if (!same) rep.correct = false;
    };
    if (i % 2 == 0) {
      untraced();
      replayed();
    } else {
      replayed();
      untraced();
    }
  }
  const double requests = static_cast<double>(i);
  put_latency(tr.layers, rep, latency, mono_ms);
  tr.layers.set("trace.overhead_pct",
                mono_ms > 0 ? (traced_ms - mono_ms) / mono_ms * 100.0 : 0.0);
  tr.layers.set("core.attempts_per_solve", attempts / requests);
  tr.layers.set("core.dense_fallbacks", fallbacks);
  put_work(tr.layers, work, requests);
  w.layer_metrics(tr.tracer, tr.layers, requests);
  tr.layers.set("pram.parallel_speedup",
                parallel_speedup(1, [&] { (void)w.solve(0); }));
}

/// Set-up, then the untraced closed loop or the traced replay.
template <class W>
void run_one_caller(const Options& opt, Report& rep, Trace* trace) {
  double setup_s = 0.0;
  auto w = timed_setup<W>(setup_s, opt.seed);
  if (trace) {
    traced_loop(*w, opt, rep, *trace);
  } else {
    closed_loop(*w, opt, rep);
    rep.put("setup_s", setup_s, "s");
  }
}

}  // namespace kpbench
