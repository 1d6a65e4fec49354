// Shared pieces of the kpbench program: options, the result line, the span
// recorder of the traced run, the per-layer metric table, and the process-wide
// counter snapshots every workload reads around its untraced calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "field/simd.h"
#include "poly/ntt.h"
#include "util/op_count.h"

namespace kpbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }
/// CPU time of the whole process (all threads) so far, in ms.
double process_cpu_ms();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file of the traced run ("" = none)
};

/// A seed derived from the workload seed and a tag: every input and every
/// solver draw comes from one, so the same workload seed replays the same run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

/// The final JSON line: counts plus named metrics with units.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// True when every metric is a finite number (a run with no verified
  /// solve divides by zero and must not print a result).
  bool finite() const;
  std::string json() const;
};

/// CPU time over the timed phase, the end-to-end metric of an untraced run:
/// cpu_ms_per_solve is the process CPU time (all threads) per verified
/// solve.  CPU time leaves out the stalls a shared host adds to wall time
/// (NOTES.md).  The timed phase is cut into windows, each closed by the
/// first tick() at least `window_ms` after it opened, and the metric is the
/// median over windows, so that a stretch in which the host runs the
/// process slow does not decide it.
class CpuMeter {
 public:
  explicit CpuMeter(double window_ms);
  /// `solves`: verified solves so far in the timed phase.
  void tick(std::size_t solves);
  /// With no window holding a solve the metric is NaN, and main() refuses
  /// to print a result.
  void put(Report& rep) const;

 private:
  double window_ms_;
  Clock::time_point opened_;
  double cpu_ms_;
  std::size_t solves_ = 0;
  std::vector<double> per_solve_;  ///< CPU ms per solve of each closed window
};

/// In-memory spans of the traced replay: name, start, end, parent, request
/// id, and the field operations counted inside (util/op_count.h).  Spans sit
/// around the benchmark's own calls into the library, on one thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
    std::uint64_t ops = 0;
  };

  /// RAII span: opens on construction, closes (and records ops) on
  /// destruction.  Nested scopes become children of the innermost open one.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
    kp::util::OpScope ops_;
  };

  double total_ms(const std::string& name) const;
  std::uint64_t total_ops(const std::string& name) const;
  /// Summed duration of root spans, and the part of it no child covers.
  double root_ms() const;
  double uncovered_ms() const;
  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool write(const std::string& path, const std::string& env_json) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// The per-layer metrics of the traced run.  Every run reports the whole
/// table; a metric a workload never exercises reads 0 (see NOTES.md for which
/// metric applies where).
class Layers {
 public:
  void set(const std::string& name, double value);
  /// <stage>_ms and <stage>_ops from the tracer's spans of that name,
  /// divided by `per` (requests, prepares, ...).
  void stage(const Tracer& tr, const std::string& name, double per);
  void emit(Report& rep) const;

 private:
  std::map<std::string, double> values_;
};

/// Work counted around untraced library calls: field ops (thread-local,
/// pool workers folded in), SIMD vector groups and NTT transforms
/// (process-wide).
struct Work {
  double ops = 0, divs = 0;
  double simd_dot = 0, simd_sum = 0, simd_gather = 0, simd_ntt = 0,
         simd_vec = 0, simd_batch_inverse = 0;
  double ntt_forward = 0, ntt_inverse = 0, ntt_avoided = 0;
};

class WorkMeter {
 public:
  WorkMeter();
  void add_to(Work& w) const;

 private:
  kp::util::OpScope ops_;
  kp::field::simd::SimdStats simd_;
  kp::poly::TransformStats ntt_;
};

/// field.*, poly.* and pram.threads_started from a Work total over `solves`.
void put_work(Layers& layers, const Work& w, double solves);

/// What a traced run hands each workload.
struct Trace {
  Tracer tracer;
  Layers layers;
};

/// Outcome of one untraced request.
struct Outcome {
  bool ok = false;       ///< the library returned an answer (status ok)
  bool correct = false;  ///< that answer equals the generated solution
  double attempts = 0;   ///< Las Vegas attempts behind it
  bool fallback = false; ///< settled by a deterministic baseline route
};

/// Runs `work()` with the pool pinned to one worker, then with the default
/// (hardware-sized) pool, `reps` times each; returns median(1 worker) /
/// median(default).  The caller's worker limit is restored afterwards.
double parallel_speedup(int reps, const std::function<void()>& work);

void run_dense(const Options& opt, Report& rep, Trace* trace);
void run_sparse(const Options& opt, Report& rep, Trace* trace);
void run_service(const Options& opt, Report& rep, Trace* trace);
void run_rational(const Options& opt, Report& rep, Trace* trace);

}  // namespace kpbench
