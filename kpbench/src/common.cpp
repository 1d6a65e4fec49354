#include "common.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>

#include "pram/parallel_for.h"

namespace kpbench {

namespace {

/// Every per-layer metric with its unit, in output order.  NOTES.md maps
/// each one to the end-to-end metric and workload it should move.
const std::vector<std::pair<const char*, const char*>>& layer_table() {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"core.precondition_ms", "ms"},       {"core.precondition_ops", "ops"},
      {"core.krylov_sequence_ms", "ms"},    {"core.krylov_sequence_ops", "ops"},
      {"core.finish_ms", "ms"},             {"core.finish_ops", "ops"},
      {"seq.toeplitz_solve_ms", "ms"},      {"seq.toeplitz_solve_ops", "ops"},
      {"seq.toeplitz_det_ms", "ms"},        {"seq.toeplitz_det_ops", "ops"},
      {"core.block_krylov_ms", "ms"},       {"core.block_krylov_ops", "ops"},
      {"seq.sigma_basis_ms", "ms"},         {"seq.sigma_basis_ops", "ops"},
      {"core.block_finish_ms", "ms"},       {"core.block_finish_ops", "ops"},
      {"matrix.verify_ms", "ms"},
      {"core.session_prepare_ms", "ms"},    {"core.session_solve_many_ms", "ms"},
      {"core.service_queue_wait_ms", "ms"}, {"core.service_exec_ms", "ms"},
      {"core.service_batch_size", "count"}, {"core.service_degraded", "count"},
      {"core.crt_shard_solve_ms", "ms"},    {"core.crt_shards_used", "count"},
      {"core.crt_batches", "count"},        {"core.crt_bad_primes", "count"},
      {"core.crt_remainder_ms", "ms"},
      {"core.attempts_per_solve", "count"}, {"core.dense_fallbacks", "count"},
      {"field.ops_per_solve", "ops"},       {"field.divs_per_solve", "ops"},
      {"field.simd_dot_groups", "groups"},  {"field.simd_sum_groups", "groups"},
      {"field.simd_gather_groups", "groups"},
      {"field.simd_ntt_groups", "groups"},  {"field.simd_vec_groups", "groups"},
      {"field.simd_batch_inverse_groups", "groups"},
      {"poly.ntt_forward", "count"},        {"poly.ntt_inverse", "count"},
      {"poly.ntt_forward_avoided", "count"},
      {"poly.spectrum_hit_ratio", "ratio"}, {"poly.twiddle_misses", "count"},
      {"poly.twiddle_bytes", "bytes"},
      {"pram.threads_started", "count"},    {"pram.parallel_speedup", "x"},
      {"trace.overhead_pct", "%"},          {"trace.uncovered_pct", "%"},
      {"error_rate", "ratio"},              {"solve_p50_ms", "ms"},
      {"solve_p90_ms", "ms"},               {"solves_per_s", "1/s"},
      {"solve_samples", "count"},
  };
  return table;
}

bool known_layer(const std::string& name) {
  for (const auto& [n, u] : layer_table()) {
    if (name == n) return true;
  }
  return false;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Report::Metric>& metrics) {
  std::string j = "{";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k) j += ", ";
    j += quote(metrics[k].name) + ": {\"value\": " + number(metrics[k].value) +
         ", \"unit\": " + quote(metrics[k].unit) + "}";
  }
  return j + "}";
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over (seed, tag).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

bool Report::finite() const {
  return std::all_of(metrics.begin(), metrics.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

CpuMeter::CpuMeter(double window_ms)
    : window_ms_(window_ms), opened_(Clock::now()), cpu_ms_(process_cpu_ms()) {}

void CpuMeter::tick(std::size_t solves) {
  if (solves <= solves_ || ms_since(opened_) < window_ms_) return;
  const double cpu_ms = process_cpu_ms();
  per_solve_.push_back((cpu_ms - cpu_ms_) / static_cast<double>(solves - solves_));
  opened_ = Clock::now();
  cpu_ms_ = cpu_ms;
  solves_ = solves;
}

void CpuMeter::put(Report& rep) const {
  rep.put("cpu_ms_per_solve", per_solve_.empty() ? std::nan("") : median(per_solve_),
          "ms");
}

std::string Report::json() const {
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  return j + ", \"metrics\": " + metrics_json(metrics) + "}";
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t request)
    : t_(t), index_(t.spans_.size()) {
  Span s;
  s.name = name;
  s.start_ms = ms_since(t.origin_);
  s.parent = t.open_.empty() ? -1 : static_cast<int>(t.open_.back());
  s.request = request;
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  Span& s = t_.spans_[index_];
  s.end_ms = ms_since(t_.origin_);
  s.ops = ops_.counts().total();
  t_.open_.pop_back();
}

double Tracer::total_ms(const std::string& name) const {
  double ms = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) ms += s.end_ms - s.start_ms;
  }
  return ms;
}

std::uint64_t Tracer::total_ops(const std::string& name) const {
  std::uint64_t ops = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ops += s.ops;
  }
  return ops;
}

double Tracer::root_ms() const {
  double ms = 0.0;
  for (const auto& s : spans_) {
    if (s.parent < 0) ms += s.end_ms - s.start_ms;
  }
  return ms;
}

double Tracer::uncovered_ms() const {
  double ms = root_ms();
  for (const auto& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].parent < 0) {
      ms -= s.end_ms - s.start_ms;
    }
  }
  return ms;
}

bool Tracer::write(const std::string& path, const std::string& env_json) const {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"metadata\": " << env_json << ",\n\"traceEvents\": [";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    out << (k ? ",\n" : "\n") << "{\"name\": " << quote(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << number(s.start_ms * 1000.0)
        << ", \"dur\": " << number((s.end_ms - s.start_ms) * 1000.0)
        << ", \"args\": {\"span\": " << k << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"ops\": " << s.ops << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Layers::set(const std::string& name, double value) {
  if (!known_layer(name)) {
    std::fprintf(stderr, "kpbench: unknown per-layer metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void Layers::stage(const Tracer& tr, const std::string& name, double per) {
  if (per <= 0) return;
  set(name + "_ms", tr.total_ms(name) / per);
  if (known_layer(name + "_ops")) {
    set(name + "_ops", static_cast<double>(tr.total_ops(name)) / per);
  }
}

void Layers::emit(Report& rep) const {
  for (const auto& [name, unit] : layer_table()) {
    const auto it = values_.find(name);
    rep.put(name, it == values_.end() ? 0.0 : it->second, unit);
  }
}

WorkMeter::WorkMeter()
    : simd_(kp::field::simd::simd_stats()), ntt_(kp::poly::transform_stats()) {}

void WorkMeter::add_to(Work& w) const {
  const auto ops = ops_.counts();
  const auto simd = kp::field::simd::simd_stats();
  const auto ntt = kp::poly::transform_stats();
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  w.ops += static_cast<double>(ops.total());
  w.divs += static_cast<double>(ops.div);
  w.simd_dot += d(simd.dot, simd_.dot);
  w.simd_sum += d(simd.sum, simd_.sum);
  w.simd_gather += d(simd.gather, simd_.gather);
  w.simd_ntt += d(simd.ntt, simd_.ntt);
  w.simd_vec += d(simd.vec, simd_.vec);
  w.simd_batch_inverse += d(simd.batch_inverse, simd_.batch_inverse);
  w.ntt_forward += d(ntt.forward, ntt_.forward);
  w.ntt_inverse += d(ntt.inverse, ntt_.inverse);
  w.ntt_avoided += d(ntt.forward_avoided, ntt_.forward_avoided);
}

void put_work(Layers& layers, const Work& w, double solves) {
  if (solves <= 0) return;
  layers.set("field.ops_per_solve", w.ops / solves);
  layers.set("field.divs_per_solve", w.divs / solves);
  layers.set("field.simd_dot_groups", w.simd_dot / solves);
  layers.set("field.simd_sum_groups", w.simd_sum / solves);
  layers.set("field.simd_gather_groups", w.simd_gather / solves);
  layers.set("field.simd_ntt_groups", w.simd_ntt / solves);
  layers.set("field.simd_vec_groups", w.simd_vec / solves);
  layers.set("field.simd_batch_inverse_groups", w.simd_batch_inverse / solves);
  layers.set("poly.ntt_forward", w.ntt_forward / solves);
  layers.set("poly.ntt_inverse", w.ntt_inverse / solves);
  layers.set("poly.ntt_forward_avoided", w.ntt_avoided / solves);
  const double wanted = w.ntt_forward + w.ntt_avoided;
  layers.set("poly.spectrum_hit_ratio", wanted > 0 ? w.ntt_avoided / wanted : 0.0);
  const auto twiddles = kp::poly::twiddle_cache_stats();
  layers.set("poly.twiddle_misses", static_cast<double>(twiddles.misses));
  layers.set("poly.twiddle_bytes", static_cast<double>(twiddles.bytes));
  layers.set("pram.threads_started",
             static_cast<double>(
                 kp::pram::ExecutionContext::global().threads_started()));
}

double parallel_speedup(int reps, const std::function<void()>& work) {
  auto& ctx = kp::pram::ExecutionContext::global();
  const unsigned saved = ctx.worker_limit();
  std::vector<double> one, pool;
  for (int r = 0; r < reps; ++r) {
    for (const unsigned limit : {1u, 0u}) {
      ctx.set_worker_limit(limit);
      const auto t0 = Clock::now();
      work();
      (limit == 1 ? one : pool).push_back(ms_since(t0));
    }
  }
  ctx.set_worker_limit(saved);
  const double base = median(pool);
  return base > 0 ? median(one) / base : 0.0;
}

}  // namespace kpbench
