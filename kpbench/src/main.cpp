// kpbench: the repository benchmark.
//
//   kpbench --workload <dense_doubling|sparse_block|service_stream|exact_rational>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <file>] [--source-digest <hex>]
//
// --trace 0 times the workload untraced and prints the end-to-end metrics;
// --trace 1 replays the same requests stage by stage under spans and prints
// the per-layer metrics (and writes the spans to --trace-out).  Every answer
// is checked against the generated solution.  The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the line before
// it is the environment block (read after the run, so it shows the worker
// limit the workload ran with).  Exit status 1, with correct false, when a
// request failed or returned a wrong answer; exit status 1 without a result
// when no request was verified.

#include <sys/resource.h>
#include <unistd.h>

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "field/simd.h"
#include "pram/parallel_for.h"

#ifndef KP_GIT_REV
#define KP_GIT_REV "unknown"
#endif

namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned k = 0; k < 3; ++k) {
    if (!__get_cpuid(0x80000002u + k, &regs[4 * k], &regs[4 * k + 1],
                     &regs[4 * k + 2], &regs[4 * k + 3])) {
      return "unknown";
    }
  }
  char text[sizeof regs + 1] = {};
  std::memcpy(text, regs, sizeof regs);
  std::string s(text);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string env_json(const std::string& digest) {
  const auto simd = kp::field::simd::simd_stats();
  const char* simd_env = std::getenv("KP_SIMD");
  std::string j = "{";
  const auto field = [&j](const char* key, const std::string& value, bool quote) {
    if (j.size() > 1) j += ", ";
    j += "\"" + std::string(key) + "\": ";
    j += quote ? "\"" + value + "\"" : value;
  };
  field("cpu", cpu_model(), true);
  field("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)), false);
  field("simd_level", simd.level, true);
  field("ifma", simd.ifma ? "true" : "false", false);
  field("pool_workers", std::to_string(kp::pram::worker_count()), false);
  field("pool_worker_limit",
        std::to_string(kp::pram::ExecutionContext::global().worker_limit()), false);
  field("compiler", KPBENCH_COMPILER, true);
  field("cxx_flags", KPBENCH_CXX_FLAGS, true);
  field("build_type", KPBENCH_BUILD_TYPE, true);
#if defined(KP_SIMD_DISABLED)
  field("kp_simd_build", "false", false);
#else
  field("kp_simd_build", "true", false);
#endif
  field("kp_simd_env", simd_env ? simd_env : "", true);
#if defined(KP_FAULT_INJECTION)
  field("kp_fault_injection", "true", false);
#else
  field("kp_fault_injection", "false", false);
#endif
  field("git_rev", KP_GIT_REV, true);
  field("source_digest", digest, true);
  return j + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "kpbench: %s\nusage: kpbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--source-digest <hex>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  kpbench::Options opt;
  std::string digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else if (key == "--source-digest") {
      digest = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  using Run = void (*)(const kpbench::Options&, kpbench::Report&, kpbench::Trace*);
  Run run = nullptr;
  if (opt.workload == "dense_doubling") run = kpbench::run_dense;
  if (opt.workload == "sparse_block") run = kpbench::run_sparse;
  if (opt.workload == "service_stream") run = kpbench::run_service;
  if (opt.workload == "exact_rational") run = kpbench::run_rational;
  if (run == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());

  kpbench::Report rep;
  std::string env;
  if (opt.trace) {
    kpbench::Trace trace;
    run(opt, rep, &trace);
    env = env_json(digest);
    const double root = trace.tracer.root_ms();
    trace.layers.set("trace.uncovered_pct",
                     root > 0 ? trace.tracer.uncovered_ms() / root * 100.0 : 0.0);
    trace.layers.emit(rep);
    if (!opt.trace_out.empty() && !trace.tracer.write(opt.trace_out, env)) {
      std::fprintf(stderr, "kpbench: cannot write %s\n", opt.trace_out.c_str());
    }
  } else {
    run(opt, rep, nullptr);
    env = env_json(digest);
    struct rusage usage_now {};
    getrusage(RUSAGE_SELF, &usage_now);
    rep.put("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0, "MB");
  }
  if (rep.attempted == 0 || !rep.finite()) {
    std::fprintf(stderr, "kpbench: no verified solve (%llu attempted, %llu failed)\n",
                 static_cast<unsigned long long>(rep.attempted),
                 static_cast<unsigned long long>(rep.failed));
    return 1;
  }
  // Every request must come back verified: error_rate is 0 at the baseline.
  if (rep.failed > 0) rep.correct = false;
  std::printf("{\"env\": %s}\n", env.c_str());
  std::printf("%s\n", rep.json().c_str());
  return rep.correct ? 0 : 1;
}
