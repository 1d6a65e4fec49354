// solver_service_cli: a line-protocol front end for core/service.h.
//
// The service side of the repo in one interactive binary: register an
// operator once, stream right-hand sides at it, watch telemetry, trip the
// breaker.  Reads commands from stdin, one per line, answers on stdout:
//
//   session <n> <seed> [nnz]      register a random sparse n x n operator
//                                 (nnz entries per row, default 8) and
//                                 eagerly prepare its session
//                                   -> session <id> n=<n>
//   solve <id> random [seed]      solve against a random RHS
//   solve <id> <b0> <b1> ... <bn-1>
//                                 solve against an explicit RHS
//     either form accepts a trailing  deadline_ms=<d>
//                                   -> ok <id> level=<level> x0=<first entry>
//                                   -> fail <kind> at <stage>
//   telemetry on|off              per-request RequestTelemetry JSON lines
//   stats                         service counters so far
//   reset <id>                    close a quarantined session's breaker
//   quit                          shut the service down and exit
//
// Example session:
//   $ printf 'session 64 7\nsolve 1 random\nstats\nquit\n' |
//       ./build/examples/solver_service_cli
//
// Everything runs over Z/p for a fixed 61-bit prime; the point is the
// service machinery (admission, coalescing, deadlines, degradation), not
// the field.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/service.h"
#include "field/zp.h"
#include "matrix/blackbox.h"
#include "matrix/sparse.h"
#include "util/prng.h"

namespace {

using F = kp::field::GFp;
using kp::core::ServiceConfig;
using kp::core::SolverService;

}  // namespace

int main() {
  F f((1ULL << 61) - 1);
  ServiceConfig cfg;
  cfg.dispatchers = 1;
  cfg.queue_capacity = 256;
  SolverService<F> svc(f, cfg);

  // Remember each session's dimension so RHS lines can be validated before
  // they hit the queue.
  std::vector<std::pair<std::uint64_t, std::size_t>> dims;
  const auto dim_of = [&](std::uint64_t id) -> std::size_t {
    for (const auto& [sid, n] : dims) {
      if (sid == id) return n;
    }
    return 0;
  };

  bool telemetry = false;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') continue;

    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "telemetry") {
      std::string mode;
      in >> mode;
      telemetry = (mode == "on");
      std::printf("telemetry %s\n", telemetry ? "on" : "off");
      continue;
    }

    if (cmd == "session") {
      std::size_t n = 0;
      std::uint64_t seed = 1;
      std::size_t nnz = 8;
      in >> n >> seed >> nnz;
      if (n == 0) {
        std::printf("error: usage: session <n> <seed> [nnz]\n");
        continue;
      }
      kp::util::Prng prng(seed);
      auto sp = kp::matrix::Sparse<F>::random(f, n, nnz, prng);
      auto sid = svc.register_operator(
          kp::matrix::AnyBox<F>(kp::matrix::SparseBox<F>(f, std::move(sp))),
          seed);
      if (!sid.ok()) {
        std::printf("error: %s\n", sid.status().message().c_str());
        continue;
      }
      dims.emplace_back(sid.value(), n);
      std::printf("session %llu n=%zu\n",
                  static_cast<unsigned long long>(sid.value()), n);
      continue;
    }

    if (cmd == "reset") {
      std::uint64_t id = 0;
      in >> id;
      std::printf(svc.reset_session(id) ? "reset %llu\n"
                                        : "error: unknown session %llu\n",
                  static_cast<unsigned long long>(id));
      continue;
    }

    if (cmd == "stats") {
      const auto s = svc.stats();
      std::printf(
          "stats submitted=%llu ok=%llu failed=%llu overflow=%llu "
          "deadline=%llu cancelled=%llu quarantined=%llu batches=%llu "
          "coalesced=%llu degraded_single=%llu degraded_dense=%llu\n",
          static_cast<unsigned long long>(s.submitted),
          static_cast<unsigned long long>(s.completed_ok),
          static_cast<unsigned long long>(s.failed),
          static_cast<unsigned long long>(s.rejected_overflow),
          static_cast<unsigned long long>(s.deadline_expired),
          static_cast<unsigned long long>(s.cancelled),
          static_cast<unsigned long long>(s.quarantine_rejections),
          static_cast<unsigned long long>(s.batches),
          static_cast<unsigned long long>(s.coalesced_requests),
          static_cast<unsigned long long>(s.degraded_single),
          static_cast<unsigned long long>(s.degraded_dense));
      continue;
    }

    if (cmd == "solve") {
      std::uint64_t id = 0;
      in >> id;
      const std::size_t n = dim_of(id);
      if (n == 0) {
        std::printf("error: unknown session %llu\n",
                    static_cast<unsigned long long>(id));
        continue;
      }
      std::vector<F::Element> b;
      kp::util::Deadline deadline;
      std::string tok;
      while (in >> tok) {
        if (tok.rfind("deadline_ms=", 0) == 0) {
          const long ms = std::strtol(tok.c_str() + 12, nullptr, 10);
          deadline = kp::util::Deadline::after(std::chrono::milliseconds(ms));
        } else if (tok == "random") {
          std::uint64_t seed = 99;
          in >> seed;
          kp::util::Prng prng(seed);
          b.resize(n);
          for (auto& e : b) e = f.random(prng);
        } else {
          b.push_back(f.from_int(static_cast<std::int64_t>(
              std::strtoll(tok.c_str(), nullptr, 10))));
        }
      }
      if (b.size() != n) {
        std::printf("error: need %zu RHS entries, got %zu\n", n, b.size());
        continue;
      }
      auto res = svc.submit(id, std::move(b), deadline).get();
      if (telemetry) std::printf("%s\n", res.telemetry.to_json().c_str());
      if (res.status.ok()) {
        std::printf("ok %llu level=%s x0=%s\n",
                    static_cast<unsigned long long>(id),
                    kp::core::to_string(res.telemetry.level),
                    f.to_string(res.x[0]).c_str());
      } else {
        std::printf("fail %s\n", res.status.message().c_str());
      }
      continue;
    }

    std::printf("error: unknown command '%s'\n", cmd.c_str());
  }

  svc.shutdown();
  return 0;
}
