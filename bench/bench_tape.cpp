// Tape engine benchmark: compiled batch evaluation vs node-at-a-time
// Circuit::evaluate on the paper's circuits (Theorem-4 solver, Theorem-6
// inverse, Theorem-3 Toeplitz charpoly).
//
// For each circuit the bench reports the DAG -> tape compilation stats
// (instructions after DCE, levels, register slots, pooled constants) and,
// per batch size B, the per-input wall time of both paths plus the
// speedup.  The two paths' outputs are checksummed against each other for
// every lane; any mismatch exits non-zero (the bench doubles as an
// end-to-end identity check).
#include <cstdint>
#include <cstdio>
#include <vector>

#include "circuit/builders.h"
#include "circuit/tape.h"
#include "circuit/tape_eval.h"
#include "field/zp.h"
#include "util/bench_json.h"
#include "util/prng.h"
#include "util/tables.h"

using F = kp::field::GFp;

namespace {

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct BatchDraw {
  std::vector<std::vector<std::uint64_t>> in, rnd;
};

/// Draws B lanes that evaluate cleanly (retrying unlucky random columns is
/// cheap at p ~ 2^57; in practice the first draw succeeds).
BatchDraw draw_clean(const F& f, const kp::circuit::Circuit& c,
                     const kp::circuit::Tape& t, std::size_t B,
                     kp::util::Prng& prng) {
  const kp::circuit::TapeEvaluator<F> ev(f, t);
  for (int attempt = 0; attempt < 5; ++attempt) {
    BatchDraw d;
    d.in.resize(c.num_inputs());
    d.rnd.resize(c.num_randoms());
    for (auto& v : d.in) {
      v.resize(B);
      for (auto& x : v) x = f.random(prng);
    }
    for (auto& v : d.rnd) {
      v.resize(B);
      for (auto& x : v) x = f.random(prng);
    }
    if (ev.evaluate(d.in, d.rnd).status.ok()) return d;
  }
  std::fprintf(stderr, "could not draw a clean batch\n");
  std::exit(2);
}

}  // namespace

int main() {
  F f(kp::field::kNttPrime);
  kp::util::Prng prng(4242);
  kp::util::BenchReport report("tape");

  std::printf("Tape engine: compiled SoA batch evaluation vs node-at-a-time\n\n");

  struct Case {
    const char* name;
    std::size_t n;
    kp::circuit::Circuit c;
  };
  Case cases[] = {
      {"solver", 4, kp::circuit::build_solver_circuit(4, kp::field::kNttPrime)},
      {"solver", 8, kp::circuit::build_solver_circuit(8, kp::field::kNttPrime)},
      {"inverse", 4,
       kp::circuit::build_inverse_circuit(4, kp::field::kNttPrime)},
      {"toeplitz_charpoly", 8,
       kp::circuit::build_toeplitz_charpoly_circuit(8, kp::field::kNttPrime)},
  };

  kp::util::Table tbl({"circuit", "n", "dag size", "instrs", "levels", "regs",
                       "B", "node us/in", "tape us/in", "speedup"});
  bool all_ok = true;

  for (auto& cs : cases) {
    const kp::circuit::Tape t = kp::circuit::compile(cs.c);
    const kp::circuit::TapeEvaluator<F> ev(f, t);
    for (std::size_t B : {std::size_t{1}, std::size_t{16}, std::size_t{256}}) {
      const BatchDraw d = draw_clean(f, cs.c, t, B, prng);

      // Reference path: node-at-a-time, once per lane.  Checksum both
      // paths' outputs lane by lane -- identity is part of the bench.
      std::uint64_t ref_sum = 0xcbf29ce484222325ULL;
      kp::util::WallTimer wt_node;
      for (std::size_t lane = 0; lane < B; ++lane) {
        std::vector<std::uint64_t> in1, rnd1;
        in1.reserve(d.in.size());
        rnd1.reserve(d.rnd.size());
        for (const auto& v : d.in) in1.push_back(v[lane]);
        for (const auto& v : d.rnd) rnd1.push_back(v[lane]);
        const auto ref = cs.c.evaluate_status(f, in1, rnd1);
        if (!ref.status.ok()) {
          std::fprintf(stderr, "reference eval failed\n");
          return 2;
        }
        for (std::uint64_t v : ref.outputs) ref_sum = fnv1a_mix(ref_sum, v);
      }
      const double node_ms = wt_node.elapsed_ms();

      // Tape path: whole batch per pass; repeat to stabilize the clock.
      const int reps = B >= 256 ? 8 : 32;
      std::uint64_t tape_sum = 0;
      kp::util::WallTimer wt_tape;
      for (int r = 0; r < reps; ++r) {
        const auto res = ev.evaluate(d.in, d.rnd);
        if (!res.status.ok()) {
          std::fprintf(stderr, "tape eval failed: %s\n",
                       res.status.message().c_str());
          return 2;
        }
        tape_sum = 0xcbf29ce484222325ULL;
        for (std::size_t lane = 0; lane < B; ++lane) {
          for (const auto& out : res.outputs) {
            tape_sum = fnv1a_mix(tape_sum, out[lane]);
          }
        }
      }
      const double tape_ms = wt_tape.elapsed_ms() / reps;

      // The reference checksum folds outputs lane-major (all outputs of
      // lane 0, then lane 1, ...); fold the tape outputs the same way.
      if (tape_sum != ref_sum) {
        std::fprintf(stderr, "CHECKSUM MISMATCH %s n=%zu B=%zu\n", cs.name,
                     cs.n, B);
        all_ok = false;
      }

      const double node_per = node_ms * 1e3 / static_cast<double>(B);
      const double tape_per = tape_ms * 1e3 / static_cast<double>(B);
      const double speedup = node_per / tape_per;

      report.begin_row("tape_vs_node");
      report.put("circuit", cs.name);
      report.put("n", std::uint64_t{cs.n});
      report.put("dag_size", t.source_size);
      report.put("dag_depth", static_cast<std::uint64_t>(t.source_depth));
      report.put("instrs", std::uint64_t{t.num_instrs()});
      report.put("levels", std::uint64_t{t.num_levels()});
      report.put("regs", static_cast<std::uint64_t>(t.num_regs));
      report.put("constants_pooled", std::uint64_t{t.constants.size()});
      report.put("B", std::uint64_t{B});
      report.put("node_us_per_input", node_per);
      report.put("tape_us_per_input", tape_per);
      report.put("speedup", speedup);
      report.put("checksum_ok", tape_sum == ref_sum);

      tbl.add_row({cs.name, std::to_string(cs.n),
                   kp::util::Table::num(t.source_size),
                   kp::util::Table::num(std::uint64_t{t.num_instrs()}),
                   std::to_string(t.num_levels()),
                   std::to_string(t.num_regs), std::to_string(B),
                   kp::util::Table::num(node_per, 2),
                   kp::util::Table::num(tape_per, 2),
                   kp::util::Table::num(speedup, 2)});
    }
  }
  tbl.print();
  std::printf(
      "\nper-input speedup of compiled SoA batch evaluation; identity with\n"
      "node-at-a-time evaluate_status() is checksummed per lane (exit 1 on drift).\n");
  return all_ok ? 0 : 1;
}
