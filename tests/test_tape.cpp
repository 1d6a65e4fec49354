// Tests for the circuit tape engine (circuit/tape.h, tape_eval.h,
// tape_io.h): compile semantics (DCE, constant pooling, accounting),
// compile-vs-evaluate element identity across fields and batch sizes,
// worker-count x SIMD-level determinism of the batch evaluator, the
// serialized format's round-trip byte-identity and corruption rejection,
// embedded test-vector self-checks, and per-lane division-fault injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "circuit/tape.h"
#include "circuit/tape_eval.h"
#include "circuit/tape_io.h"
#include "field/simd.h"
#include "field/zp.h"
#include "pram/parallel_for.h"
#include "util/fault.h"
#include "util/op_count.h"
#include "util/prng.h"
#include "util/status.h"

namespace kp {
namespace {

using circuit::Circuit;
using circuit::compile;
using circuit::NodeId;
using circuit::Op;
using circuit::Tape;
using circuit::TapeEvaluator;
using field::GFp;
using field::Zp;
namespace simd = field::simd;
using simd::SimdLevel;

constexpr SimdLevel kSweep[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                                SimdLevel::kAvx512};

struct LevelGuard {
  SimdLevel saved = simd::simd_level();
  ~LevelGuard() { simd::set_simd_level(saved); }
};

struct WorkerGuard {
  ~WorkerGuard() { pram::ExecutionContext::global().set_worker_limit(0); }
};

/// Random SoA lanes for a circuit over field `f`.
template <class F>
struct Lanes {
  std::vector<std::vector<typename F::Element>> in, rnd;
};

template <class F>
Lanes<F> draw_lanes(const F& f, const Circuit& c, std::size_t B,
                    util::Prng& prng) {
  Lanes<F> l;
  l.in.resize(c.num_inputs());
  l.rnd.resize(c.num_randoms());
  for (auto& v : l.in) {
    v.resize(B);
    for (auto& x : v) x = f.random(prng);
  }
  for (auto& v : l.rnd) {
    v.resize(B);
    for (auto& x : v) x = f.random(prng);
  }
  return l;
}

/// Checks every lane of a batch result against node-at-a-time evaluation.
template <class F>
void expect_lanes_match(const F& f, const Circuit& c, const Tape& t,
                        const Lanes<F>& l, std::size_t B) {
  const TapeEvaluator<F> ev(f, t);
  const auto res = ev.evaluate(l.in, l.rnd);
  for (std::size_t lane = 0; lane < B; ++lane) {
    std::vector<typename F::Element> in1, rnd1;
    for (const auto& v : l.in) in1.push_back(v[lane]);
    for (const auto& v : l.rnd) rnd1.push_back(v[lane]);
    const auto ref = c.evaluate_status(f, in1, rnd1);
    if (!res.status.ok()) {
      // A batch fails as a unit; the reported lane must reproduce under
      // node-at-a-time evaluation.
      if (lane == res.fault.lane) {
        EXPECT_EQ(ref.status.kind(), util::FailureKind::kDivisionByZero);
      }
      continue;
    }
    ASSERT_TRUE(ref.status.ok()) << "lane " << lane;
    ASSERT_EQ(ref.outputs.size(), res.outputs.size());
    for (std::size_t k = 0; k < ref.outputs.size(); ++k) {
      ASSERT_EQ(ref.outputs[k], res.outputs[k][lane])
          << "output " << k << " lane " << lane;
    }
  }
}

// ---------------------------------------------------------------------------
// Compilation semantics.

TEST(TapeCompile, DeadCodeEliminationKeepsDivisions) {
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  const auto out = c.add(x, y);
  c.mul(out, out);        // dead multiply: must be eliminated
  c.div(x, y);            // dead division: must SURVIVE (failure event)
  c.mark_output(out);
  const Tape t = compile(c);

  EXPECT_EQ(t.num_instrs(), 2u);  // the add and the dead div
  EXPECT_EQ(t.source_size, c.size());
  EXPECT_EQ(t.source_depth, c.depth());
  EXPECT_EQ(t.source_nodes, c.total_nodes());

  // The dead division still fires the failure event when y == 0 ...
  const Zp<65537> f;
  const TapeEvaluator<Zp<65537>> ev(f, t);
  const auto bad = ev.evaluate({{5}, {0}}, {});
  EXPECT_EQ(bad.status.kind(), util::FailureKind::kDivisionByZero);
  EXPECT_EQ(bad.status.stage(), util::Stage::kCircuitEval);
  // ... exactly as node-at-a-time evaluation does.
  const auto ref = c.evaluate_status(f, {5, 0}, {});
  EXPECT_EQ(ref.status.kind(), util::FailureKind::kDivisionByZero);
  // And a clean run produces the output of the live subgraph only.
  const auto good = ev.evaluate({{5}, {7}}, {});
  ASSERT_TRUE(good.status.ok());
  EXPECT_EQ(good.outputs[0][0], 12u);
}

TEST(TapeCompile, ConstantsPooledAcrossArena) {
  // Compile-level pooling: even if duplicate kConst nodes existed in the
  // arena, the tape keeps one register per distinct payload.
  Circuit c;
  const auto x = c.input();
  const auto a = c.add(x, c.constant(7));
  const auto b = c.mul(a, c.constant(7));
  c.mark_output(c.sub(b, c.constant(3)));
  const Tape t = compile(c);
  EXPECT_EQ(t.constants.size(), 2u);  // 7 and 3
  const Zp<65537> f;
  const auto res = TapeEvaluator<Zp<65537>>(f, t).evaluate({{10}}, {});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs[0][0], (10 + 7) * 7 - 3u);
}

TEST(TapeCompile, RegisterSlotsAreReused) {
  // A long chain uses O(1) registers, not O(length): the slot of step i is
  // dead after step i+1 and gets recycled.
  Circuit c;
  auto v = c.input();
  const auto one = c.constant(1);
  for (int i = 0; i < 200; ++i) v = c.add(v, one);
  c.mark_output(v);
  const Tape t = compile(c);
  EXPECT_EQ(t.num_instrs(), 200u);
  EXPECT_LE(t.num_regs, 4u);
  const Zp<65537> f;
  const auto res = TapeEvaluator<Zp<65537>>(f, t).evaluate({{5}}, {});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs[0][0], 205u);
}

TEST(TapeCompile, LevelsMatchDepths) {
  const Circuit c = circuit::build_solver_circuit(3);
  const Tape t = compile(c);
  // Each instruction sits in the level of its source node's depth.
  for (std::size_t li = 0; li < t.levels.size(); ++li) {
    const auto& lv = t.levels[li];
    for (std::uint32_t k = 0; k < lv.count; ++k) {
      EXPECT_EQ(c.depth_of(t.instr_nodes[lv.first + k]), li + 1);
    }
  }
  EXPECT_EQ(t.levels.size(), c.depth());
}

// ---------------------------------------------------------------------------
// Satellite: build-time constant dedup and Status-reporting evaluate.

TEST(CircuitTest, ConstantDedupAtBuildTime) {
  Circuit c;
  const auto a = c.constant(42);
  const auto b = c.constant(42);
  const auto d = c.constant(-1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, d);
  EXPECT_EQ(c.total_nodes(), 2u);
  EXPECT_EQ(c.size(), 0u);  // constants are leaves, size() unaffected
}

TEST(CircuitTest, EvaluateStatusReportsFailingNode) {
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  const auto s = c.add(x, y);
  const auto q = c.div(x, s);
  c.mark_output(q);
  const Zp<65537> f;
  const auto bad = c.evaluate_status(f, {3, 65534}, {});  // x + y == 0
  EXPECT_EQ(bad.status.kind(), util::FailureKind::kDivisionByZero);
  EXPECT_EQ(bad.status.stage(), util::Stage::kCircuitEval);
  EXPECT_EQ(bad.failed_node, q);
  // A second evaluation reports the same failure.
  EXPECT_FALSE(c.evaluate_status(f, {3, 65534}, {}).status.ok());
  const auto good = c.evaluate_status(f, {3, 4}, {});
  ASSERT_TRUE(good.status.ok());
  EXPECT_EQ(good.outputs[0], f.div(3, 7));
}

// ---------------------------------------------------------------------------
// Compile-vs-evaluate identity across fields, circuits, batch sizes.

template <class F>
void identity_sweep(const F& f, std::uint64_t seed) {
  struct Named {
    const char* name;
    Circuit c;
  };
  const Named gallery[] = {
      {"solver3", circuit::build_solver_circuit(3)},
      {"inverse3", circuit::build_inverse_circuit(3)},
      {"toeplitz4", circuit::build_toeplitz_charpoly_circuit(4)},
      {"matmul3", circuit::build_matmul_circuit(3)},
      {"transposed3", circuit::build_transposed_solver_circuit(3)},
  };
  util::Prng prng(seed);
  for (const auto& g : gallery) {
    const Tape t = compile(g.c);
    for (std::size_t B : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
      SCOPED_TRACE(std::string(g.name) + " B=" + std::to_string(B));
      const auto l = draw_lanes(f, g.c, B, prng);
      expect_lanes_match(f, g.c, t, l, B);
    }
  }
}

TEST(TapeEval, IdentityZp65537) { identity_sweep(Zp<65537>{}, 1); }
TEST(TapeEval, IdentityGFpP61) { identity_sweep(GFp(field::kP61), 2); }
TEST(TapeEval, IdentityGFpNttPrime) { identity_sweep(GFp(field::kNttPrime), 3); }

// ---------------------------------------------------------------------------
// Worker-count x SIMD-level determinism: same elements AND same op counts.

TEST(TapeEval, WorkerAndSimdLevelDeterminism) {
  LevelGuard lg;
  WorkerGuard wg;
  const Circuit c = circuit::build_solver_circuit(4);
  const Tape t = compile(c);
  const GFp f(field::kP61);
  util::Prng prng(17);
  // 520 lanes = 3 chunks at the 256-lane grain, so multi-chunk dispatch is
  // actually exercised; 256 additionally covers the single-chunk path.
  for (std::size_t B : {std::size_t{256}, std::size_t{520}}) {
    const auto l = draw_lanes(f, c, B, prng);
    std::vector<std::vector<std::uint64_t>> base;
    util::OpCounts base_ops;
    bool have_base = false;
    for (unsigned workers : {1u, 2u, 8u}) {
      pram::ExecutionContext::global().set_worker_limit(workers);
      for (SimdLevel want : kSweep) {
        simd::set_simd_level(want);
        util::OpScope scope;
        const auto res = TapeEvaluator<GFp>(f, t).evaluate(l.in, l.rnd);
        const util::OpCounts ops = scope.counts();
        ASSERT_TRUE(res.status.ok()) << res.status.message();
        if (!have_base) {
          base = res.outputs;
          base_ops = ops;
          have_base = true;
          continue;
        }
        EXPECT_EQ(res.outputs, base)
            << "B=" << B << " workers=" << workers
            << " level=" << to_string(simd::simd_level());
        EXPECT_EQ(ops.add, base_ops.add);
        EXPECT_EQ(ops.mul, base_ops.mul);
        EXPECT_EQ(ops.div, base_ops.div);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Op accounting: a tape batch charges exactly B times the per-node price of
// the live nodes (DCE'd nodes are uncharged -- see DESIGN.md S11).

TEST(TapeEval, AccountingMatchesNodeEvalOnLiveCircuit) {
  // Hand-built circuit with no dead nodes, so node eval and tape charge
  // the same set.
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  const auto s = c.add(x, y);
  const auto p = c.mul(s, x);
  const auto n = c.neg(p);
  const auto q = c.div(n, s);
  c.mark_output(q);
  const Tape t = compile(c);
  ASSERT_EQ(t.num_instrs(), c.size());

  const GFp f(field::kP61);
  const std::size_t B = 64;
  util::Prng prng(5);
  const auto l = draw_lanes(f, c, B, prng);

  util::OpCounts node_total;
  for (std::size_t lane = 0; lane < B; ++lane) {
    util::OpScope scope;
    const auto ref = c.evaluate_status(f, {l.in[0][lane], l.in[1][lane]}, {});
    ASSERT_TRUE(ref.status.ok());
    node_total += scope.counts();
  }
  util::OpScope scope;
  const auto res = TapeEvaluator<GFp>(f, t).evaluate(l.in, l.rnd);
  const util::OpCounts tape_ops = scope.counts();
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(tape_ops.add, node_total.add);
  EXPECT_EQ(tape_ops.mul, node_total.mul);
  EXPECT_EQ(tape_ops.div, node_total.div);
}

// ---------------------------------------------------------------------------
// Failure reporting.

TEST(TapeEval, DivisionByZeroReportsLevelLaneAndNode) {
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  const auto s = c.add(x, y);
  const auto q = c.div(x, s);
  c.mark_output(q);
  const Tape t = compile(c);
  const Zp<65537> f;
  const std::size_t B = 8;
  std::vector<std::uint64_t> xs(B, 3), ys(B, 4);
  ys[5] = 65534;  // lane 5: x + y == 0 mod p
  const auto res = TapeEvaluator<Zp<65537>>(f, t).evaluate({xs, ys}, {});
  EXPECT_EQ(res.status.kind(), util::FailureKind::kDivisionByZero);
  EXPECT_EQ(res.status.stage(), util::Stage::kCircuitEval);
  EXPECT_FALSE(res.status.injected());
  EXPECT_EQ(res.fault.lane, 5u);
  EXPECT_EQ(res.fault.node, q);
  EXPECT_EQ(res.fault.level, 1u);  // the div sits at depth 2 -> level 1
  EXPECT_TRUE(res.outputs.empty());
  // Node-at-a-time evaluation of that lane reports the same node.
  const auto ref = c.evaluate_status(f, {3, 65534}, {});
  EXPECT_EQ(ref.failed_node, res.fault.node);
}

TEST(TapeEval, InvalidArgumentsRejected) {
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  c.mark_output(c.add(x, y));
  const Tape t = compile(c);
  const Zp<65537> f;
  const TapeEvaluator<Zp<65537>> ev(f, t);
  EXPECT_EQ(ev.evaluate({{1}}, {}).status.kind(),
            util::FailureKind::kInvalidArgument);  // arity
  EXPECT_EQ(ev.evaluate({{1, 2}, {3}}, {}).status.kind(),
            util::FailureKind::kInvalidArgument);  // ragged
  EXPECT_EQ(ev.evaluate({{}, {}}, {}).status.kind(),
            util::FailureKind::kInvalidArgument);  // empty batch
}

TEST(TapeEval, PerLaneFaultInjection) {
  if (!KP_FAULT_INJECTION_ENABLED) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  c.mark_output(c.div(x, y));
  const Tape t = compile(c);
  const Zp<65537> f;
  const std::size_t B = 8;
  const std::vector<std::uint64_t> xs(B, 6), ys(B, 3);
  const TapeEvaluator<Zp<65537>> ev(f, t);
  // Site index k within Stage::kCircuitEval is lane k of the (single) div
  // instruction: the pre-scan visits lanes in order on the submitting
  // thread at every worker count.
  for (std::uint32_t k : {0u, 3u, 7u}) {
    util::fault::AttemptScope attempt(1);
    util::fault::ScopedFault fi(util::Stage::kCircuitEval, 1,
                                static_cast<int>(k));
    const auto res = ev.evaluate({xs, ys}, {});
    EXPECT_EQ(res.status.kind(), util::FailureKind::kDivisionByZero);
    EXPECT_TRUE(res.status.injected());
    EXPECT_TRUE(res.fault.injected);
    EXPECT_EQ(res.fault.lane, k);
    EXPECT_EQ(fi.fired(), 1u);
  }
  // Unarmed, the same batch succeeds.
  util::fault::AttemptScope attempt(1);
  const auto ok = ev.evaluate({xs, ys}, {});
  ASSERT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.outputs[0][0], f.div(6, 3));
}

// ---------------------------------------------------------------------------
// Serialization.

TEST(TapeIo, SaveLoadRoundTripByteIdentity) {
  Tape t = compile(circuit::build_inverse_circuit(3));
  util::Prng prng(11);
  ASSERT_TRUE(circuit::add_test_vector(t, 65537, prng).ok());
  ASSERT_TRUE(circuit::add_test_vector(t, field::kP61, prng).ok());

  const std::string bytes = circuit::serialize_tape(t);
  const auto back = circuit::deserialize_tape(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(circuit::serialize_tape(back.value()), bytes);

  const Tape& u = back.value();
  EXPECT_EQ(u.num_instrs(), t.num_instrs());
  EXPECT_EQ(u.num_regs, t.num_regs);
  EXPECT_EQ(u.source_size, t.source_size);
  EXPECT_EQ(u.source_depth, t.source_depth);
  EXPECT_EQ(u.tests.size(), 2u);
  EXPECT_TRUE(circuit::ensure(u).ok());

  // File round trip.
  const std::string path = ::testing::TempDir() + "/kp_tape_roundtrip.bin";
  ASSERT_TRUE(circuit::save_tape(t, path).ok());
  const auto loaded = circuit::load_tape(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(circuit::serialize_tape(loaded.value()), bytes);
  std::remove(path.c_str());
}

TEST(TapeIo, CorruptionRejected) {
  Tape t = compile(circuit::build_solver_circuit(3));
  const std::string bytes = circuit::serialize_tape(t);

  {  // bad magic
    std::string b = bytes;
    b[0] ^= 1;
    EXPECT_FALSE(circuit::deserialize_tape(b).ok());
  }
  {  // truncation
    EXPECT_FALSE(
        circuit::deserialize_tape(bytes.substr(0, bytes.size() / 2)).ok());
    EXPECT_FALSE(circuit::deserialize_tape("").ok());
  }
  {  // checksum: flip one payload byte
    std::string b = bytes;
    b[bytes.size() / 2] ^= 0x40;
    const auto r = circuit::deserialize_tape(b);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().kind(), util::FailureKind::kInvalidArgument);
  }
  {  // structurally invalid but checksum-correct: out-of-range register
    Tape bad = t;
    bad.output_slots[0] = bad.num_regs + 100;
    EXPECT_FALSE(circuit::deserialize_tape(circuit::serialize_tape(bad)).ok());
  }
  {  // non-arithmetic opcode inside a level
    Tape bad = t;
    bad.instrs[0].op = Op::kInput;
    EXPECT_FALSE(circuit::deserialize_tape(circuit::serialize_tape(bad)).ok());
  }
}

TEST(TapeIo, EnsureDetectsTamperedVector) {
  Tape t = compile(circuit::build_toeplitz_charpoly_circuit(3));
  util::Prng prng(23);
  ASSERT_TRUE(circuit::add_test_vector(t, field::kP61, prng).ok());
  ASSERT_TRUE(circuit::ensure(t).ok());

  Tape tampered = t;
  tampered.tests[0].outputs[0] ^= 1;
  const auto st = circuit::ensure(tampered);
  EXPECT_EQ(st.kind(), util::FailureKind::kVerifyMismatch);
  EXPECT_EQ(st.stage(), util::Stage::kCircuitEval);

  // A recorded FAILURE must also reproduce: claim ok on inputs that fail.
  Tape lied = t;
  lied.tests[0].ok = false;  // recorded success relabeled as failure
  EXPECT_EQ(circuit::ensure(lied).kind(), util::FailureKind::kVerifyMismatch);
}

TEST(TapeIo, TestVectorRecordsFailures) {
  // A circuit that always divides by zero: 1 / (x - x).
  Circuit c;
  const auto x = c.input();
  c.mark_output(c.div(c.constant(1), c.sub(x, x)));
  Tape t = compile(c);
  util::Prng prng(31);
  ASSERT_TRUE(circuit::add_test_vector(t, 65537, prng).ok());
  ASSERT_EQ(t.tests.size(), 1u);
  EXPECT_FALSE(t.tests[0].ok);
  EXPECT_TRUE(circuit::ensure(t).ok());  // the failure reproduces
}

}  // namespace
}  // namespace kp
