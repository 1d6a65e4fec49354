// Tests for the circuit framework: arena/eval semantics, the symbolic
// CircuitBuilderField, the Baur-Strassen/Kaltofen-Singer gradient transform
// (Theorem 5), and the Theorem-4/6 circuit builders.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "circuit/derivative.h"
#include "circuit/field.h"
#include "core/baselines.h"
#include "field/zp.h"
#include "matrix/gauss.h"
#include "util/prng.h"

namespace kp {
namespace {

using circuit::Accumulation;
using circuit::Circuit;
using circuit::CircuitBuilderField;
using circuit::NodeId;
using field::Zp;
using matrix::Matrix;

using F = Zp<1000003>;
F f;

// ---------------------------------------------------------------------------
// Arena basics.

TEST(CircuitTest, SizeDepthAndEval) {
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  const auto s = c.add(x, y);
  const auto p = c.mul(s, s);
  c.mark_output(p);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.depth(), 2u);
  EXPECT_EQ(c.num_inputs(), 2u);
  auto res = c.evaluate_status(f, {3, 4}, {});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs, std::vector<F::Element>{49});
}

TEST(CircuitTest, DivisionByZeroIsTheFailureEvent) {
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  c.mark_output(c.div(x, y));
  EXPECT_FALSE(c.evaluate_status(f, {5, 0}, {}).status.ok());
  auto ok = c.evaluate_status(f, {10, 5}, {});
  ASSERT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.outputs[0], 2u);
}

TEST(CircuitTest, RandomLeavesConsumeRandomValues) {
  Circuit c;
  const auto x = c.input();
  const auto r = c.random_element();
  c.mark_output(c.mul(x, r));
  EXPECT_EQ(c.num_randoms(), 1u);
  auto res = c.evaluate_status(f, {7}, {6});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs[0], 42u);
}

TEST(CircuitTest, ConstantsMaterializeViaFromInt) {
  Circuit c;
  const auto x = c.input();
  c.mark_output(c.add(x, c.constant(-3)));
  auto res = c.evaluate_status(f, {1}, {});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs[0], f.from_int(-2));
}

// ---------------------------------------------------------------------------
// Symbolic field.

TEST(BuilderFieldTest, PeepholesKeepTrivialOpsFree) {
  Circuit c;
  CircuitBuilderField cf(c);
  util::Prng prng(1);
  const auto x = c.input();
  EXPECT_EQ(cf.add(x, cf.zero()), x);
  EXPECT_EQ(cf.mul(x, cf.one()), x);
  EXPECT_EQ(cf.mul(x, cf.zero()), cf.zero());
  EXPECT_EQ(cf.sub(x, x), cf.zero());
  EXPECT_EQ(cf.div(x, cf.one()), x);
  EXPECT_EQ(c.size(), 0u);  // nothing recorded
  // Constant folding.
  EXPECT_TRUE(cf.eq(cf.add(cf.from_int(2), cf.from_int(3)), cf.from_int(5)));
  EXPECT_EQ(c.size(), 0u);
}

TEST(BuilderFieldTest, RecordedProgramMatchesDirectEvaluation) {
  Circuit c;
  CircuitBuilderField cf(c);
  const auto a = c.input();
  const auto b = c.input();
  // (a + b) * (a - b) + a / b
  const auto expr = cf.add(cf.mul(cf.add(a, b), cf.sub(a, b)), cf.div(a, b));
  c.mark_output(expr);
  auto res = c.evaluate_status(f, {10, 2}, {});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs[0], f.add(f.mul(12, 8), 5));
}

TEST(BuilderFieldTest, BerkowitzRecordsDivisionFreeDetCircuit) {
  // Berkowitz is generic over a commutative ring, so it runs over the
  // symbolic field and must record NO division nodes.
  const std::size_t n = 4;
  Circuit c;
  CircuitBuilderField cf(c);
  Matrix<CircuitBuilderField> a(n, n, cf.zero());
  for (auto& e : a.data()) e = c.input();
  auto p = core::charpoly_berkowitz(cf, a);
  // det = (-1)^n p(0) = p[0] for n = 4.
  c.mark_output(p[0]);
  for (const auto& node : c.nodes()) {
    EXPECT_NE(node.op, circuit::Op::kDiv);
  }
  // Evaluate and compare against Gaussian elimination.
  util::Prng prng(2);
  auto m = matrix::random_matrix(f, n, n, prng);
  std::vector<F::Element> in(m.data().begin(), m.data().end());
  auto res = c.evaluate_status(f, in, {});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs[0], matrix::det_gauss(f, m));
}

// ---------------------------------------------------------------------------
// Gradient transform (Theorem 5).

TEST(GradientTest, ProductRule) {
  // f = x*y + z: df/dx = y, df/dy = x, df/dz = 1.
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  const auto z = c.input();
  c.mark_output(c.add(c.mul(x, y), z));
  auto g = circuit::gradient(c);
  auto res = g.evaluate_status(f, {3, 5, 11}, {});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs, (std::vector<F::Element>{26, 5, 3, 1}));
}

TEST(GradientTest, QuotientRule) {
  // f = x/y: df/dx = 1/y, df/dy = -x/y^2.
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  c.mark_output(c.div(x, y));
  auto g = circuit::gradient(c);
  util::Prng prng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto xv = f.random(prng);
    auto yv = f.random(prng);
    if (f.is_zero(yv)) yv = f.one();
    auto res = g.evaluate_status(f, {xv, yv}, {});
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.outputs[0], f.div(xv, yv));
    EXPECT_EQ(res.outputs[1], f.inv(yv));
    EXPECT_EQ(res.outputs[2], f.neg(f.div(xv, f.mul(yv, yv))));
  }
}

TEST(GradientTest, PowerByRepeatedSquaring) {
  // f = x^8 via three squarings: df/dx = 8 x^7.
  Circuit c;
  const auto x = c.input();
  auto p = x;
  for (int i = 0; i < 3; ++i) p = c.mul(p, p);
  c.mark_output(p);
  auto g = circuit::gradient(c);
  const F::Element xv = 7;
  auto res = g.evaluate_status(f, {xv}, {});
  ASSERT_TRUE(res.status.ok());
  // 8 * 7^7 mod p.
  auto x7 = f.one();
  for (int i = 0; i < 7; ++i) x7 = f.mul(x7, xv);
  EXPECT_EQ(res.outputs[1], f.mul(8, x7));
}

TEST(GradientTest, UnusedInputGetsZeroGradient) {
  Circuit c;
  const auto x = c.input();
  c.input();  // y: unused
  c.mark_output(c.mul(x, x));
  auto g = circuit::gradient(c);
  auto res = g.evaluate_status(f, {5, 9}, {});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs[2], f.zero());
}

TEST(GradientTest, DetGradientIsTransposedAdjugate) {
  // d det / d a_ij = adj(A)_ji; via the division-free Berkowitz det circuit.
  const std::size_t n = 4;
  Circuit c;
  CircuitBuilderField cf(c);
  Matrix<CircuitBuilderField> a(n, n, cf.zero());
  for (auto& e : a.data()) e = c.input();
  auto p = core::charpoly_berkowitz(cf, a);
  c.mark_output(p[0]);  // det for even n
  auto g = circuit::gradient(c);

  util::Prng prng(4);
  auto m = matrix::random_matrix(f, n, n, prng);
  auto inv = matrix::inverse_gauss(f, m);
  ASSERT_TRUE(inv.has_value());
  const auto det = matrix::det_gauss(f, m);
  auto res = g.evaluate_status(f, {m.data().begin(), m.data().end()}, {});
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.outputs[0], det);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // adj(A)_ji = det * (A^{-1})_ji.
      const auto adj_ji = f.mul(det, inv->at(j, i));
      EXPECT_EQ(res.outputs[1 + i * n + j], adj_ji) << i << "," << j;
    }
  }
}

TEST(GradientTest, LengthWithinTheoremBound) {
  // Theorem 5: length(Q) <= 4 * length(P) (+ output bookkeeping).
  for (std::size_t n : {2u, 4u, 6u}) {
    auto p = circuit::build_matmul_circuit(n);
    // Sum the outputs into a scalar so the gradient is defined.
    Circuit c = p;
    const auto outs = c.outputs();
    c.clear_outputs();
    NodeId acc = outs[0];
    for (std::size_t i = 1; i < outs.size(); ++i) acc = c.add(acc, outs[i]);
    c.mark_output(acc);
    auto g = circuit::gradient(c);
    EXPECT_LE(g.size(), 4 * c.size() + 2) << n;
  }
}

TEST(GradientTest, BalancedAccumulationBeatsLinearDepth) {
  // f = prod_i (x + c_i) computed as a BALANCED product tree (depth log t):
  // input x has fan-out t, so the naive adjoint accumulation costs depth
  // ~t while the balanced one stays ~log t (Figure 3 / Hoover).
  const std::size_t t = 64;
  Circuit c;
  const auto x = c.input();
  std::vector<NodeId> layer;
  for (std::size_t i = 1; i <= t; ++i) {
    layer.push_back(c.add(x, c.constant(static_cast<std::int64_t>(i))));
  }
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(c.mul(layer[i], layer[i + 1]));
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  c.mark_output(layer[0]);
  auto glin = circuit::gradient(c, Accumulation::kLinear);
  auto gbal = circuit::gradient(c, Accumulation::kBalanced);
  EXPECT_GT(glin.depth(), 2 * gbal.depth());
  // Both compute the same values.
  auto r1 = glin.evaluate_status(f, {17}, {});
  auto r2 = gbal.evaluate_status(f, {17}, {});
  ASSERT_TRUE(r1.status.ok() && r2.status.ok());
  EXPECT_EQ(r1.outputs, r2.outputs);
}

TEST(GradientTest, NoNewZeroDivisions) {
  // The gradient circuit divides only by what the original divides by:
  // evaluations that succeed on P succeed on Q.
  Circuit c;
  const auto x = c.input();
  const auto y = c.input();
  c.mark_output(c.div(c.mul(x, x), c.add(y, c.constant(1))));
  auto g = circuit::gradient(c);
  util::Prng prng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto xv = f.random(prng);
    const auto yv = f.random(prng);
    const bool p_ok = c.evaluate_status(f, {xv, yv}, {}).status.ok();
    const bool q_ok = g.evaluate_status(f, {xv, yv}, {}).status.ok();
    EXPECT_EQ(p_ok, q_ok);
  }
}

// ---------------------------------------------------------------------------
// Theorem-4/6 circuit builders.

/// Evaluates a randomized circuit, retrying with fresh random leaf values
/// until it avoids the division-by-zero event.
template <class FieldT>
Circuit::EvalResult<FieldT> eval_with_randoms(
    const Circuit& c, const FieldT& fld,
    const std::vector<typename FieldT::Element>& in, util::Prng& prng,
    int attempts = 5) {
  Circuit::EvalResult<FieldT> res;
  for (int k = 0; k < attempts; ++k) {
    std::vector<typename FieldT::Element> rnd(c.num_randoms());
    for (auto& e : rnd) e = fld.sample(prng, 1u << 20);
    res = c.evaluate_status(fld, in, rnd);
    if (res.status.ok()) return res;
  }
  return res;
}

TEST(BuildersTest, SolverCircuitSolvesSystems) {
  util::Prng prng(6);
  for (std::size_t n : {1u, 2u, 3u, 5u}) {
    auto c = circuit::build_solver_circuit(n);
    EXPECT_EQ(c.num_inputs(), n * n + n);
    EXPECT_EQ(c.num_outputs(), n);
    auto a = matrix::random_matrix(f, n, n, prng);
    if (f.is_zero(matrix::det_gauss(f, a))) continue;
    std::vector<F::Element> x(n);
    for (auto& e : x) e = f.random(prng);
    auto b = matrix::mat_vec(f, a, x);
    std::vector<F::Element> in(a.data().begin(), a.data().end());
    in.insert(in.end(), b.begin(), b.end());
    auto res = eval_with_randoms(c, f, in, prng);
    ASSERT_TRUE(res.status.ok()) << n;
    EXPECT_EQ(res.outputs, x) << n;
  }
}

TEST(BuildersTest, SolverCircuitUsesLinearlyManyRandoms) {
  // Theorem 4: O(n) random nodes (here: 2n-1 Hankel + n diagonal + 2n
  // projections = 5n - 1).
  for (std::size_t n : {2u, 4u, 8u}) {
    auto c = circuit::build_solver_circuit(n);
    EXPECT_EQ(c.num_randoms(), 5 * n - 1) << n;
  }
}

TEST(BuildersTest, SolverCircuitFailsOnSingularInput) {
  const std::size_t n = 3;
  auto c = circuit::build_solver_circuit(n);
  // Rank-1 A: the circuit must divide by zero (Theorem 4's guarantee).
  Matrix<F> a(n, n, f.zero());
  util::Prng prng(7);
  for (std::size_t j = 0; j < n; ++j) {
    a.at(0, j) = f.random(prng);
    a.at(1, j) = f.mul(a.at(0, j), 2);
    a.at(2, j) = f.mul(a.at(0, j), 3);
  }
  std::vector<F::Element> in(a.data().begin(), a.data().end());
  std::vector<F::Element> b{1, 2, 3};
  in.insert(in.end(), b.begin(), b.end());
  auto res = eval_with_randoms(c, f, in, prng);
  EXPECT_FALSE(res.status.ok());
}

TEST(BuildersTest, DetCircuitMatchesGauss) {
  util::Prng prng(8);
  for (std::size_t n : {1u, 2u, 4u}) {
    auto c = circuit::build_det_circuit(n);
    auto a = matrix::random_matrix(f, n, n, prng);
    if (f.is_zero(matrix::det_gauss(f, a))) continue;
    auto res = eval_with_randoms(c, f, {a.data().begin(), a.data().end()}, prng);
    ASSERT_TRUE(res.status.ok()) << n;
    EXPECT_EQ(res.outputs[0], matrix::det_gauss(f, a)) << n;
  }
}

TEST(BuildersTest, InverseCircuitMatchesGauss) {
  // Theorem 6 end-to-end: differentiate the det circuit, divide by det.
  util::Prng prng(9);
  for (std::size_t n : {1u, 2u, 3u}) {
    auto c = circuit::build_inverse_circuit(n);
    EXPECT_EQ(c.num_inputs(), n * n);
    EXPECT_EQ(c.num_outputs(), n * n);
    auto a = matrix::random_matrix(f, n, n, prng);
    auto inv = matrix::inverse_gauss(f, a);
    if (!inv) continue;
    auto res = eval_with_randoms(c, f, {a.data().begin(), a.data().end()}, prng);
    ASSERT_TRUE(res.status.ok()) << n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(res.outputs[i * n + j], inv->at(i, j)) << n << ":" << i << "," << j;
      }
    }
  }
}

TEST(BuildersTest, TransposedSolverCircuit) {
  util::Prng prng(10);
  const std::size_t n = 3;
  auto c = circuit::build_transposed_solver_circuit(n);
  EXPECT_EQ(c.num_outputs(), n);
  auto a = matrix::random_matrix(f, n, n, prng);
  if (f.is_zero(matrix::det_gauss(f, a))) GTEST_SKIP();
  std::vector<F::Element> b(n);
  for (auto& e : b) e = f.random(prng);
  // Inputs: A row-major, then x-slot (unused values fine: gradient does not
  // depend on x), then b.
  std::vector<F::Element> in(a.data().begin(), a.data().end());
  std::vector<F::Element> xdummy(n, f.one());
  in.insert(in.end(), xdummy.begin(), xdummy.end());
  in.insert(in.end(), b.begin(), b.end());
  auto res = eval_with_randoms(c, f, in, prng);
  ASSERT_TRUE(res.status.ok());
  // res.outputs solves A^T y = b.
  auto check = matrix::mat_vec(f, matrix::mat_transpose(f, a), res.outputs);
  EXPECT_EQ(check, b);
}

TEST(BuildersTest, ToeplitzCharpolyCircuit) {
  util::Prng prng(11);
  for (std::size_t n : {1u, 2u, 4u}) {
    auto c = circuit::build_toeplitz_charpoly_circuit(n);
    EXPECT_EQ(c.num_inputs(), 2 * n - 1);
    EXPECT_EQ(c.num_outputs(), n + 1);
    std::vector<F::Element> diag(2 * n - 1);
    for (auto& v : diag) v = f.random(prng);
    matrix::Toeplitz<F> t(n, diag);
    auto res = c.evaluate_status(f, diag, {});
    ASSERT_TRUE(res.status.ok()) << n;
    EXPECT_EQ(res.outputs, seq::toeplitz_charpoly(f, t)) << n;
  }
}

TEST(BuildersTest, NttStructuredCircuitEvaluatesCorrectly) {
  // Circuits built for an NTT-friendly target field route polynomial
  // products through the symbolic NTT (roots of unity as constants); the
  // recorded program must still evaluate to the exact answer over that
  // field, and only over it.
  field::GFp fq(field::kNttPrime);
  util::Prng prng(77);
  for (std::size_t n : {8u, 12u}) {  // big enough that the NTT path engages
    auto c = circuit::build_toeplitz_charpoly_circuit(n, field::kNttPrime);
    std::vector<field::GFp::Element> diag(2 * n - 1);
    for (auto& v : diag) v = fq.random(prng);
    matrix::Toeplitz<field::GFp> t(n, diag);
    auto res = c.evaluate_status(fq, diag, {});
    ASSERT_TRUE(res.status.ok()) << n;
    EXPECT_EQ(res.outputs, seq::toeplitz_charpoly(fq, t)) << n;
  }
}

TEST(BuildersTest, DetAndSolverCircuitsArePinned) {
  // The recorded Theorem-4 programs, node for node.  A depth ratio alone
  // cannot tell an O(n)-deep step (e.g. a sequential det(H)) leaking into
  // the depth_optimal build from polylog growth at these sizes; exact size
  // and depth can.  Any intended change to the circuits must update these.
  struct Pin {
    std::size_t n, det_size, det_depth, solver_size, solver_depth;
  };
  for (const Pin& p : {Pin{4, 8590, 79, 8757, 88},
                       Pin{8, 159778, 131, 160973, 142}}) {
    const auto det = circuit::build_det_circuit(p.n);
    const auto solver = circuit::build_solver_circuit(p.n);
    EXPECT_EQ(det.size(), p.det_size) << p.n;
    EXPECT_EQ(det.depth(), p.det_depth) << p.n;
    EXPECT_EQ(solver.size(), p.solver_size) << p.n;
    EXPECT_EQ(solver.depth(), p.solver_depth) << p.n;
  }
}

TEST(BuildersTest, SolverCircuitDepthIsPolylog) {
  // The depth should grow far slower than the size: check that depth at
  // n=8 stays within a small factor of depth at n=4 while size grows ~8x.
  auto c4 = circuit::build_solver_circuit(4);
  auto c8 = circuit::build_solver_circuit(8);
  EXPECT_GT(c8.size(), 4 * c4.size());
  EXPECT_LT(c8.depth(), 3 * c4.depth());
}

}  // namespace
}  // namespace kp
