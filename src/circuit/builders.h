// Builders for the paper's circuits.
//
// Each builder runs the generic pipeline over the symbolic
// CircuitBuilderField, so the returned Circuit *is* the randomized algebraic
// circuit whose size/depth/randomness Theorems 4 and 6 bound:
//
//   * build_solver_circuit     -- Theorem 4: inputs (A, b), outputs A^{-1}b.
//   * build_det_circuit        -- the auxiliary determinant circuit.
//   * build_inverse_circuit    -- Theorem 6: gradient of the det circuit,
//                                 A^{-1} = (d det/d a_ji) / det.
//   * build_transposed_solver_circuit -- the section-4 application: from a
//                                 solver circuit, a circuit for (A^T)^{-1} b
//                                 at 4x length and O(1)x depth.
//   * build_matmul_circuit / build_toeplitz_charpoly_circuit -- corpus
//                                 pieces for the E5/E7 experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/derivative.h"
#include "circuit/field.h"
#include "core/solver.h"
#include "matrix/dense.h"
#include "matrix/structured.h"
#include "seq/newton_toeplitz.h"
#include "util/prng.h"

namespace kp::circuit {

namespace detail {

/// n x n matrix of fresh input nodes, row-major (the input order contract
/// of every builder below).
inline matrix::Matrix<CircuitBuilderField> input_matrix(
    const CircuitBuilderField& cf, std::size_t rows, std::size_t cols) {
  matrix::Matrix<CircuitBuilderField> a(rows, cols, cf.zero());
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a.at(i, j) = cf.circuit().input();
  }
  return a;
}

inline std::vector<NodeId> input_vector(const CircuitBuilderField& cf,
                                        std::size_t n) {
  std::vector<NodeId> v(n);
  for (auto& e : v) e = cf.circuit().input();
  return v;
}

/// Solver options for circuit building: single attempt, no Las Vegas
/// verification (the circuit is straight-line), depth-optimal finishes.
inline core::SolverOptions circuit_options() {
  core::SolverOptions opt;
  opt.max_attempts = 1;
  opt.verify = false;
  opt.depth_optimal = true;
  opt.newton = seq::NewtonIdentityMethod::kPowerSeriesExp;
  return opt;
}

}  // namespace detail

/// Theorem 4: circuit with n^2 + n inputs (A row-major, then b), n outputs
/// (the entries of A^{-1} b), and O(n) random nodes.
inline Circuit build_solver_circuit(std::size_t n,
                                    std::uint64_t characteristic = 0) {
  Circuit c;
  CircuitBuilderField cf(c, characteristic);
  const auto a = detail::input_matrix(cf, n, n);
  const auto b = detail::input_vector(cf, n);
  kp::util::Prng prng(0);  // never consumed: random() makes kRandom leaves
  const auto res = core::kp_solve(cf, a, b, prng, detail::circuit_options());
  for (NodeId id : res.x) c.mark_output(id);
  return c;
}

/// The determinant circuit underlying Theorem 6: n^2 inputs, 1 output
/// det(A), O(n) random nodes.
inline Circuit build_det_circuit(std::size_t n,
                                 std::uint64_t characteristic = 0) {
  Circuit c;
  CircuitBuilderField cf(c, characteristic);
  const auto a = detail::input_matrix(cf, n, n);
  kp::util::Prng prng(0);
  const auto res = core::kp_det(cf, a, prng, detail::circuit_options());
  c.mark_output(res.det);
  return c;
}

/// Theorem 6: the inverse circuit, obtained by differentiating the
/// determinant circuit (Theorem 5) and dividing by the determinant:
///   (A^{-1})_{ij} = (d det / d a_{ji}) / det.
/// n^2 inputs, n^2 outputs (row-major A^{-1}).
inline Circuit build_inverse_circuit(std::size_t n,
                                     std::uint64_t characteristic = 0,
                                     Accumulation style = Accumulation::kBalanced) {
  Circuit det = build_det_circuit(n, characteristic);
  Circuit grad = gradient(det, style);  // outputs: [det, d det/d a_00, ...]
  const auto outs = grad.outputs();     // copy: we re-mark below
  const NodeId det_node = outs[0];
  grad.clear_outputs();
  // Gradient outputs follow the input (row-major) order of A; the inverse
  // needs the TRANSPOSED cofactor: (A^{-1})_{ij} = (d det / d a_{ji}) / det.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const NodeId d_ji = outs[1 + j * n + i];
      grad.mark_output(grad.div(d_ji, det_node));
    }
  }
  return grad;
}

/// Section 4: from the Theorem-4 solver circuit, a circuit for the
/// TRANSPOSED system (A^T)^{-1} b.  Construction: f(x) = b^T (A^{-1} x) is
/// computed with the given circuit plus one inner product; its gradient in
/// x is (A^{-1})^T b = (A^T)^{-1} b.  Inputs: A (row-major), then b.
inline Circuit build_transposed_solver_circuit(
    std::size_t n, std::uint64_t characteristic = 0,
    Accumulation style = Accumulation::kBalanced) {
  Circuit c;
  CircuitBuilderField cf(c, characteristic);
  const auto a = detail::input_matrix(cf, n, n);
  // x: the differentiation variables (solver's right-hand side).
  const auto x = detail::input_vector(cf, n);
  kp::util::Prng prng(0);
  const auto res = core::kp_solve(cf, a, x, prng, detail::circuit_options());
  // b enters only linearly, as coefficients of the inner product.
  const auto b = detail::input_vector(cf, n);
  const NodeId fval = matrix::dot(cf, b, res.x);
  c.mark_output(fval);

  Circuit grad = gradient(c, style);
  // Keep only the gradients w.r.t. x (input slots n^2 .. n^2+n-1).
  const auto outs = grad.outputs();
  grad.clear_outputs();
  for (std::size_t i = 0; i < n; ++i) {
    grad.mark_output(outs[1 + n * n + i]);
  }
  return grad;
}

/// Classical n^3 matrix-product circuit: inputs A then B (row-major),
/// outputs A*B row-major.  Corpus piece for the derivative experiments.
inline Circuit build_matmul_circuit(std::size_t n) {
  Circuit c;
  CircuitBuilderField cf(c);
  const auto a = detail::input_matrix(cf, n, n);
  const auto b = detail::input_matrix(cf, n, n);
  const auto prod = matrix::mat_mul(cf, a, b);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) c.mark_output(prod.at(i, j));
  }
  return c;
}

/// Theorem-3 circuit: inputs are the 2n-1 diagonals of a Toeplitz matrix,
/// outputs the n+1 coefficients of its characteristic polynomial.
inline Circuit build_toeplitz_charpoly_circuit(std::size_t n,
                                               std::uint64_t characteristic = 0) {
  Circuit c;
  CircuitBuilderField cf(c, characteristic);
  const auto diag = detail::input_vector(cf, 2 * n - 1);
  matrix::Toeplitz<CircuitBuilderField> t(n, diag);
  const auto p =
      seq::toeplitz_charpoly(cf, t, seq::NewtonIdentityMethod::kPowerSeriesExp);
  for (NodeId id : p) c.mark_output(id);
  return c;
}

}  // namespace kp::circuit
