// The Krylov doubling step -- equation (9) of the paper.
//
//   A^{2^i} (v  Av  ...  A^{2^i - 1} v) = (A^{2^i} v  ...  A^{2^{i+1}-1} v)
//
// Repeated squaring of A (krylov_powers) followed by block products
// (krylov_block) produces the Krylov block (v, Av, ..., A^{count-1} v) in
// O(log count) matrix products, i.e. O(n^omega log n) work and O(log^2 n)
// depth -- this is where the pipeline earns its processor efficiency over
// the naive 2n sequential matrix-vector products (route (8), which
// krylov_block_iterative provides for black-box operators whose products
// are cheaper than dense ones).  The squares depend on A alone, so every
// block of one operator can share them.
//
// The 2n projected terms u A^i v need a block only n columns wide: the
// first n project (v ... A^{n-1} v) on u, the next n on w = u A^n, so the
// sequence stops one squaring short of A^n.  The doubling buys depth, not
// work: route (8) on a dense operator costs about 6n^3 operations against
// the squarings' 2n^3 each.  KrylovRoute names the two routes; the
// Theorem-4 Transcript (core/solver.h) takes the doubling only for a dense
// operator under depth_optimal (the circuits).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "matrix/matmul.h"
#include "pram/parallel_for.h"
#include "util/status.h"

namespace kp::core {

/// Precondition of the Krylov block builders: square operator, matching
/// start vector.  Entry points return an EMPTY block (0 x 0) on violation
/// instead of asserting, so release builds reject malformed inputs; callers
/// that want the reason use this validator directly.
template <kp::field::Field F>
util::Status validate_krylov_input(const F&, std::size_t rows,
                                   std::size_t cols, std::size_t vec) {
  if (rows != cols) {
    return util::Status::Fail(util::FailureKind::kInvalidArgument,
                              util::Stage::kProjection, "A must be square");
  }
  if (rows != vec) {
    return util::Status::Fail(util::FailureKind::kInvalidArgument,
                              util::Stage::kProjection, "dim(v) != dim(A)");
  }
  return util::Status::Ok();
}

/// Which route produced the Krylov data of a Theorem-4 run: derived from
/// the operator's structure and the depth goal (Transcript in
/// core/solver.h), reported in SolveResult::route_used.
enum class KrylovRoute {
  kDoubling,   ///< equation (9): O(log n) matrix products
  kIterative,  ///< route (8): 2n black-box products
};

/// How many powers A^{2^j}, j = 0, 1, ..., a count-column doubling block
/// multiplies by: the block doubles from 1 column per product, so the last
/// power it needs is A^{2^{ceil(log2 count) - 1}}.  At least 1 (A itself).
inline std::size_t krylov_power_count(std::size_t count) {
  std::size_t k = 1;
  for (std::size_t cols = 2; cols < count; cols *= 2) ++k;
  return k;
}

/// The repeated squares of the doubling step: A^{2^j} for
/// j < krylov_power_count(count), i.e. every power a count-column block
/// multiplies by.  A caller that builds several blocks of the same operator
/// squares once and hands the powers to the stored-powers krylov_block or
/// krylov_sequence_doubling.
/// Returns an empty vector when A is not square.
template <kp::field::Field F>
std::vector<matrix::Matrix<F>> krylov_powers(
    const F& f, matrix::Matrix<F> a, std::size_t count,
    matrix::MatMulStrategy strategy = matrix::MatMulStrategy::kClassical) {
  if (!validate_krylov_input(f, a.rows(), a.cols(), a.rows()).ok()) return {};
  std::vector<matrix::Matrix<F>> powers;
  powers.push_back(std::move(a));
  while (powers.size() < krylov_power_count(count)) {
    powers.push_back(matrix::mat_mul(f, powers.back(), powers.back(), strategy));
  }
  return powers;
}

/// Returns the n x count Krylov block K with K(:, i) = A^i v, built by
/// doubling from stored powers (powers[j] = A^{2^j}, as krylov_powers
/// returns them): O(log count) block products and no squaring.  Returns an
/// empty block on a malformed input, including too few powers for count.
template <kp::field::Field F>
matrix::Matrix<F> krylov_block(const F& f,
                               const std::vector<matrix::Matrix<F>>& powers,
                               const std::vector<typename F::Element>& v,
                               std::size_t count,
                               matrix::MatMulStrategy strategy =
                                   matrix::MatMulStrategy::kClassical) {
  if (powers.size() < krylov_power_count(count) ||
      !validate_krylov_input(f, powers[0].rows(), powers[0].cols(), v.size())
           .ok()) {
    return matrix::Matrix<F>(0, 0, f.zero());
  }
  const std::size_t n = powers[0].rows();
  if (count == 0) return matrix::Matrix<F>(n, 0, f.zero());
  matrix::Matrix<F> block(n, 1, f.zero());
  for (std::size_t i = 0; i < n; ++i) block.at(i, 0) = v[i];
  for (std::size_t j = 0; block.cols() < count; ++j) {
    // [block | A^{2^j} * block], the last level multiplying only the
    // count - cols columns still missing.  The merge copies disjoint rows,
    // so it runs on the pooled ExecutionContext for large blocks.
    const std::size_t cols = block.cols();
    const std::size_t ext_cols = std::min(cols, count - cols);
    matrix::Matrix<F> ext;
    if (ext_cols == cols) {
      ext = matrix::mat_mul(f, powers[j], block, strategy);
    } else {
      ext = matrix::mat_mul(
          f, powers[j], matrix::detail::submatrix(f, block, 0, 0, n, ext_cols),
          strategy);
    }
    matrix::Matrix<F> merged(n, cols + ext_cols, f.zero());
    auto merge_row = [&](std::size_t i) {
      for (std::size_t c = 0; c < cols; ++c) merged.at(i, c) = block.at(i, c);
      for (std::size_t c = 0; c < ext_cols; ++c) {
        merged.at(i, cols + c) = ext.at(i, c);
      }
    };
    if (kp::field::concurrent_ops_v<F> && n * cols >= matrix::kParallelGrain) {
      kp::pram::parallel_for(0, n, merge_row);
    } else {
      for (std::size_t i = 0; i < n; ++i) merge_row(i);
    }
    block = std::move(merged);
  }
  return block;
}

/// The same block for a single use: squares A as the count needs, then
/// builds the block from those powers.
template <kp::field::Field F>
matrix::Matrix<F> krylov_block(const F& f, const matrix::Matrix<F>& a,
                               const std::vector<typename F::Element>& v,
                               std::size_t count,
                               matrix::MatMulStrategy strategy =
                                   matrix::MatMulStrategy::kClassical) {
  if (!validate_krylov_input(f, a.rows(), a.cols(), v.size()).ok()) {
    return matrix::Matrix<F>(0, 0, f.zero());
  }
  return krylov_block(f, krylov_powers(f, a, count, strategy), v, count,
                      strategy);
}

/// The same n x count Krylov block built with count-1 black-box products
/// (route (8)) -- the right choice when one product costs o(n^2), e.g.
/// O(nnz) sparse or O(M(n)) structured operators.
template <kp::field::Field F, matrix::LinOp B>
matrix::Matrix<F> krylov_block_iterative(const F& f, const B& box,
                                         const std::vector<typename F::Element>& v,
                                         std::size_t count) {
  if (!validate_krylov_input(f, box.dim(), box.dim(), v.size()).ok()) {
    return matrix::Matrix<F>(0, 0, f.zero());
  }
  const std::size_t n = box.dim();
  matrix::Matrix<F> block(n, count ? count : 1, f.zero());
  auto x = v;
  for (std::size_t j = 0; j < count; ++j) {
    if (j) x = box.apply(x);
    for (std::size_t i = 0; i < n; ++i) block.at(i, j) = x[i];
  }
  return block;
}

/// The projected sequence a_i = u A^i v, i < count, from stored powers
/// (powers[j] = A^{2^j}).  One block K = (v, Av, ..., A^{h-1} v), h =
/// ceil(count/2), serves both halves: a_i = u K(:, i) and a_{h+i} =
/// w K(:, i) with w = u A^h, formed by vector-matrix products over the
/// powers.  So count terms need only krylov_power_count(h) powers -- one
/// squaring fewer than a count-column block -- and no n x count block.  On
/// the circuit, w's products run beside the block's last level.  Returns an
/// empty sequence on a malformed input, including too few powers for h.
template <kp::field::Field F>
std::vector<typename F::Element> krylov_sequence_doubling(
    const F& f, const std::vector<matrix::Matrix<F>>& powers,
    const std::vector<typename F::Element>& u,
    const std::vector<typename F::Element>& v, std::size_t count,
    matrix::MatMulStrategy strategy = matrix::MatMulStrategy::kClassical) {
  const std::size_t h = (count + 1) / 2;
  if (count == 0 || powers.size() < krylov_power_count(h) ||
      u.size() != v.size() ||
      !validate_krylov_input(f, powers[0].rows(), powers[0].cols(), v.size())
           .ok()) {
    return {};
  }
  const auto block = krylov_block(f, powers, v, h, strategy);
  auto seq = matrix::vec_mat(f, u, block);
  if (count > h) {
    // w = u A^h over the binary digits of h, low powers first (they are
    // squared earliest).  The powers reach A^{2^top} >= A^{h/2}, so what is
    // left above the low digits is A^{2^top} once or twice.
    const std::size_t top = powers.size() - 1;
    auto w = u;
    for (std::size_t j = 0; j < top; ++j) {
      if ((h >> j) & 1) w = matrix::vec_mat(f, w, powers[j]);
    }
    for (std::size_t r = h >> top; r > 0; --r) {
      w = matrix::vec_mat(f, w, powers[top]);
    }
    // An odd count drops the last of these h terms.
    const auto tail = matrix::vec_mat(f, w, block);
    seq.insert(seq.end(), tail.begin(),
               tail.begin() + static_cast<std::ptrdiff_t>(count - h));
  }
  return seq;
}

/// The same sequence for a single use: squares A as ceil(count/2) columns
/// need, then projects from those powers.
template <kp::field::Field F>
std::vector<typename F::Element> krylov_sequence_doubling(
    const F& f, const matrix::Matrix<F>& a,
    const std::vector<typename F::Element>& u,
    const std::vector<typename F::Element>& v, std::size_t count,
    matrix::MatMulStrategy strategy = matrix::MatMulStrategy::kClassical) {
  return krylov_sequence_doubling(
      f, krylov_powers(f, a, (count + 1) / 2, strategy), u, v, count, strategy);
}

/// K * c for a Krylov block K: evaluates (sum_i c_i A^i) v from the block
/// columns -- the Cayley-Hamilton finish of the Theorem-4 solver.  Rows are
/// contiguous, so word-sized prime fields take the fused delayed-reduction
/// dot (same canonical values, same per-row mul/add charges).
template <kp::field::Field F>
std::vector<typename F::Element> krylov_combine(
    const F& f, const matrix::Matrix<F>& block,
    const std::vector<typename F::Element>& coeffs) {
  if (coeffs.size() > block.cols()) return {};  // malformed: block too narrow
  std::vector<typename F::Element> out(block.rows(), f.zero());
  if constexpr (kp::field::kernels::FastField<F>) {
    for (std::size_t i = 0; i < block.rows(); ++i) {
      out[i] = kp::field::kernels::dot(f, block.row(i), coeffs.data(),
                                       coeffs.size());
    }
    return out;
  }
  std::vector<typename F::Element> terms;
  terms.reserve(coeffs.size());
  for (std::size_t i = 0; i < block.rows(); ++i) {
    terms.clear();
    for (std::size_t j = 0; j < coeffs.size(); ++j) {
      terms.push_back(f.mul(block.at(i, j), coeffs[j]));
    }
    out[i] = matrix::balanced_sum(f, terms);
  }
  return out;
}

}  // namespace kp::core
