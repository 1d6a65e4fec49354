// Matrix Berlekamp-Massey via sigma-basis (order basis) computation.
//
// The block-Wiedemann route (core/block_krylov.h) projects the Krylov space
// through n x b blocks and needs the minimal *matrix* generating polynomial
// of the b x b sequence S_i = U A^i V -- the block analogue of the scalar
// Berlekamp-Massey in seq/berlekamp_massey.h.  We compute it as a sigma-basis
// of order sigma for
//
//   F(x) = [ T(x) ]      with  T(x) = sum_i S_i^T x^i   (b x b power series)
//          [ -I_b ]
//
// following the iterative order-1 M-Basis of Giorgi-Jeannerod-Villard: keep
// a row basis M(x) in K[x]^{2b x 2b} with its residual R = M . F mod x^sigma
// and a degree vector delta; at order k read the discrepancy coeff_k(R),
// eliminate rows of minimal delta against each other (a constant 2b x b
// Gaussian step), and multiply the pivot rows by x.  After sigma steps every
// row p = [u | w] of M satisfies u . T = w (mod x^sigma); a row whose w-part
// has degree < delta reverses into a right generator of {S_i}:
//
//   c_j = (coeff_{delta-j} of u)^T   gives   sum_j S_{i+j} c_j = 0
//
// for every complete window of the observed prefix.  Rows with
// deg w = delta only generate a shifted tail and are discarded (the caller's
// Las Vegas verification covers anything that slips through).
//
// Cost: O(n^2 b) field operations for a length-2n/b sequence (the residual
// and basis updates dominate).  The per-step row updates are element-wise
// independent across target rows, so they run on the pooled
// ExecutionContext with worker-count-independent boundaries; word-sized
// prime fields take a fused delayed-count axpy with the same canonical
// values and the same bulk op accounting as the generic loop.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "field/concepts.h"
#include "field/kernels.h"
#include "matrix/dense.h"
#include "pram/parallel_for.h"
#include "util/op_count.h"
#include "util/status.h"

namespace kp::seq {

/// A right matrix generating polynomial of a b x b matrix sequence: columns
/// are vector polynomials c(x) = sum_j c_j x^j with sum_j S_{i+j} c_j = 0
/// for every complete window of the observed prefix.  Columns are sorted by
/// ascending nominal degree; there are normally exactly b of them, but
/// degenerate inputs may verify more or fewer -- callers pick what they
/// need and Las-Vegas-verify downstream.
template <kp::field::Field F>
struct BlockGenerator {
  using Element = typename F::Element;

  std::size_t block = 0;  ///< b
  /// columns[c][j] is the K^b coefficient of x^j in column c (little-endian,
  /// size degrees[c] + 1).
  std::vector<std::vector<std::vector<Element>>> columns;
  std::vector<std::size_t> degrees;  ///< nominal degree of each column

  std::size_t max_degree() const {
    std::size_t d = 0;
    for (auto v : degrees) d = std::max(d, v);
    return d;
  }
};

/// True when column `col` annihilates every complete window of `seq`:
/// sum_j seq[i + j] col[j] = 0 for all i with i + deg <= |seq| - 1.
template <kp::field::Field F>
bool block_generates(const F& f, const std::vector<matrix::Matrix<F>>& seq,
                     const std::vector<std::vector<typename F::Element>>& col) {
  if (col.empty()) return false;
  const std::size_t d = col.size() - 1;
  const std::size_t b = seq.empty() ? 0 : seq.front().rows();
  for (std::size_t i = 0; i + d < seq.size(); ++i) {
    for (std::size_t r = 0; r < b; ++r) {
      auto acc = f.zero();
      for (std::size_t j = 0; j <= d; ++j) {
        for (std::size_t c = 0; c < b; ++c) {
          acc = f.add(acc, f.mul(seq[i + j].at(r, c), col[j][c]));
        }
      }
      if (!f.eq(acc, f.zero())) return false;
    }
  }
  return true;
}

/// The monic scalar polynomial of a width-1 generator's first column --
/// the object the b = 1 route compares element-for-element against
/// seq::berlekamp_massey.
template <kp::field::Field F>
std::vector<typename F::Element> scalar_generator(const F& f,
                                                  const BlockGenerator<F>& gen) {
  assert(gen.block == 1 && !gen.columns.empty());
  std::vector<typename F::Element> g;
  g.reserve(gen.columns[0].size());
  for (const auto& cj : gen.columns[0]) g.push_back(cj[0]);
  while (g.size() > 1 && f.eq(g.back(), f.zero())) g.pop_back();
  const auto lead = g.back();
  if (!f.eq(lead, f.one())) {
    for (auto& e : g) e = f.div(e, lead);
  }
  return g;
}

namespace detail {

/// dst[i] -= coef * src[i] over `len` elements.  Word-sized prime fields
/// take the fused canonical-residue loop with bulk accounting (len muls +
/// len adds, exactly what the generic mul/sub loop charges).
template <kp::field::Field F>
void axpy_sub(const F& f, typename F::Element* dst,
              const typename F::Element* src, std::size_t len,
              const typename F::Element& coef) {
  if (len == 0) return;
  if constexpr (kp::field::kernels::FastField<F>) {
    kp::util::count_muls(len);
    kp::util::count_adds(len);
    const auto& bar = kp::field::FieldKernels<F>::barrett(f);
    if (kp::field::simd::vec_mod_submul(bar, coef, src, dst, len)) return;
    const std::uint64_t p = bar.p;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t t = kp::field::kernels::mul_uncounted(f, coef, src[i]);
      dst[i] = dst[i] >= t ? dst[i] - t : dst[i] + p - t;
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] = f.sub(dst[i], f.mul(coef, src[i]));
    }
  }
}

}  // namespace detail

/// Computes a right matrix generating polynomial for the b x b sequence
/// seq = {S_0, ..., S_{sigma-1}} -- the matrix Berlekamp-Massey step of the
/// block-Wiedemann route.  With sigma >= 2 ceil(n/b) + 2 terms of a block
/// Krylov projection the verified columns span the minimal generator with
/// high probability; degenerate projections surface as
/// kDegenerateProjection at Stage::kBlockGenerator so the caller's
/// stage-targeted retry redraws only the blocks.
template <kp::field::Field F>
kp::util::StatusOr<BlockGenerator<F>> matrix_berlekamp_massey(
    const F& f, const std::vector<matrix::Matrix<F>>& seq) {
  using E = typename F::Element;
  using kp::util::FailureKind;
  using kp::util::Stage;
  using kp::util::Status;

  if (seq.empty()) {
    return Status::Fail(FailureKind::kInvalidArgument, Stage::kBlockGenerator,
                        "empty block sequence");
  }
  const std::size_t b = seq.front().rows();
  const std::size_t sigma = seq.size();
  for (const auto& s : seq) {
    if (s.rows() != b || s.cols() != b) {
      return Status::Fail(FailureKind::kInvalidArgument, Stage::kBlockGenerator,
                          "non-uniform block sequence");
    }
  }

  // Row state: m = 2b polynomials (little-endian), r = b residual coefficient
  // arrays of length sigma, delta = the row's nominal degree.
  struct Row {
    std::vector<std::vector<E>> m;
    std::vector<std::vector<E>> r;
    std::size_t delta = 0;
  };
  std::vector<Row> rows(2 * b);
  for (std::size_t i = 0; i < 2 * b; ++i) {
    rows[i].m.assign(2 * b, {});
    rows[i].m[i] = {f.one()};
    rows[i].r.assign(b, std::vector<E>(sigma, f.zero()));
  }
  // Residual of the identity basis is F itself: rows 0..b-1 carry
  // T(x) = sum S_i^T x^i, rows b..2b-1 carry -I_b.
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t c = 0; c < b; ++c) {
      for (std::size_t k = 0; k < sigma; ++k) rows[i].r[c][k] = seq[k].at(c, i);
    }
    rows[b + i].r[i][0] = f.neg(f.one());
  }

  std::vector<std::size_t> order(2 * b);
  matrix::Matrix<F> cmat(2 * b, 2 * b, f.zero());  // per-step row transform
  matrix::Matrix<F> work(2 * b, b, f.zero());      // discrepancy, reduced

  for (std::size_t k = 0; k < sigma; ++k) {
    // Discrepancy coeff_k(R); rows already handled are zero there.
    bool any = false;
    for (std::size_t i = 0; i < 2 * b; ++i) {
      for (std::size_t c = 0; c < b; ++c) {
        work.at(i, c) = rows[i].r[c][k];
        any = any || !f.eq(work.at(i, c), f.zero());
      }
    }
    if (!any) continue;

    // Stable minimal-degree-first order; the constant Gaussian step below
    // only ever adds a row into rows of >= delta, which is what keeps the
    // basis minimal.
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return rows[x].delta < rows[y].delta;
                     });

    // Reduce the 2b x b discrepancy, accumulating the full row transform C
    // (unit lower triangular in sorted order) so the polynomial update can
    // read a consistent pre-step snapshot of its source rows.
    for (std::size_t i = 0; i < 2 * b; ++i) {
      for (std::size_t j = 0; j < 2 * b; ++j) {
        cmat.at(i, j) = i == j ? f.one() : f.zero();
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>> pivots;  // (row, col)
    for (const std::size_t i : order) {
      for (const auto& [pr, pc] : pivots) {
        const E t = work.at(i, pc);
        if (f.eq(t, f.zero())) continue;
        const E fac = f.div(t, work.at(pr, pc));
        for (std::size_t c = 0; c < b; ++c) {
          work.at(i, c) = f.sub(work.at(i, c), f.mul(fac, work.at(pr, c)));
        }
        for (std::size_t j = 0; j < 2 * b; ++j) {
          cmat.at(i, j) = f.sub(cmat.at(i, j), f.mul(fac, cmat.at(pr, j)));
        }
      }
      for (std::size_t c = 0; c < b; ++c) {
        if (!f.eq(work.at(i, c), f.zero())) {
          pivots.emplace_back(i, c);
          break;
        }
      }
    }

    // Snapshot every row that serves as a source (the pivot rows), then
    // update targets in parallel: target i reads only snapshots, writes only
    // itself -- disjoint writes, chunk boundaries independent of the worker
    // count, results bit-identical for 1..N workers.
    std::vector<std::size_t> targets;
    for (std::size_t i = 0; i < 2 * b; ++i) {
      for (std::size_t j = 0; j < 2 * b; ++j) {
        if (j != i && !f.eq(cmat.at(i, j), f.zero())) {
          targets.push_back(i);
          break;
        }
      }
    }
    std::vector<Row> snap(2 * b);
    for (const auto& [pr, pc] : pivots) snap[pr] = rows[pr];
    auto update_target = [&](std::size_t ti) {
      const std::size_t i = targets[ti];
      for (std::size_t j = 0; j < 2 * b; ++j) {
        if (j == i) continue;
        const E coef = cmat.at(i, j);
        if (f.eq(coef, f.zero())) continue;
        const E nc = f.neg(coef);  // axpy_sub subtracts; C already has sign
        const Row& src = snap[j];
        for (std::size_t c = 0; c < 2 * b; ++c) {
          if (src.m[c].empty()) continue;
          if (rows[i].m[c].size() < src.m[c].size()) {
            rows[i].m[c].resize(src.m[c].size(), f.zero());
          }
          detail::axpy_sub(f, rows[i].m[c].data(), src.m[c].data(),
                           src.m[c].size(), nc);
        }
        for (std::size_t c = 0; c < b; ++c) {
          detail::axpy_sub(f, rows[i].r[c].data() + k, src.r[c].data() + k,
                           sigma - k, nc);
        }
      }
    };
    const std::size_t step_cost = targets.size() * b * (sigma - k);
    if (kp::field::concurrent_ops_v<F> && targets.size() > 1 &&
        step_cost >= matrix::kParallelGrain) {
      kp::pram::parallel_for(0, targets.size(), update_target);
    } else {
      for (std::size_t ti = 0; ti < targets.size(); ++ti) update_target(ti);
    }

    // Multiply pivot rows by x: shift their polynomials and residuals one
    // degree up and bump delta.
    for (const auto& [pr, pc] : pivots) {
      (void)pc;
      Row& row = rows[pr];
      for (auto& p : row.m) {
        if (!p.empty()) p.insert(p.begin(), f.zero());
      }
      for (auto& rc : row.r) {
        for (std::size_t t = sigma; t-- > k + 1;) rc[t] = rc[t - 1];
        rc[k] = f.zero();
      }
      ++row.delta;
    }
  }

  // Extract verified generator columns: rows whose w-part degree stays below
  // delta reverse into right generators (see the header comment); the rest
  // only annihilate a shifted tail and are dropped.
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < 2 * b; ++i) {
    bool valid = true;
    for (std::size_t c = b; c < 2 * b && valid; ++c) {
      const auto& w = rows[i].m[c];
      for (std::size_t d = w.size(); d-- > 0;) {
        if (!f.eq(w[d], f.zero())) {
          valid = d < rows[i].delta;
          break;
        }
      }
    }
    if (valid) keep.push_back(i);
  }
  std::stable_sort(keep.begin(), keep.end(), [&](std::size_t x, std::size_t y) {
    return rows[x].delta < rows[y].delta;
  });
  if (keep.empty()) {
    return Status::Fail(FailureKind::kDegenerateProjection,
                        Stage::kBlockGenerator,
                        "no reversible sigma-basis rows");
  }

  BlockGenerator<F> gen;
  gen.block = b;
  gen.columns.reserve(keep.size());
  gen.degrees.reserve(keep.size());
  for (const std::size_t i : keep) {
    const std::size_t t = rows[i].delta;
    std::vector<std::vector<E>> col(t + 1, std::vector<E>(b, f.zero()));
    for (std::size_t r = 0; r < b; ++r) {
      const auto& u = rows[i].m[r];
      for (std::size_t d = 0; d < u.size() && d <= t; ++d) {
        col[t - d][r] = u[d];
      }
    }
    gen.columns.push_back(std::move(col));
    gen.degrees.push_back(t);
  }
  return gen;
}

}  // namespace kp::seq
