// Stage-by-stage replay of kp_solve's doubling route (core/solver.h,
// detail::theorem4_run) through the public functions of each layer, with a
// span around every stage.  The draws follow the same forked streams as the
// library, so a replay from the seed kp_solve was given walks the same
// intermediate values; the solution is unique either way.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common.h"
#include "core/krylov.h"
#include "core/preconditioners.h"
#include "core/solver.h"
#include "matrix/dense.h"
#include "matrix/structured.h"
#include "poly/poly_ring.h"
#include "seq/newton_toeplitz.h"
#include "util/prng.h"

namespace kpbench {

/// Returns x with A x = b, or an empty vector when every attempt failed.
/// Spans: core.precondition (H, D, u, v draws and A H D), core.krylov_sequence,
/// seq.toeplitz_solve (generator through the Theorem-3 Toeplitz solve),
/// core.finish (Cayley-Hamilton finish and unpreconditioning),
/// seq.toeplitz_det (det(H D)), and `verify_span` (the final A x check).
template <class F>
std::vector<typename F::Element> replay_doubling(
    const F& f, const kp::matrix::Matrix<F>& a,
    const std::vector<typename F::Element>& b, std::uint64_t seed,
    const kp::core::SolverOptions& opt, Tracer& tr, std::uint64_t request,
    const char* verify_span = "matrix.verify") {
  using E = typename F::Element;
  const std::size_t n = a.rows();
  kp::poly::PolyRing<F> ring(f);
  kp::util::Prng prng(seed);
  kp::util::Prng pre_stream = prng.fork(0x7072652d48440000ULL);   // "pre-HD"
  kp::util::Prng proj_stream = prng.fork(0x70726f6a2d757600ULL);  // "proj-uv"
  std::uint64_t s = opt.sample_size;

  for (int attempt = 1; attempt <= opt.max_attempts; ++attempt, s *= 2) {
    std::optional<kp::core::Preconditioner<F>> pre;
    std::vector<E> u(n), v(n);
    std::optional<kp::matrix::Matrix<F>> at;
    {
      Tracer::Scope span(tr, "core.precondition", request);
      kp::util::Prng r = pre_stream.fork(static_cast<std::uint64_t>(attempt));
      pre = kp::core::Preconditioner<F>::draw(f, n, r, s);
      kp::util::Prng q = proj_stream.fork(static_cast<std::uint64_t>(attempt));
      for (auto& e : u) e = f.sample(q, s);
      for (auto& e : v) e = f.sample(q, s);
      at = pre->apply_dense(f, ring, a);
    }
    std::vector<E> seq;
    {
      Tracer::Scope span(tr, "core.krylov_sequence", request);
      seq = kp::core::krylov_sequence_doubling(f, *at, u, v, 2 * n, opt.matmul);
    }
    std::vector<E> g;
    {
      Tracer::Scope span(tr, "seq.toeplitz_solve", request);
      const auto t = kp::matrix::Toeplitz<F>::from_sequence(n, seq);
      const std::vector<E> rhs(seq.begin() + static_cast<std::ptrdiff_t>(n),
                               seq.end());
      const auto y = kp::seq::toeplitz_solve_charpoly(f, t, rhs, ring, opt.newton);
      if (!y.empty()) {
        g.assign(n + 1, f.zero());
        g[n] = f.one();
        for (std::size_t i = 0; i < n; ++i) g[n - 1 - i] = f.neg(y[i]);
      }
    }
    if (g.empty() || f.is_zero(g[0])) continue;  // unlucky draw: next attempt
    std::vector<E> x;
    {
      Tracer::Scope span(tr, "core.finish", request);
      const auto q = kp::core::solution_combination(f, g);
      const auto block = kp::core::krylov_block(f, *at, b, n, opt.matmul);
      x = pre->unprecondition(f, ring, kp::core::krylov_combine(f, block, q));
    }
    bool det_ok = false;
    {
      Tracer::Scope span(tr, "seq.toeplitz_det", request);
      det_ok = !f.is_zero(pre->det(f, opt.newton));
    }
    bool verified = false;
    {
      Tracer::Scope span(tr, verify_span, request);
      verified = kp::matrix::mat_vec(f, a, x) == b;
    }
    if (det_ok && verified) return x;
  }
  return {};
}

}  // namespace kpbench
