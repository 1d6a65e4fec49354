// Theorem-2 preconditioning: A-tilde = A * H * D.
//
// H is a random Hankel matrix and D a random diagonal, both with entries
// drawn uniformly from the sample set S.  Theorem 2 shows all leading
// principal minors of A*H are non-zero with probability >= 1 - n(n-1)/(2|S|),
// and Wiedemann's estimate (1) shows the extra diagonal makes the minimum
// polynomial of A-tilde equal its characteristic polynomial with probability
// >= 1 - n(2n-2)/|S|; together with Lemma 2 this gives the paper's combined
// failure bound 3n^2/|S| (estimate (2)).
//
// det(H) comes from the Berlekamp-Massey discrepancies of H's entries in
// O(n^2) (seq::hankel_det), the paper's preferred sequential method.  The
// section-4 route -- the row-mirror Toeplitz and the Theorem-3 charpoly --
// settles a non-normal H (a vanishing leading minor) and is the only route
// under depth_optimal, so recorded circuits keep O(log^2 n) depth.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "field/concepts.h"
#include "matrix/blackbox.h"
#include "matrix/dense.h"
#include "matrix/structured.h"
#include "poly/poly.h"
#include "seq/berlekamp_massey.h"
#include "seq/newton_toeplitz.h"
#include "util/fault.h"
#include "util/prng.h"

namespace kp::core {

/// The random preconditioner pair (H, D) of Theorem 2.
template <kp::field::Field F>
struct Preconditioner {
  matrix::Hankel<F> hankel;
  matrix::Diagonal<F> diagonal;

  /// Draws H and D with entries from the canonical sample set of size s.
  static Preconditioner draw(const F& f, std::size_t n, kp::util::Prng& prng,
                             std::uint64_t s) {
    return {matrix::Hankel<F>::random(f, n, prng, s),
            matrix::Diagonal<F>::random(f, n, prng, s)};
  }

  /// Dense A * H * D.  A*H is computed row-by-row with Hankel-vector
  /// products (H is symmetric), so forming A-tilde costs O(n^2 polylog n)
  /// on top of the inputs rather than a full O(n^omega) product.  The n row
  /// products share H's cached symbol transform and batch their varying-side
  /// transforms over the pool (Hankel::apply_many).
  matrix::Matrix<F> apply_dense(const F& f, const kp::poly::PolyRing<F>& ring,
                                const matrix::Matrix<F>& a) const {
    const std::size_t n = hankel.dim();
    matrix::Matrix<F> out(n, n, f.zero());
    const auto& d = diagonal.entries();
    // row_i(A*H) = H * row_i(A) by symmetry of H.
    std::vector<std::vector<typename F::Element>> rows(n);
    std::vector<const std::vector<typename F::Element>*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i].assign(a.row(i), a.row(i) + n);
      ptrs[i] = &rows[i];
    }
    auto hrows = hankel.apply_many(ring, ptrs);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        out.at(i, j) = f.mul(hrows[i][j], d[j]);
      }
    }
    return out;
  }

  /// Lazy A-tilde = A * H * D over any black-box operator: each product is
  /// one product with A plus O(M(n)); the dense n x n A-tilde is never
  /// formed.  The returned box views `a` (and this preconditioner's H, D by
  /// value), so `a` must outlive it.
  template <matrix::LinOp B>
  matrix::PreconditionedBox<F, B> box(const F& f,
                                      const kp::poly::PolyRing<F>& ring,
                                      const B& a) const {
    return matrix::PreconditionedBox<F, B>(f, ring, a, hankel, diagonal);
  }

  /// x = H * (D * y): maps a solution of A-tilde x-tilde = b back to the
  /// solution of A x = b.
  std::vector<typename F::Element> unprecondition(
      const F& f, const kp::poly::PolyRing<F>& ring,
      const std::vector<typename F::Element>& y) const {
    return hankel.apply(ring, diagonal.apply(f, y));
  }

  /// det(H * D), with det(D) the product of the diagonal entries.  det(H)
  /// takes seq::hankel_det (O(n^2), Berlekamp-Massey) unless H is not
  /// normal or `depth_optimal` is set; then it goes through the Toeplitz
  /// row-mirror and Theorem 3 with `method`.  Berlekamp-Massey branches on
  /// zero tests and is O(n) deep, so circuit builds must pass depth_optimal.
  typename F::Element det(const F& f,
                          seq::NewtonIdentityMethod method =
                              seq::NewtonIdentityMethod::kTriangularSolve,
                          bool depth_optimal = false) const {
    // Fault site: a zero return exercises the caller's det(H D) = 0 branch,
    // which cannot trigger organically once g(0) != 0 is established.
    if (KP_FAULT_POINT(util::Stage::kPrecondition)) return f.zero();
    std::optional<typename F::Element> det_h;
    if (!depth_optimal) det_h = seq::hankel_det(f, hankel.entries());
    if (!det_h) {
      det_h = seq::toeplitz_det(f, hankel.row_mirror_toeplitz(), method);
      if (hankel.mirror_det_sign() < 0) det_h = f.neg(*det_h);
    }
    return f.mul(*det_h, diagonal.det(f));
  }
};

}  // namespace kp::core
