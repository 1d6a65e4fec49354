// Structured matrices: Toeplitz, Hankel, and Vandermonde.
//
// Toeplitz matrices are the paper's central data structure (Lemma 1 reduces
// minimum-polynomial computation to a Toeplitz system; section 3 computes
// their characteristic polynomial).  The Hankel matrix is the Theorem-2
// preconditioner; its row-mirror is Toeplitz, which is how the paper
// computes det(H).  Matrix-vector products of both reduce to polynomial
// multiplication, which is where the O(M(n)) costs come from -- and they
// read only the middle n of the product's 3n - 2 coefficients, so they run
// as middle products: over an NTT field at a transform length of the power
// of two >= 2n - 1 (the transposition principle, the paper's section 4).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "matrix/dense.h"
#include "poly/poly.h"
#include "poly/transform_cache.h"
#include "util/prng.h"

namespace kp::matrix {

namespace detail {

/// What Toeplitz and Hankel share: the 2n - 1 coefficients of an n x n
/// matrix's symbol s, and the matrix-vector product as a middle product,
/// y_i = (s * X)[n - 1 + i] for 0 <= i < n (poly/transform_cache.h).  X is
/// the vector's coefficient polynomial, reversed for a Hankel matrix, so
/// the product needs s * X only at coefficients n - 1 .. 2n - 2 of its
/// 3n - 2: over an NTT field the transform is the power of two >= 2n - 1
/// instead of >= 3n - 2.  The symbol's forward transform is cached on first
/// use and shared by every later product.
template <kp::field::CommutativeRing R>
class StructuredSymbol {
 public:
  using Element = typename R::Element;
  using Ring = kp::poly::PolyRing<R>;

  StructuredSymbol(std::size_t n, std::vector<Element> s)
      : n_(n), s_(std::move(s)) {
    assert(s_.size() == 2 * n_ - 1);
  }

  // The cached transform is per-instance scratch, not state: copies start
  // with a cold cache and rebuild it on first product.
  StructuredSymbol(const StructuredSymbol& o) : n_(o.n_), s_(o.s_) {}
  StructuredSymbol& operator=(const StructuredSymbol& o) {
    if (this != &o) {
      n_ = o.n_;
      s_ = o.s_;
      std::lock_guard<std::mutex> lk(mu_);
      transformed_.reset();
    }
    return *this;
  }
  StructuredSymbol(StructuredSymbol&& o) noexcept
      : n_(o.n_), s_(std::move(o.s_)) {
    std::lock_guard<std::mutex> lk(o.mu_);
    transformed_ = std::move(o.transformed_);
  }
  StructuredSymbol& operator=(StructuredSymbol&& o) {
    if (this != &o) {
      n_ = o.n_;
      s_ = std::move(o.s_);
      std::scoped_lock lk(mu_, o.mu_);
      transformed_ = std::move(o.transformed_);
    }
    return *this;
  }

  std::size_t dim() const { return n_; }
  const std::vector<Element>& coeffs() const { return s_; }

  /// The products for every x_i; `reversed` reads x_i backwards (Hankel).
  /// Varying-side transforms are batched over the pool
  /// (TransformedPoly::middle_many); values and op counts equal those of
  /// one call per vector.
  std::vector<std::vector<Element>> apply_many(
      const Ring& ring, const std::vector<const std::vector<Element>*>& xs,
      bool reversed) const {
    std::vector<typename Ring::Element> polys(xs.size());
    std::vector<const typename Ring::Element*> ptrs(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      assert(xs[i]->size() == n_);
      if (reversed) {
        polys[i].assign(xs[i]->rbegin(), xs[i]->rend());
      } else {
        polys[i] = *xs[i];
      }
      ring.strip(polys[i]);
      ptrs[i] = &polys[i];
    }
    return transformed(ring).middle_many(ring, ptrs, n_ - 1, n_);
  }

 private:
  const kp::poly::TransformedPoly<R>& transformed(const Ring& ring) const {
    std::lock_guard<std::mutex> lk(mu_);
    if (!transformed_) {
      auto stripped = s_;
      ring.strip(stripped);
      transformed_ = std::make_unique<kp::poly::TransformedPoly<R>>(
          ring, std::move(stripped));
    }
    return *transformed_;
  }

  std::size_t n_;
  std::vector<Element> s_;
  mutable std::mutex mu_;
  mutable std::unique_ptr<kp::poly::TransformedPoly<R>> transformed_;
};

}  // namespace detail

/// n x n Toeplitz matrix in the paper's layout (4):
///
///   T = [ a_{n-1} a_{n-2} ... a_1    a_0    ]
///       [ a_n     a_{n-1} ... a_2    a_1    ]
///       [ ...                               ]
///       [ a_{2n-2}         ... a_n   a_{n-1}]
///
/// i.e. T(i, j) = a[(n-1) + i - j] with a = diagonals() of length 2n-1,
/// a[0] the top-right corner and a[2n-2] the bottom-left corner.
template <kp::field::CommutativeRing R>
class Toeplitz {
 public:
  using Element = typename R::Element;

  Toeplitz(std::size_t n, std::vector<Element> diagonals)
      : a_(n, std::move(diagonals)) {}

  /// Builds the Toeplitz matrix of a sequence as in Lemma 1: the mu x mu
  /// matrix T_mu with T(i, j) = seq[(mu - 1) + i - j], which requires
  /// seq[0 .. 2mu-2].
  static Toeplitz from_sequence(std::size_t mu, const std::vector<Element>& seq) {
    assert(seq.size() >= 2 * mu - 1);
    return Toeplitz(mu, std::vector<Element>(seq.begin(),
                                             seq.begin() + static_cast<std::ptrdiff_t>(2 * mu - 1)));
  }

  std::size_t dim() const { return a_.dim(); }
  const std::vector<Element>& diagonals() const { return a_.coeffs(); }

  const Element& at(std::size_t i, std::size_t j) const {
    assert(i < dim() && j < dim());
    return diagonals()[(dim() - 1) + i - j];
  }

  Matrix<R> to_dense(const R& r) const {
    Matrix<R> out(dim(), dim(), r.zero());
    for (std::size_t i = 0; i < dim(); ++i) {
      for (std::size_t j = 0; j < dim(); ++j) out.at(i, j) = at(i, j);
    }
    return out;
  }

  /// T * x as a middle product: y_i = (a * X)[n-1+i] where
  /// X = sum_j x_j z^j.  Cost O(M(n)) instead of O(n^2), and the symbol's
  /// cached transform is shared by the 2n products of a Krylov run and the
  /// Newton iteration's per-level pair.
  std::vector<Element> apply(const kp::poly::PolyRing<R>& ring,
                             const std::vector<Element>& x) const {
    return std::move(a_.apply_many(ring, {&x}, false).front());
  }

  /// Batched T * x_i for every x_i; element- and op-count-identical to
  /// calling apply in a loop.
  std::vector<std::vector<Element>> apply_many(
      const kp::poly::PolyRing<R>& ring,
      const std::vector<const std::vector<Element>*>& xs) const {
    return a_.apply_many(ring, xs, false);
  }

 private:
  detail::StructuredSymbol<R> a_;
};

/// n x n Hankel matrix as in Theorem 2:
///
///   H = [ h_0     h_1   ...  h_{n-1} ]
///       [ h_1     h_2   ...  h_n     ]
///       [ ...                        ]
///       [ h_{n-1} h_n   ...  h_{2n-2}]
///
/// i.e. H(i, j) = h[i + j].
template <kp::field::CommutativeRing R>
class Hankel {
 public:
  using Element = typename R::Element;

  Hankel(std::size_t n, std::vector<Element> entries)
      : h_(n, std::move(entries)) {}

  /// Random Hankel preconditioner with entries from the sample set S.
  template <kp::field::Field F = R>
  static Hankel random(const F& f, std::size_t n, kp::util::Prng& prng,
                       std::uint64_t s) {
    std::vector<Element> h(2 * n - 1);
    for (auto& e : h) e = f.sample(prng, s);
    return Hankel(n, std::move(h));
  }

  std::size_t dim() const { return h_.dim(); }
  const std::vector<Element>& entries() const { return h_.coeffs(); }

  const Element& at(std::size_t i, std::size_t j) const {
    assert(i < dim() && j < dim());
    return entries()[i + j];
  }

  Matrix<R> to_dense(const R& r) const {
    Matrix<R> out(dim(), dim(), r.zero());
    for (std::size_t i = 0; i < dim(); ++i) {
      for (std::size_t j = 0; j < dim(); ++j) out.at(i, j) = at(i, j);
    }
    return out;
  }

  /// H * x as a middle product: with X = sum_j x_j z^{n-1-j},
  /// y_i = (h * X)[n-1+i].  Hankel matrices are symmetric, so this is also
  /// the transposed product.  The symbol's cached transform is shared by
  /// every product (Ã = A·H·D's n row products, the lazy box's 2n per run).
  std::vector<Element> apply(const kp::poly::PolyRing<R>& ring,
                             const std::vector<Element>& x) const {
    return std::move(h_.apply_many(ring, {&x}, true).front());
  }

  /// Batched H * x_i (see Toeplitz::apply_many).
  std::vector<std::vector<Element>> apply_many(
      const kp::poly::PolyRing<R>& ring,
      const std::vector<const std::vector<Element>*>& xs) const {
    return h_.apply_many(ring, xs, true);
  }

  /// The row-mirror J*H (J the reversal permutation), which is Toeplitz --
  /// the section-4 trick for computing det(H) with the Toeplitz machinery:
  /// det(H) = (-1)^(n(n-1)/2) * det(JH).
  Toeplitz<R> row_mirror_toeplitz() const {
    std::vector<Element> rev(entries().rbegin(), entries().rend());
    return Toeplitz<R>(dim(), std::move(rev));
  }

  /// Sign relating det(H) to det(row_mirror_toeplitz()).
  int mirror_det_sign() const {
    // J is n(n-1)/2 transpositions.
    return (dim() * (dim() - 1) / 2) % 2 == 0 ? 1 : -1;
  }

 private:
  detail::StructuredSymbol<R> h_;
};

/// m x n Vandermonde matrix V(i, j) = x_i^j over pairwise-distinct points.
/// The section-4 application relates solving V^T y = b to interpolation.
template <kp::field::Field F>
class Vandermonde {
 public:
  using Element = typename F::Element;

  explicit Vandermonde(std::vector<Element> points, std::size_t cols = 0)
      : x_(std::move(points)), cols_(cols ? cols : x_.size()) {}

  std::size_t rows() const { return x_.size(); }
  std::size_t cols() const { return cols_; }
  const std::vector<Element>& points() const { return x_; }

  Matrix<F> to_dense(const F& f) const {
    Matrix<F> out(rows(), cols_, f.zero());
    for (std::size_t i = 0; i < rows(); ++i) {
      auto p = f.one();
      for (std::size_t j = 0; j < cols_; ++j) {
        out.at(i, j) = p;
        p = f.mul(p, x_[i]);
      }
    }
    return out;
  }

  /// V * c = multipoint evaluation of the polynomial with coefficients c.
  std::vector<Element> apply(const F& f, const std::vector<Element>& c) const {
    assert(c.size() == cols_);
    std::vector<Element> out(rows(), f.zero());
    for (std::size_t i = 0; i < rows(); ++i) {
      auto acc = f.zero();
      for (std::size_t j = c.size(); j-- > 0;) {
        acc = f.add(f.mul(acc, x_[i]), c[j]);
      }
      out[i] = std::move(acc);
    }
    return out;
  }

  /// V^T * y (the transposed product: out_j = sum_i x_i^j y_i).
  std::vector<Element> apply_transpose(const F& f,
                                       const std::vector<Element>& y) const {
    assert(y.size() == rows());
    std::vector<Element> out(cols_, f.zero());
    std::vector<Element> pw(rows(), f.one());
    for (std::size_t j = 0; j < cols_; ++j) {
      auto acc = f.zero();
      for (std::size_t i = 0; i < rows(); ++i) {
        acc = f.add(acc, f.mul(pw[i], y[i]));
        if (j + 1 < cols_) pw[i] = f.mul(pw[i], x_[i]);
      }
      out[j] = std::move(acc);
    }
    return out;
  }

  /// det(V) = prod_{i<j} (x_j - x_i) for square V.
  Element det(const F& f) const {
    assert(rows() == cols_);
    auto acc = f.one();
    for (std::size_t i = 0; i < rows(); ++i) {
      for (std::size_t j = i + 1; j < rows(); ++j) {
        acc = f.mul(acc, f.sub(x_[j], x_[i]));
      }
    }
    return acc;
  }

  /// Solves V c = values by interpolation (the O(n^2) fast path that the
  /// generic solver is checked against).
  std::vector<Element> solve(const kp::poly::PolyRing<F>& ring,
                             const std::vector<Element>& values) const {
    assert(rows() == cols_ && values.size() == rows());
    auto p = kp::poly::interpolate(ring, x_, values);
    p.resize(cols_, ring.base().zero());
    return p;
  }

 private:
  std::vector<Element> x_;
  std::size_t cols_;
};

/// Diagonal matrix helper (the Theorem-2 "D" preconditioner).
template <kp::field::CommutativeRing R>
class Diagonal {
 public:
  using Element = typename R::Element;

  explicit Diagonal(std::vector<Element> d) : d_(std::move(d)) {}

  template <kp::field::Field F = R>
  static Diagonal random(const F& f, std::size_t n, kp::util::Prng& prng,
                         std::uint64_t s) {
    std::vector<Element> d(n);
    for (auto& e : d) e = f.sample(prng, s);
    return Diagonal(std::move(d));
  }

  std::size_t dim() const { return d_.size(); }
  const std::vector<Element>& entries() const { return d_; }

  std::vector<Element> apply(const R& r, const std::vector<Element>& x) const {
    assert(x.size() == d_.size());
    std::vector<Element> out(x.size(), r.zero());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = r.mul(d_[i], x[i]);
    return out;
  }

  Element det(const R& r) const {
    auto acc = r.one();
    for (const auto& e : d_) acc = r.mul(acc, e);
    return acc;
  }

  Matrix<R> to_dense(const R& r) const {
    Matrix<R> out(d_.size(), d_.size(), r.zero());
    for (std::size_t i = 0; i < d_.size(); ++i) out.at(i, i) = d_[i];
    return out;
  }

 private:
  std::vector<Element> d_;
};

}  // namespace kp::matrix
