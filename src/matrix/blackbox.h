// Black-box linear operators.
//
// Wiedemann's algorithm only ever touches the coefficient matrix through
// matrix-vector products, so the core pipeline is written against this
// LinOp concept.  Adapters wrap the concrete matrix kinds (dense, sparse,
// Toeplitz, Hankel, diagonal) and compose (lazy products), which is how the preconditioned operator A*H*D of Theorem 2 is formed
// without ever materializing it.  AnyBox type-erases the concept for
// runtime backend dispatch, and every box advertises a BoxStructure hint
// that the Theorem-4 solver keys its Krylov route off.
#pragma once

#include <cassert>
#include <concepts>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "matrix/dense.h"
#include "matrix/sparse.h"
#include "matrix/structured.h"
#include "poly/poly.h"

namespace kp::matrix {

/// A square linear operator that can be applied to a vector.
template <class B>
concept LinOp = requires(const B b, const std::vector<typename B::Element>& x) {
  typename B::Element;
  { b.dim() } -> std::convertible_to<std::size_t>;
  { b.apply(x) } -> std::convertible_to<std::vector<typename B::Element>>;
};

/// A LinOp that can apply itself to a whole block of vectors in one call
/// (one pass over its data / one batched transform instead of b).
template <class B>
concept BatchLinOp =
    LinOp<B> &&
    requires(const B b,
             const std::vector<const std::vector<typename B::Element>*>& xs) {
      { b.apply_many(xs) } ->
          std::convertible_to<std::vector<std::vector<typename B::Element>>>;
    };

/// Pointer view of a block of columns (the apply_many calling convention).
/// Valid only while `cols` is alive.
template <class E>
std::vector<const std::vector<E>*> to_ptrs(
    const std::vector<std::vector<E>>& cols) {
  std::vector<const std::vector<E>*> ptrs(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) ptrs[i] = &cols[i];
  return ptrs;
}

/// B applied to every column of a block: batched through the box's
/// apply_many when it has one, element-identical per-column applies
/// otherwise.  This is the single entry point block algorithms use, so a
/// box only opts into batching where it actually pays (shared spectra,
/// one CSR pass, pooled mat_vec) and everything else still works.
template <LinOp B>
std::vector<std::vector<typename B::Element>> apply_columns(
    const B& box,
    const std::vector<const std::vector<typename B::Element>*>& cols) {
  if constexpr (BatchLinOp<B>) {
    return box.apply_many(cols);
  } else {
    std::vector<std::vector<typename B::Element>> out(cols.size());
    for (std::size_t i = 0; i < cols.size(); ++i) out[i] = box.apply(*cols[i]);
    return out;
  }
}

template <LinOp B>
std::vector<std::vector<typename B::Element>> apply_columns(
    const B& box, const std::vector<std::vector<typename B::Element>>& cols) {
  return apply_columns(box, to_ptrs(cols));
}

/// Coarse structure classes; the solver's route selection keys off them:
/// a dense operator has its preconditioned form materialized (iterated on,
/// or squared by the doubling route (9) under depth_optimal), while
/// sparse/structured operators keep 2n lazy black-box products (route (8)).
enum class BoxStructure {
  kDense,       ///< O(n^2) per product
  kSparse,      ///< O(nnz) per product
  kStructured,  ///< O(M(n)) per product (Toeplitz, Hankel, diagonal)
  kUnknown,     ///< composition / external operator
};

/// Structure hint of a box: its structure() member if present, else its
/// static kStructure tag, else kUnknown.
template <LinOp B>
BoxStructure box_structure(const B& b) {
  if constexpr (requires { { b.structure() } -> std::convertible_to<BoxStructure>; }) {
    return b.structure();
  } else if constexpr (requires { { B::kStructure } -> std::convertible_to<BoxStructure>; }) {
    return B::kStructure;
  } else {
    return BoxStructure::kUnknown;
  }
}

/// Dense matrix as a black box.
template <kp::field::CommutativeRing R>
class DenseBox {
 public:
  using Element = typename R::Element;
  static constexpr BoxStructure kStructure = BoxStructure::kDense;
  DenseBox(const R& r, Matrix<R> a) : r_(&r), a_(std::move(a)) {
    assert(a_.is_square());
  }
  std::size_t dim() const { return a_.rows(); }
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return mat_vec(*r_, a_, x);
  }
  const Matrix<R>& matrix() const { return a_; }

 private:
  const R* r_;
  Matrix<R> a_;
};

/// Non-owning dense view: what the solver's dense-matrix adapter overloads
/// wrap, so accepting a Matrix<F> costs no copy.  The matrix must outlive
/// the view.
template <kp::field::CommutativeRing R>
class DenseViewBox {
 public:
  using Element = typename R::Element;
  static constexpr BoxStructure kStructure = BoxStructure::kDense;
  DenseViewBox(const R& r, const Matrix<R>& a) : r_(&r), a_(&a) {
    assert(a.is_square());
  }
  std::size_t dim() const { return a_->rows(); }
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return mat_vec(*r_, *a_, x);
  }
  const Matrix<R>& matrix() const { return *a_; }

 private:
  const R* r_;
  const Matrix<R>* a_;
};

/// Dense operator M held as its transpose: apply(x) = x^T M^T = M x as a
/// row-vector product.  vec_mat runs the tiled product over M^T's
/// contiguous rows, where mat_vec pays a fixed cost per row dot, so a
/// solver that applies one materialized operator many times stores it this
/// way.
template <kp::field::CommutativeRing R>
class TransposedDenseBox {
 public:
  using Element = typename R::Element;
  static constexpr BoxStructure kStructure = BoxStructure::kDense;
  /// Takes M^T, not M.
  TransposedDenseBox(const R& r, Matrix<R> transposed)
      : r_(&r), t_(std::move(transposed)) {
    assert(t_.is_square());
  }
  std::size_t dim() const { return t_.rows(); }
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return vec_mat(*r_, x, t_);
  }

 private:
  const R* r_;
  Matrix<R> t_;
};

/// CSR sparse matrix as a black box.
template <kp::field::CommutativeRing R>
class SparseBox {
 public:
  using Element = typename R::Element;
  static constexpr BoxStructure kStructure = BoxStructure::kSparse;
  SparseBox(const R& r, Sparse<R> a) : r_(&r), a_(std::move(a)) {
    assert(a_.rows() == a_.cols());
  }
  std::size_t dim() const { return a_.rows(); }
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return a_.apply(*r_, x);
  }
  std::vector<std::vector<Element>> apply_many(
      const std::vector<const std::vector<Element>*>& xs) const {
    return a_.apply_many(*r_, xs);
  }
  const Sparse<R>& matrix() const { return a_; }

 private:
  const R* r_;
  Sparse<R> a_;
};

/// Toeplitz matrix as a black box (O(M(n)) products via polynomial mult).
template <kp::field::Field F>
class ToeplitzBox {
 public:
  using Element = typename F::Element;
  static constexpr BoxStructure kStructure = BoxStructure::kStructured;
  ToeplitzBox(const kp::poly::PolyRing<F>& ring, Toeplitz<F> t)
      : ring_(&ring), t_(std::move(t)) {}
  std::size_t dim() const { return t_.dim(); }
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return t_.apply(*ring_, x);
  }
  std::vector<std::vector<Element>> apply_many(
      const std::vector<const std::vector<Element>*>& xs) const {
    return t_.apply_many(*ring_, xs);
  }

 private:
  const kp::poly::PolyRing<F>* ring_;
  Toeplitz<F> t_;
};

/// Hankel matrix as a black box.
template <kp::field::Field F>
class HankelBox {
 public:
  using Element = typename F::Element;
  static constexpr BoxStructure kStructure = BoxStructure::kStructured;
  HankelBox(const kp::poly::PolyRing<F>& ring, Hankel<F> h)
      : ring_(&ring), h_(std::move(h)) {}
  std::size_t dim() const { return h_.dim(); }
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return h_.apply(*ring_, x);
  }
  std::vector<std::vector<Element>> apply_many(
      const std::vector<const std::vector<Element>*>& xs) const {
    return h_.apply_many(*ring_, xs);
  }
  const Hankel<F>& matrix() const { return h_; }

 private:
  const kp::poly::PolyRing<F>* ring_;
  Hankel<F> h_;
};

/// Diagonal matrix as a black box.
template <kp::field::CommutativeRing R>
class DiagonalBox {
 public:
  using Element = typename R::Element;
  static constexpr BoxStructure kStructure = BoxStructure::kStructured;
  DiagonalBox(const R& r, Diagonal<R> d) : r_(&r), d_(std::move(d)) {}
  std::size_t dim() const { return d_.dim(); }
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return d_.apply(*r_, x);
  }
  const Diagonal<R>& matrix() const { return d_; }

 private:
  const R* r_;
  Diagonal<R> d_;
};

/// Composition (A * B) x = A (B x) -- preconditioners compose this way
/// without ever forming the product matrix.
template <LinOp A, LinOp B>
  requires std::same_as<typename A::Element, typename B::Element>
class ProductBox {
 public:
  using Element = typename A::Element;
  ProductBox(A a, B b) : a_(std::move(a)), b_(std::move(b)) {
    assert(a_.dim() == b_.dim());
  }
  std::size_t dim() const { return a_.dim(); }
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return a_.apply(b_.apply(x));
  }
  std::vector<std::vector<Element>> apply_many(
      const std::vector<const std::vector<Element>*>& xs) const {
    return apply_columns(a_, apply_columns(b_, xs));
  }
  /// Cost of a product is dominated by the denser factor.
  BoxStructure structure() const {
    const auto sa = box_structure(a_), sb = box_structure(b_);
    if (sa == BoxStructure::kUnknown || sb == BoxStructure::kUnknown) {
      return BoxStructure::kUnknown;
    }
    return sa > sb ? sb : sa;  // enum order: dense < sparse < structured
  }

 private:
  A a_;
  B b_;
};

/// The Theorem-2 preconditioned operator A*H*D, composed lazily: one inner
/// product with A plus one O(M(n)) Hankel product (polynomial
/// multiplication) plus n diagonal scalings per apply -- the dense n x n
/// product A*H*D is never materialized.  Holds a non-owning view of the
/// inner operator (the solver keeps it alive for the attempt's duration);
/// H and D are owned.
template <kp::field::Field F, LinOp B>
  requires std::same_as<typename B::Element, typename F::Element>
class PreconditionedBox {
 public:
  using Element = typename F::Element;
  PreconditionedBox(const F& f, const kp::poly::PolyRing<F>& ring,
                    const B& inner, Hankel<F> h, Diagonal<F> d)
      : f_(&f), ring_(&ring), inner_(&inner), h_(std::move(h)), d_(std::move(d)) {
    assert(inner.dim() == h_.dim() && h_.dim() == d_.dim());
  }
  std::size_t dim() const { return h_.dim(); }
  /// (A H D) x = A (H (D x)).
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return inner_->apply(h_.apply(*ring_, d_.apply(*f_, x)));
  }
  /// Batched (A H D) x_k: one diagonal pass per column, one batched Hankel
  /// product sharing the cached symbol spectrum, then the inner operator's
  /// own batch path (apply_columns falls back per-column when absent).
  std::vector<std::vector<Element>> apply_many(
      const std::vector<const std::vector<Element>*>& xs) const {
    std::vector<std::vector<Element>> scaled(xs.size());
    for (std::size_t k = 0; k < xs.size(); ++k) {
      scaled[k] = d_.apply(*f_, *xs[k]);
    }
    return apply_columns(*inner_, h_.apply_many(*ring_, to_ptrs(scaled)));
  }
  /// Route selection follows the inner operator: the Hankel/diagonal layers
  /// only add O(M(n)) per product.
  BoxStructure structure() const { return box_structure(*inner_); }

 private:
  const F* f_;
  const kp::poly::PolyRing<F>* ring_;
  const B* inner_;
  Hankel<F> h_;
  Diagonal<F> d_;
};

/// Type-erased black box for runtime backend dispatch: a service endpoint
/// (or AnyBox-keyed cache) can hold heterogeneous operators in one
/// container and route them all through the same LinOp-templated solver.
/// Cheap to copy (shared immutable payload).
template <kp::field::Field F>
class AnyBox {
 public:
  using Element = typename F::Element;

  template <class B>
    requires LinOp<std::decay_t<B>> &&
             std::same_as<typename std::decay_t<B>::Element, Element> &&
             (!std::same_as<std::decay_t<B>, AnyBox>)
  AnyBox(B&& box)  // NOLINT(google-explicit-constructor): adapter by design
      : impl_(std::make_shared<Model<std::decay_t<B>>>(std::forward<B>(box))) {}

  std::size_t dim() const { return impl_->dim(); }
  std::vector<Element> apply(const std::vector<Element>& x) const {
    return impl_->apply(x);
  }
  /// Batched applies: forwarded to the underlying box's apply_many when it
  /// has one, per-column applies otherwise -- so block algorithms can run
  /// through the type-erased interface without losing the batch paths.
  std::vector<std::vector<Element>> apply_many(
      const std::vector<const std::vector<Element>*>& xs) const {
    return impl_->apply_many(xs);
  }
  BoxStructure structure() const { return impl_->structure(); }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual std::size_t dim() const = 0;
    virtual std::vector<Element> apply(const std::vector<Element>& x) const = 0;
    virtual std::vector<std::vector<Element>> apply_many(
        const std::vector<const std::vector<Element>*>& xs) const = 0;
    virtual BoxStructure structure() const = 0;
  };

  template <LinOp B>
  struct Model final : Concept {
    explicit Model(B box) : box_(std::move(box)) {}
    std::size_t dim() const override { return box_.dim(); }
    std::vector<Element> apply(const std::vector<Element>& x) const override {
      return box_.apply(x);
    }
    std::vector<std::vector<Element>> apply_many(
        const std::vector<const std::vector<Element>*>& xs) const override {
      return apply_columns(box_, xs);
    }
    BoxStructure structure() const override { return box_structure(box_); }
    B box_;
  };

  std::shared_ptr<const Concept> impl_;
};

/// Materializes a box as a dense matrix: column j = B e_j, n black-box
/// products.  The solver pays this for a dense-structured box without a
/// matrix() accessor (an AnyBox) and for the dense baseline; the values are
/// exactly the operator's entries, so downstream arithmetic is identical to
/// the dense path.
template <kp::field::CommutativeRing R, LinOp B>
Matrix<R> materialize_dense(const R& r, const B& box) {
  const std::size_t n = box.dim();
  Matrix<R> out(n, n, r.zero());
  std::vector<typename R::Element> e(n, r.zero());
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = r.one();
    const auto col = box.apply(e);
    for (std::size_t i = 0; i < n; ++i) out.at(i, j) = col[i];
    e[j] = r.zero();
  }
  return out;
}

/// Computes the projected Krylov sequence {u A^i v : 0 <= i < count}
/// iteratively: count-1 black-box products and count dot products.  This is
/// Wiedemann's sequential route to the sequence (8); the processor-efficient
/// doubling route (9) lives in core/krylov.h.
template <kp::field::CommutativeRing R, LinOp B>
std::vector<typename R::Element> krylov_sequence_iterative(
    const R& r, const B& box, const std::vector<typename R::Element>& u,
    const std::vector<typename R::Element>& v, std::size_t count) {
  std::vector<typename R::Element> seq;
  seq.reserve(count);
  auto x = v;
  for (std::size_t i = 0; i < count; ++i) {
    if (i) x = box.apply(x);
    seq.push_back(dot(r, u, x));
  }
  return seq;
}

}  // namespace kp::matrix
