// Dense matrices over an arbitrary commutative ring.
//
// A Matrix<R> is a plain row-major value type; all arithmetic lives in free
// functions parameterized by the domain object, following the same
// domain/element split as the field layer.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "field/concepts.h"
#include "field/kernels.h"
#include "pram/parallel_for.h"
#include "util/aligned.h"
#include "util/prng.h"

namespace kp::matrix {

/// Minimum number of ring operations before a kernel fans out onto the
/// pooled ExecutionContext; below it the region overhead dominates.
inline constexpr std::size_t kParallelGrain = 1 << 15;

/// Minimum rows * cols of A before a vec_mat splits its output columns over the pool, kVecMatSlice columns
/// per task.  Below it a one-row product is a few hundred microseconds of
/// tiled kernel at most, and a region costs more than it saves.
inline constexpr std::size_t kVecMatParallelGrain = 1 << 18;
inline constexpr std::size_t kVecMatSlice = 64;

/// Sums a term buffer as a balanced binary tree (depth ceil(log2 n) instead
/// of n-1).  Same operation count as a linear scan, but every inner-product
/// kernel in the library accumulates this way so that circuits built over
/// the symbolic CircuitBuilderField have the logarithmic depth the paper's
/// PRAM model assumes.  The buffer is consumed.
///
/// Word-sized prime fields take the delayed-reduction kernel instead: one
/// 128-bit accumulation per term and a single reduction, which yields the
/// same canonical residue and charges the same n-1 additions.
template <kp::field::CommutativeRing R>
typename R::Element balanced_sum(const R& r,
                                 std::vector<typename R::Element>& terms) {
  if (terms.empty()) return r.zero();
  if constexpr (kp::field::kernels::FastField<R>) {
    return kp::field::kernels::sum(r, terms.data(), terms.size());
  }
  std::size_t count = terms.size();
  while (count > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < count; i += 2) {
      terms[out++] = r.add(terms[i], terms[i + 1]);
    }
    if (count % 2) terms[out++] = std::move(terms[count - 1]);
    count = out;
  }
  return std::move(terms[0]);
}

/// Row-major dense matrix of R::Element.  The backing store is 64-byte
/// aligned (util/aligned.h) so the word-sized fast-field kernels start on
/// the vector-register / cache-line boundary; element layout is unchanged.
template <kp::field::CommutativeRing R>
class Matrix {
 public:
  using Element = typename R::Element;
  using Storage = kp::util::AlignedVector<Element>;

  Matrix() : rows_(0), cols_(0) {}
  Matrix(std::size_t rows, std::size_t cols, Element fill)
      : rows_(rows), cols_(cols), data_(rows * cols, std::move(fill)) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool is_square() const { return rows_ == cols_; }

  Element& at(std::size_t i, std::size_t j) {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  const Element& at(std::size_t i, std::size_t j) const {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Contiguous row access for kernels.
  Element* row(std::size_t i) { return data_.data() + i * cols_; }
  const Element* row(std::size_t i) const { return data_.data() + i * cols_; }

  Storage& data() { return data_; }
  const Storage& data() const { return data_; }

 private:
  std::size_t rows_, cols_;
  Storage data_;
};

template <kp::field::CommutativeRing R>
Matrix<R> zero_matrix(const R& r, std::size_t rows, std::size_t cols) {
  return Matrix<R>(rows, cols, r.zero());
}

template <kp::field::CommutativeRing R>
Matrix<R> identity_matrix(const R& r, std::size_t n) {
  Matrix<R> out(n, n, r.zero());
  for (std::size_t i = 0; i < n; ++i) out.at(i, i) = r.one();
  return out;
}

/// Matrix with i.i.d. uniform entries from the whole field.
template <kp::field::CommutativeRing R>
Matrix<R> random_matrix(const R& r, std::size_t rows, std::size_t cols,
                        kp::util::Prng& prng) {
  Matrix<R> out(rows, cols, r.zero());
  for (auto& e : out.data()) e = r.random(prng);
  return out;
}

/// Matrix with i.i.d. entries from the canonical sample set of size s
/// (the set S of the paper's probability statements).
template <kp::field::Field F>
Matrix<F> sample_matrix(const F& f, std::size_t rows, std::size_t cols,
                        kp::util::Prng& prng, std::uint64_t s) {
  Matrix<F> out(rows, cols, f.zero());
  for (auto& e : out.data()) e = f.sample(prng, s);
  return out;
}

template <kp::field::CommutativeRing R>
bool mat_eq(const R& r, const Matrix<R>& a, const Matrix<R>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (!r.eq(a.data()[i], b.data()[i])) return false;
  }
  return true;
}

template <kp::field::CommutativeRing R>
Matrix<R> mat_add(const R& r, const Matrix<R>& a, const Matrix<R>& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix<R> out(a.rows(), a.cols(), r.zero());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    out.data()[i] = r.add(a.data()[i], b.data()[i]);
  }
  return out;
}

template <kp::field::CommutativeRing R>
Matrix<R> mat_sub(const R& r, const Matrix<R>& a, const Matrix<R>& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix<R> out(a.rows(), a.cols(), r.zero());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    out.data()[i] = r.sub(a.data()[i], b.data()[i]);
  }
  return out;
}

template <kp::field::CommutativeRing R>
Matrix<R> mat_scale(const R& r, const typename R::Element& c, const Matrix<R>& a) {
  Matrix<R> out(a.rows(), a.cols(), r.zero());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    out.data()[i] = r.mul(c, a.data()[i]);
  }
  return out;
}

template <kp::field::CommutativeRing R>
Matrix<R> mat_transpose(const R& r, const Matrix<R>& a) {
  Matrix<R> out(a.cols(), a.rows(), r.zero());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) out.at(j, i) = a.at(i, j);
  }
  return out;
}

/// Transposes a square matrix in place: no second n x n buffer is alive.
template <kp::field::CommutativeRing R>
void transpose_in_place(Matrix<R>& a) {
  assert(a.is_square());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      std::swap(a.at(i, j), a.at(j, i));
    }
  }
}

/// Dense matrix * vector.  Rows are independent, so large products run on
/// the pooled ExecutionContext; the per-row arithmetic is identical either
/// way, keeping results bit-identical for every worker count.
template <kp::field::CommutativeRing R>
std::vector<typename R::Element> mat_vec(const R& r, const Matrix<R>& a,
                                         const std::vector<typename R::Element>& x) {
  assert(a.cols() == x.size());
  std::vector<typename R::Element> out(a.rows(), r.zero());
  if constexpr (kp::field::kernels::FastField<R>) {
    // The kernels consume raw row pointers: the backing store must carry
    // the aligned-allocation guarantee (base address % kSimdAlign == 0).
    static_assert(
        std::is_same_v<typename Matrix<R>::Storage,
                       kp::util::AlignedVector<typename Matrix<R>::Element>>,
        "kernel-facing matrix storage must use the aligned allocator");
    // Fused delayed-reduction rows: one reduction per output entry.
    auto fast_row = [&](std::size_t i) {
      out[i] = kp::field::kernels::dot(r, a.row(i), x.data(), a.cols());
    };
    if (kp::field::concurrent_ops_v<R> && a.rows() * a.cols() >= kParallelGrain) {
      kp::pram::parallel_for(0, a.rows(), fast_row);
    } else {
      for (std::size_t i = 0; i < a.rows(); ++i) fast_row(i);
    }
    return out;
  }
  auto row_product = [&](std::size_t i, std::vector<typename R::Element>& terms) {
    const auto* row = a.row(i);
    terms.clear();
    for (std::size_t j = 0; j < a.cols(); ++j) {
      terms.push_back(r.mul(row[j], x[j]));
    }
    out[i] = balanced_sum(r, terms);
  };
  if (kp::field::concurrent_ops_v<R> && a.rows() * a.cols() >= kParallelGrain) {
    kp::pram::parallel_for(0, a.rows(), [&](std::size_t i) {
      std::vector<typename R::Element> terms;
      terms.reserve(a.cols());
      row_product(i, terms);
    });
  } else {
    std::vector<typename R::Element> terms;
    terms.reserve(a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) row_product(i, terms);
  }
  return out;
}

/// Row vector * dense matrix.  Output columns are independent, so large
/// products split them into kVecMatSlice-wide slices over the pool, each
/// slice computed exactly as the whole would be; the charge stays on the
/// calling thread.
template <kp::field::CommutativeRing R>
std::vector<typename R::Element> vec_mat(const R& r,
                                         const std::vector<typename R::Element>& x,
                                         const Matrix<R>& a) {
  using E = typename R::Element;
  const std::size_t n = a.rows(), m = a.cols();
  assert(n == x.size());
  std::vector<E> out(m, r.zero());
  const std::size_t slices = (m + kVecMatSlice - 1) / kVecMatSlice;
  auto run = [&](auto&& slice) {
    if (kp::field::concurrent_ops_v<R> && n * m >= kVecMatParallelGrain) {
      kp::pram::parallel_for(0, slices, slice);
    } else {
      for (std::size_t s = 0; s < slices; ++s) slice(s);
    }
  };
  if constexpr (kp::field::kernels::FastField<R>) {
    // A one-row product over A's contiguous rows, charged as one dot per
    // column: rows multiplications and rows - 1 additions each.
    if (n == 0) return out;
    kp::util::count_muls(n * m);
    kp::util::count_adds((n - 1) * m);
    run([&](std::size_t s) {
      const std::size_t c0 = s * kVecMatSlice;
      kp::field::kernels::gemm_rows(r, x.data(), n, a.data().data() + c0, m,
                                    out.data() + c0, m, 1, n,
                                    std::min(kVecMatSlice, m - c0));
    });
    return out;
  }
  run([&](std::size_t s) {
    const std::size_t c1 = std::min(m, (s + 1) * kVecMatSlice);
    std::vector<E> terms;
    terms.reserve(n);
    for (std::size_t j = s * kVecMatSlice; j < c1; ++j) {
      terms.clear();
      for (std::size_t l = 0; l < n; ++l) {
        terms.push_back(r.mul(x[l], a.at(l, j)));
      }
      out[j] = balanced_sum(r, terms);
    }
  });
  return out;
}

/// Inner product of two vectors.
template <kp::field::CommutativeRing R>
typename R::Element dot(const R& r, const std::vector<typename R::Element>& x,
                        const std::vector<typename R::Element>& y) {
  assert(x.size() == y.size());
  if constexpr (kp::field::kernels::FastField<R>) {
    return kp::field::kernels::dot(r, x.data(), y.data(), x.size());
  }
  std::vector<typename R::Element> terms;
  terms.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    terms.push_back(r.mul(x[i], y[i]));
  }
  return balanced_sum(r, terms);
}

/// Leading principal i x i submatrix.
template <kp::field::CommutativeRing R>
Matrix<R> leading_principal(const R& r, const Matrix<R>& a, std::size_t i) {
  assert(i <= a.rows() && i <= a.cols());
  Matrix<R> out(i, i, r.zero());
  for (std::size_t x = 0; x < i; ++x) {
    for (std::size_t y = 0; y < i; ++y) out.at(x, y) = a.at(x, y);
  }
  return out;
}

}  // namespace kp::matrix
