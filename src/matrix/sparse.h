// Compressed-sparse-row matrices.
//
// Wiedemann's method (section 2 of the paper, after Wiedemann 1986) is the
// black-box algorithm of choice for sparse systems: its cost is 2n
// matrix-vector products plus O(n^2) dot products.  CSR provides the
// O(nnz) product the sparse experiments rely on.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "matrix/dense.h"
#include "util/aligned.h"
#include "util/prng.h"

namespace kp::matrix {

/// CSR sparse matrix over a ring.
template <kp::field::CommutativeRing R>
class Sparse {
 public:
  using Element = typename R::Element;

  /// COO triplet used for construction.
  struct Entry {
    std::size_t row, col;
    Element value;
  };

  Sparse(const R& r, std::size_t rows, std::size_t cols,
         std::vector<Entry> entries)
      : rows_(rows), cols_(cols) {
    // Counting sort by row into CSR arrays; duplicate positions are summed.
    std::vector<std::size_t> count(rows + 1, 0);
    for (const auto& e : entries) {
      assert(e.row < rows && e.col < cols);
      ++count[e.row + 1];
    }
    for (std::size_t i = 0; i < rows; ++i) count[i + 1] += count[i];
    row_ptr_ = count;
    col_.resize(entries.size());
    val_.resize(entries.size(), r.zero());
    std::vector<std::size_t> next = row_ptr_;
    for (auto& e : entries) {
      const std::size_t slot = next[e.row]++;
      col_[slot] = e.col;
      val_[slot] = std::move(e.value);
    }
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return col_.size(); }

  /// y = A x in O(nnz) ring operations.  Rows are independent, so large
  /// products run on the pooled ExecutionContext (bit-identical results for
  /// every worker count).  Word-sized prime fields take the gathered
  /// delayed-reduction kernel (one reduction per row, same linear-chain
  /// accounting of nnz multiplications and nnz additions).
  std::vector<Element> apply(const R& r, const std::vector<Element>& x) const {
    assert(x.size() == cols_);
    std::vector<Element> y(rows_, r.zero());
    auto row_product = [&](std::size_t i) {
      if constexpr (kp::field::kernels::FastField<R>) {
        // dot_gather consumes raw val_/col_ pointers: keep the aligned
        // backing-store guarantee attached to the declarations below.
        static_assert(
            std::is_same_v<decltype(val_), kp::util::AlignedVector<Element>> &&
                std::is_same_v<decltype(col_),
                               kp::util::AlignedVector<std::size_t>>,
            "kernel-facing sparse storage must use the aligned allocator");
        const std::size_t lo = row_ptr_[i];
        y[i] = kp::field::kernels::dot_gather(r, val_.data() + lo,
                                              col_.data() + lo, x.data(),
                                              row_ptr_[i + 1] - lo);
        return;
      } else {
        auto acc = r.zero();
        for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
          acc = r.add(acc, r.mul(val_[k], x[col_[k]]));
        }
        y[i] = std::move(acc);
      }
    };
    if (kp::field::concurrent_ops_v<R> && nnz() >= kParallelGrain) {
      kp::pram::parallel_for(0, rows_, row_product);
    } else {
      for (std::size_t i = 0; i < rows_; ++i) row_product(i);
    }
    return y;
  }

  /// Batched y_k = A x_k, element- and op-count-identical to b separate
  /// apply() calls, which it is at b <= 1 and over every ring without the
  /// fast kernels.  Word-sized prime fields at b > 1 transpose the block to
  /// a row-major n x b layout and run the fused SpMM kernel: each CSR entry
  /// reads its b operands from one contiguous row of the block instead of
  /// b scattered vectors (and, on AVX-512 IFMA for rows of >= 32 entries,
  /// is one broadcast against b vector lanes).  Each lane is the canonical
  /// residue of the same sum as apply(), charged in bulk as b * len
  /// multiplications and additions per row, at every SIMD level and for
  /// 1..N workers (parallel chunking is by row, independent of the worker
  /// count).
  std::vector<std::vector<Element>> apply_many(
      const R& r, const std::vector<const std::vector<Element>*>& xs) const {
    const std::size_t b = xs.size();
    if constexpr (kp::field::kernels::FastField<R>) {
      if (b > 1) {
        std::vector<std::vector<Element>> ys(b);
        for (auto& y : ys) y.assign(rows_, r.zero());
        kp::util::AlignedVector<Element> xt(cols_ * b);
        for (std::size_t k = 0; k < b; ++k) {
          const std::vector<Element>& x = *xs[k];
          assert(x.size() == cols_);
          for (std::size_t j = 0; j < cols_; ++j) xt[j * b + k] = x[j];
        }
        auto row_block = [&](std::size_t i) {
          const std::size_t lo = row_ptr_[i];
          const std::size_t len = row_ptr_[i + 1] - lo;
          kp::util::count_muls(b * len);
          kp::util::count_adds(b * len);
          Element lanes[8];
          for (std::size_t k0 = 0; k0 < b; k0 += 8) {
            const std::size_t chunk = b - k0 < 8 ? b - k0 : 8;
            kp::field::kernels::spmm_row(r, val_.data() + lo, col_.data() + lo,
                                         len, xt.data() + k0, b, chunk, lanes);
            for (std::size_t k = 0; k < chunk; ++k) ys[k0 + k][i] = lanes[k];
          }
        };
        if (kp::field::concurrent_ops_v<R> && nnz() * b >= kParallelGrain) {
          kp::pram::parallel_for(0, rows_, row_block);
        } else {
          for (std::size_t i = 0; i < rows_; ++i) row_block(i);
        }
        return ys;
      }
    }
    std::vector<std::vector<Element>> ys;
    ys.reserve(b);
    for (const auto* x : xs) ys.push_back(apply(r, *x));
    return ys;
  }

  Matrix<R> to_dense(const R& r) const {
    Matrix<R> out(rows_, cols_, r.zero());
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        out.at(i, col_[k]) = r.add(out.at(i, col_[k]), val_[k]);
      }
    }
    return out;
  }

  /// Random square sparse matrix with ~nnz_per_row nonzeros per row plus a
  /// random nonzero diagonal (which keeps it nonsingular with decent odds).
  template <kp::field::Field F = R>
  static Sparse random(const F& f, std::size_t n, std::size_t nnz_per_row,
                       kp::util::Prng& prng, bool nonzero_diagonal = true) {
    std::vector<Entry> entries;
    entries.reserve(n * (nnz_per_row + 1));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < nnz_per_row; ++k) {
        entries.push_back({i, prng.below(n), f.random(prng)});
      }
      if (nonzero_diagonal) {
        auto d = f.random(prng);
        while (f.eq(d, f.zero())) d = f.random(prng);
        entries.push_back({i, i, std::move(d)});
      }
    }
    return Sparse(f, n, n, std::move(entries));
  }

 private:
  std::size_t rows_, cols_;
  std::vector<std::size_t> row_ptr_;
  kp::util::AlignedVector<std::size_t> col_;
  kp::util::AlignedVector<Element> val_;
};

}  // namespace kp::matrix
