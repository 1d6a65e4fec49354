// The fast-kernel layer: trait-selected fused block operations.
//
// FieldKernels<F> is the customization point that tells the matrix / NTT /
// sequence layers whether a domain's elements are word-sized canonical
// residues that the reduction-free kernels of field/fastmod.h may operate
// on.  The primary template says "no", so every domain -- extension fields,
// rationals, truncated series, and crucially the symbolic
// CircuitBuilderField -- keeps the generic element-by-element path
// unchanged.  Zp<P> and GFp opt in.
//
// THE CONTRACT (tested in tests/test_kernels.cpp):
//   1. bit-identical results: each kernel returns exactly the canonical
//      representatives the reference path produces;
//   2. identical op accounting: a kernel that fuses k logical field
//      operations bulk-charges those same k operations to the thread-local
//      counters, so OpScope measurements cannot tell the paths apart;
//   3. composability: kernels are pure per-call and safe to invoke from
//      pooled ExecutionContext workers (counts fold back to the submitter
//      exactly as the reference ops do).
//
// The kernels themselves are the classic delayed-reduction shapes: inner
// products accumulate raw 128-bit products and reduce once per output
// (spilling every delayed_dot_capacity(p) terms for small headroom), sums
// accumulate 64-bit residues into a 128-bit counter, and batched inversion
// is Montgomery's trick (one extended Euclid plus 3(k-1) multiplies for k
// inverses, still charged as k logical divisions -- the model prices an
// inversion as one division regardless of how it is realized, exactly as
// the seed's extended-Euclid inv() already did).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "field/fastmod.h"
#include "field/simd.h"
#include "field/zp.h"
#include "util/op_count.h"
#include "util/status.h"

namespace kp::field {

/// Primary template: no fast kernels; generic paths only.
template <class F>
struct FieldKernels {
  static constexpr bool kFast = false;
};

/// Compile-time-modulus prime field: a constexpr Barrett context.
template <std::uint64_t P>
struct FieldKernels<Zp<P>> {
  static constexpr bool kFast = true;
  static constexpr const fastmod::Barrett& barrett(const Zp<P>&) {
    return Zp<P>::barrett();
  }
  static std::uint64_t mul_nocount(const Zp<P>&, std::uint64_t a,
                                   std::uint64_t b) {
    return Zp<P>::mul_nocount(a, b);
  }
};

/// Runtime-modulus prime field: the context precomputed by the domain.
template <>
struct FieldKernels<GFp> {
  static constexpr bool kFast = true;
  static const fastmod::Barrett& barrett(const GFp& f) { return f.barrett(); }
  static std::uint64_t mul_nocount(const GFp& f, std::uint64_t a,
                                   std::uint64_t b) {
    return f.mul_nocount(a, b);
  }
};

namespace kernels {

/// Fields whose block operations may go through the fused kernels.
template <class F>
concept FastField =
    FieldKernels<F>::kFast && std::is_same_v<typename F::Element, std::uint64_t>;

/// Uncounted canonical product; for call sites that already charged the
/// operation under another name (e.g. div = one division, like the fields'
/// own mul_nocount, which this forwards to -- REDC for odd moduli).
template <FastField F>
inline std::uint64_t mul_uncounted(const F& f, std::uint64_t a, std::uint64_t b) {
  return FieldKernels<F>::mul_nocount(f, a, b);
}

/// Sum of n residues; replaces balanced_sum's add tree (same canonical
/// value, same n-1 logical additions).  Residues are < p < 2^63, so a
/// 128-bit accumulator cannot overflow for any realizable n.
template <FastField F>
std::uint64_t sum(const F& f, const std::uint64_t* a, std::size_t n) {
  if (n == 0) return 0;
  kp::util::count_adds(n - 1);
  const auto& bar = FieldKernels<F>::barrett(f);
  if (std::uint64_t out; simd::sum(bar, a, n, &out)) return out;
  fastmod::u128 acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i];
  return bar.reduce_full(acc);
}

/// Delayed-reduction inner product: sum_i a[i] * b[i] mod p.  Accounting
/// matches mul-then-balanced_sum: n multiplications plus n-1 additions
/// (zero additions for n <= 1).
template <FastField F>
std::uint64_t dot(const F& f, const std::uint64_t* a, const std::uint64_t* b,
                  std::size_t n) {
  if (n == 0) return 0;
  kp::util::count_muls(n);
  kp::util::count_adds(n - 1);
  const auto& bar = FieldKernels<F>::barrett(f);
  if (std::uint64_t out; simd::dot(bar, a, b, n, &out)) return out;
  const std::uint64_t cap = bar.dcap;
  fastmod::u128 acc = 0;
  std::uint64_t left = cap;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<fastmod::u128>(a[i]) * b[i];
    if (--left == 0) {
      acc = bar.reduce_full(acc);
      left = cap;
    }
  }
  return bar.reduce_full(acc);
}

/// Register-tiled matrix product over canonical residues:
/// out[i][j] = sum_k a[i][k] * b[k][j] for a rows x k panel of A (row
/// stride lda) and a k x cols block of B (row stride ldb), into out (row
/// stride ldo).  B is read in place along its rows (simd::gemm_rows picks
/// the tile body for the dispatch level).  Charges nothing: the callers
/// account in bulk -- mul_classical its zero-skipping count, vec_mat a dense
/// dot per column.
template <FastField F>
void gemm_rows(const F& f, const std::uint64_t* a, std::size_t lda,
               const std::uint64_t* b, std::size_t ldb, std::uint64_t* out,
               std::size_t ldo, std::size_t rows, std::size_t k,
               std::size_t cols) {
  simd::gemm_rows(FieldKernels<F>::barrett(f), a, lda, b, ldb, out, ldo, rows,
                  k, cols);
}

/// Gathered inner product sum_k val[k] * x[col[k]] with the CSR apply's
/// linear-chain accounting (n multiplications and n additions: the
/// reference folds the first term into a zero accumulator).  Scalar at every
/// level: an AVX-512 hardware-gather body ran at half this loop's speed on
/// the sparse operators' 65-entry rows.
template <FastField F>
std::uint64_t dot_gather(const F& f, const std::uint64_t* val,
                         const std::size_t* col, const std::uint64_t* x,
                         std::size_t n) {
  kp::util::count_muls(n);
  kp::util::count_adds(n);
  const auto& bar = FieldKernels<F>::barrett(f);
  const std::uint64_t cap = bar.dcap;
  fastmod::u128 acc = 0;
  std::uint64_t left = cap;
  for (std::size_t k = 0; k < n; ++k) {
    acc += static_cast<fastmod::u128>(val[k]) * x[col[k]];
    if (--left == 0) {
      acc = bar.reduce_full(acc);
      left = cap;
    }
  }
  return bar.reduce_full(acc);
}

/// Batched CSR row product against a row-major n x b transposed block:
/// out[k] = sum_j val[j] * xt[col[j] * b + k] for a chunk of <= 8 block
/// columns.  Replaces `chunk` gathered dots with contiguous loads; the
/// vector body (AVX-512 IFMA, rows of >= simd::kMinSimdN entries) and this
/// scalar loop both return the canonical residue of each lane's exact sum,
/// so values match dot_gather per lane.  Charges nothing: the caller
/// accounts the whole row batch in bulk.
template <FastField F>
void spmm_row(const F& f, const std::uint64_t* val, const std::size_t* col,
              std::size_t len, const std::uint64_t* xt, std::size_t b,
              std::size_t chunk, std::uint64_t* out) {
  const auto& bar = FieldKernels<F>::barrett(f);
  if (simd::spmm_row(bar, val, col, xt, b, chunk, len, out)) return;
  const std::uint64_t cap = bar.dcap;
  for (std::size_t k = 0; k < chunk; ++k) {
    fastmod::u128 acc = 0;
    std::uint64_t left = cap;
    for (std::size_t j = 0; j < len; ++j) {
      acc += static_cast<fastmod::u128>(val[j]) * xt[col[j] * b + k];
      if (--left == 0) {
        acc = bar.reduce_full(acc);
        left = cap;
      }
    }
    out[k] = bar.reduce_full(acc);
  }
}

/// Elementwise lane kernels -- the tape evaluator's per-level bodies
/// (circuit/tape_eval.h).  Each charges the n logical operations a loop of
/// the field's scalar calls would, and canonical residues are unique, so
/// the vector and scalar bodies agree bit-for-bit.  dst may alias a or b.

/// dst[i] = a[i] + b[i], n additions.
template <FastField F>
void add_lanes(const F& f, const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* dst, std::size_t n) {
  kp::util::count_adds(n);
  const std::uint64_t p = FieldKernels<F>::barrett(f).p;
  if (simd::vec_mod_add(p, a, b, dst, n)) return;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t s = a[i] + b[i];
    dst[i] = s >= p ? s - p : s;
  }
}

/// dst[i] = a[i] - b[i], n subtractions.
template <FastField F>
void sub_lanes(const F& f, const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* dst, std::size_t n) {
  kp::util::count_adds(n);
  const std::uint64_t p = FieldKernels<F>::barrett(f).p;
  if (simd::vec_mod_sub(p, a, b, dst, n)) return;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + p - b[i];
  }
}

/// dst[i] = -a[i], n negations.
template <FastField F>
void neg_lanes(const F& f, const std::uint64_t* a, std::uint64_t* dst,
               std::size_t n) {
  kp::util::count_adds(n);
  const std::uint64_t p = FieldKernels<F>::barrett(f).p;
  if (simd::vec_mod_neg(p, a, dst, n)) return;
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] == 0 ? 0 : p - a[i];
}

/// dst[i] = a[i] * b[i] without charging -- for call sites that already
/// priced the operation under another name (a division's numerator-times-
/// inverse step).
template <FastField F>
void mul_lanes_uncounted(const F& f, const std::uint64_t* a,
                         const std::uint64_t* b, std::uint64_t* dst,
                         std::size_t n) {
  const auto& bar = FieldKernels<F>::barrett(f);
  if (simd::vec_mod_mul(bar, a, b, dst, n)) return;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = FieldKernels<F>::mul_nocount(f, a[i], b[i]);
  }
}

/// dst[i] = a[i] * b[i], n multiplications.
template <FastField F>
void mul_lanes(const F& f, const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* dst, std::size_t n) {
  kp::util::count_muls(n);
  mul_lanes_uncounted(f, a, b, dst, n);
}

/// Montgomery's batched-inversion trick: inverts a[0..n) in place with ONE
/// extended Euclid and 3(n-1) uncounted multiplies.  Charged as n logical
/// divisions -- the same price as n calls to f.inv() -- and the field
/// inverse is unique, so the values are bit-identical to the one-by-one
/// path.  A zero entry is reported as kDivisionByZero (in every build mode)
/// with the input left untouched; the pre-scan runs before any mutation so
/// callers can propagate the failure without unwinding partial state.
template <FastField F>
kp::util::Status batch_inverse(const F& f, std::uint64_t* a, std::size_t n) {
  if (n == 0) return kp::util::Status::Ok();
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == 0) {
      return kp::util::Status::Fail(kp::util::FailureKind::kDivisionByZero,
                                    kp::util::Stage::kNone,
                                    "batch_inverse: zero element");
    }
  }
  kp::util::count_divs(n);
  const auto& bar = FieldKernels<F>::barrett(f);
  if (simd::batch_inverse(bar.p, a, n, &detail::invmod)) {
    return kp::util::Status::Ok();
  }
  std::vector<std::uint64_t> prefix(n);
  std::uint64_t acc = 1;  // p >= 2, so 1 is canonical
  for (std::size_t i = 0; i < n; ++i) {
    acc = mul_uncounted(f, acc, a[i]);
    prefix[i] = acc;
  }
  std::uint64_t inv_suffix = detail::invmod(acc, bar.p);
  for (std::size_t i = n; i-- > 1;) {
    const std::uint64_t inv_i = mul_uncounted(f, inv_suffix, prefix[i - 1]);
    inv_suffix = mul_uncounted(f, inv_suffix, a[i]);
    a[i] = inv_i;
  }
  a[0] = inv_suffix;
  return kp::util::Status::Ok();
}

}  // namespace kernels

}  // namespace kp::field
