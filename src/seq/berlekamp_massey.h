// The Berlekamp-Massey algorithm over an arbitrary field.
//
// Given 2m terms of a sequence whose minimum polynomial has degree <= m,
// Berlekamp-Massey recovers that polynomial in O(n * deg) field operations.
// This is the paper's sequential route to the generating polynomial ("the
// best method is the Berlekamp-Massey algorithm"); the parallel route via
// Toeplitz systems is in seq/newton_toeplitz.h, and the two are checked
// against each other.
//
// The same run also yields the determinant of the Hankel matrix of the
// sequence (hankel_det): its discrepancies are the Schur complements of the
// leading Hankel minors whenever those minors are all non-zero.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "field/concepts.h"

namespace kp::seq {

namespace detail {

/// The state a Berlekamp-Massey run leaves: the connection polynomial
/// C(x) = 1 + c_1 x + ... + c_L x^L (deg C <= L) of the shortest LFSR
/// generating the terms seen, and its length L.
template <class E>
struct Lfsr {
  std::vector<E> c;
  std::size_t l = 0;
};

/// The Berlekamp-Massey loop, shared by berlekamp_massey and hankel_det.
/// Step i computes the discrepancy d_i = s_i + sum_{k=1..L} c_k s_{i-k} of
/// the current LFSR against seq[i] and hands it to on_step(i, d_i); a false
/// return stops the run before the step's update.
template <kp::field::Field F, class OnStep>
Lfsr<typename F::Element> berlekamp_massey_run(
    const F& f, const std::vector<typename F::Element>& seq, OnStep&& on_step) {
  using E = typename F::Element;
  // s_j = -(c_1 s_{j-1} + ... + c_L s_{j-L}).
  Lfsr<E> cur{{f.one()}, 0};
  std::vector<E> b{f.one()};  // connection polynomial before the last length change
  std::vector<E> t;           // scratch: the outgoing C on a length change
  std::size_t m = 1;          // steps since b was current
  E delta_b = f.one();        // discrepancy when b was last updated
  auto& c = cur.c;
  auto& l = cur.l;

  for (std::size_t i = 0; i < seq.size(); ++i) {
    E d = seq[i];
    for (std::size_t k = 1; k <= l && k <= i; ++k) {
      if (k < c.size()) d = f.add(d, f.mul(c[k], seq[i - k]));
    }
    if (!on_step(i, d)) break;
    if (f.eq(d, f.zero())) {
      ++m;
      continue;
    }
    const bool grow = 2 * l <= i;
    if (grow) t = c;  // C before the update becomes the next b
    // c(x) -= (d / delta_b) * x^m * b(x)
    const E coef = f.div(d, delta_b);
    if (c.size() < b.size() + m) c.resize(b.size() + m, f.zero());
    for (std::size_t k = 0; k < b.size(); ++k) {
      c[k + m] = f.sub(c[k + m], f.mul(coef, b[k]));
    }
    if (grow) {
      l = i + 1 - l;
      std::swap(b, t);
      delta_b = d;
      m = 1;
    } else {
      ++m;
    }
  }
  return cur;
}

}  // namespace detail

/// Returns the monic minimum polynomial (little-endian coefficients) of the
/// shortest linear recurrence generating the given sequence prefix.  With at
/// least 2*deg(minpoly) terms the result is the true minimum polynomial of
/// the infinite sequence.
template <kp::field::Field F>
std::vector<typename F::Element> berlekamp_massey(
    const F& f, const std::vector<typename F::Element>& seq) {
  using E = typename F::Element;
  const auto run = detail::berlekamp_massey_run(
      f, seq, [](std::size_t, const E&) { return true; });

  // Convert the connection polynomial to the monic minimum polynomial:
  // f(x) = x^L * C(1/x), i.e. reverse C within length L+1.
  std::vector<E> out(run.l + 1, f.zero());
  for (std::size_t k = 0; k <= run.l; ++k) {
    out[run.l - k] = k < run.c.size() ? run.c[k] : f.zero();
  }
  assert(f.eq(out[run.l], f.one()));
  return out;
}

/// det(H) of the n x n Hankel matrix H_ij = h_{i+j}, given h_0..h_{2n-2},
/// in O(n^2) field operations -- or nullopt when H is not "normal".
///
/// If det H_k != 0 for the k x k leading minor, the first 2k terms have a
/// unique length-k LFSR, so Berlekamp-Massey holds exactly that one after
/// step 2k-1; adding sum_k c_k * column_{k-i} to the last column of H_{k+1}
/// then zeroes it except for the corner, which becomes d_{2k}.  Hence
/// det H_{k+1} = det H_k * d_{2k}, and by induction det H = prod_k d_{2k}
/// when every even-step discrepancy is non-zero.  A zero d_{2k} means a
/// leading minor vanishes (H itself may still be non-singular); the run
/// stops there and the caller settles det H another way.
template <kp::field::Field F>
std::optional<typename F::Element> hankel_det(
    const F& f, const std::vector<typename F::Element>& h) {
  using E = typename F::Element;
  assert(h.size() % 2 == 1);
  E det = f.one();
  bool normal = true;
  detail::berlekamp_massey_run(f, h, [&](std::size_t i, const E& d) {
    if (i % 2 == 1) return true;
    if (f.is_zero(d)) return normal = false;
    det = f.mul(det, d);
    return true;
  });
  if (!normal) return std::nullopt;
  return det;
}

}  // namespace kp::seq
