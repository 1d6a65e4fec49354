// sparse_block: block_wiedemann_solve_status with block width 4 on sparse
// n = 2048 operators (64 nonzeros per row plus the diagonal) over
// Zp<kNttPrime>.  A few operators are made in set-up and the requests cycle
// through them, each with a fresh right-hand side.
#include <cstdint>
#include <optional>
#include <vector>

#include "common.h"
#include "core/block_krylov.h"
#include "core/solver.h"
#include "core/wiedemann.h"
#include "field/zp.h"
#include "loop.h"
#include "matrix/blackbox.h"
#include "matrix/sparse.h"
#include "seq/matrix_berlekamp_massey.h"
#include "util/prng.h"

namespace kpbench {

namespace {

using F = kp::field::Zp<kp::field::kNttPrime>;
using E = F::Element;
using Box = kp::matrix::SparseBox<F>;

constexpr std::size_t kN = 2048;
constexpr std::size_t kNnzPerRow = 64;
constexpr std::size_t kOperators = 3;
constexpr std::size_t kBlockWidth = 4;
/// Distinct right-hand sides per run; a longer run cycles.
constexpr std::size_t kInputs = 32;
const std::uint64_t kSampleSize = kp::core::SolverOptions{}.sample_size;

struct Rhs {
  std::size_t op = 0;
  std::vector<E> x;
  std::vector<E> b;
};

class SparseBlock {
 public:
  explicit SparseBlock(std::uint64_t seed) : seed_(seed) {
    for (std::size_t k = 0; k < kOperators; ++k) {
      kp::util::Prng prng(derive_seed(seed, 100 + k));
      boxes_.emplace_back(f_, kp::matrix::Sparse<F>::random(f_, kN, kNnzPerRow, prng));
    }
    for (std::size_t i = 0; i <= kInputs; ++i) {
      kp::util::Prng prng(derive_seed(seed, i));
      Rhs r;
      r.op = i % kOperators;
      r.x.resize(kN);
      for (auto& e : r.x) e = f_.random(prng);
      r.b = boxes_[r.op].apply(r.x);
      inputs_.push_back(std::move(r));
    }
    // Warm-up on the extra right-hand side, which no timed request uses.
    kp::util::Prng prng(derive_seed(seed, 2000));
    const Rhs& w = inputs_.back();
    (void)kp::core::block_wiedemann_solve_status(f_, boxes_[w.op], w.b, prng,
                                                 kSampleSize, kBlockWidth);
  }

  Outcome solve(std::size_t i) {
    const Rhs& r = inputs_[i % kInputs];
    kp::util::Prng prng(request_seed(i));
    const auto res = kp::core::block_wiedemann_solve_status(
        f_, boxes_[r.op], r.b, prng, kSampleSize, kBlockWidth);
    return {res.ok, res.ok && res.x == r.x, static_cast<double>(res.attempts),
            false};
  }

  /// block_wiedemann_solve_status's attempt loop, stage by stage.
  bool replay(std::size_t i, Tracer& tr) {
    const Rhs& r = inputs_[i % kInputs];
    const Box& box = boxes_[r.op];
    const std::size_t bw = kBlockWidth;
    kp::util::Prng prng(request_seed(i));
    for (int attempt = 1; attempt <= 3; ++attempt) {
      kp::util::Prng draw = prng.fork(static_cast<std::uint64_t>(attempt));
      std::vector<std::vector<E>> z, v;
      std::vector<kp::matrix::Matrix<F>> sq;
      {
        Tracer::Scope span(tr, "core.block_krylov", i);
        const auto ut = kp::core::random_block_rows(f_, bw, kN, draw, kSampleSize);
        z = kp::core::random_block_columns(f_, bw - 1, kN, draw, kSampleSize);
        v.push_back(r.b);
        for (auto& az : kp::matrix::apply_columns(box, z)) v.push_back(std::move(az));
        const std::size_t count = 2 * ((kN + bw - 1) / bw) + 2;
        sq = kp::core::block_krylov_sequence(f_, box, ut, v, count);
      }
      std::optional<kp::seq::BlockGenerator<F>> gen;
      {
        Tracer::Scope span(tr, "seq.sigma_basis", i);
        auto gen_or = kp::seq::matrix_berlekamp_massey(f_, sq);
        if (gen_or.ok()) gen = std::move(gen_or).value();
      }
      if (!gen) continue;
      std::vector<E> x;
      {
        Tracer::Scope span(tr, "core.block_finish", i);
        x = finish(box, *gen, v, z);
      }
      if (x.empty()) continue;
      bool verified = false;
      {
        Tracer::Scope span(tr, "matrix.verify", i);
        verified = box.apply(x) == r.b;
      }
      if (verified) return x == r.x;
    }
    return false;
  }

  void layer_metrics(const Tracer& tr, Layers& layers, double requests) const {
    for (const char* stage : {"core.block_krylov", "seq.sigma_basis",
                              "core.block_finish", "matrix.verify"}) {
      layers.stage(tr, stage, requests);
    }
  }

 private:
  /// Coppersmith's extraction: the Horner finish through block_combine and
  /// single-vector applies (empty when no generator column touches b).
  std::vector<E> finish(const Box& box, const kp::seq::BlockGenerator<F>& gen,
                        const std::vector<std::vector<E>>& v,
                        const std::vector<std::vector<E>>& z) const {
    std::size_t pick = gen.columns.size();
    for (std::size_t c = 0; c < gen.columns.size(); ++c) {
      if (!f_.is_zero(gen.columns[c][0][0])) {
        pick = c;
        break;
      }
    }
    if (pick == gen.columns.size()) return {};
    const auto& col = gen.columns[pick];
    const std::size_t d = col.size() - 1;
    std::vector<E> w(kN, f_.zero());
    if (d >= 1) {
      w = kp::core::block_combine(f_, v, col[d]);
      for (std::size_t j = d; j-- > 1;) {
        w = box.apply(w);
        const auto vc = kp::core::block_combine(f_, v, col[j]);
        for (std::size_t k = 0; k < kN; ++k) w[k] = f_.add(w[k], vc[k]);
      }
    }
    const std::vector<E> ctail(col[0].begin() + 1, col[0].end());
    const auto zc = kp::core::block_combine(f_, z, ctail);
    for (std::size_t k = 0; k < kN; ++k) w[k] = f_.add(w[k], zc[k]);
    const E scale = f_.neg(f_.inv(col[0][0]));
    for (auto& e : w) e = f_.mul(scale, e);
    return w;
  }

  std::uint64_t request_seed(std::size_t i) const {
    return derive_seed(seed_, 3000 + i);
  }

  F f_;
  std::uint64_t seed_;
  std::vector<Box> boxes_;
  std::vector<Rhs> inputs_;
};

}  // namespace

void run_sparse(const Options& opt, Report& rep, Trace* trace) {
  run_one_caller<SparseBlock>(opt, rep, trace);
}

}  // namespace kpbench
