// dense_doubling: kp_solve on fresh dense n = 256 systems over Zp<kNttPrime>
// with default options, so every request takes the doubling route (9).
#include <cstdint>
#include <vector>

#include "common.h"
#include "core/solver.h"
#include "field/zp.h"
#include "loop.h"
#include "matrix/dense.h"
#include "replay.h"
#include "util/prng.h"

namespace kpbench {

namespace {

using F = kp::field::Zp<kp::field::kNttPrime>;
using E = F::Element;

constexpr std::size_t kN = 256;
/// Distinct systems per run; a run longer than this many requests cycles.
constexpr std::size_t kInputs = 32;
constexpr std::size_t kWarmup = 1;

struct System {
  kp::matrix::Matrix<F> a;
  std::vector<E> x;
  std::vector<E> b;
};

System make_system(const F& f, std::uint64_t seed) {
  kp::util::Prng prng(seed);
  System s{kp::matrix::random_matrix(f, kN, kN, prng), std::vector<E>(kN), {}};
  for (auto& e : s.x) e = f.random(prng);
  s.b = kp::matrix::mat_vec(f, s.a, s.x);
  return s;
}

class DenseDoubling {
 public:
  explicit DenseDoubling(std::uint64_t seed) : seed_(seed) {
    for (std::size_t i = 0; i < kInputs; ++i) {
      inputs_.push_back(make_system(f_, derive_seed(seed, i)));
    }
    // Warm-up on systems of their own: caches and the pool start here, and
    // every timed request still sees a fresh matrix.
    for (std::size_t k = 0; k < kWarmup; ++k) {
      const System w = make_system(f_, derive_seed(seed, 1000 + k));
      kp::util::Prng prng(derive_seed(seed, 2000 + k));
      (void)kp::core::kp_solve(f_, w.a, w.b, prng);
    }
  }

  Outcome solve(std::size_t i) {
    const System& s = inputs_[i % kInputs];
    kp::util::Prng prng(request_seed(i));
    const auto res = kp::core::kp_solve(f_, s.a, s.b, prng);
    return {res.ok, res.ok && res.x == s.x, static_cast<double>(res.attempts),
            res.used_fallback};
  }

  bool replay(std::size_t i, Tracer& tr) {
    const System& s = inputs_[i % kInputs];
    return replay_doubling(f_, s.a, s.b, request_seed(i),
                           kp::core::SolverOptions{}, tr, i) == s.x;
  }

  void layer_metrics(const Tracer& tr, Layers& layers, double requests) const {
    for (const char* stage :
         {"core.precondition", "core.krylov_sequence", "seq.toeplitz_solve",
          "core.finish", "seq.toeplitz_det", "matrix.verify"}) {
      layers.stage(tr, stage, requests);
    }
  }

 private:
  std::uint64_t request_seed(std::size_t i) const {
    return derive_seed(seed_, 3000 + i);
  }

  F f_;
  std::uint64_t seed_;
  std::vector<System> inputs_;
};

}  // namespace

void run_dense(const Options& opt, Report& rep, Trace* trace) {
  run_one_caller<DenseDoubling>(opt, rep, trace);
}

}  // namespace kpbench
