// exact_rational: crt_solve over Q on dense n = 128 systems with small
// rational entries (denominators 1..4, dominant diagonal) and a
// small-integer solution, with default CrtOptions.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common.h"
#include "core/crt_recon.h"
#include "core/crt_shard.h"
#include "field/rational.h"
#include "field/zp.h"
#include "loop.h"
#include "matrix/dense.h"
#include "pram/parallel_for.h"
#include "replay.h"
#include "util/prng.h"

namespace kpbench {

namespace {

using kp::field::BigInt;
using kp::field::Rational;
using kp::field::RationalField;
using Matrix = kp::matrix::Matrix<RationalField>;

constexpr std::size_t kN = 128;
/// Distinct systems per run; a run longer than this many requests cycles.
constexpr std::size_t kInputs = 12;

struct System {
  Matrix a;
  std::vector<Rational> b;
  std::vector<Rational> x;
};

System make_system(const RationalField& f, std::uint64_t seed) {
  kp::util::Prng prng(seed);
  System s{Matrix(kN, kN, f.zero()), {}, {}};
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      const auto num = static_cast<std::int64_t>(prng.below(19)) - 9;
      const auto den = 1 + static_cast<std::int64_t>(prng.below(4));
      s.a.at(i, j) = Rational(num, den);
    }
    s.a.at(i, i) = Rational(static_cast<std::int64_t>(10 * kN), 1);
    s.x.push_back(Rational(static_cast<std::int64_t>(prng.below(19)) - 9, 1));
  }
  for (std::size_t i = 0; i < kN; ++i) {
    Rational acc = f.zero();
    for (std::size_t j = 0; j < kN; ++j) {
      acc = f.add(acc, f.mul(s.a.at(i, j), s.x[j]));
    }
    s.b.push_back(acc);
  }
  return s;
}

class ExactRational {
 public:
  explicit ExactRational(std::uint64_t seed) : seed_(seed) {
    for (std::size_t i = 0; i < kInputs; ++i) {
      inputs_.push_back(make_system(f_, derive_seed(seed, i)));
    }
    const System w = make_system(f_, derive_seed(seed, 1000));
    kp::util::Prng prng(derive_seed(seed, 2000));
    (void)kp::core::crt_solve(f_, w.a, w.b, prng);
  }

  Outcome solve(std::size_t i) {
    const System& s = inputs_[i % kInputs];
    kp::util::Prng prng(request_seed(i));
    const auto res = kp::core::crt_solve(f_, s.a, s.b, prng);
    std::size_t bad = 0;
    for (const auto& d : res.diags) {
      if (d.kind == kp::util::FailureKind::kBadPrime) ++bad;
    }
    shards_ += static_cast<double>(res.shards_used);
    batches_ += static_cast<double>(res.batches);
    bad_primes_ += static_cast<double>(bad);
    const double attempts =
        res.shards_used ? static_cast<double>(res.diags.size()) /
                              static_cast<double>(res.shards_used)
                        : 1.0;
    return {res.ok, res.ok && res.x == s.x, attempts, res.used_generic};
  }

  /// crt_solve stage by stage, with crt_solve's own transcript seed.
  bool replay(std::size_t i, Tracer& tr) {
    const System& s = inputs_[i % kInputs];
    kp::util::Prng prng(request_seed(i));
    transcript_ = prng.fork(0x6372742d73686472ULL).seed();  // "crt-shdr"
    first_prime_ = 0;
    return replay_crt(s, tr, i) && first_prime_ != 0;
  }

  /// The first shard of the last replay: the standalone kp_solve crt_solve
  /// runs for it (timed, untraced), then the same solve stage by stage.
  bool replay_extra(std::size_t i, Tracer& tr) {
    const kp::field::GFp f(first_prime_);
    kp::matrix::Matrix<kp::field::GFp> ap(kN, kN, 0);
    std::vector<std::uint64_t> bp(kN);
    for (std::size_t r = 0; r < kN; ++r) {
      for (std::size_t c = 0; c < kN; ++c) {
        ap.at(r, c) = sys_->a[r * kN + c].mod_u64(first_prime_);
      }
      bp[r] = sys_->b[r].mod_u64(first_prime_);
    }
    const auto sopt = kp::core::shard_solver_options(kp::core::CrtOptions{});
    const auto t0 = Clock::now();
    kp::util::Prng prng(transcript_);
    const auto res = kp::core::kp_solve(f, ap, bp, prng, sopt);
    shard_ms_ += ms_since(t0);
    Tracer::Scope root(tr, "shard", i);
    const auto x =
        replay_doubling(f, ap, bp, transcript_, sopt, tr, i, "shard.verify");
    return res.ok && x == res.x;
  }

  void layer_metrics(const Tracer& tr, Layers& layers, double requests) const {
    for (const char* stage :
         {"core.precondition", "core.krylov_sequence", "seq.toeplitz_solve",
          "core.finish", "seq.toeplitz_det", "matrix.verify"}) {
      layers.stage(tr, stage, requests);
    }
    layers.set("core.crt_shard_solve_ms", shard_ms_ / requests);
    layers.set("core.crt_remainder_ms",
               (tr.total_ms("request") - tr.total_ms("core.crt_shard_batch")) /
                   requests);
    layers.set("core.crt_shards_used", shards_ / requests);
    layers.set("core.crt_batches", batches_ / requests);
    layers.set("core.crt_bad_primes", bad_primes_ / requests);
  }

 private:
  /// crt_solve's loop with default CrtOptions: scale to integers, shard
  /// batches over the pool, Garner fold and Wang reconstruction with early
  /// termination, exact verification over Z.
  bool replay_crt(const System& s, Tracer& tr, std::uint64_t request) {
    namespace core = kp::core;
    const core::CrtOptions opt;
    std::optional<core::detail::NttPrimeStream> stream;
    std::size_t needed_bits = 0;
    {
      Tracer::Scope span(tr, "core.crt_scale", request);
      sys_ = core::detail::scale_to_integers(s.a, &s.b);
      needed_bits =
          core::solution_modulus_bits(kN, sys_->entry_bits, sys_->rhs_bits);
      int adicity = 3;
      while ((std::size_t{1} << adicity) < 8 * kN * kN) ++adicity;
      stream.emplace(opt.prime_bits, adicity + 2);
    }
    const std::size_t bits_per_prime = static_cast<std::size_t>(opt.prime_bits - 1);
    const std::size_t cap = (needed_bits + bits_per_prime - 1) / bits_per_prime;
    const std::size_t batch = std::max<std::size_t>(kp::pram::worker_count(), 4);
    core::CrtCombiner combiner(kN + 1);
    std::atomic<std::size_t> next{0};
    std::vector<std::optional<Rational>> prev;
    std::size_t used = 0;
    while (combiner.modulus().bit_length() < needed_bits) {
      const std::size_t b = std::min(batch, cap > used ? cap - used : std::size_t{1});
      std::vector<core::detail::ShardOutcome> good(b);
      {
        Tracer::Scope span(tr, "core.crt_shard_batch", request);
        kp::pram::parallel_for(0, b, [&](std::size_t slot) {
          for (int tries = 0; tries <= opt.max_bad_primes; ++tries) {
            const std::size_t idx = next.fetch_add(1);
            auto sh = core::detail::run_shard(*sys_, stream->at(idx), idx,
                                              transcript_, opt);
            if (sh.ok) {
              good[slot] = std::move(sh);
              return;
            }
          }
        });
      }
      std::optional<std::vector<Rational>> x;
      {
        Tracer::Scope span(tr, "core.crt_reconstruct", request);
        std::sort(good.begin(), good.end(), [](const auto& l, const auto& r) {
          return l.index < r.index;
        });
        std::vector<std::uint64_t> primes(b);
        std::vector<std::vector<std::uint64_t>> residues(
            kN + 1, std::vector<std::uint64_t>(b));
        for (std::size_t j = 0; j < b; ++j) {
          if (!good[j].ok) return false;
          primes[j] = good[j].prime;
          for (std::size_t k = 0; k < kN; ++k) residues[k][j] = good[j].x[k];
          residues[kN][j] = good[j].det;
        }
        if (first_prime_ == 0) first_prime_ = primes.front();
        combiner.fold_batch(primes, residues);
        used += b;
        const bool last = combiner.modulus().bit_length() >= needed_bits;
        const auto bounds = core::balanced_bounds(combiner.modulus());
        bool stable = true;
        std::vector<std::optional<Rational>> sentinels(4);
        for (std::size_t k = 0; k < sentinels.size(); ++k) {
          sentinels[k] = core::rational_reconstruct(
              combiner.value(k), combiner.modulus(), bounds.num, bounds.den);
          stable = stable && sentinels[k] && !prev.empty() && prev[k] &&
                   *sentinels[k] == *prev[k];
        }
        prev = std::move(sentinels);
        if (!stable && !last) continue;
        std::vector<Rational> full(kN);
        for (std::size_t k = 0; k < kN; ++k) {
          auto r = core::rational_reconstruct(combiner.value(k), combiner.modulus(),
                                              bounds.num, bounds.den);
          if (!r) return false;
          full[k] = std::move(*r);
        }
        x = std::move(full);
      }
      bool verified = false;
      {
        Tracer::Scope span(tr, "matrix.verify", request);
        verified = core::detail::verify_candidate(*sys_, *x);
      }
      if (verified) return *x == s.x;
    }
    return false;
  }

  std::uint64_t request_seed(std::size_t i) const {
    return derive_seed(seed_, 3000 + i);
  }

  RationalField f_;
  std::uint64_t seed_;
  std::vector<System> inputs_;
  double shards_ = 0, batches_ = 0, bad_primes_ = 0, shard_ms_ = 0;
  // State the traced replay hands from replay() to replay_extra().
  std::optional<kp::core::detail::IntegerSystem> sys_;
  std::uint64_t transcript_ = 0;
  std::uint64_t first_prime_ = 0;
};

}  // namespace

void run_rational(const Options& opt, Report& rep, Trace* trace) {
  run_one_caller<ExactRational>(opt, rep, trace);
}

}  // namespace kpbench
