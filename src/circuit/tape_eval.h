// Batched SoA evaluation of compiled tapes.
//
// TapeEvaluator<F> runs B independent evaluations of a Tape per pass in
// structure-of-arrays layout: one aligned lane-block per register slot, so
// each instruction becomes one elementwise lane kernel over B lanes
// (field/kernels.h add/sub/neg/mul lanes) and the kDiv instructions of a
// level are inverted together with Montgomery's trick -- one extended
// Euclid per (level, lane-chunk) instead of one per division per lane.
//
// Determinism contract (tested in tests/test_tape.cpp):
//   * element values are bit-identical to node-at-a-time
//     Circuit::evaluate_status() for every lane, at every worker count and
//     every SIMD dispatch level (canonical residues are unique; the kernels
//     reproduce the fields' exact scalar formulas);
//   * lane-chunk boundaries depend only on B (fixed kLaneGrain), never on
//     the worker count, and chunks write disjoint lane ranges, so the
//     pram::ExecutionContext dispatch satisfies the pool's determinism
//     contract and op counts fold back to the submitter identically at
//     1..N workers;
//   * the division-by-zero failure event is detected in a serial pre-scan
//     on the submitting thread (in level order, divs in node-id order,
//     lanes in lane order), so the FIRST failing (level, lane) is
//     deterministic and the KP_FAULT_POINT sites (one per div-instruction
//     lane, Stage::kCircuitEval) trigger identically at any worker count.
//
// A failed batch fails as a unit: node-at-a-time evaluation of the failing
// lane's scalar inputs reproduces the same kDivisionByZero at the node the
// Fault reports.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "circuit/tape.h"
#include "field/concepts.h"
#include "field/kernels.h"
#include "pram/parallel_for.h"
#include "util/aligned.h"
#include "util/fault.h"
#include "util/status.h"

namespace kp::circuit {

/// Lanes per dispatch chunk.  A function of nothing but this constant and
/// B, so chunk boundaries are identical for every worker count.  256 lanes
/// (32 full AVX-512 groups) amortizes the per-instruction kernel dispatch;
/// batches smaller than two grains run as a single chunk.
inline constexpr std::size_t kLaneGrain = 256;

/// Where a batch failed: the first (in level, instruction, lane order)
/// division whose divisor was zero.
struct TapeFault {
  std::uint32_t level = 0;  ///< 0-based level index
  std::uint32_t lane = 0;   ///< failing lane within the batch
  std::uint32_t instr = 0;  ///< global instruction index into Tape::instrs
  NodeId node = 0;          ///< source-circuit node (Tape::instr_nodes)
  bool injected = false;    ///< fired by util/fault.h, not a real zero
};

template <kp::field::Field F>
class TapeEvaluator {
 public:
  using Element = typename F::Element;

  /// Per-batch result.  On kDivisionByZero, `fault` identifies the failing
  /// level/lane/instruction; outputs are only populated on success.
  struct Result {
    kp::util::Status status;
    TapeFault fault;
    std::vector<std::vector<Element>> outputs;  ///< outputs[k][lane]
  };

  TapeEvaluator(const F& f, const Tape& t) : f_(f), t_(t) {}

  /// Evaluates B lanes: inputs[j][lane] is input j of evaluation `lane`
  /// (SoA), randoms likewise; every inner vector must have the same size
  /// B >= 1.  Outputs come back in the same layout.
  Result evaluate(const std::vector<std::vector<Element>>& inputs,
                  const std::vector<std::vector<Element>>& randoms) const {
    Result res;
    if (inputs.size() != t_.input_slots.size() ||
        randoms.size() != t_.random_slots.size()) {
      res.status = invalid("input/random arity mismatch");
      return res;
    }
    const std::size_t B = !inputs.empty()    ? inputs[0].size()
                          : !randoms.empty() ? randoms[0].size()
                                             : 1;
    if (B == 0) {
      res.status = invalid("empty batch");
      return res;
    }
    for (const auto& v : inputs) {
      if (v.size() != B) {
        res.status = invalid("ragged input lanes");
        return res;
      }
    }
    for (const auto& v : randoms) {
      if (v.size() != B) {
        res.status = invalid("ragged random lanes");
        return res;
      }
    }
    if constexpr (kp::field::kernels::FastField<F>) {
      run_fast(inputs, randoms, B, res);
    } else {
      run_generic(inputs, randoms, B, res);
    }
    return res;
  }

 private:
  static kp::util::Status invalid(const char* what) {
    return kp::util::Status::Fail(kp::util::FailureKind::kInvalidArgument,
                                  kp::util::Stage::kCircuitEval, what);
  }

  /// Serial divisor pre-scan of one level: runs on the submitting thread
  /// (fault-site determinism), instruction-major then lane-major, so the
  /// reported fault is the first in the same order every time.  Returns
  /// false on failure with `res` filled in.
  template <class Lanes>
  bool scan_divisors(std::size_t li, std::size_t B, Lanes&& divisor,
                     Result& res) const {
    const TapeLevel& lv = t_.levels[li];
    for (std::uint32_t k = lv.count - lv.divs; k < lv.count; ++k) {
      const std::uint32_t gi = lv.first + k;
      for (std::size_t lane = 0; lane < B; ++lane) {
        const bool injected = KP_FAULT_POINT(kp::util::Stage::kCircuitEval);
        if (f_.is_zero(divisor(gi, lane)) || injected) {
          res.fault.level = static_cast<std::uint32_t>(li);
          res.fault.lane = static_cast<std::uint32_t>(lane);
          res.fault.instr = gi;
          res.fault.node = t_.instr_nodes[gi];
          res.fault.injected = injected;
          res.status =
              injected
                  ? kp::util::Status::Injected(
                        kp::util::FailureKind::kDivisionByZero,
                        kp::util::Stage::kCircuitEval)
                  : kp::util::Status::Fail(
                        kp::util::FailureKind::kDivisionByZero,
                        kp::util::Stage::kCircuitEval,
                        "level " + std::to_string(li) + " lane " +
                            std::to_string(lane) + " node " +
                            std::to_string(t_.instr_nodes[gi]));
          return false;
        }
      }
    }
    return true;
  }

  /// Word-sized canonical fields: SoA register file, SIMD lane kernels,
  /// chunked pool dispatch.
  void run_fast(const std::vector<std::vector<Element>>& inputs,
                const std::vector<std::vector<Element>>& randoms,
                std::size_t B, Result& res) const {
    namespace kn = kp::field::kernels;
    // Lane stride: B rounded up to a full 8-lane group, so every slot
    // block starts 64-byte aligned.
    const std::size_t pad = (B + 7) & ~static_cast<std::size_t>(7);
    kp::util::AlignedVector<std::uint64_t> regs(
        static_cast<std::size_t>(t_.num_regs) * pad, 0);
    const auto rp = [&](std::uint32_t s) {
      return regs.data() + static_cast<std::size_t>(s) * pad;
    };

    // Leaf loads.
    for (std::size_t k = 0; k < t_.constants.size(); ++k) {
      const std::uint64_t v = f_.from_int(t_.constants[k]);
      std::uint64_t* dst = rp(t_.constant_slots[k]);
      for (std::size_t lane = 0; lane < B; ++lane) dst[lane] = v;
    }
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      if (t_.input_slots[j] == kNoSlot) continue;
      std::memcpy(rp(t_.input_slots[j]), inputs[j].data(),
                  B * sizeof(std::uint64_t));
    }
    for (std::size_t j = 0; j < randoms.size(); ++j) {
      if (t_.random_slots[j] == kNoSlot) continue;
      std::memcpy(rp(t_.random_slots[j]), randoms[j].data(),
                  B * sizeof(std::uint64_t));
    }

    // Chunk plan (worker-count independent) and the per-chunk divisor
    // scratch: chunk c owns scratch [c * divs_max * kLaneGrain, ...), so
    // chunks never share cache lines of the inversion buffer.
    const std::size_t nchunks = (B + kLaneGrain - 1) / kLaneGrain;
    std::uint32_t divs_max = 0;
    for (const TapeLevel& lv : t_.levels) divs_max = std::max(divs_max, lv.divs);
    kp::util::AlignedVector<std::uint64_t> scratch(
        static_cast<std::size_t>(divs_max) * nchunks * kLaneGrain);

    for (std::size_t li = 0; li < t_.levels.size(); ++li) {
      const TapeLevel& lv = t_.levels[li];
      if (!scan_divisors(
              li, B,
              [&](std::uint32_t gi, std::size_t lane) {
                return rp(t_.instrs[gi].b)[lane];
              },
              res)) {
        return;
      }
      const TapeInstr* ins = t_.instrs.data() + lv.first;
      const std::uint32_t nd = lv.count - lv.divs;
      const auto run_chunk = [&](std::size_t c) {
        const std::size_t l0 = c * kLaneGrain;
        const std::size_t len = std::min(kLaneGrain, B - l0);
        for (std::uint32_t k = 0; k < nd; ++k) {
          const TapeInstr& in = ins[k];
          switch (in.op) {
            case Op::kAdd:
              kn::add_lanes(f_, rp(in.a) + l0, rp(in.b) + l0, rp(in.dst) + l0,
                            len);
              break;
            case Op::kSub:
              kn::sub_lanes(f_, rp(in.a) + l0, rp(in.b) + l0, rp(in.dst) + l0,
                            len);
              break;
            case Op::kMul:
              kn::mul_lanes(f_, rp(in.a) + l0, rp(in.b) + l0, rp(in.dst) + l0,
                            len);
              break;
            case Op::kNeg:
              kn::neg_lanes(f_, rp(in.a) + l0, rp(in.dst) + l0, len);
              break;
            default:
              break;
          }
        }
        if (lv.divs > 0) {
          // Montgomery trick across every division of the level at once:
          // gather the (pre-scanned, nonzero) divisors, ONE batched
          // inversion, then the uncounted numerator multiply -- the same
          // n-divisions price and the same unique field inverses as n
          // calls to f.div().
          std::uint64_t* sc =
              scratch.data() + c * static_cast<std::size_t>(divs_max) *
                                   kLaneGrain;
          for (std::uint32_t d = 0; d < lv.divs; ++d) {
            std::memcpy(sc + static_cast<std::size_t>(d) * len,
                        rp(ins[nd + d].b) + l0, len * sizeof(std::uint64_t));
          }
          (void)kn::batch_inverse(f_, sc,
                                  static_cast<std::size_t>(lv.divs) * len);
          for (std::uint32_t d = 0; d < lv.divs; ++d) {
            kn::mul_lanes_uncounted(f_, rp(ins[nd + d].a) + l0,
                                    sc + static_cast<std::size_t>(d) * len,
                                    rp(ins[nd + d].dst) + l0, len);
          }
        }
      };
      if (nchunks > 1 && lv.count > 0) {
        kp::pram::parallel_for(0, nchunks, run_chunk);
      } else if (lv.count > 0) {
        run_chunk(0);
      }
    }

    res.outputs.resize(t_.output_slots.size());
    for (std::size_t k = 0; k < t_.output_slots.size(); ++k) {
      const std::uint64_t* src = rp(t_.output_slots[k]);
      res.outputs[k].assign(src, src + B);
    }
  }

  /// Generic fields (extension fields, symbolic domains): same tape walk,
  /// element-at-a-time, serial.  Charges exactly what node-at-a-time
  /// evaluation charges per live node per lane.
  void run_generic(const std::vector<std::vector<Element>>& inputs,
                   const std::vector<std::vector<Element>>& randoms,
                   std::size_t B, Result& res) const {
    std::vector<Element> regs(static_cast<std::size_t>(t_.num_regs) * B,
                              f_.zero());
    const auto at = [&](std::uint32_t s, std::size_t lane) -> Element& {
      return regs[static_cast<std::size_t>(s) * B + lane];
    };
    for (std::size_t k = 0; k < t_.constants.size(); ++k) {
      const Element v = f_.from_int(t_.constants[k]);
      for (std::size_t lane = 0; lane < B; ++lane) {
        at(t_.constant_slots[k], lane) = v;
      }
    }
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      if (t_.input_slots[j] == kNoSlot) continue;
      for (std::size_t lane = 0; lane < B; ++lane) {
        at(t_.input_slots[j], lane) = inputs[j][lane];
      }
    }
    for (std::size_t j = 0; j < randoms.size(); ++j) {
      if (t_.random_slots[j] == kNoSlot) continue;
      for (std::size_t lane = 0; lane < B; ++lane) {
        at(t_.random_slots[j], lane) = randoms[j][lane];
      }
    }

    for (std::size_t li = 0; li < t_.levels.size(); ++li) {
      const TapeLevel& lv = t_.levels[li];
      if (!scan_divisors(
              li, B,
              [&](std::uint32_t gi, std::size_t lane) -> const Element& {
                return at(t_.instrs[gi].b, lane);
              },
              res)) {
        return;
      }
      for (std::uint32_t k = 0; k < lv.count; ++k) {
        const TapeInstr& in = t_.instrs[lv.first + k];
        for (std::size_t lane = 0; lane < B; ++lane) {
          switch (in.op) {
            case Op::kAdd:
              at(in.dst, lane) = f_.add(at(in.a, lane), at(in.b, lane));
              break;
            case Op::kSub:
              at(in.dst, lane) = f_.sub(at(in.a, lane), at(in.b, lane));
              break;
            case Op::kMul:
              at(in.dst, lane) = f_.mul(at(in.a, lane), at(in.b, lane));
              break;
            case Op::kDiv:
              at(in.dst, lane) = f_.div(at(in.a, lane), at(in.b, lane));
              break;
            case Op::kNeg:
              at(in.dst, lane) = f_.neg(at(in.a, lane));
              break;
            default:
              break;
          }
        }
      }
    }

    res.outputs.resize(t_.output_slots.size());
    for (std::size_t k = 0; k < t_.output_slots.size(); ++k) {
      res.outputs[k].reserve(B);
      for (std::size_t lane = 0; lane < B; ++lane) {
        res.outputs[k].push_back(at(t_.output_slots[k], lane));
      }
    }
  }

  const F& f_;
  const Tape& t_;
};

}  // namespace kp::circuit
