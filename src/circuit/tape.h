// Compiled circuit IR: the leveled register tape.
//
// compile() lowers the append-only Circuit arena into a Tape -- the flat,
// shippable execution form of a Theorem-4/6 circuit:
//
//   * constants are pooled by value (one register per distinct payload);
//   * dead nodes are eliminated, EXCEPT that every kDiv node stays live:
//     a division by zero is the paper's Las Vegas failure event, and the
//     tape must fail exactly when node-at-a-time evaluate_status() fails;
//   * arithmetic nodes are renumbered into contiguous topological levels
//     (level d holds exactly the nodes of arithmetic depth d+1, the paper's
//     depth measure), each level a block of {op, dst, a, b} instructions
//     over register slots;
//   * register slots are planned with a deterministic LIFO allocator; a
//     slot whose last read is at level L becomes reusable at level L+1, so
//     instructions within one level never alias each other's operands.
//
// The source circuit's accounting survives the lowering verbatim
// (source_size / source_depth / source_nodes), so Theorem-4/6 size and
// depth measurements are unchanged by compilation.  Evaluation lives in
// circuit/tape_eval.h, the file format in circuit/tape_io.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.h"

namespace kp::circuit {

/// Slot value for a dead leaf position (its input is never read).
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// One lowered arithmetic node: dst <- a op b over register slots
/// (b == a for kNeg).
struct TapeInstr {
  Op op;
  std::uint32_t dst = 0, a = 0, b = 0;
};

/// One topological level: instrs[first, first + count), of which the
/// trailing `divs` are the level's kDiv instructions (the evaluator
/// zero-scans and batch-inverts them together).
struct TapeLevel {
  std::uint32_t first = 0, count = 0, divs = 0;
};

/// Embedded self-check vector (tape_io.h): one recorded evaluation over
/// GF(modulus).  ok == false records a division-by-zero run -- the check
/// then asserts the failure reproduces.
struct TestVector {
  std::uint64_t modulus = 0;
  std::vector<std::uint64_t> inputs;
  std::vector<std::uint64_t> randoms;
  std::vector<std::uint64_t> outputs;  ///< empty when ok == false
  bool ok = true;
};

/// The compiled circuit.  Plain data: everything the evaluator and the
/// serializer need, nothing else.
struct Tape {
  std::vector<TapeInstr> instrs;       ///< level-contiguous instruction list
  std::vector<TapeLevel> levels;
  std::vector<std::int64_t> constants;       ///< pooled payloads
  std::vector<std::uint32_t> constant_slots; ///< slot of constants[k]
  std::vector<std::uint32_t> input_slots;    ///< per input position; kNoSlot if dead
  std::vector<std::uint32_t> random_slots;   ///< per random position; kNoSlot if dead
  std::vector<std::uint32_t> output_slots;
  std::vector<NodeId> instr_nodes;     ///< source NodeId per instruction
  std::uint32_t num_regs = 0;          ///< register-slot high-water mark

  // Source-circuit accounting, preserved verbatim so a compiled tape
  // reports the same Theorem-4/6 measurements as its DAG.
  std::uint64_t source_size = 0;   ///< Circuit::size(): arithmetic nodes
  std::uint32_t source_depth = 0;  ///< Circuit::depth()
  std::uint64_t source_nodes = 0;  ///< Circuit::total_nodes()

  std::vector<TestVector> tests;   ///< embedded self-checks (tape_io.h)

  std::size_t num_levels() const { return levels.size(); }
  std::size_t num_instrs() const { return instrs.size(); }
};

/// Lowers a circuit into a Tape.  Deterministic: the same circuit always
/// compiles to the same tape (slot plan included), which is what makes the
/// serialized form and the round-trip byte-identity test meaningful.
inline Tape compile(const Circuit& c) {
  const std::vector<Node>& nodes = c.nodes();
  const std::size_t n = nodes.size();
  Tape t;
  t.source_size = c.size();
  t.source_depth = c.depth();
  t.source_nodes = n;

  const auto is_arith = [](Op op) {
    return op == Op::kAdd || op == Op::kSub || op == Op::kMul ||
           op == Op::kDiv || op == Op::kNeg;
  };

  // ---- liveness ----------------------------------------------------------
  // Roots: the outputs, plus every kDiv node -- node-at-a-time
  // evaluate_status() walks the whole arena, so a dead division still
  // triggers the failure event and the tape must preserve that.  One
  // reverse sweep closes the set (operands have smaller ids than their
  // consumers).
  std::vector<char> live(n, 0);
  for (NodeId id : c.outputs()) live[id] = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (nodes[i].op == Op::kDiv) live[i] = 1;
  }
  for (std::size_t i = n; i-- > 0;) {
    if (!live[i]) continue;
    const Node& nd = nodes[i];
    if (!is_arith(nd.op)) continue;
    live[nd.a] = 1;
    if (nd.op != Op::kNeg) live[nd.b] = 1;
  }

  // ---- levels ------------------------------------------------------------
  std::uint32_t depth_max = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (live[i] && is_arith(nodes[i].op)) {
      depth_max = std::max(depth_max, nodes[i].depth);
    }
  }
  std::vector<std::vector<NodeId>> by_level(depth_max);
  for (std::size_t i = 0; i < n; ++i) {
    if (live[i] && is_arith(nodes[i].op)) {
      by_level[nodes[i].depth - 1].push_back(static_cast<NodeId>(i));
    }
  }
  // Within a level: non-div instructions first, then the divs, each group
  // in id order (stable partition of the already id-sorted list).
  for (auto& lvl : by_level) {
    std::stable_partition(lvl.begin(), lvl.end(), [&](NodeId id) {
      return nodes[id].op != Op::kDiv;
    });
  }

  // ---- last use ----------------------------------------------------------
  // last_use[i] = highest level that reads node i (outputs: never freed).
  // A live node nobody reads (a dead division) expires at its own level.
  constexpr std::uint32_t kNeverFree = 0xffffffffu;
  std::vector<std::uint32_t> last_use(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!live[i] || !is_arith(nodes[i].op)) continue;
    const Node& nd = nodes[i];
    last_use[nd.a] = std::max(last_use[nd.a], nd.depth);
    if (nd.op != Op::kNeg) last_use[nd.b] = std::max(last_use[nd.b], nd.depth);
  }
  for (NodeId id : c.outputs()) last_use[id] = kNeverFree;
  for (std::size_t i = 0; i < n; ++i) {
    if (live[i] && is_arith(nodes[i].op) && last_use[i] == 0) {
      last_use[i] = nodes[i].depth;
    }
  }
  // Pooled constants share one slot, so the pooled slot lives until the
  // last read of ANY node carrying the value.
  std::unordered_map<std::int64_t, std::uint32_t> const_last_use;
  for (std::size_t i = 0; i < n; ++i) {
    if (live[i] && nodes[i].op == Op::kConst) {
      auto [it, fresh] = const_last_use.emplace(nodes[i].value, last_use[i]);
      if (!fresh) it->second = std::max(it->second, last_use[i]);
    }
  }

  // ---- slot plan ---------------------------------------------------------
  // LIFO free list; slots whose last read is at level L are pushed onto the
  // list at the START of level L+1, never earlier, so no instruction's dst
  // can alias an operand read anywhere in its own level.
  std::vector<std::uint32_t> slot(n, kNoSlot);
  std::vector<std::uint32_t> free_list;
  std::vector<std::vector<std::uint32_t>> expire(depth_max + 1);
  std::uint32_t high = 0;
  const auto alloc = [&](std::uint32_t lu) {
    std::uint32_t s;
    if (!free_list.empty()) {
      s = free_list.back();
      free_list.pop_back();
    } else {
      s = high++;
    }
    if (lu != kNeverFree && lu <= depth_max) expire[lu].push_back(s);
    return s;
  };

  // Leaves first, in a fixed order: pooled constants (first-appearance
  // order), then inputs, then randoms.
  std::unordered_map<std::int64_t, std::uint32_t> const_slot;
  for (std::size_t i = 0; i < n; ++i) {
    if (!live[i] || nodes[i].op != Op::kConst) continue;
    const std::int64_t v = nodes[i].value;
    if (const auto it = const_slot.find(v); it != const_slot.end()) {
      slot[i] = it->second;
      continue;
    }
    const std::uint32_t s = alloc(const_last_use.at(v));
    const_slot.emplace(v, s);
    slot[i] = s;
    t.constants.push_back(v);
    t.constant_slots.push_back(s);
  }
  t.input_slots.reserve(c.inputs().size());
  for (NodeId id : c.inputs()) {
    t.input_slots.push_back(live[id] ? (slot[id] = alloc(last_use[id]))
                                     : kNoSlot);
  }
  t.random_slots.reserve(c.randoms().size());
  for (NodeId id : c.randoms()) {
    t.random_slots.push_back(live[id] ? (slot[id] = alloc(last_use[id]))
                                      : kNoSlot);
  }

  // Arithmetic levels.
  t.levels.reserve(depth_max);
  for (std::uint32_t d = 1; d <= depth_max; ++d) {
    for (std::uint32_t s : expire[d - 1]) free_list.push_back(s);
    TapeLevel lv;
    lv.first = static_cast<std::uint32_t>(t.instrs.size());
    for (NodeId id : by_level[d - 1]) {
      const Node& nd = nodes[id];
      TapeInstr in;
      in.op = nd.op;
      in.a = slot[nd.a];
      in.b = nd.op == Op::kNeg ? slot[nd.a] : slot[nd.b];
      in.dst = slot[id] = alloc(last_use[id]);
      if (nd.op == Op::kDiv) ++lv.divs;
      t.instrs.push_back(in);
      t.instr_nodes.push_back(id);
    }
    lv.count = static_cast<std::uint32_t>(t.instrs.size()) - lv.first;
    t.levels.push_back(lv);
  }

  t.num_regs = high;
  t.output_slots.reserve(c.outputs().size());
  for (NodeId id : c.outputs()) t.output_slots.push_back(slot[id]);
  return t;
}

}  // namespace kp::circuit
