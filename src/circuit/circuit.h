// Algebraic circuits (straight-line programs) -- the paper's machine model.
//
// A circuit is a DAG of +, -, *, /, negation nodes over input, constant and
// random-element leaves.  The two complexity measures of every theorem in
// the paper are exactly this module's size() (number of arithmetic nodes)
// and depth() (longest path of arithmetic nodes), and the "division by
// zero" failure event of Theorems 4 and 6 is what evaluate_status() reports.
//
// Circuits are built either directly through the node factories here or --
// the way the Theorem-4/6 circuits are realized -- by running the generic
// pipeline over the symbolic CircuitBuilderField (circuit/field.h).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "field/concepts.h"
#include "util/fault.h"
#include "util/status.h"

namespace kp::circuit {

enum class Op : std::uint8_t {
  kInput,   ///< leaf: formal input (e.g. a matrix entry)
  kConst,   ///< leaf: integer constant, materialized via F::from_int
  kRandom,  ///< leaf: random field element drawn from the sample set S
  kAdd,
  kSub,
  kMul,
  kDiv,
  kNeg,
};

using NodeId = std::uint32_t;

struct Node {
  Op op;
  NodeId a = 0, b = 0;        ///< operand ids (a only, for kNeg)
  std::int64_t value = 0;     ///< payload for kConst
  std::uint32_t depth = 0;    ///< arithmetic nodes on the longest path to a leaf
};

/// Append-only circuit arena.  Nodes are topologically ordered by id.
/// Identical constant() values are pooled: the first call appends a node,
/// later calls return the existing id (constants are leaves, so size() --
/// the paper's arithmetic-node count -- is unaffected; see DESIGN.md §11).
class Circuit {
 public:
  NodeId input();
  NodeId constant(std::int64_t v);
  NodeId random_element();
  NodeId add(NodeId a, NodeId b);
  NodeId sub(NodeId a, NodeId b);
  NodeId mul(NodeId a, NodeId b);
  NodeId div(NodeId a, NodeId b);
  NodeId neg(NodeId a);

  void mark_output(NodeId id) { outputs_.push_back(id); }
  void clear_outputs() { outputs_.clear(); }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& randoms() const { return randoms_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }

  /// Number of arithmetic nodes (the paper's circuit size l).
  std::size_t size() const { return arithmetic_count_; }
  /// Total nodes including leaves.
  std::size_t total_nodes() const { return nodes_.size(); }
  /// Longest arithmetic path feeding any output (the paper's depth d).
  std::uint32_t depth() const;
  /// Depth of one node.
  std::uint32_t depth_of(NodeId id) const { return nodes_[id].depth; }

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_randoms() const { return randoms_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }

  /// Result of a Status-reporting evaluation.  On kDivisionByZero the id of
  /// the failing kDiv node is carried alongside the Status so callers can
  /// map the failure event back into the DAG (depth_of(failed_node), dot
  /// export, ...).
  template <class F>
  struct EvalResult {
    kp::util::Status status;
    std::vector<typename F::Element> outputs;
    NodeId failed_node = 0;  ///< valid iff status.kind() == kDivisionByZero
  };

  /// Evaluates the circuit over a field, one node at a time.  The failure
  /// event (a kDiv node whose divisor evaluates to zero -- unlucky randoms
  /// or a singular input, Theorem 4) is reported through the PR-4 taxonomy
  /// as kDivisionByZero at Stage::kCircuitEval with the failing NodeId.
  /// `input_values` / `random_values` must match num_inputs()/num_randoms().
  template <kp::field::Field F>
  EvalResult<F> evaluate_status(
      const F& f, const std::vector<typename F::Element>& input_values,
      const std::vector<typename F::Element>& random_values) const {
    EvalResult<F> res;
    std::vector<typename F::Element> val(nodes_.size(), f.zero());
    std::size_t next_input = 0, next_random = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      switch (n.op) {
        case Op::kInput:
          val[i] = input_values[next_input++];
          break;
        case Op::kConst:
          val[i] = f.from_int(n.value);
          break;
        case Op::kRandom:
          val[i] = random_values[next_random++];
          break;
        case Op::kAdd:
          val[i] = f.add(val[n.a], val[n.b]);
          break;
        case Op::kSub:
          val[i] = f.sub(val[n.a], val[n.b]);
          break;
        case Op::kMul:
          val[i] = f.mul(val[n.a], val[n.b]);
          break;
        case Op::kDiv: {
          const bool injected = KP_FAULT_POINT(kp::util::Stage::kCircuitEval);
          if (f.is_zero(val[n.b]) || injected) {  // the failure event
            res.failed_node = static_cast<NodeId>(i);
            res.status =
                injected
                    ? kp::util::Status::Injected(
                          kp::util::FailureKind::kDivisionByZero,
                          kp::util::Stage::kCircuitEval)
                    : kp::util::Status::Fail(
                          kp::util::FailureKind::kDivisionByZero,
                          kp::util::Stage::kCircuitEval,
                          "node " + std::to_string(i));
            return res;
          }
          val[i] = f.div(val[n.a], val[n.b]);
          break;
        }
        case Op::kNeg:
          val[i] = f.neg(val[n.a]);
          break;
      }
    }
    res.outputs.reserve(outputs_.size());
    for (NodeId id : outputs_) res.outputs.push_back(val[id]);
    return res;
  }

 private:
  NodeId push(Node n);

  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> randoms_;
  std::vector<NodeId> outputs_;
  std::unordered_map<std::int64_t, NodeId> constant_pool_;
  std::size_t arithmetic_count_ = 0;
};

}  // namespace kp::circuit
