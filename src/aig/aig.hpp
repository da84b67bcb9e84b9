#pragma once
// And-Inverter Graph (AIG) — the logic representation all optimization in
// this library operates on.
//
// Conventions follow the AIGER format: a *literal* is `2*var + phase`, where
// `phase == 1` denotes complementation.  Variable 0 is the constant-false
// node, so literal 0 is FALSE and literal 1 is TRUE.  Nodes are stored in a
// vector in creation order; because an AND can only reference already-created
// fanins, the vector order is always a valid topological order.
//
// Structural hashing: `make_and` normalizes fanin order, folds constants and
// trivial cases (a&a, a&!a), and returns an existing node when one computes
// the same pair.  Two structurally identical graphs built through the public
// API therefore share node identity.  The hash table is a flat power-of-two
// array of node ids probed linearly (id 0, the constant node, marks an empty
// slot); keys are read back from the nodes themselves, so a slot is 4 bytes
// and copying a graph copies plain vectors.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace aigml::aig {

/// Literal: 2*var + phase.
using Lit = std::uint32_t;
/// Node index (a.k.a. variable).
using NodeId = std::uint32_t;

inline constexpr Lit kLitFalse = 0;
inline constexpr Lit kLitTrue = 1;
inline constexpr Lit kLitInvalid = std::numeric_limits<Lit>::max();

[[nodiscard]] inline constexpr NodeId lit_var(Lit lit) noexcept { return lit >> 1; }
[[nodiscard]] inline constexpr bool lit_is_complemented(Lit lit) noexcept { return (lit & 1u) != 0; }
[[nodiscard]] inline constexpr Lit make_lit(NodeId var, bool complemented = false) noexcept {
  return (var << 1) | static_cast<Lit>(complemented);
}
[[nodiscard]] inline constexpr Lit lit_not(Lit lit) noexcept { return lit ^ 1u; }
[[nodiscard]] inline constexpr Lit lit_not_if(Lit lit, bool cond) noexcept {
  return lit ^ static_cast<Lit>(cond);
}
[[nodiscard]] inline constexpr Lit lit_regular(Lit lit) noexcept { return lit & ~1u; }

enum class NodeKind : std::uint8_t {
  Constant,  ///< node 0 only; semantics: constant false
  Input,     ///< primary input
  And,       ///< two-input AND over (possibly complemented) literals
};

struct Node {
  Lit fanin0 = kLitFalse;  ///< valid iff kind == And; invariant: fanin0 <= fanin1
  Lit fanin1 = kLitFalse;  ///< valid iff kind == And
  NodeKind kind = NodeKind::Constant;

  /// Record equality — what dirty-region diffing (dirty.hpp) and the
  /// evaluation memo's exact structure compare are defined over.
  [[nodiscard]] bool operator==(const Node&) const = default;
};

/// Combinational And-Inverter Graph.
class Aig {
 public:
  Aig();

  Aig(const Aig&) = default;
  Aig(Aig&&) noexcept = default;
  Aig& operator=(const Aig&) = default;
  Aig& operator=(Aig&&) noexcept = default;

  // ----- construction -------------------------------------------------------

  /// Creates a primary input; returns its (positive) literal.
  Lit add_input(std::string name = {});

  /// Creates (or retrieves) the AND of two literals.  Performs constant
  /// folding, idempotence/complement simplification, and structural hashing.
  Lit make_and(Lit a, Lit b);

  /// Returns the literal make_and(a, b) would return *without* creating any
  /// node, or kLitInvalid if a new node would be required.  Used to cost
  /// candidate resyntheses before committing to them.
  [[nodiscard]] Lit probe_and(Lit a, Lit b) const;

  // Derived operators (all expressed through make_and; XOR/MUX cost 3 ANDs).
  Lit make_or(Lit a, Lit b) { return lit_not(make_and(lit_not(a), lit_not(b))); }
  Lit make_nand(Lit a, Lit b) { return lit_not(make_and(a, b)); }
  Lit make_nor(Lit a, Lit b) { return make_and(lit_not(a), lit_not(b)); }
  Lit make_xor(Lit a, Lit b);
  Lit make_xnor(Lit a, Lit b) { return lit_not(make_xor(a, b)); }
  /// if sel then t else e.
  Lit make_mux(Lit sel, Lit t, Lit e);
  /// Majority of three (used by adder generators).
  Lit make_maj(Lit a, Lit b, Lit c);
  /// AND/OR over a span of literals, built as a balanced tree.
  Lit make_and_n(std::span<const Lit> lits);
  Lit make_or_n(std::span<const Lit> lits);
  Lit make_xor_n(std::span<const Lit> lits);

  /// Registers a primary output driven by `lit`.  Returns the output index.
  std::uint32_t add_output(Lit lit, std::string name = {});
  /// Redirects an existing output (used by rebuild-style transforms).
  void set_output(std::uint32_t index, Lit lit);

  // ----- inspection ----------------------------------------------------------

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  /// Number of AND nodes — the paper's "node count" proxy for area.
  [[nodiscard]] std::size_t num_ands() const noexcept { return num_ands_; }
  [[nodiscard]] std::size_t num_inputs() const noexcept { return inputs_.size(); }
  [[nodiscard]] std::size_t num_outputs() const noexcept { return outputs_.size(); }

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  [[nodiscard]] bool is_and(NodeId id) const { return nodes_[id].kind == NodeKind::And; }
  [[nodiscard]] bool is_input(NodeId id) const { return nodes_[id].kind == NodeKind::Input; }
  [[nodiscard]] bool is_constant(NodeId id) const { return nodes_[id].kind == NodeKind::Constant; }
  [[nodiscard]] Lit fanin0(NodeId id) const { return nodes_[id].fanin0; }
  [[nodiscard]] Lit fanin1(NodeId id) const { return nodes_[id].fanin1; }

  /// Primary-input node ids in creation order.
  [[nodiscard]] const std::vector<NodeId>& inputs() const noexcept { return inputs_; }
  /// Primary-output driver literals in creation order.
  [[nodiscard]] const std::vector<Lit>& outputs() const noexcept { return outputs_; }

  [[nodiscard]] const std::string& input_name(std::size_t i) const { return input_names_[i]; }
  [[nodiscard]] const std::string& output_name(std::size_t i) const { return output_names_[i]; }

  /// 64-bit structural fingerprint of the DAG reachable from the outputs
  /// (node structure + output literals; names excluded).
  [[nodiscard]] std::uint64_t structural_hash() const;

  /// True when every AND fanin references a lower-numbered node (the class
  /// maintains this; exposed for tests and for graphs built by deserializers).
  [[nodiscard]] bool check_acyclic_order() const;

  /// Rebuilds the graph keeping only logic reachable from the outputs.
  /// Dead AND nodes (left behind by rebuild-style transforms) are dropped and
  /// structural hashing is re-applied.  Input/output counts, order, and names
  /// are preserved.
  [[nodiscard]] Aig cleanup() const;

  /// Reserve storage for `n` nodes (optimization for bulk construction):
  /// the node vector, and a hash table sized so `n` ANDs keep its load at or
  /// below one half.
  void reserve(std::size_t n);

 private:
  /// Slot of the AND (a, b) with a <= b: the slot holding it, or the empty
  /// slot where it would go.  The table must be non-empty.
  [[nodiscard]] std::size_t strash_slot(Lit a, Lit b) const noexcept;
  /// Resizes the table to `slots` (a power of two) and re-inserts every AND.
  void strash_rehash(std::size_t slots);

  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<Lit> outputs_;
  std::vector<std::string> input_names_;
  std::vector<std::string> output_names_;
  std::vector<NodeId> strash_;  ///< power-of-two size; 0 = empty slot
  std::size_t num_ands_ = 0;
};

}  // namespace aigml::aig
