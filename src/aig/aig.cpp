#include "aig/aig.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace aigml::aig {

namespace {

/// Fibonacci hash of the fanin pair; the high half spreads well under any
/// power-of-two mask.
constexpr std::size_t strash_hash(Lit a, Lit b) noexcept {
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32);
}

/// Smallest power-of-two table that holds `ands` keys at load <= 1/2.
std::size_t strash_slots_for(std::size_t ands) noexcept {
  return std::bit_ceil(std::max<std::size_t>(2 * ands, 16));
}

constexpr std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

Aig::Aig() {
  nodes_.push_back(Node{kLitFalse, kLitFalse, NodeKind::Constant});  // variable 0
}

Lit Aig::add_input(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{kLitFalse, kLitFalse, NodeKind::Input});
  inputs_.push_back(id);
  if (name.empty()) name = "i" + std::to_string(inputs_.size() - 1);
  input_names_.push_back(std::move(name));
  return make_lit(id);
}

Lit Aig::make_and(Lit a, Lit b) {
  if (a > b) std::swap(a, b);
  // Trivial cases.  After the swap, a <= b.
  if (a == kLitFalse) return kLitFalse;          // 0 & b = 0
  if (a == kLitTrue) return b;                   // 1 & b = b
  if (a == b) return a;                          // b & b = b
  if ((a ^ b) == 1u) return kLitFalse;           // b & !b = 0
  if (lit_var(a) >= nodes_.size() || lit_var(b) >= nodes_.size()) {
    throw std::out_of_range("Aig::make_and: fanin literal references unknown node");
  }
  if (2 * (num_ands_ + 1) > strash_.size()) strash_rehash(strash_slots_for(num_ands_ + 1));
  const std::size_t slot = strash_slot(a, b);
  if (strash_[slot] != 0) return make_lit(strash_[slot]);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{a, b, NodeKind::And});
  strash_[slot] = id;
  ++num_ands_;
  return make_lit(id);
}

Lit Aig::probe_and(Lit a, Lit b) const {
  if (a > b) std::swap(a, b);
  if (a == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (a == b) return a;
  if ((a ^ b) == 1u) return kLitFalse;
  if (strash_.empty()) return kLitInvalid;
  const NodeId id = strash_[strash_slot(a, b)];
  return id != 0 ? make_lit(id) : kLitInvalid;
}

std::size_t Aig::strash_slot(Lit a, Lit b) const noexcept {
  const std::size_t mask = strash_.size() - 1;
  for (std::size_t slot = strash_hash(a, b) & mask;; slot = (slot + 1) & mask) {
    const NodeId id = strash_[slot];
    if (id == 0) return slot;
    const Node& n = nodes_[id];
    if (n.fanin0 == a && n.fanin1 == b) return slot;
  }
}

void Aig::strash_rehash(std::size_t slots) {
  strash_.assign(slots, 0);
  const std::size_t mask = slots - 1;
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.kind != NodeKind::And) continue;
    std::size_t slot = strash_hash(n.fanin0, n.fanin1) & mask;
    while (strash_[slot] != 0) slot = (slot + 1) & mask;
    strash_[slot] = id;
  }
}

void Aig::reserve(std::size_t n) {
  nodes_.reserve(n);
  if (2 * n > strash_.size()) strash_rehash(strash_slots_for(n));
}

Lit Aig::make_xor(Lit a, Lit b) {
  // a ^ b = !( !(a & !b) & !( !a & b) )
  const Lit and0 = make_and(a, lit_not(b));
  const Lit and1 = make_and(lit_not(a), b);
  return make_or(and0, and1);
}

Lit Aig::make_mux(Lit sel, Lit t, Lit e) {
  const Lit take_t = make_and(sel, t);
  const Lit take_e = make_and(lit_not(sel), e);
  return make_or(take_t, take_e);
}

Lit Aig::make_maj(Lit a, Lit b, Lit c) {
  const Lit ab = make_and(a, b);
  const Lit ac = make_and(a, c);
  const Lit bc = make_and(b, c);
  return make_or(make_or(ab, ac), bc);
}

namespace {

// Balanced reduction over a buffer of literals using `op`.
template <typename Op>
Lit balanced_reduce(std::vector<Lit> work, Lit identity, Op op) {
  if (work.empty()) return identity;
  while (work.size() > 1) {
    std::vector<Lit> next;
    next.reserve((work.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < work.size(); i += 2) next.push_back(op(work[i], work[i + 1]));
    if (work.size() % 2 == 1) next.push_back(work.back());
    work = std::move(next);
  }
  return work.front();
}

}  // namespace

Lit Aig::make_and_n(std::span<const Lit> lits) {
  return balanced_reduce(std::vector<Lit>(lits.begin(), lits.end()), kLitTrue,
                         [this](Lit x, Lit y) { return make_and(x, y); });
}

Lit Aig::make_or_n(std::span<const Lit> lits) {
  return balanced_reduce(std::vector<Lit>(lits.begin(), lits.end()), kLitFalse,
                         [this](Lit x, Lit y) { return make_or(x, y); });
}

Lit Aig::make_xor_n(std::span<const Lit> lits) {
  return balanced_reduce(std::vector<Lit>(lits.begin(), lits.end()), kLitFalse,
                         [this](Lit x, Lit y) { return make_xor(x, y); });
}

std::uint32_t Aig::add_output(Lit lit, std::string name) {
  if (lit_var(lit) >= nodes_.size()) {
    throw std::out_of_range("Aig::add_output: literal references unknown node");
  }
  outputs_.push_back(lit);
  if (name.empty()) name = "o" + std::to_string(outputs_.size() - 1);
  output_names_.push_back(std::move(name));
  return static_cast<std::uint32_t>(outputs_.size() - 1);
}

void Aig::set_output(std::uint32_t index, Lit lit) {
  if (index >= outputs_.size()) throw std::out_of_range("Aig::set_output: bad output index");
  if (lit_var(lit) >= nodes_.size()) {
    throw std::out_of_range("Aig::set_output: literal references unknown node");
  }
  outputs_[index] = lit;
}

std::uint64_t Aig::structural_hash() const {
  // Hash only the cone reachable from outputs so that graphs differing solely
  // in dead logic collide (cleanup-invariance).
  std::vector<std::uint64_t> node_sig(nodes_.size(), 0);
  std::vector<char> visited(nodes_.size(), 0);
  // Iterative DFS from each output.
  std::vector<NodeId> stack;
  for (const Lit out : outputs_) stack.push_back(lit_var(out));
  while (!stack.empty()) {
    const NodeId id = stack.back();
    if (visited[id]) {
      stack.pop_back();
      continue;
    }
    const Node& n = nodes_[id];
    if (n.kind == NodeKind::And) {
      const NodeId c0 = lit_var(n.fanin0);
      const NodeId c1 = lit_var(n.fanin1);
      if (!visited[c0]) {
        stack.push_back(c0);
        continue;
      }
      if (!visited[c1]) {
        stack.push_back(c1);
        continue;
      }
      std::uint64_t h = 0x8000'0000'0000'0003ULL;
      h = hash_mix(h, node_sig[c0] * 2 + lit_is_complemented(n.fanin0));
      h = hash_mix(h, node_sig[c1] * 2 + lit_is_complemented(n.fanin1));
      node_sig[id] = h;
    } else if (n.kind == NodeKind::Input) {
      // Position-sensitive: the i-th input gets a distinct signature.
      const auto pos = static_cast<std::uint64_t>(
          std::find(inputs_.begin(), inputs_.end(), id) - inputs_.begin());
      node_sig[id] = hash_mix(0x1111'2222'3333'4445ULL, pos);
    } else {
      node_sig[id] = 0x5555'aaaa'5555'aaabULL;
    }
    visited[id] = 1;
    stack.pop_back();
  }
  std::uint64_t h = hash_mix(0, outputs_.size());
  for (const Lit out : outputs_) {
    h = hash_mix(h, node_sig[lit_var(out)] * 2 + lit_is_complemented(out));
  }
  return h;
}

bool Aig::check_acyclic_order() const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.kind != NodeKind::And) continue;
    if (lit_var(n.fanin0) >= id || lit_var(n.fanin1) >= id) return false;
    if (n.fanin0 > n.fanin1) return false;
  }
  return true;
}

Aig Aig::cleanup() const {
  // Mark the cone of the outputs.
  std::vector<char> needed(nodes_.size(), 0);
  std::vector<NodeId> stack;
  std::size_t needed_ands = 0;
  for (const Lit o : outputs_) stack.push_back(lit_var(o));
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (needed[id]) continue;
    needed[id] = 1;
    const Node& n = nodes_[id];
    if (n.kind == NodeKind::And) {
      ++needed_ands;
      stack.push_back(lit_var(n.fanin0));
      stack.push_back(lit_var(n.fanin1));
    }
  }
  // Size node storage and the hash table once: the output has at most the
  // cone's ANDs (strashing may merge some).
  Aig out;
  out.reserve(1 + inputs_.size() + needed_ands);
  std::vector<Lit> remap(nodes_.size(), kLitInvalid);
  remap[0] = kLitFalse;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    remap[inputs_[i]] = out.add_input(input_names_[i]);
  }
  // Nodes are in topological order already, so a single forward pass works.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!needed[id] || nodes_[id].kind != NodeKind::And) continue;
    const Node& n = nodes_[id];
    const Lit f0 = lit_not_if(remap[lit_var(n.fanin0)], lit_is_complemented(n.fanin0));
    const Lit f1 = lit_not_if(remap[lit_var(n.fanin1)], lit_is_complemented(n.fanin1));
    remap[id] = out.make_and(f0, f1);
  }
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    const Lit o = outputs_[i];
    out.add_output(lit_not_if(remap[lit_var(o)], lit_is_complemented(o)), output_names_[i]);
  }
  return out;
}

}  // namespace aigml::aig
