#pragma once
// K-feasible cut enumeration with truth tables ("priority cuts").
//
// A cut of node n is a set of nodes (leaves) such that every PI-to-n path
// passes through a leaf; the cut's truth table expresses n as a function of
// its leaves.  Cuts drive both technology mapping (match the cut function to
// a library cell) and rewriting (resynthesize the cut function).
//
// Implementation: bottom-up merging in topological order, keeping at most
// `max_cuts` non-trivial cuts per node, dominance-filtered, plus the trivial
// cut {n} used for merging at fanouts.  Leaf sets are sorted by node id;
// truth-table variable i corresponds to the i-th leaf.  Truth tables are
// support-minimized on construction, so a cut never carries vacuous leaves.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/truth.hpp"

namespace aigml::aig {

struct Cut {
  std::array<NodeId, kTtMaxVars> leaves{};  ///< sorted ascending; [0, size)
  std::uint8_t size = 0;
  std::uint64_t table = 0;  ///< function of node over leaves, expanded form

  [[nodiscard]] std::span<const NodeId> leaf_span() const noexcept {
    return {leaves.data(), size};
  }
  [[nodiscard]] bool is_trivial_for(NodeId n) const noexcept {
    return size == 1 && leaves[0] == n;
  }
  /// True when every leaf of this cut also appears in `other` (domination).
  [[nodiscard]] bool subset_of(const Cut& other) const noexcept;
};

struct CutParams {
  int cut_size = 4;   ///< max leaves per cut (2..6)
  int max_cuts = 8;   ///< max non-trivial cuts kept per node
};

/// Per-node cut sets.  cuts(id) lists the node's non-trivial cuts (for PIs
/// and the constant node, the list is empty); the implicit trivial cut is
/// always additionally considered during merging.
///
/// Storage is a single flat arena: enumeration proceeds in topological order,
/// each node's final cut list is appended contiguously once, and per-node
/// views are (offset, count) spans into the arena.  Fanin cut lists are read
/// in place — no per-node vectors, no copies, no per-insert sort (a working
/// buffer of at most max_cuts entries is kept size-ordered by positional
/// insertion).  While enumerating, every cut also carries a 64-bit leaf
/// signature (bit leaf % 64 set per leaf) in a parallel array: a fanin pair
/// whose signatures' union has more than cut_size bits is skipped before
/// merging, and dominance checks test signatures before leaves.  Both
/// filters are exact, so the lists are those of the unfiltered merge.
class CutSets {
 public:
  CutSets(const Aig& g, const CutParams& params);

  [[nodiscard]] std::span<const Cut> cuts(NodeId id) const {
    const Extent e = extents_[id];
    return {arena_.data() + e.offset, e.count};
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return extents_.size(); }
  /// Total cuts stored across all nodes.
  [[nodiscard]] std::size_t num_cuts() const noexcept { return arena_.size(); }
  [[nodiscard]] const CutParams& params() const noexcept { return params_; }

 private:
  struct Extent {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };
  std::vector<Cut> arena_;
  std::vector<Extent> extents_;
  CutParams params_;
};

/// Merges two cuts: leaf union + truth-table combination for
/// AND(f0 ^ c0, f1 ^ c1).  Returns false when the union exceeds `cut_size`.
/// On success the result is support-minimized.
[[nodiscard]] bool merge_cuts(const Cut& cut0, bool complement0, const Cut& cut1,
                              bool complement1, int cut_size, Cut& out);

}  // namespace aigml::aig
