#include "aig/cuts.hpp"

#include <algorithm>
#include <bit>

namespace aigml::aig {

bool Cut::subset_of(const Cut& other) const noexcept {
  if (size > other.size) return false;
  std::size_t j = 0;
  for (std::size_t i = 0; i < size; ++i) {
    while (j < other.size && other.leaves[j] < leaves[i]) ++j;
    if (j == other.size || other.leaves[j] != leaves[i]) return false;
  }
  return true;
}

bool merge_cuts(const Cut& cut0, bool complement0, const Cut& cut1, bool complement1,
                int cut_size, Cut& out) {
  // Merge the sorted leaf lists.
  std::array<NodeId, kTtMaxVars> merged{};
  int m = 0;
  std::size_t i = 0, j = 0;
  while (i < cut0.size || j < cut1.size) {
    NodeId next;
    if (i < cut0.size && (j >= cut1.size || cut0.leaves[i] <= cut1.leaves[j])) {
      next = cut0.leaves[i];
      if (j < cut1.size && cut1.leaves[j] == next) ++j;
      ++i;
    } else {
      next = cut1.leaves[j];
      ++j;
    }
    if (m == cut_size) return false;
    merged[static_cast<std::size_t>(m++)] = next;
  }

  // Align each fanin table to the merged leaf ordering.  Both leaf lists are
  // sorted, so each cut's leaves map to strictly increasing merged positions;
  // alignment is then just sliding variables upward past the inserted
  // (vacuous) ones — O(1) bit ops per adjacent swap, no 2^m pattern loop.
  auto align = [&](const Cut& c) {
    std::array<std::uint8_t, kTtMaxVars> positions{};
    std::size_t j = 0;
    for (std::size_t v = 0; v < c.size; ++v) {
      while (merged[j] != c.leaves[v]) ++j;
      positions[v] = static_cast<std::uint8_t>(j++);
    }
    std::uint64_t t = c.table;
    for (int v = static_cast<int>(c.size) - 1; v >= 0; --v) {
      for (int i = v; i < positions[static_cast<std::size_t>(v)]; ++i) {
        t = tt_swap_adjacent(t, i);
      }
    }
    return t;
  };

  std::uint64_t t0 = align(cut0);
  std::uint64_t t1 = align(cut1);
  if (complement0) t0 = ~t0;
  if (complement1) t1 = ~t1;
  std::uint64_t table = t0 & t1;

  // Support-minimize: drop leaves the function does not depend on.
  std::array<std::uint8_t, kTtMaxVars> kept{};
  std::uint64_t shrunk = table;
  const int k = tt_shrink_support(shrunk, m, kept);
  out = Cut{};
  out.size = static_cast<std::uint8_t>(k);
  out.table = shrunk;
  for (int v = 0; v < k; ++v) out.leaves[static_cast<std::size_t>(v)] = merged[kept[static_cast<std::size_t>(v)]];
  return true;
}

namespace {

/// A working-buffer cut with its leaf signature: the OR of
/// `1 << (leaf % 64)` over its leaves (the signatures of ABC's priority cuts).
/// A cut's signature is a subset of any superset's, and its popcount is a
/// lower bound on the leaf count, so both tests below are exact filters.
/// Signatures live only in the enumeration, never in the public Cut, so
/// hand-built cuts need not carry one.
struct SignedCut {
  Cut cut;
  std::uint64_t sig = 0;
};

std::uint64_t leaf_signature(const Cut& cut) noexcept {
  std::uint64_t sig = 0;
  for (std::size_t i = 0; i < cut.size; ++i) sig |= std::uint64_t{1} << (cut.leaves[i] % 64);
  return sig;
}

/// Inserts `cut` into the size-ordered working buffer with dominance
/// filtering and a size cap.  One positional insertion replaces the seed's
/// full std::sort after every insert; the buffer stays ordered by cut size
/// (ascending — smaller cuts are cheaper to match), insertion-ordered within
/// equal sizes.  A signature bit outside the other cut's signature proves a
/// leaf outside it, so most subset tests end before touching the leaves.
void insert_cut(std::vector<SignedCut>& set, const Cut& cut, std::uint64_t sig, int max_cuts) {
  // Reject if dominated by an existing cut (same function guarantee is not
  // required for domination: fewer leaves always at least as good).
  for (const SignedCut& existing : set) {
    if ((existing.sig & ~sig) == 0 && existing.cut.subset_of(cut)) return;
  }
  std::erase_if(set, [&](const SignedCut& existing) {
    return (sig & ~existing.sig) == 0 && cut.subset_of(existing.cut);
  });
  // Insertion position: after all cuts of size <= cut.size.
  std::size_t pos = set.size();
  while (pos > 0 && set[pos - 1].cut.size > cut.size) --pos;
  if (set.size() == static_cast<std::size_t>(max_cuts)) {
    if (pos == set.size()) return;  // would be the largest: evicted on arrival
    set.pop_back();                 // evict the current largest instead
  }
  set.insert(set.begin() + static_cast<std::ptrdiff_t>(pos), SignedCut{cut, sig});
}

Cut trivial_cut(NodeId id) {
  Cut c;
  c.size = 1;
  c.leaves[0] = id;
  c.table = tt_var(0);
  return c;
}

}  // namespace

CutSets::CutSets(const Aig& g, const CutParams& params) : params_(params) {
  extents_.resize(g.num_nodes());
  arena_.reserve(g.num_ands() * static_cast<std::size_t>(params.max_cuts) / 2);
  // sigs[i] is the leaf signature of arena_[i]; it is needed only while
  // enumerating, so it is dropped with the constructor's frame.
  std::vector<std::uint64_t> sigs;
  sigs.reserve(arena_.capacity());
  std::vector<SignedCut> work;  // reused per-node working buffer
  work.reserve(static_cast<std::size_t>(params.max_cuts) + 1);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    if (!g.is_and(id)) continue;
    const Lit f0 = g.fanin0(id);
    const Lit f1 = g.fanin1(id);
    const NodeId v0 = lit_var(f0);
    const NodeId v1 = lit_var(f1);
    const bool c0 = lit_is_complemented(f0);
    const bool c1 = lit_is_complemented(f1);

    // Candidate fanin cut lists: each fanin's stored cuts (read in place from
    // the arena — appends only happen after both loops finish) plus its
    // trivial cut, materialized once on the stack.
    const std::span<const Cut> cuts0 = cuts(v0);
    const std::span<const Cut> cuts1 = cuts(v1);
    const std::uint64_t* sigs0 = sigs.data() + extents_[v0].offset;
    const std::uint64_t* sigs1 = sigs.data() + extents_[v1].offset;
    const Cut triv0 = trivial_cut(v0);
    const Cut triv1 = trivial_cut(v1);
    const std::uint64_t triv_sig0 = leaf_signature(triv0);
    const std::uint64_t triv_sig1 = leaf_signature(triv1);

    work.clear();
    Cut merged;
    for (std::size_t i = 0; i <= cuts0.size(); ++i) {
      const bool fanin_cut0 = i < cuts0.size();
      const Cut& a = fanin_cut0 ? cuts0[i] : triv0;
      const std::uint64_t sig_a = fanin_cut0 ? sigs0[i] : triv_sig0;
      for (std::size_t j = 0; j <= cuts1.size(); ++j) {
        const bool fanin_cut1 = j < cuts1.size();
        const std::uint64_t sig_b = fanin_cut1 ? sigs1[j] : triv_sig1;
        // The union has at least popcount(sig_a | sig_b) leaves, so this
        // skips only pairs merge_cuts would reject.
        if (std::popcount(sig_a | sig_b) > params.cut_size) continue;
        const Cut& b = fanin_cut1 ? cuts1[j] : triv1;
        if (!merge_cuts(a, c0, b, c1, params.cut_size, merged)) continue;
        // Degenerate results are kept: a single-leaf cut means the node is a
        // (possibly complemented) copy of the leaf, and a zero-leaf cut means
        // the node is constant under reconvergent cancellation — both are
        // exploited by rewriting and mapping.  The zero-leaf cut dominates
        // (is a subset of) every other cut and will displace them.
        insert_cut(work, merged, leaf_signature(merged), params.max_cuts);
      }
    }
    extents_[id] = {static_cast<std::uint32_t>(arena_.size()),
                    static_cast<std::uint32_t>(work.size())};
    for (const SignedCut& c : work) {
      arena_.push_back(c.cut);
      sigs.push_back(c.sig);
    }
  }
}

}  // namespace aigml::aig
