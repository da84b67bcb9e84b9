#include "transforms/resynth.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "aig/analysis.hpp"
#include "aig/cuts.hpp"
#include "aig/synth.hpp"
#include "aig/truth.hpp"

namespace aigml::transforms {

using aig::Aig;
using aig::AndProber;
using aig::Cut;
using aig::Lit;
using aig::NodeId;

namespace {

/// Cost of a candidate: AND nodes that would be added + resulting level.
struct CandidateCost {
  int added_nodes = 0;
  std::uint32_t level = 0;
};

bool cheaper(const CandidateCost& a, const CandidateCost& b, bool prefer_depth) {
  if (prefer_depth) {
    if (a.level != b.level) return a.level < b.level;
    return a.added_nodes < b.added_nodes;
  }
  if (a.added_nodes != b.added_nodes) return a.added_nodes < b.added_nodes;
  return a.level < b.level;
}

/// A candidate implementation of one node, as plain data.  build() emits it
/// through any AND maker: an AndProber costs it, the output graph builds it.
struct Candidate {
  enum class Kind : std::uint8_t {
    And,    ///< AND(a, b)
    Table,  ///< the cut function `table` synthesized over `leaves`
    Copy,   ///< the existing literal a
    Xor,    ///< XOR(a, b) as three ANDs
  };
  Kind kind = Kind::And;
  bool complemented = false;  ///< the root is the complement of the above
  std::uint8_t nvars = 0;
  std::uint64_t table = 0;
  std::array<Lit, aig::kTtMaxVars> leaves{};
  Lit a = aig::kLitFalse;
  Lit b = aig::kLitFalse;
};

template <typename Maker>
Lit build(const Candidate& c, Maker& and_fn) {
  Lit root = c.a;
  switch (c.kind) {
    case Candidate::Kind::And:
      root = and_fn(c.a, c.b);
      break;
    case Candidate::Kind::Table:
      root = aig::replay_plan(aig::synth_plan(c.table, c.nvars), and_fn,
                              std::span<const Lit>(c.leaves.data(), c.nvars));
      break;
    case Candidate::Kind::Copy:
      break;
    case Candidate::Kind::Xor: {
      const Lit p = and_fn(c.a, aig::lit_not(c.b));
      const Lit q = and_fn(aig::lit_not(c.a), c.b);
      root = aig::lit_not(and_fn(aig::lit_not(p), aig::lit_not(q)));
      break;
    }
  }
  return aig::lit_not_if(root, c.complemented);
}

/// Reconvergence-driven cut: grow from the node's fanins, expanding the leaf
/// whose replacement by its fanins increases the leaf count least, while
/// staying within `max_leaves`.  The result is always a *structural* cut.
void reconvergence_cut(const Aig& g, NodeId root, int max_leaves, std::vector<NodeId>& leaves) {
  leaves.assign({aig::lit_var(g.fanin0(root)), aig::lit_var(g.fanin1(root))});
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  while (true) {
    int best_index = -1;
    int best_growth = max_leaves + 1;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const NodeId leaf = leaves[i];
      if (!g.is_and(leaf)) continue;
      const NodeId c0 = aig::lit_var(g.fanin0(leaf));
      const NodeId c1 = aig::lit_var(g.fanin1(leaf));
      int growth = -1;  // removing the expanded leaf
      if (std::find(leaves.begin(), leaves.end(), c0) == leaves.end()) ++growth;
      if (c1 != c0 && std::find(leaves.begin(), leaves.end(), c1) == leaves.end()) ++growth;
      if (static_cast<int>(leaves.size()) + growth <= max_leaves && growth < best_growth) {
        best_growth = growth;
        best_index = static_cast<int>(i);
      }
    }
    if (best_index < 0) break;
    const NodeId leaf = leaves[static_cast<std::size_t>(best_index)];
    leaves.erase(leaves.begin() + best_index);
    for (const Lit f : {g.fanin0(leaf), g.fanin1(leaf)}) {
      const NodeId v = aig::lit_var(f);
      if (std::find(leaves.begin(), leaves.end(), v) == leaves.end()) leaves.push_back(v);
    }
    std::sort(leaves.begin(), leaves.end());
  }
}

/// Per-node scratch for reconvergence windows, allocated once per pass.
/// Marks are generation stamps, so starting a window costs O(1) instead of
/// clearing num_nodes()-sized arrays.
class WindowScratch {
 public:
  void resize(std::size_t num_nodes) {
    leaf_.assign(num_nodes, 0);
    seen_.assign(num_nodes, 0);
    valued_.assign(num_nodes, 0);
    value_.assign(num_nodes, 0);
  }

  void next_window() {
    if (++gen_ == 0) {  // stamp wrap-around: clear and restart
      std::fill(leaf_.begin(), leaf_.end(), 0);
      std::fill(seen_.begin(), seen_.end(), 0);
      std::fill(valued_.begin(), valued_.end(), 0);
      gen_ = 1;
    }
  }

  void mark_leaf(NodeId id) { leaf_[id] = gen_; }
  [[nodiscard]] bool is_leaf(NodeId id) const { return leaf_[id] == gen_; }
  /// Marks `id` seen; returns false when it already was.
  bool visit(NodeId id) {
    if (seen_[id] == gen_) return false;
    seen_[id] = gen_;
    return true;
  }
  void set_value(NodeId id, std::uint64_t v) {
    valued_[id] = gen_;
    value_[id] = v;
  }
  /// Nodes never assigned in this window read as constant false.
  [[nodiscard]] std::uint64_t value(NodeId id) const {
    return valued_[id] == gen_ ? value_[id] : 0;
  }

 private:
  std::vector<std::uint32_t> leaf_;
  std::vector<std::uint32_t> seen_;
  std::vector<std::uint32_t> valued_;
  std::vector<std::uint64_t> value_;
  std::uint32_t gen_ = 0;
};

/// Nodes strictly between `root` and `leaves` (excluding both), topological.
/// Starts a new scratch window and marks the leaves.
void window_nodes(const Aig& g, NodeId root, std::span<const NodeId> leaves,
                  WindowScratch& scratch, std::vector<NodeId>& stack,
                  std::vector<NodeId>& nodes) {
  scratch.next_window();
  for (const NodeId l : leaves) scratch.mark_leaf(l);
  stack.assign({aig::lit_var(g.fanin0(root)), aig::lit_var(g.fanin1(root))});
  nodes.clear();
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (scratch.is_leaf(id) || !g.is_and(id) || !scratch.visit(id)) continue;
    nodes.push_back(id);
    stack.push_back(aig::lit_var(g.fanin0(id)));
    stack.push_back(aig::lit_var(g.fanin1(id)));
  }
  std::sort(nodes.begin(), nodes.end());
}

/// Local truth tables over the window: leaves get elementary variables,
/// window nodes (and the root) evaluate structurally.  Exact because the
/// leaf set is a structural cut.
struct WindowTables {
  std::uint64_t root_table = 0;
  std::vector<std::pair<NodeId, std::uint64_t>> divisors;  ///< node id -> table
};

/// Fills `out` for the window window_nodes() just opened in `scratch`.
void window_tables(const Aig& g, NodeId root, std::span<const NodeId> leaves,
                   std::span<const NodeId> inner, int max_divisors, WindowScratch& scratch,
                   WindowTables& out) {
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    scratch.set_value(leaves[i], aig::tt_var(static_cast<int>(i)));
  }
  out.divisors.clear();
  auto eval = [&](NodeId id) {
    const Lit f0 = g.fanin0(id);
    const Lit f1 = g.fanin1(id);
    const std::uint64_t v0 =
        scratch.value(aig::lit_var(f0)) ^ (aig::lit_is_complemented(f0) ? ~0ULL : 0ULL);
    const std::uint64_t v1 =
        scratch.value(aig::lit_var(f1)) ^ (aig::lit_is_complemented(f1) ? ~0ULL : 0ULL);
    scratch.set_value(id, v0 & v1);
  };
  for (const NodeId id : inner) {
    eval(id);
    if (static_cast<int>(out.divisors.size()) < max_divisors) {
      out.divisors.emplace_back(id, scratch.value(id));
    }
  }
  // Leaves are divisors too (buffers/complements of leaves are candidates).
  for (const NodeId l : leaves) {
    if (static_cast<int>(out.divisors.size()) < max_divisors) {
      out.divisors.emplace_back(l, scratch.value(l));
    }
  }
  eval(root);
  out.root_table = scratch.value(root);
}

/// The resynthesis pass.
class ResynthPass {
 public:
  ResynthPass(const Aig& g, const ResynthParams& params) : g_(g), params_(params) {
    if (params.source == CutSource::Enumerated) {
      cuts_.emplace(g, aig::CutParams{params.cut_size, params.cuts_per_node});
    } else {
      window_.resize(g.num_nodes());
    }
  }

  Aig run() {
    remap_.assign(g_.num_nodes(), aig::kLitInvalid);
    remap_[0] = aig::kLitFalse;
    out_.reserve(g_.num_nodes());
    for (std::size_t i = 0; i < g_.num_inputs(); ++i) {
      remap_[g_.inputs()[i]] = out_.add_input(g_.input_name(i));
    }
    sync_levels();
    for (NodeId id = 0; id < g_.num_nodes(); ++id) {
      if (g_.is_and(id)) process(id);
    }
    for (std::size_t i = 0; i < g_.num_outputs(); ++i) {
      const Lit o = g_.outputs()[i];
      out_.add_output(aig::lit_not_if(remap_[aig::lit_var(o)], aig::lit_is_complemented(o)),
                      g_.output_name(i));
    }
    return out_.cleanup();
  }

 private:
  void sync_levels() {
    for (NodeId id = static_cast<NodeId>(out_levels_.size()); id < out_.num_nodes(); ++id) {
      if (out_.is_and(id)) {
        out_levels_.push_back(1 + std::max(out_levels_[aig::lit_var(out_.fanin0(id))],
                                           out_levels_[aig::lit_var(out_.fanin1(id))]));
      } else {
        out_levels_.push_back(0);
      }
    }
  }

  Lit mapped(Lit lit) const {
    return aig::lit_not_if(remap_[aig::lit_var(lit)], aig::lit_is_complemented(lit));
  }

  /// Costs `c` against the graph built so far and keeps it when it is the
  /// first candidate or strictly cheaper than the best one seen.
  void consider(const Candidate& c) {
    // out_levels_ may have reallocated since the last node: rebind.
    prober_.reset(out_levels_);
    const Lit result = build(c, prober_);
    const CandidateCost cost{prober_.misses(), prober_.level_of(result)};
    if (!have_best_ || cheaper(cost, best_cost_, params_.prefer_depth)) {
      best_ = c;
      best_cost_ = cost;
      have_best_ = true;
    }
  }

  void process(NodeId id) {
    have_best_ = false;
    // (a) default reconstruction.
    Candidate c;
    c.kind = Candidate::Kind::And;
    c.a = mapped(g_.fanin0(id));
    c.b = mapped(g_.fanin1(id));
    consider(c);

    c.kind = Candidate::Kind::Table;
    if (params_.source == CutSource::Enumerated) {
      for (const Cut& cut : cuts_->cuts(id)) {
        for (std::size_t i = 0; i < cut.size; ++i) c.leaves[i] = remap_[cut.leaves[i]];
        c.table = cut.table;
        c.nvars = cut.size;
        consider(c);
      }
    } else {
      reconvergence_cut(g_, id, params_.reconv_max_leaves, leaves_);
      window_nodes(g_, id, leaves_, window_, stack_, inner_);
      window_tables(g_, id, leaves_, inner_, params_.try_resub ? params_.max_divisors : 0,
                    window_, tables_);
      for (std::size_t i = 0; i < leaves_.size(); ++i) c.leaves[i] = remap_[leaves_[i]];
      c.table = tables_.root_table;
      c.nvars = static_cast<std::uint8_t>(leaves_.size());
      consider(c);
      if (params_.try_resub) consider_resub(tables_);
    }

    // Realize the winner.
    auto make_and = [this](Lit a, Lit b) { return out_.make_and(a, b); };
    remap_[id] = build(best_, make_and);
    sync_levels();
  }

  /// Divisor-pair candidates: exact matches of the root function by a single
  /// divisor or a simple gate over two divisors.
  void consider_resub(const WindowTables& tables) {
    const std::uint64_t target = tables.root_table;
    const auto& divs = tables.divisors;
    Candidate c;
    for (std::size_t i = 0; i < divs.size(); ++i) {
      const Lit di = remap_[divs[i].first];
      const std::uint64_t ti = divs[i].second;
      if (ti == target || ~ti == target) {
        c.kind = Candidate::Kind::Copy;
        c.a = di;
        c.complemented = ti != target;
        consider(c);
        continue;  // exact copies beat anything else involving this divisor
      }
      for (std::size_t j = i + 1; j < divs.size(); ++j) {
        const Lit dj = remap_[divs[j].first];
        const std::uint64_t tj = divs[j].second;
        // AND with all polarity combinations (covers OR/NOR via output
        // complement when the target matches the complemented form).
        for (int neg = 0; neg < 4; ++neg) {
          const std::uint64_t a = (neg & 1) ? ~ti : ti;
          const std::uint64_t b = (neg & 2) ? ~tj : tj;
          if ((a & b) == target || ~(a & b) == target) {
            c.kind = Candidate::Kind::And;
            c.a = aig::lit_not_if(di, (neg & 1) != 0);
            c.b = aig::lit_not_if(dj, (neg & 2) != 0);
            c.complemented = (a & b) != target;
            consider(c);
          }
        }
        if ((ti ^ tj) == target || (ti ^ tj) == ~target) {
          c.kind = Candidate::Kind::Xor;
          c.a = di;
          c.b = dj;
          c.complemented = (ti ^ tj) != target;
          consider(c);
        }
      }
    }
  }

  const Aig& g_;
  ResynthParams params_;
  std::optional<aig::CutSets> cuts_;
  Aig out_;
  std::vector<Lit> remap_;
  std::vector<std::uint32_t> out_levels_;
  AndProber prober_{out_, {}};
  Candidate best_;
  CandidateCost best_cost_;
  bool have_best_ = false;
  // Reconvergence-window scratch, reused across nodes.
  WindowScratch window_;
  std::vector<NodeId> leaves_;
  std::vector<NodeId> stack_;
  std::vector<NodeId> inner_;
  WindowTables tables_;
};

}  // namespace

Aig resynthesize(const Aig& g, const ResynthParams& params) {
  if (params.cut_size < 2 || params.cut_size > aig::kTtMaxVars) {
    throw std::invalid_argument("resynthesize: cut_size out of range");
  }
  if (params.reconv_max_leaves < 2 || params.reconv_max_leaves > aig::kTtMaxVars) {
    throw std::invalid_argument("resynthesize: reconv_max_leaves out of range");
  }
  ResynthPass pass(g, params);
  return pass.run();
}

Aig rewrite(const Aig& g) {
  ResynthParams p;
  p.source = CutSource::Enumerated;
  p.cut_size = 4;
  return resynthesize(g, p);
}

Aig rewrite_depth(const Aig& g) {
  ResynthParams p;
  p.source = CutSource::Enumerated;
  p.cut_size = 4;
  p.prefer_depth = true;
  return resynthesize(g, p);
}

Aig rewrite_k3(const Aig& g) {
  ResynthParams p;
  p.source = CutSource::Enumerated;
  p.cut_size = 3;
  return resynthesize(g, p);
}

Aig refactor(const Aig& g) {
  ResynthParams p;
  p.source = CutSource::Reconvergence;
  return resynthesize(g, p);
}

Aig refactor_depth(const Aig& g) {
  ResynthParams p;
  p.source = CutSource::Reconvergence;
  p.prefer_depth = true;
  return resynthesize(g, p);
}

Aig resub(const Aig& g) {
  ResynthParams p;
  p.source = CutSource::Reconvergence;
  p.try_resub = true;
  return resynthesize(g, p);
}

TransformResult resynthesize_traced(const Aig& g, const ResynthParams& params) {
  return traced(g, resynthesize(g, params));
}

}  // namespace aigml::transforms
