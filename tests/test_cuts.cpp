// Tests for k-feasible cut enumeration: structural properties (leaves are a
// cut, sizes bounded, domination) and functional correctness of the cut
// truth tables, validated by simulation.

#include <gtest/gtest.h>

#include <string>

#include "aig/aig.hpp"
#include "aig/analysis.hpp"
#include "aig/cuts.hpp"
#include "aig/sim.hpp"
#include "gen/circuits.hpp"
#include "gen/designs.hpp"
#include "util/rng.hpp"

namespace aigml::aig {
namespace {

/// Builds a random strashed DAG with `n_and` target AND nodes.
Aig random_aig(int n_inputs, int n_and, std::uint64_t seed) {
  Rng rng(seed);
  Aig g;
  std::vector<Lit> pool;
  for (int i = 0; i < n_inputs; ++i) pool.push_back(g.add_input());
  int made = 0;
  int attempts = 0;
  while (made < n_and && attempts < n_and * 20) {
    ++attempts;
    Lit a = pool[rng.next_below(pool.size())];
    Lit b = pool[rng.next_below(pool.size())];
    if (rng.next_bool()) a = lit_not(a);
    if (rng.next_bool()) b = lit_not(b);
    const std::size_t before = g.num_ands();
    const Lit x = g.make_and(a, b);
    if (g.num_ands() > before) {
      pool.push_back(x);
      ++made;
    }
  }
  // Use a few deep nodes as outputs.
  for (std::size_t i = pool.size() >= 3 ? pool.size() - 3 : 0; i < pool.size(); ++i) {
    g.add_output(pool[i]);
  }
  return g;
}

/// Checks that every leaf lies in the transitive fanin of `node` (leaves are
/// either the node itself or upstream logic).  Note: support minimization
/// means a cut's leaves need not *structurally* disconnect the node from the
/// PIs — paths through functionally vacuous leaves may remain — so the
/// meaningful structural property is TFI membership plus the functional
/// correctness checked by expect_cut_function_correct().
bool leaves_in_tfi(const Aig& g, NodeId node, std::span<const NodeId> leaves) {
  std::vector<char> in_tfi(g.num_nodes(), 0);
  std::vector<NodeId> stack{node};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (in_tfi[id]) continue;
    in_tfi[id] = 1;
    if (g.is_and(id)) {
      stack.push_back(lit_var(g.fanin0(id)));
      stack.push_back(lit_var(g.fanin1(id)));
    }
  }
  for (const NodeId l : leaves) {
    if (!in_tfi[l]) return false;
  }
  return true;
}

/// Validates the cut truth table by the soundness property that mapping and
/// rewriting rely on: for every *circuit-reachable* combination of leaf
/// values, the table evaluated at the leaf values equals the node value.
/// (Leaf sets may contain nodes in each other's TFI, so the table need not
/// match on unreachable leaf assignments.)
void expect_cut_function_correct([[maybe_unused]] const Aig& g, NodeId node,
                                 const std::vector<std::vector<std::uint64_t>>& node_value_batches,
                                 const Cut& cut) {
  for (const auto& values : node_value_batches) {
    for (int bit = 0; bit < 64; ++bit) {
      std::uint32_t assignment = 0;
      for (std::size_t v = 0; v < cut.size; ++v) {
        if ((values[cut.leaves[v]] >> bit) & 1ULL) assignment |= 1u << v;
      }
      const bool predicted = tt_eval(cut.table, assignment);
      const bool actual = ((values[node] >> bit) & 1ULL) != 0;
      ASSERT_EQ(predicted, actual) << "node " << node << " bit " << bit;
    }
  }
}

TEST(Cuts, SimpleAndChain) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit ab = g.make_and(a, b);
  const Lit abc = g.make_and(ab, c);
  g.add_output(abc);
  const CutSets cs(g, CutParams{4, 8});
  // Node abc must own a cut over {a, b, c} computing AND3.
  bool found = false;
  for (const Cut& cut : cs.cuts(lit_var(abc))) {
    if (cut.size == 3) {
      found = true;
      EXPECT_EQ(cut.table & tt_mask(3), (tt_var(0) & tt_var(1) & tt_var(2)) & tt_mask(3));
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cuts, XorCutFunction) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit x = g.make_xor(a, b);
  g.add_output(x);
  // make_xor returns a complemented literal over a node computing XNOR; cut
  // tables always describe the *node* (positive polarity).
  ASSERT_TRUE(lit_is_complemented(x));
  const CutSets cs(g, CutParams{4, 8});
  bool found = false;
  for (const Cut& cut : cs.cuts(lit_var(x))) {
    if (cut.size == 2 && cut.leaves[0] == lit_var(a) && cut.leaves[1] == lit_var(b)) {
      found = true;
      EXPECT_EQ(cut.table, ~(tt_var(0) ^ tt_var(1)));
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cuts, ComplementedEdgesHandled) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit nor_ab = g.make_and(lit_not(a), lit_not(b));  // NOR via complements
  g.add_output(nor_ab);
  const CutSets cs(g, CutParams{4, 8});
  const auto& cuts = cs.cuts(lit_var(nor_ab));
  ASSERT_FALSE(cuts.empty());
  for (const Cut& cut : cuts) {
    if (cut.size == 2) {
      EXPECT_EQ(cut.table, ~tt_var(0) & ~tt_var(1));
    }
  }
}

TEST(Cuts, PiAndConstantHaveNoCuts) {
  Aig g;
  const Lit a = g.add_input();
  g.add_output(a);
  const CutSets cs(g, CutParams{4, 8});
  EXPECT_TRUE(cs.cuts(0).empty());
  EXPECT_TRUE(cs.cuts(lit_var(a)).empty());
}

struct CutParamCase {
  int cut_size;
  int max_cuts;
  std::uint64_t seed;
};

class CutsProperty : public ::testing::TestWithParam<CutParamCase> {};

TEST_P(CutsProperty, StructuralAndFunctionalInvariants) {
  const auto param = GetParam();
  const Aig g = random_aig(8, 80, param.seed);
  const CutSets cs(g, CutParams{param.cut_size, param.max_cuts});
  // Simulation batches for the functional soundness check.
  Rng rng(param.seed ^ 0xdeadbeef);
  std::vector<std::vector<std::uint64_t>> batches;
  for (int b = 0; b < 4; ++b) {
    std::vector<std::uint64_t> pi_words(g.num_inputs());
    for (auto& w : pi_words) w = rng.next();
    batches.push_back(simulate_all_nodes(g, pi_words));
  }
  int checked = 0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const auto& cuts = cs.cuts(id);
    if (!g.is_and(id)) {
      EXPECT_TRUE(cuts.empty());
      continue;
    }
    EXPECT_FALSE(cuts.empty()) << "AND node with no cuts";
    EXPECT_LE(cuts.size(), static_cast<std::size_t>(param.max_cuts));
    for (const Cut& cut : cuts) {
      ASSERT_LE(static_cast<int>(cut.size), param.cut_size);
      if (cut.size == 0) {
        // Zero-leaf cut: node proven constant by reconvergent cancellation.
        EXPECT_TRUE(cut.table == tt_const0() || cut.table == tt_const1());
      }
      // Leaves sorted, unique, and upstream of the node.
      for (std::size_t v = 0; v + 1 < cut.size; ++v) {
        EXPECT_LT(cut.leaves[v], cut.leaves[v + 1]);
      }
      if (cut.size > 0) {
        EXPECT_LT(cut.leaves[cut.size - 1], id + 1u);
      }
      EXPECT_TRUE(leaves_in_tfi(g, id, cut.leaf_span()));
      // No dominated pairs within a set.
      for (const Cut& other : cuts) {
        if (&other != &cut) {
          EXPECT_FALSE(cut.subset_of(other) && other.subset_of(cut));
        }
      }
      expect_cut_function_correct(g, id, batches, cut);
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CutsProperty,
                         ::testing::Values(CutParamCase{2, 4, 101}, CutParamCase{3, 6, 102},
                                           CutParamCase{4, 8, 103}, CutParamCase{5, 8, 104},
                                           CutParamCase{6, 10, 105}, CutParamCase{4, 2, 106},
                                           CutParamCase{4, 16, 107}));

TEST(Cuts, MergeRejectsOversizedUnion) {
  Cut a, b, out;
  a.size = 3;
  a.leaves = {1, 2, 3};
  a.table = tt_var(0) & tt_var(1) & tt_var(2);
  b.size = 3;
  b.leaves = {4, 5, 6};
  b.table = tt_var(0) | tt_var(1) | tt_var(2);
  EXPECT_FALSE(merge_cuts(a, false, b, false, 4, out));
  EXPECT_TRUE(merge_cuts(a, false, b, false, 6, out));
  EXPECT_EQ(out.size, 6);
}

TEST(Cuts, MergeSupportMinimizes) {
  // AND(x, !x) over the same leaf collapses to constant 0 — support empty.
  Cut a, out;
  a.size = 1;
  a.leaves = {5};
  a.table = tt_var(0);
  EXPECT_TRUE(merge_cuts(a, false, a, true, 4, out));
  EXPECT_EQ(out.size, 0);
  EXPECT_EQ(out.table, tt_const0());
}

TEST(Cuts, SubsetOf) {
  Cut small, big;
  small.size = 2;
  small.leaves = {2, 5};
  big.size = 3;
  big.leaves = {2, 4, 5};
  EXPECT_TRUE(small.subset_of(big));
  EXPECT_FALSE(big.subset_of(small));
  Cut disjoint;
  disjoint.size = 2;
  disjoint.leaves = {3, 7};
  EXPECT_FALSE(disjoint.subset_of(big));
}

TEST(Cuts, SubsetOfIsExactWithoutSignatures) {
  // Hand-built cuts carry only leaves.  Leaves 1, 65 and 129 share a bit in
  // any 64-bit leaf signature, so a signature alone cannot tell these apart.
  auto make = [](std::initializer_list<NodeId> leaves) {
    Cut c;
    for (const NodeId l : leaves) c.leaves[c.size++] = l;
    return c;
  };
  const Cut empty = make({});
  const Cut one = make({65});
  const Cut pair = make({1, 65});
  const Cut triple = make({1, 65, 129});
  const Cut aliased = make({1, 129});
  EXPECT_TRUE(empty.subset_of(empty));
  EXPECT_TRUE(empty.subset_of(triple));
  EXPECT_FALSE(one.subset_of(empty));
  EXPECT_TRUE(one.subset_of(pair));
  EXPECT_TRUE(pair.subset_of(triple));
  EXPECT_TRUE(triple.subset_of(triple));
  EXPECT_FALSE(triple.subset_of(pair));
  EXPECT_FALSE(one.subset_of(aliased));
  EXPECT_FALSE(aliased.subset_of(pair));
  EXPECT_TRUE(aliased.subset_of(triple));
  const Cut wide = make({3, 4, 7, 67, 68, 71});
  EXPECT_TRUE(make({4, 67, 71}).subset_of(wide));
  EXPECT_FALSE(make({4, 8, 71}).subset_of(wide));
  EXPECT_FALSE(make({3, 4, 7, 67, 68, 72}).subset_of(wide));
}

// ---- golden identity ---------------------------------------------------------------

Aig circuit_by_name(const std::string& name) {
  if (name == "mult6") return gen::multiplier(6);
  if (name == "cla8") return gen::adder_cla(8);
  if (name == "alu4") return gen::alu(4);
  if (name == "parity9") return gen::parity_tree(9);
  if (name == "prio8") return gen::priority_encoder(8);
  if (name == "cmp6") return gen::comparator(6);
  if (name == "ctrl") return gen::random_control(11, 5, 280, 3);
  return gen::build_design(name);
}

/// Digest of every node's cut list in order: count, then each cut's size,
/// leaves and table.
std::uint64_t cut_digest(const Aig& g, int cut_size) {
  const CutSets cs(g, CutParams{cut_size, 8});
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  };
  mix(cs.num_nodes());
  for (NodeId id = 0; id < cs.num_nodes(); ++id) {
    const auto cuts = cs.cuts(id);
    mix(cuts.size());
    for (const Cut& c : cuts) {
      mix(c.size);
      for (const NodeId l : c.leaf_span()) mix(l);
      mix(c.table);
    }
  }
  return h;
}

/// Cut-list digests at k = 3, 4 and 6 (max_cuts 8) on every generated design
/// and generator circuit.  They were recorded with the enumeration as it was
/// before leaf signatures filtered merges and dominance checks; the filters
/// are exact, so every list must match it leaf for leaf and in order.
struct CutGoldenRow {
  const char* circuit;
  std::uint64_t k3;
  std::uint64_t k4;
  std::uint64_t k6;
};

constexpr CutGoldenRow kCutsGolden[] = {
    {"EX00", 0x37fe822b8c2a1b32ULL, 0xaccbd4e76b6a6e1dULL, 0x014de10f7fddf06dULL},
    {"EX08", 0x9a7e97a2c6885b3eULL, 0xbf65673deb2a1533ULL, 0x686881a1e9458d77ULL},
    {"EX28", 0x306adcc2261a5747ULL, 0xaaa8d7ab12a1f863ULL, 0x401ad6b17dbbcf75ULL},
    {"EX68", 0xd9a927b243f9d933ULL, 0x3b1ccd3638427a92ULL, 0x4dc83b440c1bee57ULL},
    {"EX02", 0xe74df45e888390a0ULL, 0x6e343a66a499eee1ULL, 0x7b105dd4af848d32ULL},
    {"EX11", 0xc144e44f774f61adULL, 0xa41a453639b236fdULL, 0x0820d83d13b7bb6bULL},
    {"EX16", 0xf0b402679c77c41dULL, 0xd9360310bc800afbULL, 0x80cbad4ce71ce766ULL},
    {"EX54", 0xae87d32ffd399fa7ULL, 0xaac1d59ada76ec45ULL, 0x75e125bcc88a1062ULL},
    {"mult6", 0x7ef8f1d88b16133fULL, 0xdceba312c3564c0bULL, 0xcaa663dcf46e477bULL},
    {"cla8", 0x685a841846571501ULL, 0xf381c307659d9e0bULL, 0x48721f2c075d27aaULL},
    {"alu4", 0x5a9c10e6c766fb51ULL, 0xbfad42374cfc3b62ULL, 0xcbedad3fdd39eb35ULL},
    {"parity9", 0x505eaf7119685fbeULL, 0x9523b83e25869f2bULL, 0xa99ad56fb9365572ULL},
    {"prio8", 0x98e4551aa3b51d39ULL, 0x3fc02aea16492b99ULL, 0xd085638c6f4e3ca8ULL},
    {"cmp6", 0xbe3112114cf28ed9ULL, 0x8f3525525b1cf371ULL, 0x8f3525525b1cf371ULL},
    {"ctrl", 0x179e6ffcfd68f778ULL, 0xa397a9ac49def60bULL, 0x196a27212e8ee932ULL},
};

TEST(CutsGolden, ListsMatchRecordedDigests) {
  for (const CutGoldenRow& row : kCutsGolden) {
    const Aig g = circuit_by_name(row.circuit);
    const std::uint64_t k3 = cut_digest(g, 3);
    const std::uint64_t k4 = cut_digest(g, 4);
    const std::uint64_t k6 = cut_digest(g, 6);
    EXPECT_EQ(k3, row.k3) << row.circuit << " k=3 got 0x" << std::hex << k3;
    EXPECT_EQ(k4, row.k4) << row.circuit << " k=4 got 0x" << std::hex << k4;
    EXPECT_EQ(k6, row.k6) << row.circuit << " k=6 got 0x" << std::hex << k6;
  }
}

}  // namespace
}  // namespace aigml::aig
