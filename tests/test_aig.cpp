// Unit tests for the AIG core: construction/folding/strash invariants,
// structural analyses, simulation, equivalence checking, and AIGER I/O.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aiger.hpp"
#include "aig/analysis.hpp"
#include "aig/sim.hpp"

namespace aigml::aig {
namespace {

TEST(Aig, EmptyGraphHasConstantNode) {
  Aig g;
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.num_ands(), 0u);
  EXPECT_TRUE(g.is_constant(0));
}

TEST(Aig, LiteralHelpers) {
  EXPECT_EQ(lit_var(7), 3u);
  EXPECT_TRUE(lit_is_complemented(7));
  EXPECT_FALSE(lit_is_complemented(6));
  EXPECT_EQ(make_lit(3, true), 7u);
  EXPECT_EQ(lit_not(6), 7u);
  EXPECT_EQ(lit_not_if(6, false), 6u);
  EXPECT_EQ(lit_regular(7), 6u);
}

TEST(Aig, ConstantFolding) {
  Aig g;
  const Lit a = g.add_input();
  EXPECT_EQ(g.make_and(a, kLitFalse), kLitFalse);
  EXPECT_EQ(g.make_and(a, kLitTrue), a);
  EXPECT_EQ(g.make_and(a, a), a);
  EXPECT_EQ(g.make_and(a, lit_not(a)), kLitFalse);
  EXPECT_EQ(g.num_ands(), 0u);
}

TEST(Aig, StructuralHashingSharesNodes) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit x = g.make_and(a, b);
  const Lit y = g.make_and(b, a);  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(g.num_ands(), 1u);
  const Lit z = g.make_and(lit_not(a), b);  // different phase -> new node
  EXPECT_NE(x, z);
  EXPECT_EQ(g.num_ands(), 2u);
}

TEST(Aig, ProbeAndMatchesMakeAnd) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  EXPECT_EQ(g.probe_and(a, kLitFalse), kLitFalse);
  EXPECT_EQ(g.probe_and(a, a), a);
  EXPECT_EQ(g.probe_and(a, b), kLitInvalid);  // not created yet
  const Lit x = g.make_and(a, b);
  EXPECT_EQ(g.probe_and(b, a), x);
}

TEST(Strash, LookupsSurviveTableGrowth) {
  // A 100k-AND chain forces the table through many doublings; every node
  // must still be found under either fanin order, and nothing duplicated.
  constexpr int kChain = 100'000;
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  std::vector<Lit> chain{g.make_and(a, b)};
  for (int i = 1; i < kChain; ++i) {
    const Lit side = (i % 2 == 0) ? a : lit_not(b);
    chain.push_back(g.make_and(lit_not_if(chain.back(), i % 3 == 0), side));
  }
  ASSERT_EQ(g.num_ands(), static_cast<std::size_t>(kChain));
  for (int i = 1; i < kChain; ++i) {
    const Lit side = (i % 2 == 0) ? a : lit_not(b);
    const Lit prev = lit_not_if(chain[i - 1], i % 3 == 0);
    ASSERT_EQ(g.probe_and(side, prev), chain[i]) << i;
    ASSERT_EQ(g.make_and(prev, side), chain[i]) << i;
  }
  EXPECT_EQ(g.num_ands(), static_cast<std::size_t>(kChain));
  // Pairs that were never built stay absent.
  EXPECT_EQ(g.probe_and(chain[10], chain[20]), kLitInvalid);
  EXPECT_EQ(g.probe_and(lit_not(chain[0]), a), kLitInvalid);
}

TEST(Strash, CopiesHashIndependently) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit ab = g.make_and(a, b);
  Aig copy = g;
  // Enough new ANDs to grow the copy's table several times.
  std::vector<Lit> made;
  Lit acc = c;
  for (int i = 0; i < 200; ++i) {
    acc = copy.make_and(acc, (i % 2 == 0) ? lit_not(a) : b);
    made.push_back(acc);
  }
  EXPECT_EQ(g.num_ands(), 1u);
  EXPECT_EQ(g.probe_and(a, b), ab);
  EXPECT_EQ(g.probe_and(c, lit_not(a)), kLitInvalid);
  EXPECT_EQ(copy.probe_and(c, lit_not(a)), made[0]);
  EXPECT_EQ(copy.probe_and(a, b), ab);
  // The original still hashes new nodes on its own.
  const Lit ca = g.make_and(c, lit_not(a));
  EXPECT_EQ(lit_var(ca), 5u);
  EXPECT_EQ(g.num_ands(), 2u);
}

TEST(Strash, ProbeOnGraphWithoutAnds) {
  Aig empty;
  EXPECT_EQ(empty.probe_and(kLitTrue, kLitFalse), kLitFalse);
  EXPECT_EQ(empty.probe_and(kLitTrue, kLitTrue), kLitTrue);
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  EXPECT_EQ(g.probe_and(a, b), kLitInvalid);
  EXPECT_EQ(g.probe_and(a, lit_not(b)), kLitInvalid);
  EXPECT_EQ(g.probe_and(a, kLitTrue), a);
  EXPECT_EQ(g.probe_and(a, lit_not(a)), kLitFalse);
  const Aig copy = g;
  EXPECT_EQ(copy.probe_and(b, a), kLitInvalid);
  g.reserve(64);
  EXPECT_EQ(g.probe_and(a, b), kLitInvalid);
  EXPECT_EQ(g.num_ands(), 0u);
}

TEST(Strash, CleanupKeepsStructuralHash) {
  Aig g;
  std::vector<Lit> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(g.add_input());
  for (int i = 0; i < 400; ++i) {
    const Lit x = pool[(i * 7) % pool.size()];
    const Lit y = pool[(i * 13 + 5) % pool.size()];
    pool.push_back(g.make_and(lit_not_if(x, i % 3 == 0), lit_not_if(y, i % 5 == 0)));
  }
  for (std::size_t i = pool.size() - 40; i < pool.size(); i += 4) g.add_output(pool[i]);
  const Aig clean = g.cleanup();
  EXPECT_EQ(clean.structural_hash(), g.structural_hash());
  EXPECT_LE(clean.num_ands(), g.num_ands());
  EXPECT_EQ(clean.cleanup().structural_hash(), g.structural_hash());
  // The cleaned graph's table finds every node it holds.
  for (NodeId id = 0; id < clean.num_nodes(); ++id) {
    if (!clean.is_and(id)) continue;
    EXPECT_EQ(clean.probe_and(clean.fanin1(id), clean.fanin0(id)), make_lit(id));
  }
}

TEST(Aig, DerivedOperatorsTruthTables) {
  // Exhaustively check every 2-input derived op against its definition.
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  g.add_output(g.make_or(a, b), "or");
  g.add_output(g.make_nand(a, b), "nand");
  g.add_output(g.make_nor(a, b), "nor");
  g.add_output(g.make_xor(a, b), "xor");
  g.add_output(g.make_xnor(a, b), "xnor");
  for (std::uint64_t p = 0; p < 4; ++p) {
    const bool va = p & 1, vb = p & 2;
    const std::uint64_t out = simulate_pattern(g, p);
    EXPECT_EQ((out >> 0) & 1, static_cast<std::uint64_t>(va || vb));
    EXPECT_EQ((out >> 1) & 1, static_cast<std::uint64_t>(!(va && vb)));
    EXPECT_EQ((out >> 2) & 1, static_cast<std::uint64_t>(!(va || vb)));
    EXPECT_EQ((out >> 3) & 1, static_cast<std::uint64_t>(va != vb));
    EXPECT_EQ((out >> 4) & 1, static_cast<std::uint64_t>(va == vb));
  }
}

TEST(Aig, MuxAndMajority) {
  Aig g;
  const Lit s = g.add_input();
  const Lit t = g.add_input();
  const Lit e = g.add_input();
  g.add_output(g.make_mux(s, t, e), "mux");
  g.add_output(g.make_maj(s, t, e), "maj");
  for (std::uint64_t p = 0; p < 8; ++p) {
    const bool vs = p & 1, vt = p & 2, ve = p & 4;
    const std::uint64_t out = simulate_pattern(g, p);
    EXPECT_EQ((out >> 0) & 1, static_cast<std::uint64_t>(vs ? vt : ve));
    EXPECT_EQ((out >> 1) & 1, static_cast<std::uint64_t>((vs + vt + ve) >= 2));
  }
}

TEST(Aig, NaryOperators) {
  Aig g;
  std::vector<Lit> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(g.add_input());
  g.add_output(g.make_and_n(ins), "and5");
  g.add_output(g.make_or_n(ins), "or5");
  g.add_output(g.make_xor_n(ins), "xor5");
  for (std::uint64_t p = 0; p < 32; ++p) {
    const int ones = __builtin_popcountll(p);
    const std::uint64_t out = simulate_pattern(g, p);
    EXPECT_EQ((out >> 0) & 1, static_cast<std::uint64_t>(ones == 5));
    EXPECT_EQ((out >> 1) & 1, static_cast<std::uint64_t>(ones > 0));
    EXPECT_EQ((out >> 2) & 1, static_cast<std::uint64_t>(ones % 2));
  }
}

TEST(Aig, NaryEmptyIdentities) {
  Aig g;
  EXPECT_EQ(g.make_and_n({}), kLitTrue);
  EXPECT_EQ(g.make_or_n({}), kLitFalse);
  EXPECT_EQ(g.make_xor_n({}), kLitFalse);
}

TEST(Aig, AcyclicOrderMaintained) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.make_xor(a, b);
  g.add_output(g.make_and(c, a));
  EXPECT_TRUE(g.check_acyclic_order());
}

TEST(Aig, CleanupRemovesDeadNodes) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit used = g.make_and(a, b);
  g.make_and(lit_not(a), lit_not(b));  // dead
  g.add_output(used);
  EXPECT_EQ(g.num_ands(), 2u);
  const Aig clean = g.cleanup();
  EXPECT_EQ(clean.num_ands(), 1u);
  EXPECT_EQ(clean.num_inputs(), 2u);
  EXPECT_EQ(clean.num_outputs(), 1u);
  EXPECT_TRUE(equivalent(g, clean));
}

TEST(Aig, CleanupPreservesConstOutputs) {
  Aig g;
  const Lit a = g.add_input();
  g.add_output(kLitTrue, "const1");
  g.add_output(kLitFalse, "const0");
  g.add_output(a, "pass");
  const Aig clean = g.cleanup();
  ASSERT_EQ(clean.num_outputs(), 3u);
  EXPECT_EQ(clean.outputs()[0], kLitTrue);
  EXPECT_EQ(clean.outputs()[1], kLitFalse);
  EXPECT_TRUE(equivalent(g, clean));
}

TEST(Aig, StructuralHashIgnoresDeadLogicAndNames) {
  Aig g1;
  {
    const Lit a = g1.add_input("x");
    const Lit b = g1.add_input("y");
    g1.add_output(g1.make_and(a, b), "z");
  }
  Aig g2;
  {
    const Lit a = g2.add_input("p");
    const Lit b = g2.add_input("q");
    g2.make_and(lit_not(a), b);  // extra dead node
    g2.add_output(g2.make_and(a, b), "r");
  }
  EXPECT_EQ(g1.structural_hash(), g2.structural_hash());
  Aig g3;
  {
    const Lit a = g3.add_input();
    const Lit b = g3.add_input();
    g3.add_output(g3.make_or(a, b));
  }
  EXPECT_NE(g1.structural_hash(), g3.structural_hash());
}

TEST(Aig, SetOutputRedirects) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const auto idx = g.add_output(a, "o");
  g.set_output(idx, g.make_and(a, b));
  EXPECT_EQ(lit_var(g.outputs()[0]), 3u);
  EXPECT_THROW(g.set_output(5, a), std::out_of_range);
}

// ---- analysis ---------------------------------------------------------------

TEST(Analysis, LevelsAndDepths) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit ab = g.make_and(a, b);
  const Lit abc = g.make_and(ab, c);
  g.add_output(abc);
  const auto lvl = levels(g);
  EXPECT_EQ(lvl[lit_var(a)], 0u);
  EXPECT_EQ(lvl[lit_var(ab)], 1u);
  EXPECT_EQ(lvl[lit_var(abc)], 2u);
  EXPECT_EQ(aig_level(g), 2u);
  // Node-count depth: PI = 1.
  const auto nd = node_depths(g);
  EXPECT_EQ(nd[lit_var(a)], 1u);
  EXPECT_EQ(nd[lit_var(ab)], 2u);
  EXPECT_EQ(nd[lit_var(abc)], 3u);
}

TEST(Analysis, OutputDrivenByInputHasLevelZero) {
  Aig g;
  const Lit a = g.add_input();
  g.add_output(a);
  EXPECT_EQ(aig_level(g), 0u);
}

TEST(Analysis, FanoutCounts) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit x = g.make_and(a, b);
  const Lit y = g.make_and(x, lit_not(a));
  g.add_output(x);
  g.add_output(y);
  const auto fo = fanout_counts(g);
  EXPECT_EQ(fo[lit_var(a)], 2u);  // into x and y
  EXPECT_EQ(fo[lit_var(b)], 1u);
  EXPECT_EQ(fo[lit_var(x)], 2u);  // into y and PO
  EXPECT_EQ(fo[lit_var(y)], 1u);  // PO only
}

TEST(Analysis, WeightedDepths) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit x = g.make_and(a, b);
  g.add_output(x);
  std::vector<double> weights(g.num_nodes(), 0.0);
  weights[lit_var(a)] = 5.0;
  weights[lit_var(b)] = 1.0;
  weights[lit_var(x)] = 2.0;
  const auto wd = weighted_depths(g, weights);
  EXPECT_DOUBLE_EQ(wd[lit_var(x)], 7.0);  // max(5, 1) + 2
}

TEST(Analysis, PathCounts) {
  // Classic reconvergence: two parallel paths a->x->z and a->y->z.
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit x = g.make_and(a, b);
  const Lit y = g.make_and(a, lit_not(b));
  const Lit z = g.make_or(x, y);
  g.add_output(z);
  const auto paths = path_counts(g);
  EXPECT_DOUBLE_EQ(paths[lit_var(a)], 1.0);
  EXPECT_DOUBLE_EQ(paths[lit_var(x)], 2.0);   // via a and via b
  EXPECT_DOUBLE_EQ(paths[lit_var(z)], 4.0);
}

TEST(Analysis, CriticalPathNodes) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit ab = g.make_and(a, b);    // depth 2
  const Lit abc = g.make_and(ab, c);  // depth 3 <- critical
  const Lit side = g.make_and(a, c);  // depth 2, off-critical
  g.add_output(abc);
  g.add_output(side);
  const auto crit = critical_path_nodes(g);
  // Critical path: {a or b} -> ab -> abc. `side` and `c` are not on a
  // maximum-depth path; a, b, ab, abc are.
  std::vector<NodeId> expected{lit_var(a), lit_var(b), lit_var(ab), lit_var(abc)};
  EXPECT_EQ(crit, expected);
}

TEST(Analysis, ConeAndMffc) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit x = g.make_and(a, b);
  const Lit y = g.make_and(x, c);
  const Lit z = g.make_and(x, lit_not(c));  // shares x with y
  g.add_output(y);
  g.add_output(z);
  const auto cone = cone_of(g, lit_var(y));
  EXPECT_EQ(cone.size(), 2u);  // x and y
  const auto fo = fanout_counts(g);
  // x has two fanouts, so MFFC of y is just {y}.
  EXPECT_EQ(mffc_size(g, lit_var(y), fo), 1u);
  // If z is the only user of x... it is not; MFFC of z is {z} as well.
  EXPECT_EQ(mffc_size(g, lit_var(z), fo), 1u);
}

TEST(Analysis, MffcAbsorbsSingleFanoutChain) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  const Lit x = g.make_and(a, b);
  const Lit y = g.make_and(x, c);
  g.add_output(y);
  const auto fo = fanout_counts(g);
  EXPECT_EQ(mffc_size(g, lit_var(y), fo), 2u);  // y and x both die with y
}

TEST(Analysis, ReachableFromOutputs) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit used = g.make_and(a, b);
  const Lit dead = g.make_or(a, b);
  g.add_output(used);
  const auto reach = reachable_from_outputs(g);
  EXPECT_TRUE(reach[lit_var(used)]);
  EXPECT_FALSE(reach[lit_var(dead)]);
}

// ---- simulation & equivalence ----------------------------------------------

TEST(Sim, SimulateWordsXor) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  g.add_output(g.make_xor(a, b));
  const std::vector<std::uint64_t> pats{0b1100, 0b1010};
  const auto out = simulate_words(g, pats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0] & 0xF, 0b0110u);
}

TEST(Sim, SimulateWordsWrongArityThrows) {
  Aig g;
  g.add_input();
  g.add_output(kLitTrue);
  std::vector<std::uint64_t> none;
  EXPECT_THROW((void)simulate_words(g, none), std::invalid_argument);
}

TEST(Sim, SignatureDiffersForDifferentFunctions) {
  Aig and_g, or_g;
  {
    const Lit a = and_g.add_input();
    const Lit b = and_g.add_input();
    and_g.add_output(and_g.make_and(a, b));
  }
  {
    const Lit a = or_g.add_input();
    const Lit b = or_g.add_input();
    or_g.add_output(or_g.make_or(a, b));
  }
  EXPECT_NE(simulation_signature(and_g), simulation_signature(or_g));
}

TEST(Sim, SignatureEqualForEquivalentStructures) {
  // DeMorgan: !(a&b) == !a | !b — different structure, same function.
  Aig g1, g2;
  {
    const Lit a = g1.add_input();
    const Lit b = g1.add_input();
    g1.add_output(g1.make_nand(a, b));
  }
  {
    const Lit a = g2.add_input();
    const Lit b = g2.add_input();
    g2.add_output(g2.make_or(lit_not(a), lit_not(b)));
  }
  EXPECT_EQ(simulation_signature(g1), simulation_signature(g2));
  EXPECT_TRUE(equivalent(g1, g2));
}

TEST(Sim, EquivalenceDetectsMismatch) {
  Aig g1, g2;
  {
    const Lit a = g1.add_input();
    const Lit b = g1.add_input();
    g1.add_output(g1.make_and(a, b));
  }
  {
    const Lit a = g2.add_input();
    const Lit b = g2.add_input();
    g2.add_output(g2.make_or(a, b));
  }
  const auto r = check_equivalence(g1, g2);
  EXPECT_FALSE(r.equivalent);
  EXPECT_TRUE(r.exhaustive);
  // AND and OR differ exactly on patterns 01 and 10.
  EXPECT_TRUE(r.failing_pattern == 1 || r.failing_pattern == 2);
}

TEST(Sim, EquivalenceExhaustiveAboveSixInputs) {
  // 8 inputs: exhaustive check spans multiple 64-pattern chunks.
  Aig g1, g2;
  std::vector<Lit> in1, in2;
  for (int i = 0; i < 8; ++i) in1.push_back(g1.add_input());
  for (int i = 0; i < 8; ++i) in2.push_back(g2.add_input());
  g1.add_output(g1.make_xor_n(in1));
  // Equivalent: parity via a different association order.
  Lit acc = in2[0];
  for (int i = 1; i < 8; ++i) acc = g2.make_xor(acc, in2[i]);
  g2.add_output(acc);
  const auto r = check_equivalence(g1, g2);
  EXPECT_TRUE(r.equivalent);
  EXPECT_TRUE(r.exhaustive);
}

TEST(Sim, EquivalenceRandomFallbackCatchesSingleMintermDiff) {
  // 20 inputs (beyond the exhaustive limit); functions differ on many
  // patterns so random vectors must catch it.
  Aig g1, g2;
  std::vector<Lit> in1, in2;
  for (int i = 0; i < 20; ++i) in1.push_back(g1.add_input());
  for (int i = 0; i < 20; ++i) in2.push_back(g2.add_input());
  g1.add_output(g1.make_xor_n(in1));
  g2.add_output(lit_not(g2.make_xor_n(in2)));
  const auto r = check_equivalence(g1, g2);
  EXPECT_FALSE(r.equivalent);
  EXPECT_FALSE(r.exhaustive);
}

TEST(Sim, EquivalenceInterfaceMismatchThrows) {
  Aig g1, g2;
  g1.add_input();
  g1.add_output(kLitTrue);
  g2.add_output(kLitTrue);
  EXPECT_THROW((void)check_equivalence(g1, g2), std::invalid_argument);
}

// ---- AIGER I/O ---------------------------------------------------------------

TEST(Aiger, RoundTripPreservesFunction) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  g.add_output(g.make_mux(a, b, c), "f");
  g.add_output(lit_not(g.make_xor(b, c)), "g");
  const std::string text = to_aiger_string(g);
  const Aig back = from_aiger_string(text);
  EXPECT_EQ(back.num_inputs(), 3u);
  EXPECT_EQ(back.num_outputs(), 2u);
  EXPECT_TRUE(equivalent(g, back));
}

TEST(Aiger, ConstantOutputs) {
  Aig g;
  g.add_input();
  g.add_output(kLitTrue);
  g.add_output(kLitFalse);
  const Aig back = from_aiger_string(to_aiger_string(g));
  EXPECT_TRUE(equivalent(g, back));
}

TEST(Aiger, ParsesKnownFile) {
  // Half adder written by hand: sum = a ^ b, carry = a & b.
  // Literals: 6 = a&b, 8 = !a&!b, 10 = !(a&b) & !(!a&!b) = a^b.
  const std::string text =
      "aag 5 2 0 2 3\n"
      "2\n"
      "4\n"
      "10\n"
      "6\n"
      "6 2 4\n"
      "8 3 5\n"
      "10 7 9\n";
  const Aig g = from_aiger_string(text);
  EXPECT_EQ(g.num_inputs(), 2u);
  EXPECT_EQ(g.num_outputs(), 2u);
  for (std::uint64_t p = 0; p < 4; ++p) {
    const bool va = p & 1, vb = p & 2;
    const std::uint64_t out = simulate_pattern(g, p);
    EXPECT_EQ((out >> 0) & 1, static_cast<std::uint64_t>(va != vb)) << p;
    EXPECT_EQ((out >> 1) & 1, static_cast<std::uint64_t>(va && vb)) << p;
  }
}

TEST(Aiger, RejectsLatches) {
  EXPECT_THROW((void)from_aiger_string("aag 1 0 1 0 0\n2 3\n"), std::runtime_error);
}

TEST(Aiger, RejectsGarbage) {
  EXPECT_THROW((void)from_aiger_string("not an aiger file"), std::runtime_error);
  EXPECT_THROW((void)from_aiger_string(""), std::runtime_error);
}

TEST(Aiger, FileRoundTrip) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  g.add_output(g.make_xor(a, b));
  const auto path = std::filesystem::temp_directory_path() / "aigml_test.aag";
  write_aiger_file(g, path);
  const Aig back = read_aiger_file(path);
  EXPECT_TRUE(equivalent(g, back));
  std::filesystem::remove(path);
}

TEST(Aiger, BinaryRoundTripPreservesFunction) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  g.add_output(g.make_maj(a, b, c), "maj");
  g.add_output(lit_not(g.make_xor(a, c)), "xn");
  g.add_output(kLitTrue, "one");
  std::stringstream stream;
  write_aiger_binary(g, stream);
  const Aig back = read_aiger_binary(stream);
  EXPECT_EQ(back.num_inputs(), 3u);
  EXPECT_EQ(back.num_outputs(), 3u);
  EXPECT_TRUE(equivalent(g, back));
}

TEST(Aiger, BinaryRoundTripLargeGraph) {
  // Multi-byte varint deltas require a graph with far-apart literals.
  Aig g;
  std::vector<Lit> ins;
  for (int i = 0; i < 12; ++i) ins.push_back(g.add_input());
  Lit acc = ins[0];
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 1; i < ins.size(); ++i) {
      acc = g.make_xor(acc, g.make_and(ins[i], acc));
    }
  }
  g.add_output(acc);
  std::stringstream stream;
  write_aiger_binary(g, stream);
  const Aig back = read_aiger_binary(stream);
  EXPECT_TRUE(equivalent(g, back));
}

TEST(Aiger, BinaryRejectsLatchesAndGarbage) {
  {
    std::stringstream s("aig 1 0 1 0 0\n");
    EXPECT_THROW((void)read_aiger_binary(s), std::runtime_error);
  }
  {
    std::stringstream s("not binary");
    EXPECT_THROW((void)read_aiger_binary(s), std::runtime_error);
  }
}

TEST(Aiger, AutoDetectDispatchesOnMagic) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  g.add_output(g.make_nand(a, b));
  const auto dir = std::filesystem::temp_directory_path();
  const auto ascii_path = dir / "aigml_auto.aag";
  const auto binary_path = dir / "aigml_auto.aig";
  write_aiger_file(g, ascii_path);
  {
    std::ofstream out(binary_path, std::ios::binary);
    write_aiger_binary(g, out);
  }
  EXPECT_TRUE(equivalent(g, read_aiger_auto_file(ascii_path)));
  EXPECT_TRUE(equivalent(g, read_aiger_auto_file(binary_path)));
  std::filesystem::remove(ascii_path);
  std::filesystem::remove(binary_path);
}

}  // namespace
}  // namespace aigml::aig
