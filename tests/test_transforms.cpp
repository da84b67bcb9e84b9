// Tests for the transform family.  The paramount property — checked for
// every primitive on every circuit class — is functional equivalence.
// Secondary properties: balance never increases depth, transforms are
// deterministic, scripts compose, and the registry has exactly the paper's
// 103 combinations.

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "aig/analysis.hpp"
#include "aig/sim.hpp"
#include "gen/circuits.hpp"
#include "gen/designs.hpp"
#include "transforms/balance.hpp"
#include "transforms/resynth.hpp"
#include "transforms/scripts.hpp"
#include "transforms/shuffle.hpp"
#include "util/parallel.hpp"

namespace aigml::transforms {
namespace {

using aig::Aig;
using aig::aig_level;
using aig::equivalent;

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

class PrimitiveEquivalence
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {};

TEST_P(PrimitiveEquivalence, PreservesFunctionAndInterface) {
  const auto [primitive, circuit] = GetParam();
  const Aig g = circuit_by_name(circuit);
  const Aig t = apply_primitive(primitive, g);
  EXPECT_EQ(t.num_inputs(), g.num_inputs());
  EXPECT_EQ(t.num_outputs(), g.num_outputs());
  EXPECT_TRUE(t.check_acyclic_order());
  const auto eq = aig::check_equivalence(g, t);
  EXPECT_TRUE(eq.equivalent) << primitive << " broke " << circuit << " output "
                             << eq.failing_output;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrimitivesAllCircuits, PrimitiveEquivalence,
    ::testing::Combine(::testing::Values("b", "rw", "rwd", "rw3", "rf", "rfd", "rs"),
                       ::testing::Values("mult6", "cla8", "alu4", "parity9", "prio8", "cmp6",
                                         "ctrl", "EX00", "EX68")),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" + std::get<1>(info.param);
    });

TEST(Balance, NeverIncreasesDepth) {
  for (const char* name : {"mult6", "cla8", "alu4", "ctrl", "EX00", "EX68", "EX02"}) {
    const Aig g = circuit_by_name(name);
    const Aig b = balance(g);
    EXPECT_LE(aig_level(b), aig_level(g)) << name;
  }
}

TEST(Balance, FlattensAndChainToLogDepth) {
  // A linear chain of 8 ANDs must balance to depth 3.
  Aig g;
  std::vector<aig::Lit> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(g.add_input());
  aig::Lit acc = ins[0];
  for (int i = 1; i < 8; ++i) acc = g.make_and(acc, ins[i]);
  g.add_output(acc);
  EXPECT_EQ(aig_level(g), 7u);
  const Aig b = balance(g);
  EXPECT_EQ(aig_level(b), 3u);
  EXPECT_TRUE(equivalent(g, b));
}

TEST(Balance, RespectsComplementBoundaries) {
  // !(a&b) & c: the complemented edge is a tree boundary; function preserved.
  Aig g;
  const auto a = g.add_input();
  const auto b = g.add_input();
  const auto c = g.add_input();
  g.add_output(g.make_and(g.make_nand(a, b), c));
  const Aig t = balance(g);
  EXPECT_TRUE(equivalent(g, t));
}

TEST(Rewrite, ReducesRedundantLogic) {
  // mux(s, x, x) == x: rewriting should collapse it.
  Aig g;
  const auto s = g.add_input();
  const auto x = g.add_input();
  const auto y = g.add_input();
  const auto redundant = g.make_mux(s, g.make_and(x, y), g.make_and(x, y));
  g.add_output(redundant);
  EXPECT_GE(g.num_ands(), 3u);
  const Aig t = rewrite(g);
  EXPECT_TRUE(equivalent(g, t));
  EXPECT_LE(t.num_ands(), 1u);
}

TEST(Rewrite, CollapsesReconvergentConstant) {
  // AND(a&b, a&!b) == 0 — zero-leaf cut candidate wins.
  Aig g;
  const auto a = g.add_input();
  const auto b = g.add_input();
  const auto x = g.make_and(a, b);
  const auto y = g.make_and(a, aig::lit_not(b));
  g.add_output(g.make_and(x, y), "zero");
  const Aig t = rewrite(g);
  EXPECT_TRUE(equivalent(g, t));
  EXPECT_EQ(t.num_ands(), 0u);
}

TEST(Rewrite, NeverIncreasesNodeCount) {
  // The default reconstruction is always a candidate, so a rewrite pass can
  // only tie or shrink the (live) node count.
  for (const char* name : {"mult6", "cla8", "alu4", "ctrl", "EX00"}) {
    const Aig g = circuit_by_name(name).cleanup();
    const Aig t = rewrite(g);
    EXPECT_LE(t.num_ands(), g.num_ands()) << name;
  }
}

TEST(RewriteDepth, TendsToReduceDepthOnDeepCircuits) {
  const Aig g = circuit_by_name("EX02");
  const Aig t = rewrite_depth(g);
  EXPECT_TRUE(t.num_ands() > 0);
  // Depth preference must not *increase* depth beyond the original.
  EXPECT_LE(aig_level(t), aig_level(g) + 1);
}

TEST(Resub, FindsSharedDivisors) {
  // z = (a&b)|c and w = a&b: resub of a cone recomputing a&b should reuse it.
  Aig g;
  const auto a = g.add_input();
  const auto b = g.add_input();
  const auto c = g.add_input();
  const auto ab = g.make_and(a, b);
  g.add_output(g.make_or(ab, c), "z");
  // A second, structurally different computation of the same function:
  const auto ab2 = aig::lit_not(g.make_nand(b, a));
  g.add_output(g.make_or(ab2, aig::lit_not(aig::lit_not(c))), "w");
  const Aig t = resub(g);
  EXPECT_TRUE(equivalent(g, t));
  // Structural hashing already shares nand(b,a)==and(a,b); resub must not
  // blow the graph up.
  EXPECT_LE(t.num_ands(), g.num_ands());
}

TEST(Transforms, DeterministicAcrossRuns) {
  const Aig g = circuit_by_name("ctrl");
  for (const char* p : {"b", "rw", "rf", "rs"}) {
    const Aig t1 = apply_primitive(p, g);
    const Aig t2 = apply_primitive(p, g);
    EXPECT_EQ(t1.structural_hash(), t2.structural_hash()) << p;
  }
}

TEST(Transforms, UnknownPrimitiveThrows) {
  const Aig g = gen::parity_tree(3);
  EXPECT_THROW((void)apply_primitive("xyzzy", g), std::out_of_range);
}

TEST(Transforms, ParamValidation) {
  const Aig g = gen::parity_tree(3);
  ResynthParams p;
  p.cut_size = 1;
  EXPECT_THROW((void)resynthesize(g, p), std::invalid_argument);
  p.cut_size = 7;
  EXPECT_THROW((void)resynthesize(g, p), std::invalid_argument);
  p.cut_size = 4;
  p.reconv_max_leaves = 1;
  EXPECT_THROW((void)resynthesize(g, p), std::invalid_argument);
}

// ---- randomized restructurings (variant generation) ------------------------------

class ShuffleEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShuffleEquivalence, RandomizedRebalancePreservesFunction) {
  for (const char* name : {"mult6", "cla8", "alu4", "EX00", "EX68"}) {
    const Aig g = circuit_by_name(name);
    const Aig t = randomized_rebalance(g, GetParam());
    EXPECT_TRUE(equivalent(g, t)) << name << " seed " << GetParam();
    EXPECT_EQ(t.num_inputs(), g.num_inputs());
    EXPECT_EQ(t.num_outputs(), g.num_outputs());
  }
}

TEST_P(ShuffleEquivalence, RandomizedResynthesisPreservesFunction) {
  for (const char* name : {"mult6", "cla8", "parity9", "EX00", "EX68"}) {
    const Aig g = circuit_by_name(name);
    const Aig t = randomized_resynthesis(g, GetParam(), 0.3);
    EXPECT_TRUE(equivalent(g, t)) << name << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffleEquivalence, ::testing::Values(1u, 2u, 3u, 42u, 1234u));

TEST(Shuffle, DeterministicInSeed) {
  const Aig g = circuit_by_name("EX00");
  EXPECT_EQ(randomized_rebalance(g, 7).structural_hash(),
            randomized_rebalance(g, 7).structural_hash());
  EXPECT_EQ(randomized_resynthesis(g, 7).structural_hash(),
            randomized_resynthesis(g, 7).structural_hash());
}

TEST(Shuffle, SeedsProduceStructuralDiversity) {
  // The whole point of the randomized moves: many distinct structures from
  // one source graph (the deterministic scripts saturate quickly).
  const Aig g = circuit_by_name("cla8");
  std::set<std::uint64_t> hashes;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    hashes.insert(randomized_rebalance(g, seed).structural_hash());
    hashes.insert(randomized_resynthesis(g, seed, 0.4).structural_hash());
  }
  // At least ~40% distinct across 48 draws (scripts alone saturate below 10).
  EXPECT_GE(hashes.size(), 20u);
}

// ---- golden identity ---------------------------------------------------------------

/// structural_hash of each primitive's output on every generated design and
/// generator circuit, after one application and after three chained ones.
/// Step "chain" applies all seven primitives in sequence (one round, then
/// three rounds: 21 chained primitives); "shuffle" is randomized_resynthesis
/// with seeds 7, then 8 and 9.  The hashes were recorded with the earlier
/// closure-based resynthesis pass (a std::function per candidate, both ISOPs
/// recomputed per candidate); the plan cache, flat prober and candidate
/// records must reproduce its output bit for bit.
struct GoldenRow {
  const char* circuit;
  const char* step;
  std::uint64_t once;
  std::uint64_t thrice;
};

constexpr GoldenRow kResynthGolden[] = {
    {"EX00", "b", 0x4b7c249b3f593570ULL, 0x4b7c249b3f593570ULL},
    {"EX00", "rw", 0x0161fb051896b12cULL, 0x0161fb051896b12cULL},
    {"EX00", "rwd", 0x119fbdc7f845cbe1ULL, 0xdbe3645ac7de418dULL},
    {"EX00", "rw3", 0x0161fb051896b12cULL, 0x0161fb051896b12cULL},
    {"EX00", "rf", 0x0161fb051896b12cULL, 0x0161fb051896b12cULL},
    {"EX00", "rfd", 0x27db753da05846f3ULL, 0x27db753da05846f3ULL},
    {"EX00", "rs", 0x0161fb051896b12cULL, 0x0161fb051896b12cULL},
    {"EX00", "chain", 0xc8d6fd24f2d3d4a4ULL, 0xe6793baac3ed844eULL},
    {"EX00", "shuffle", 0x6867bcfe14a84308ULL, 0xb08e27e4236858a9ULL},
    {"EX08", "b", 0xf70a27ff9396aad5ULL, 0xf70a27ff9396aad5ULL},
    {"EX08", "rw", 0xe780c8bd93293257ULL, 0xe780c8bd93293257ULL},
    {"EX08", "rwd", 0x6c13ba4ab422eae4ULL, 0x9f93484d63a00614ULL},
    {"EX08", "rw3", 0x7996a897c0341f49ULL, 0x7996a897c0341f49ULL},
    {"EX08", "rf", 0x7996a897c0341f49ULL, 0x7996a897c0341f49ULL},
    {"EX08", "rfd", 0x6c584ff38da94045ULL, 0x4b7f39de0aa1786aULL},
    {"EX08", "rs", 0x183c74a5e0a6d216ULL, 0x183c74a5e0a6d216ULL},
    {"EX08", "chain", 0x7141c00a9e071617ULL, 0x8f3a8a6cc324f730ULL},
    {"EX08", "shuffle", 0x6476d81d1586f72aULL, 0xe911c7e4a99e24adULL},
    {"EX28", "b", 0x16c2d36b9ea7daa3ULL, 0x16c2d36b9ea7daa3ULL},
    {"EX28", "rw", 0xe95eb9033618a741ULL, 0xe95eb9033618a741ULL},
    {"EX28", "rwd", 0x7b37761e578e6d48ULL, 0xff224f5e286515bbULL},
    {"EX28", "rw3", 0x53490a3c48ebccbdULL, 0x53490a3c48ebccbdULL},
    {"EX28", "rf", 0x53490a3c48ebccbdULL, 0x53490a3c48ebccbdULL},
    {"EX28", "rfd", 0xb70ed1d4f675f602ULL, 0x802508e005f177abULL},
    {"EX28", "rs", 0xdcd74b95d2a3c028ULL, 0xdcd74b95d2a3c028ULL},
    {"EX28", "chain", 0xa72328f2789b1a7dULL, 0x4a4438a6793dc593ULL},
    {"EX28", "shuffle", 0xeaacda38feea7365ULL, 0x94d6925524e5931eULL},
    {"EX68", "b", 0x4d603100e2110bd1ULL, 0x4d603100e2110bd1ULL},
    {"EX68", "rw", 0x6ff0365d9a45b6aeULL, 0x6ff0365d9a45b6aeULL},
    {"EX68", "rwd", 0xe47834a36287b8d6ULL, 0x4b93469ceb3e79d0ULL},
    {"EX68", "rw3", 0x6ff0365d9a45b6aeULL, 0x6ff0365d9a45b6aeULL},
    {"EX68", "rf", 0x6ff0365d9a45b6aeULL, 0x6ff0365d9a45b6aeULL},
    {"EX68", "rfd", 0x45308b8d3f0134b8ULL, 0x45308b8d3f0134b8ULL},
    {"EX68", "rs", 0x6ff0365d9a45b6aeULL, 0x6ff0365d9a45b6aeULL},
    {"EX68", "chain", 0xf0692c5f579715cbULL, 0xe0a64f0771dca87dULL},
    {"EX68", "shuffle", 0x600d3dde17b0436fULL, 0xfd71c8930333e370ULL},
    {"EX02", "b", 0x94b4742f4367c1fbULL, 0x94b4742f4367c1fbULL},
    {"EX02", "rw", 0x7080afac49c301e8ULL, 0x7080afac49c301e8ULL},
    {"EX02", "rwd", 0x26644fa20dd4f681ULL, 0xf34db4792035f74dULL},
    {"EX02", "rw3", 0x4a01e7ef11f06ab0ULL, 0x4a01e7ef11f06ab0ULL},
    {"EX02", "rf", 0x1b7b50794f652dc6ULL, 0x1b7b50794f652dc6ULL},
    {"EX02", "rfd", 0xa3ee7740065c6ad0ULL, 0x4d2d7c24cd124d91ULL},
    {"EX02", "rs", 0x230d008a4314bceeULL, 0x230d008a4314bceeULL},
    {"EX02", "chain", 0xbccd91361a3aef37ULL, 0xd20269c88dbde7c5ULL},
    {"EX02", "shuffle", 0xa24eb7f77dc631bfULL, 0x89aa1c86275ac261ULL},
    {"EX11", "b", 0xf0461360e004600eULL, 0xf0461360e004600eULL},
    {"EX11", "rw", 0x3ea47d2523f2b1e2ULL, 0x3ea47d2523f2b1e2ULL},
    {"EX11", "rwd", 0xe108f4fd2c0a4e2cULL, 0xc886947487ee4cd8ULL},
    {"EX11", "rw3", 0x3ea47d2523f2b1e2ULL, 0x3ea47d2523f2b1e2ULL},
    {"EX11", "rf", 0x3ea47d2523f2b1e2ULL, 0x3ea47d2523f2b1e2ULL},
    {"EX11", "rfd", 0xb8e7c465e1fead34ULL, 0xabffb6ea76b6fcfbULL},
    {"EX11", "rs", 0x3ea47d2523f2b1e2ULL, 0x3ea47d2523f2b1e2ULL},
    {"EX11", "chain", 0x0092b3748303b3c0ULL, 0xfe6ec65d6ff99de3ULL},
    {"EX11", "shuffle", 0x256061ca809ec3d2ULL, 0xbc2d306c82b0b84dULL},
    {"EX16", "b", 0x774779d37f044f0bULL, 0x774779d37f044f0bULL},
    {"EX16", "rw", 0x75d864a2e913a553ULL, 0x75d864a2e913a553ULL},
    {"EX16", "rwd", 0x20dbaca34c02cfd5ULL, 0x1db1ba0d308b4705ULL},
    {"EX16", "rw3", 0xf280e5c6230540ceULL, 0xf280e5c6230540ceULL},
    {"EX16", "rf", 0xf280e5c6230540ceULL, 0xf280e5c6230540ceULL},
    {"EX16", "rfd", 0x43023d133b6259c3ULL, 0x0b6b0c3ff1c0a7a9ULL},
    {"EX16", "rs", 0x875d351062be8941ULL, 0x875d351062be8941ULL},
    {"EX16", "chain", 0x877580dd617db272ULL, 0xd06621b8a8e58f68ULL},
    {"EX16", "shuffle", 0xf6c09aa748f89905ULL, 0xa90af9cec8101d81ULL},
    {"EX54", "b", 0x4f107afff631823cULL, 0x4f107afff631823cULL},
    {"EX54", "rw", 0x86b698c55c027d3cULL, 0x86b698c55c027d3cULL},
    {"EX54", "rwd", 0x124d64807d5f291fULL, 0x3a3d799aceda426bULL},
    {"EX54", "rw3", 0xf8b53ff5ff1acadeULL, 0xf8b53ff5ff1acadeULL},
    {"EX54", "rf", 0xf8b53ff5ff1acadeULL, 0xf8b53ff5ff1acadeULL},
    {"EX54", "rfd", 0x06bf56d0d822e4b1ULL, 0x63b9ceab69cfe363ULL},
    {"EX54", "rs", 0x9455c8f7ad6bf426ULL, 0x9455c8f7ad6bf426ULL},
    {"EX54", "chain", 0x690e8cddebfb607eULL, 0x90b6ed39bcf31dc0ULL},
    {"EX54", "shuffle", 0x8cfc7f8434a166feULL, 0xdc5de19e15a41437ULL},
    {"mult6", "b", 0x1f90ee94549a46ccULL, 0x1f90ee94549a46ccULL},
    {"mult6", "rw", 0x70f39bf573c1cd7aULL, 0x70f39bf573c1cd7aULL},
    {"mult6", "rwd", 0xe2616031ada5e231ULL, 0xe2b4d48a3b2465deULL},
    {"mult6", "rw3", 0x78fd1af7486f9572ULL, 0x78fd1af7486f9572ULL},
    {"mult6", "rf", 0x78fd1af7486f9572ULL, 0x78fd1af7486f9572ULL},
    {"mult6", "rfd", 0xcbf9a726dd880e12ULL, 0xd06f6bb1473a737cULL},
    {"mult6", "rs", 0xc22def1842a0a275ULL, 0xc22def1842a0a275ULL},
    {"mult6", "chain", 0x477fcf743f4cab64ULL, 0xa7d98d5823af247eULL},
    {"mult6", "shuffle", 0x039a6d1541118b84ULL, 0x4eb0345735208c26ULL},
    {"cla8", "b", 0xc65e59a4fe6ca104ULL, 0xc65e59a4fe6ca104ULL},
    {"cla8", "rw", 0xc65e59a4fe6ca104ULL, 0xc65e59a4fe6ca104ULL},
    {"cla8", "rwd", 0x7777f8e770427943ULL, 0xb6da20c7f84498fdULL},
    {"cla8", "rw3", 0xc65e59a4fe6ca104ULL, 0xc65e59a4fe6ca104ULL},
    {"cla8", "rf", 0xc65e59a4fe6ca104ULL, 0xc65e59a4fe6ca104ULL},
    {"cla8", "rfd", 0xe06fe666a7b5fadcULL, 0xe06fe666a7b5fadcULL},
    {"cla8", "rs", 0xc65e59a4fe6ca104ULL, 0xc65e59a4fe6ca104ULL},
    {"cla8", "chain", 0xb6da20c7f84498fdULL, 0xb6da20c7f84498fdULL},
    {"cla8", "shuffle", 0x13967d86428401a9ULL, 0x6a454416c4e43daaULL},
    {"alu4", "b", 0x362552f197204e23ULL, 0x290d559d6ef4c46bULL},
    {"alu4", "rw", 0x537deefd23f13834ULL, 0x537deefd23f13834ULL},
    {"alu4", "rwd", 0xc7314724fa5f1c12ULL, 0xf3aad4822ec4b12fULL},
    {"alu4", "rw3", 0x537deefd23f13834ULL, 0x537deefd23f13834ULL},
    {"alu4", "rf", 0x537deefd23f13834ULL, 0x537deefd23f13834ULL},
    {"alu4", "rfd", 0xf803965d897b65afULL, 0x416d35d80eb3627dULL},
    {"alu4", "rs", 0x537deefd23f13834ULL, 0x537deefd23f13834ULL},
    {"alu4", "chain", 0xc969a37d55cb0928ULL, 0x5c0d905ea408e76bULL},
    {"alu4", "shuffle", 0x3c58b725e83409feULL, 0x15d7311af4b0840aULL},
    {"parity9", "b", 0x939d703342460193ULL, 0x939d703342460193ULL},
    {"parity9", "rw", 0x939d703342460193ULL, 0x939d703342460193ULL},
    {"parity9", "rwd", 0x939d703342460193ULL, 0x939d703342460193ULL},
    {"parity9", "rw3", 0x939d703342460193ULL, 0x939d703342460193ULL},
    {"parity9", "rf", 0x939d703342460193ULL, 0x939d703342460193ULL},
    {"parity9", "rfd", 0x939d703342460193ULL, 0x939d703342460193ULL},
    {"parity9", "rs", 0x939d703342460193ULL, 0x939d703342460193ULL},
    {"parity9", "chain", 0x939d703342460193ULL, 0x939d703342460193ULL},
    {"parity9", "shuffle", 0xe364179d4c7ad1f3ULL, 0xf7337a0431181fa2ULL},
    {"prio8", "b", 0xad65ee0696a6379eULL, 0xad65ee0696a6379eULL},
    {"prio8", "rw", 0xad65ee0696a6379eULL, 0xad65ee0696a6379eULL},
    {"prio8", "rwd", 0xa665128703c2a379ULL, 0x910067568cdcbf57ULL},
    {"prio8", "rw3", 0xad65ee0696a6379eULL, 0xad65ee0696a6379eULL},
    {"prio8", "rf", 0xad65ee0696a6379eULL, 0xad65ee0696a6379eULL},
    {"prio8", "rfd", 0xe3d4e6fea760820bULL, 0xe3d4e6fea760820bULL},
    {"prio8", "rs", 0xad65ee0696a6379eULL, 0xad65ee0696a6379eULL},
    {"prio8", "chain", 0x5fd67d55bd5bd895ULL, 0x5fd67d55bd5bd895ULL},
    {"prio8", "shuffle", 0x63facb81084e389dULL, 0x5f9a7f9e188746c7ULL},
    {"cmp6", "b", 0x2d862ddccac95d5bULL, 0x2d8931659a642ca3ULL},
    {"cmp6", "rw", 0x2d84cffb19fa8269ULL, 0x2d84cffb19fa8269ULL},
    {"cmp6", "rwd", 0x2f6e6e1565138087ULL, 0xd26b35cd7ac202a7ULL},
    {"cmp6", "rw3", 0x2d84cffb19fa8269ULL, 0x2d84cffb19fa8269ULL},
    {"cmp6", "rf", 0x2d84cffb19fa8269ULL, 0x2d84cffb19fa8269ULL},
    {"cmp6", "rfd", 0x2d84cffb19fa8269ULL, 0x2d84cffb19fa8269ULL},
    {"cmp6", "rs", 0x2d84cffb19fa8269ULL, 0x2d84cffb19fa8269ULL},
    {"cmp6", "chain", 0xcda4142a6828c494ULL, 0xa2e69e9a5ba542edULL},
    {"cmp6", "shuffle", 0x3ab12932abf8458bULL, 0xcb99df10fa24eb5eULL},
    {"ctrl", "b", 0x104df52089362c11ULL, 0x104df52089362c11ULL},
    {"ctrl", "rw", 0x9d1a5dd5b5498698ULL, 0xefaecee9550d0876ULL},
    {"ctrl", "rwd", 0x19dcc5bb546a3770ULL, 0x8b4644337db8e29cULL},
    {"ctrl", "rw3", 0x33d8855524102684ULL, 0xd08e7ce660977b27ULL},
    {"ctrl", "rf", 0x6e8d703f0388f872ULL, 0xf57371631ca603ccULL},
    {"ctrl", "rfd", 0x6f84cdaafe384152ULL, 0x2566585927087488ULL},
    {"ctrl", "rs", 0x0b4e3f7a6153f0c5ULL, 0x5312784806d28232ULL},
    {"ctrl", "chain", 0x7f693d8ab126d71eULL, 0x8018157dda4e02a1ULL},
    {"ctrl", "shuffle", 0x8f7565e63ab2f89cULL, 0x26c4b086f67ade3aULL},
};

constexpr const char* kPrimitives[] = {"b", "rw", "rwd", "rw3", "rf", "rfd", "rs"};

std::pair<std::uint64_t, std::uint64_t> golden_hashes(const GoldenRow& row) {
  const Aig g = circuit_by_name(row.circuit);
  const std::string step = row.step;
  Aig t;
  std::uint64_t once = 0;
  if (step == "chain") {
    t = g;
    for (int round = 0; round < 3; ++round) {
      for (const char* p : kPrimitives) t = apply_primitive(p, t);
      if (round == 0) once = t.structural_hash();
    }
  } else if (step == "shuffle") {
    t = randomized_resynthesis(g, 7, 0.5);
    once = t.structural_hash();
    t = randomized_resynthesis(t, 8, 0.5);
    t = randomized_resynthesis(t, 9, 0.5);
  } else {
    t = apply_primitive(step, g);
    once = t.structural_hash();
    t = apply_primitive(step, t);
    t = apply_primitive(step, t);
  }
  return {once, t.structural_hash()};
}

TEST(ResynthGolden, OutputsMatchRecordedHashes) {
  for (const GoldenRow& row : kResynthGolden) {
    const auto [once, thrice] = golden_hashes(row);
    EXPECT_EQ(once, row.once) << row.circuit << " " << row.step << " once";
    EXPECT_EQ(thrice, row.thrice) << row.circuit << " " << row.step << " thrice";
  }
}

TEST(ResynthGolden, ParallelMatchesSerial) {
  // Each worker thread owns a synthesis-plan cache that starts cold and sees
  // a different mix of designs; outputs must not depend on either.
  ThreadPool pool(4);
  constexpr std::size_t kRows = std::size(kResynthGolden);
  const auto got = pool.parallel_map<std::pair<std::uint64_t, std::uint64_t>>(
      kRows, [](std::size_t i) { return golden_hashes(kResynthGolden[kRows - 1 - i]); });
  for (std::size_t i = 0; i < kRows; ++i) {
    const GoldenRow& row = kResynthGolden[kRows - 1 - i];
    EXPECT_EQ(got[i].first, row.once) << row.circuit << " " << row.step << " once";
    EXPECT_EQ(got[i].second, row.thrice) << row.circuit << " " << row.step << " thrice";
  }
}

// ---- scripts -------------------------------------------------------------------

TEST(Scripts, RegistryHasExactly103DistinctScripts) {
  const auto& reg = script_registry();
  EXPECT_EQ(reg.size(), static_cast<std::size_t>(kNumScripts));
  std::set<std::string> names;
  for (const auto& s : reg.scripts()) names.insert(s.name);
  EXPECT_EQ(names.size(), reg.size());
  // Composition: 7 singletons + 49 pairs + 47 triples.
  int len1 = 0, len2 = 0, len3 = 0;
  for (const auto& s : reg.scripts()) {
    if (s.steps.size() == 1) ++len1;
    if (s.steps.size() == 2) ++len2;
    if (s.steps.size() == 3) ++len3;
  }
  EXPECT_EQ(len1, 7);
  EXPECT_EQ(len2, 49);
  EXPECT_EQ(len3, 47);
}

TEST(Scripts, NamesMatchSteps) {
  const auto& reg = script_registry();
  EXPECT_EQ(reg.script(0).name, "b");
  EXPECT_EQ(reg.script(7).name, "b;b");
  for (const auto& s : reg.scripts()) {
    std::string joined;
    for (std::size_t i = 0; i < s.steps.size(); ++i) {
      if (i) joined += ';';
      joined += s.steps[i];
    }
    EXPECT_EQ(s.name, joined);
  }
}

class ScriptEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScriptEquivalence, SampledScriptsPreserveFunction) {
  const auto& reg = script_registry();
  const Aig g = gen::multiplier(5);
  const Aig t = reg.apply(GetParam(), g);
  EXPECT_TRUE(equivalent(g, t)) << reg.script(GetParam()).name;
}

INSTANTIATE_TEST_SUITE_P(Sampled, ScriptEquivalence,
                         ::testing::Values(0u, 5u, 9u, 23u, 42u, 55u, 70u, 88u, 102u));

TEST(Scripts, RandomIndexIsInRange) {
  Rng rng(3);
  const auto& reg = script_registry();
  for (int i = 0; i < 300; ++i) {
    EXPECT_LT(reg.random_index(rng), reg.size());
  }
}

TEST(Scripts, ProduceDiverseStructures) {
  // Different scripts applied to the same design should explore different
  // structures — the premise of the SA move set.
  const auto& reg = script_registry();
  const Aig g = circuit_by_name("EX00");
  std::set<std::uint64_t> hashes;
  for (const std::size_t idx : {0u, 1u, 2u, 4u, 5u, 6u, 10u, 20u, 42u}) {
    hashes.insert(reg.apply(idx, g).structural_hash());
  }
  EXPECT_GE(hashes.size(), 4u);
}

}  // namespace
}  // namespace aigml::transforms
