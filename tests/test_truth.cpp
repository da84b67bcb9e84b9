// Tests for truth-table utilities, ISOP, NPN canonicalization, and the
// table-to-AIG synthesizer (including the dry-run prober).

#include <gtest/gtest.h>

#include <set>

#include "aig/aig.hpp"
#include "aig/npn.hpp"
#include "aig/sim.hpp"
#include "aig/synth.hpp"
#include "aig/truth.hpp"
#include "util/rng.hpp"

namespace aigml::aig {
namespace {

TEST(Truth, VarMasksAreExpanded) {
  for (int i = 0; i < kTtMaxVars; ++i) {
    const std::uint64_t t = tt_var(i);
    for (std::uint32_t p = 0; p < 64; ++p) {
      EXPECT_EQ(tt_eval(t, p), ((p >> i) & 1) != 0);
    }
  }
}

TEST(Truth, ExpandLow) {
  // f = x0 over 1 var: low bits 0b10.
  EXPECT_EQ(tt_expand_low(0b10, 1), tt_var(0));
  // f = x0 & x1 over 2 vars: low nibble 0b1000.
  const std::uint64_t and2 = tt_expand_low(0b1000, 2);
  EXPECT_EQ(and2, tt_var(0) & tt_var(1));
}

TEST(Truth, Cofactors) {
  const std::uint64_t f = tt_var(0) & tt_var(1);
  EXPECT_EQ(tt_cofactor1(f, 0), tt_var(1));
  EXPECT_EQ(tt_cofactor0(f, 0), tt_const0());
  EXPECT_EQ(tt_cofactor1(f, 2), f);  // vacuous variable
}

TEST(Truth, SupportDetection) {
  const std::uint64_t f = tt_var(0) ^ tt_var(2);
  EXPECT_TRUE(tt_has_var(f, 0));
  EXPECT_FALSE(tt_has_var(f, 1));
  EXPECT_TRUE(tt_has_var(f, 2));
  EXPECT_EQ(tt_support(f, 4), 0b0101u);
}

TEST(Truth, FlipVar) {
  const std::uint64_t f = tt_var(0) & tt_var(1);
  const std::uint64_t g = tt_flip_var(f, 0);
  EXPECT_EQ(g, ~tt_var(0) & tt_var(1));
  EXPECT_EQ(tt_flip_var(g, 0), f);  // involution
}

TEST(Truth, RemapReordersSupport) {
  // tt_remap semantics: input variable positions[j] receives result variable
  // j; unmapped input variables read constant 0.
  // f(x) = x0 & !x1 with positions {2, 0}: input x0 <- result y1, input
  // x1 <- 0, input x2 <- y0 (vacuous), so g(y) = y1 & !0 = y1.
  const std::uint64_t f = tt_var(0) & ~tt_var(1);
  const std::uint8_t positions[2] = {2, 0};
  EXPECT_EQ(tt_remap(f, positions, 3), tt_var(1));
  // Identity map is a no-op.
  const std::uint8_t ident[2] = {0, 1};
  EXPECT_EQ(tt_remap(f, ident, 2), f);
}

TEST(Truth, ShrinkSupportDropsVacuous) {
  // f over 4 declared vars but depends only on x1 and x3.
  const std::uint64_t f = tt_var(1) ^ tt_var(3);
  std::uint64_t t = f;
  std::array<std::uint8_t, kTtMaxVars> kept{};
  const int k = tt_shrink_support(t, 4, kept);
  EXPECT_EQ(k, 2);
  EXPECT_EQ(kept[0], 1);
  EXPECT_EQ(kept[1], 3);
  EXPECT_EQ(t, tt_var(0) ^ tt_var(1));
}

TEST(Truth, ParityDetection) {
  bool comp = false;
  EXPECT_TRUE(tt_is_parity(tt_var(0) ^ tt_var(1) ^ tt_var(2), 0b111, comp));
  EXPECT_FALSE(comp);
  EXPECT_TRUE(tt_is_parity(~(tt_var(0) ^ tt_var(1)), 0b011, comp));
  EXPECT_TRUE(comp);
  EXPECT_FALSE(tt_is_parity(tt_var(0) & tt_var(1), 0b011, comp));
}

TEST(Truth, CubeTable) {
  Cube c;
  c.pos = 0b001;  // x0
  c.neg = 0b100;  // !x2
  EXPECT_EQ(c.table(), tt_var(0) & ~tt_var(2));
  EXPECT_EQ(c.num_literals(), 2);
}

// ISOP property: for random functions, the cover must reproduce the function
// exactly (no don't-cares) and every cube must be an implicant.
TEST(Truth, IsopExactCoverProperty) {
  Rng rng(123);
  for (int nvars = 1; nvars <= 6; ++nvars) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t f = tt_expand_low(rng.next(), nvars);
      const auto cover = isop(f, tt_const0(), nvars);
      EXPECT_EQ(cover_table(cover), f) << "nvars=" << nvars;
      for (const Cube& c : cover) {
        EXPECT_EQ(c.table() & ~f, tt_const0()) << "cube is not an implicant";
      }
    }
  }
}

TEST(Truth, IsopUsesDontCares) {
  // on = x0&x1, dc = x0&!x1  =>  a single-literal cover {x0} is allowed.
  const std::uint64_t on = tt_var(0) & tt_var(1);
  const std::uint64_t dc = tt_var(0) & ~tt_var(1);
  const auto cover = isop(on, dc, 2);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].num_literals(), 1);
  const std::uint64_t f = cover_table(cover);
  EXPECT_EQ(f & ~(on | dc), tt_const0());
  EXPECT_EQ(on & ~f, tt_const0());
}

TEST(Truth, IsopConstants) {
  EXPECT_TRUE(isop(tt_const0(), tt_const0(), 4).empty());
  const auto ones = isop(tt_const1(), tt_const0(), 4);
  ASSERT_EQ(ones.size(), 1u);
  EXPECT_EQ(ones[0].num_literals(), 0);
}

// ---- NPN ---------------------------------------------------------------------

TEST(Npn, ApplyIdentity) {
  const std::uint64_t f = tt_expand_low(0xCAFE, 4);
  EXPECT_EQ(npn_apply(f, 4, NpnTransform{}), f);
}

TEST(Npn, ApplyOutputPhase) {
  const std::uint64_t f = tt_var(0) & tt_var(1);
  NpnTransform tr;
  tr.output_phase = true;
  EXPECT_EQ(npn_apply(f, 2, tr), ~f);
}

TEST(Npn, ApplyInputPhase) {
  const std::uint64_t f = tt_var(0) & tt_var(1);
  NpnTransform tr;
  tr.input_phase = 0b01;  // complement input 0 of the original
  EXPECT_EQ(npn_apply(f, 2, tr), ~tt_var(0) & tt_var(1));
}

TEST(Npn, ApplyPermutation) {
  // f(y0,y1,y2) = y0 & !y2. perm = {1,2,0}: input i of f reads result var perm[i].
  const std::uint64_t f = tt_var(0) & ~tt_var(2);
  NpnTransform tr;
  tr.perm = {1, 2, 0, 3};
  const std::uint64_t g = npn_apply(f, 3, tr);
  // y0 = x1, y2 = x0  =>  g = x1 & !x0.
  EXPECT_EQ(g, tt_var(1) & ~tt_var(0));
}

TEST(Npn, InverseRoundTripProperty) {
  Rng rng(77);
  for (int nvars = 1; nvars <= 4; ++nvars) {
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint64_t f = tt_expand_low(rng.next(), nvars);
      NpnTransform tr;
      std::array<std::uint8_t, 4> perm = {0, 1, 2, 3};
      // random permutation of the active prefix
      for (int i = nvars - 1; i > 0; --i) {
        const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i + 1)));
        std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
      }
      tr.perm = perm;
      tr.input_phase = static_cast<std::uint8_t>(rng.next_below(1ULL << nvars));
      tr.output_phase = rng.next_bool();
      const std::uint64_t g = npn_apply(f, nvars, tr);
      const std::uint64_t back = npn_apply(g, nvars, npn_inverse(tr, nvars));
      EXPECT_EQ(back, f) << "nvars=" << nvars;
    }
  }
}

TEST(Npn, CanonicalFormIsInvariantAcrossClass) {
  // All NPN transforms of a function must canonicalize identically.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t f = tt_expand_low(rng.next(), 4);
    const auto canon = npn_canonicalize(f, 4);
    EXPECT_EQ(npn_apply(f, 4, canon.transform), canon.table);
    int checked = 0;
    npn_for_each(f, 4, [&](std::uint64_t variant, const NpnTransform&) {
      if (checked++ % 37 != 0) return;  // sample the orbit
      EXPECT_EQ(npn_canonicalize(variant, 4).table, canon.table);
    });
  }
}

TEST(Npn, KnownClassCount2Vars) {
  // There are exactly 4 NPN classes of 2-variable functions:
  // constants, single variable, AND-type, XOR-type.
  std::set<std::uint64_t> classes;
  for (std::uint32_t raw = 0; raw < 16; ++raw) {
    classes.insert(npn_canonicalize(tt_expand_low(raw, 2), 2).table);
  }
  EXPECT_EQ(classes.size(), 4u);
}

// ---- synthesis ----------------------------------------------------------------

// Property: synthesize_tt_into produces a literal whose simulated function
// equals the requested table, for random functions of 1..6 variables.
TEST(Synth, RandomFunctionsAreRealizedExactly) {
  Rng rng(2024);
  for (int nvars = 1; nvars <= 6; ++nvars) {
    for (int trial = 0; trial < 60; ++trial) {
      const std::uint64_t f = tt_expand_low(rng.next(), nvars);
      Aig g;
      std::vector<Lit> leaves;
      for (int i = 0; i < nvars; ++i) leaves.push_back(g.add_input());
      const Lit root = synthesize_tt_into(g, f, nvars, leaves);
      g.add_output(root);
      // Simulate with elementary patterns: input i drives tt_var(i).
      std::vector<std::uint64_t> pats;
      for (int i = 0; i < nvars; ++i) pats.push_back(tt_var(i));
      const auto out = simulate_words(g, pats);
      EXPECT_EQ(out[0] & tt_mask(nvars), f & tt_mask(nvars))
          << "nvars=" << nvars << " trial=" << trial;
    }
  }
}

TEST(Synth, ConstantsAndLiterals) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const std::vector<Lit> leaves{a, b};
  EXPECT_EQ(synthesize_tt_into(g, tt_const0(), 2, leaves), kLitFalse);
  EXPECT_EQ(synthesize_tt_into(g, tt_const1(), 2, leaves), kLitTrue);
  EXPECT_EQ(synthesize_tt_into(g, tt_var(0), 2, leaves), a);
  EXPECT_EQ(synthesize_tt_into(g, ~tt_var(1), 2, leaves), lit_not(b));
  EXPECT_EQ(g.num_ands(), 0u);
}

TEST(Synth, ParityUsesLinearNodeCount) {
  Aig g;
  std::vector<Lit> leaves;
  for (int i = 0; i < 6; ++i) leaves.push_back(g.add_input());
  std::uint64_t parity = tt_const0();
  for (int i = 0; i < 6; ++i) parity ^= tt_var(i);
  (void)synthesize_tt_into(g, parity, 6, leaves);
  // XOR chain: 3 ANDs per XOR, 5 XORs = 15 nodes (an ISOP build would need
  // 32 cubes of 6 literals — far more).
  EXPECT_LE(g.num_ands(), 15u);
}

TEST(Synth, ReusesExistingStructure) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit existing = g.make_and(a, b);
  (void)existing;
  const std::size_t before = g.num_ands();
  const std::vector<Lit> leaves{a, b};
  const Lit lit = synthesize_tt_into(g, tt_var(0) & tt_var(1), 2, leaves);
  EXPECT_EQ(lit, existing);
  EXPECT_EQ(g.num_ands(), before);  // structural hashing reused the node
}

TEST(Synth, ProberCountsExactlyTheNodesRealSynthesisAdds) {
  Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    Aig g;
    std::vector<Lit> leaves;
    for (int i = 0; i < 4; ++i) leaves.push_back(g.add_input());
    // Pre-populate with some structure so the prober sees real hits.
    (void)g.make_and(leaves[0], leaves[1]);
    (void)g.make_xor(leaves[2], leaves[3]);
    const std::uint64_t f = tt_expand_low(rng.next(), 4);

    AndProber prober(g, {});
    (void)synthesize_tt([&prober](Lit x, Lit y) { return prober(x, y); }, f, 4, leaves);
    const int predicted = prober.misses();

    const std::size_t before = g.num_ands();
    (void)synthesize_tt_into(g, f, 4, leaves);
    const int actual = static_cast<int>(g.num_ands() - before);
    EXPECT_EQ(predicted, actual) << "trial=" << trial;
  }
}

TEST(Synth, ProberTracksLevels) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  std::vector<std::uint32_t> lvls(g.num_nodes(), 0);
  AndProber prober(g, lvls);
  const Lit ab = prober(a, b);
  EXPECT_EQ(prober.level_of(ab), 1u);
  const Lit abc = prober(ab, c);
  EXPECT_EQ(prober.level_of(abc), 2u);
  EXPECT_EQ(prober.misses(), 2);
  prober.reset();
  EXPECT_EQ(prober.misses(), 0);
}

TEST(Synth, PlanKindsFollowTheShortcuts) {
  std::vector<SynthStep> program;
  EXPECT_EQ(compile_synth_plan(tt_const0(), 3, program).kind, SynthPlan::Kind::Const0);
  EXPECT_EQ(compile_synth_plan(tt_const1(), 3, program).kind, SynthPlan::Kind::Const1);
  EXPECT_TRUE(program.empty());
  const SynthPlan lit = compile_synth_plan(~tt_var(2), 4, program);
  EXPECT_EQ(lit.kind, SynthPlan::Kind::Literal);
  EXPECT_TRUE(lit.complemented);
  ASSERT_EQ(lit.num_kept, 1);
  EXPECT_EQ(lit.kept[0], 2);
  EXPECT_TRUE(lit.steps.empty());
  const SynthPlan xnor = compile_synth_plan(~(tt_var(0) ^ tt_var(3)), 4, program);
  EXPECT_EQ(xnor.kind, SynthPlan::Kind::Parity);
  EXPECT_TRUE(xnor.complemented);
  EXPECT_EQ(xnor.steps.size(), 3u);
  // ab | !a c: two 2-literal cubes either way, so the on-set cover wins the
  // tie: two cube ANDs and one OR.
  const SynthPlan mux =
      compile_synth_plan((tt_var(0) & tt_var(1)) | (~tt_var(0) & tt_var(2)), 3, program);
  EXPECT_EQ(mux.kind, SynthPlan::Kind::Cover);
  EXPECT_FALSE(mux.complemented);
  EXPECT_EQ(mux.steps.size(), 3u);
  EXPECT_EQ(program.size(), 6u);  // every program appended to the one buffer
}

// The cached plan is the compiled plan, across enough distinct functions to
// evict cache slots and recycle the program arena.
TEST(Synth, CachedPlansMatchCompiledPlans) {
  Rng rng(77);
  for (int trial = 0; trial < 20000; ++trial) {
    const int nvars = 2 + trial % 5;
    const std::uint64_t f = tt_expand_low(rng.next(), nvars);
    std::vector<SynthStep> program;
    const SynthPlan fresh = compile_synth_plan(f, nvars, program);
    const SynthPlan cached = synth_plan(f, nvars);
    EXPECT_EQ(cached.kind, fresh.kind);
    EXPECT_EQ(cached.complemented, fresh.complemented);
    EXPECT_EQ(cached.num_kept, fresh.num_kept);
    EXPECT_EQ(cached.kept, fresh.kept);
    EXPECT_EQ(cached.output, fresh.output);
    EXPECT_LE(fresh.steps.size(), SynthPlan::kMaxSteps);
    ASSERT_EQ(cached.steps.size(), fresh.steps.size());
    for (std::size_t i = 0; i < fresh.steps.size(); ++i) {
      ASSERT_EQ(cached.steps[i].a, fresh.steps[i].a) << "trial=" << trial;
      ASSERT_EQ(cached.steps[i].b, fresh.steps[i].b) << "trial=" << trial;
    }
  }
}

// One prober reused across a growing graph: reset(levels) rebinds the level
// view and moves hypothetical ids past the new nodes.
TEST(Synth, ProberResetRebindsToTheGrownGraph) {
  Aig g;
  const Lit a = g.add_input();
  const Lit b = g.add_input();
  const Lit c = g.add_input();
  std::vector<std::uint32_t> lvls(g.num_nodes(), 0);
  AndProber prober(g, lvls);
  const Lit fake = prober(a, b);
  EXPECT_EQ(lit_var(fake), g.num_nodes());
  EXPECT_EQ(prober(b, a), fake);  // normalized pair, no second miss
  EXPECT_EQ(prober.misses(), 1);

  const Lit real = g.make_and(a, b);
  lvls.push_back(1);
  prober.reset(lvls);
  EXPECT_EQ(prober(a, b), real);
  EXPECT_EQ(prober.misses(), 0);
  const Lit abc = prober(real, c);
  EXPECT_EQ(lit_var(abc), g.num_nodes());
  EXPECT_EQ(prober.level_of(abc), 2u);
}

// Enough hypothetical nodes to grow the probe table several times; every
// pair still maps to one stable literal, and reset() forgets them all.
TEST(Synth, ProberKeepsManyHypotheticalNodesDistinct) {
  Aig g;
  std::vector<Lit> ins;
  for (int i = 0; i < 40; ++i) ins.push_back(g.add_input());
  AndProber prober(g, {});
  std::vector<Lit> first;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i + 1 < ins.size(); ++i) {
      for (std::size_t j = i + 1; j < ins.size(); j += 7) {
        const Lit lit = prober(ins[i], lit_not(ins[j]));
        if (round == 0) {
          EXPECT_EQ(lit_var(lit), g.num_nodes() + first.size());
          first.push_back(lit);
        }
      }
    }
  }
  EXPECT_EQ(prober.misses(), static_cast<int>(first.size()));
  std::size_t k = 0;
  for (std::size_t i = 0; i + 1 < ins.size(); ++i) {
    for (std::size_t j = i + 1; j < ins.size(); j += 7) {
      EXPECT_EQ(prober(ins[i], lit_not(ins[j])), first[k++]);
    }
  }
  prober.reset();
  EXPECT_EQ(prober.misses(), 0);
  EXPECT_EQ(prober(ins[0], lit_not(ins[1])), make_lit(static_cast<NodeId>(g.num_nodes())));
  EXPECT_EQ(prober.misses(), 1);
}

}  // namespace
}  // namespace aigml::aig
