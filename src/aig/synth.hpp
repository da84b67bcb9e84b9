#pragma once
// Resynthesis of a truth table (<= 6 vars) into AIG nodes over given leaf
// literals.  Used by rewriting/refactoring (replace a cut with a smaller
// implementation) and by netlist-to-AIG extraction (rebuild cell functions
// for equivalence checking).
//
// The construction is generic over an "AND maker" so the same recipe can be
// *costed* without mutating the graph (see AndProber): the maker receives
// normalized literal pairs exactly as Aig::make_and would.
//
// Synthesis strategy: constant / single-literal shortcuts, parity detection
// (XOR chains — essential for arithmetic circuits), otherwise ISOP covers of
// both polarities with the cheaper one selected by literal count.
//
// Everything that strategy decides depends on (nvars, table) alone, so it is
// split into a *plan* — compiled once into a straight-line AND program and
// cached per thread (synth_plan) — and a *replay* of that program over leaf
// literals (replay_plan).  Replay issues the same AND calls in the same order
// as a from-scratch synthesis, so results are bit-identical.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/truth.hpp"

namespace aigml::aig {

/// Maker signature: Lit and_fn(Lit a, Lit b) — must implement AND semantics
/// including trivial-case folding (Aig::make_and qualifies).
using AndFn = std::function<Lit(Lit, Lit)>;

/// One AND of a compiled synthesis plan (see SynthPlan).
struct SynthStep {
  std::uint16_t a = 0;  ///< operand
  std::uint16_t b = 0;  ///< operand
};

/// The table-only half of synthesize_tt, compiled to an AND program.
///
/// Registers: 0 is constant false, 1..num_kept are the kept leaves
/// (leaf_lits[kept[i]]), and step s writes register 1 + num_kept + s.  An
/// operand is (register << 1) | complement, so operand 1 is constant true.
/// The plan views its program; the storage belongs to whoever compiled it.
struct SynthPlan {
  enum class Kind : std::uint8_t { Const0, Const1, Literal, Parity, Cover };

  /// An irredundant 6-input cover has at most 63 cubes of at most 6
  /// literals: 63 * 5 cube ANDs + 62 ORs = 377 steps.
  static constexpr std::size_t kMaxSteps = 384;
  static constexpr std::size_t kMaxRegisters = 1 + kTtMaxVars + kMaxSteps;

  Kind kind = Kind::Const0;
  /// Literal: the leaf is negated.  Parity: the XOR chain is complemented.
  /// Cover: the off-set ISOP was cheaper and the root is its complement.
  bool complemented = false;
  std::uint8_t num_kept = 0;
  std::array<std::uint8_t, kTtMaxVars> kept{};  ///< support, as leaf indices
  std::uint16_t output = 0;                     ///< operand holding the root
  std::span<const SynthStep> steps;             ///< the AND program
};

/// Compiles the plan for `table` (expanded form, `nvars` variables): support
/// shrink, shortcut choice, and for covers both ISOPs and the cheaper
/// polarity.  Appends the AND program to `program`; the returned plan views
/// it, so it stays valid until `program` next reallocates.
[[nodiscard]] SynthPlan compile_synth_plan(std::uint64_t table, int nvars,
                                           std::vector<SynthStep>& program);

/// compile_synth_plan through the calling thread's bounded plan cache.  The
/// plan's program view stays valid until the calling thread's next
/// synth_plan() call.
[[nodiscard]] SynthPlan synth_plan(std::uint64_t table, int nvars);

/// Runs `plan` over `leaf_lits` through `and_fn` (any callable with the
/// AndFn signature); returns the root literal.
template <typename Maker>
[[nodiscard]] Lit replay_plan(const SynthPlan& plan, Maker& and_fn,
                              std::span<const Lit> leaf_lits) {
  // Left uninitialized on purpose: every operand names constant 0, a leaf
  // or an earlier step, so each register is written before it is read, and
  // zeroing 1.5 KB per replay would cost more than most replays do.
  std::array<Lit, SynthPlan::kMaxRegisters> regs;
  regs[0] = kLitFalse;
  for (std::size_t i = 0; i < plan.num_kept; ++i) regs[1 + i] = leaf_lits[plan.kept[i]];
  const auto operand = [&regs](std::uint16_t op) { return lit_not_if(regs[op >> 1], op & 1u); };
  std::size_t next = 1 + static_cast<std::size_t>(plan.num_kept);
  for (const SynthStep& step : plan.steps) {
    regs[next++] = and_fn(operand(step.a), operand(step.b));
  }
  return operand(plan.output);
}

/// Synthesizes `table` (expanded form, `nvars` variables) as a function of
/// `leaf_lits` using `and_fn` to create nodes.  Returns the root literal.
[[nodiscard]] Lit synthesize_tt(const AndFn& and_fn, std::uint64_t table, int nvars,
                                std::span<const Lit> leaf_lits);

/// Convenience wrapper building directly into a graph.
[[nodiscard]] Lit synthesize_tt_into(Aig& g, std::uint64_t table, int nvars,
                                     std::span<const Lit> leaf_lits);

/// Dry-run AND maker over an existing graph: returns existing literals where
/// structural hashing would, otherwise invents "hypothetical" literals with
/// ids beyond the graph and counts them as misses.  `misses()` after a
/// synthesis run equals the number of AND nodes real synthesis would add.
/// Also tracks an upper-bound level for each literal for depth tie-breaking.
///
/// Hypothetical node i has literal make_lit(num_nodes() + i); they live in a
/// flat insertion-ordered vector indexed by a small linear-probed table, so
/// one prober is reused across candidates with reset() and never allocates
/// once warm.
class AndProber {
 public:
  /// `levels` are the current levels of `g`'s nodes (indexed by id); may be
  /// shorter than num_nodes() for convenience — missing entries read as 0.
  AndProber(const Aig& g, std::span<const std::uint32_t> levels);

  Lit operator()(Lit a, Lit b);

  [[nodiscard]] int misses() const noexcept { return static_cast<int>(keys_.size()); }
  /// Level of a literal seen during probing (real or hypothetical).
  [[nodiscard]] std::uint32_t level_of(Lit lit) const;
  /// Forgets every hypothetical node.  Call it (or the rebinding overload)
  /// after the graph changes.
  void reset();
  /// reset() plus a new levels view — needed when the levels storage may
  /// have reallocated as the graph grew.
  void reset(std::span<const std::uint32_t> levels);

 private:
  /// A slot holds (generation << 32) | hypothetical index; it is occupied
  /// only when its generation is current, so reset() clears it in O(1).
  [[nodiscard]] bool live(std::uint64_t slot) const noexcept {
    return (slot >> 32) == generation_;
  }
  [[nodiscard]] static std::uint32_t index_of(std::uint64_t slot) noexcept {
    return static_cast<std::uint32_t>(slot);
  }
  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept;
  void grow();

  const Aig& g_;
  std::span<const std::uint32_t> levels_;
  NodeId base_;                          ///< g_.num_nodes() at the last reset
  std::vector<std::uint64_t> keys_;      ///< hypothetical node -> normalized (a, b)
  std::vector<std::uint32_t> hypo_levels_;
  std::vector<std::uint64_t> slots_;     ///< linear-probed index into keys_
  std::uint32_t generation_ = 1;
};

}  // namespace aigml::aig
