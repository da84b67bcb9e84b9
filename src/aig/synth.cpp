#include "aig/synth.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace aigml::aig {

namespace {

using Operand = std::uint16_t;

constexpr Operand kOpFalse = 0;
constexpr Operand kOpTrue = 1;

constexpr Operand op_not(Operand op) noexcept { return static_cast<Operand>(op ^ 1u); }

/// Emits a plan's AND program: every AND call of the synthesis recipe
/// (balanced cube ANDs, balanced ORs, XOR chains) in the order the recipe
/// makes it, so a replay reproduces direct construction call for call.
class ProgramEmitter {
 public:
  ProgramEmitter(const SynthPlan& plan, std::vector<SynthStep>& program)
      : first_register_(1 + static_cast<std::size_t>(plan.num_kept)),
        program_(program),
        start_(program.size()) {}

  [[nodiscard]] std::size_t size() const { return program_.size() - start_; }

  static Operand leaf(int i) { return static_cast<Operand>((1 + i) << 1); }

  Operand and_of(Operand a, Operand b) {
    if (size() >= SynthPlan::kMaxSteps) {
      throw std::length_error("synth plan: AND program exceeds kMaxSteps");
    }
    const std::size_t reg = first_register_ + size();
    program_.push_back(SynthStep{a, b});
    return static_cast<Operand>(reg << 1);
  }

  Operand or_of(Operand a, Operand b) { return op_not(and_of(op_not(a), op_not(b))); }

  Operand xor_of(Operand a, Operand b) {
    const Operand p = and_of(a, op_not(b));
    const Operand q = and_of(op_not(a), b);
    return or_of(p, q);
  }

  /// Pairwise reduction, left to right per round, odd element carried.
  template <typename Op>
  static Operand balanced_reduce(std::vector<Operand> work, Operand identity, Op op) {
    if (work.empty()) return identity;
    while (work.size() > 1) {
      std::vector<Operand> next;
      next.reserve((work.size() + 1) / 2);
      for (std::size_t i = 0; i + 1 < work.size(); i += 2) next.push_back(op(work[i], work[i + 1]));
      if (work.size() % 2 == 1) next.push_back(work.back());
      work = std::move(next);
    }
    return work.front();
  }

  Operand cover(std::span<const Cube> cover) {
    std::vector<Operand> cube_ops;
    cube_ops.reserve(cover.size());
    for (const Cube& cube : cover) {
      std::vector<Operand> lits;
      for (int i = 0; i < kTtMaxVars; ++i) {
        if (cube.pos & (1u << i)) lits.push_back(leaf(i));
        if (cube.neg & (1u << i)) lits.push_back(op_not(leaf(i)));
      }
      cube_ops.push_back(balanced_reduce(std::move(lits), kOpTrue,
                                         [this](Operand x, Operand y) { return and_of(x, y); }));
    }
    return balanced_reduce(std::move(cube_ops), kOpFalse,
                           [this](Operand x, Operand y) { return or_of(x, y); });
  }

 private:
  std::size_t first_register_;
  std::vector<SynthStep>& program_;
  std::size_t start_;
};

/// Per-thread plan cache: a 4-way set-associative table over one program
/// arena, each set kept in most-recently-used order.  A miss evicts the
/// set's least recently used plan; the new program takes over the evicted
/// one's arena range when it fits, and is appended otherwise.  When the
/// arena cannot fit a worst-case program, every slot and the arena are
/// cleared.  The arena is reserved up front and never reallocates, so a
/// returned plan's program view stays valid until then.
class PlanCache {
 public:
  static constexpr int kSetBits = 10;
  static constexpr int kWays = 4;
  static constexpr std::size_t kArenaSteps = std::size_t{1} << 15;

  SynthPlan get(std::uint64_t table, int nvars) {
    if (slots_.empty()) {
      slots_.resize(std::size_t{kWays} << kSetBits);
      arena_.reserve(kArenaSteps);
    }
    std::uint64_t h = table ^ (static_cast<std::uint64_t>(nvars) << 58);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    Slot* set = slots_.data() + (h >> (64 - kSetBits)) * kWays;
    int way = 0;
    while (way < kWays && (set[way].nvars != nvars || set[way].table != table)) ++way;
    if (way == kWays) {
      way = kWays - 1;
      fill(set[way], table, nvars);
    }
    std::rotate(set, set + way, set + way + 1);  // move to the front
    const Slot& slot = set[0];
    SynthPlan plan;
    plan.kind = slot.kind;
    plan.complemented = slot.complemented;
    plan.num_kept = slot.num_kept;
    plan.kept = slot.kept;
    plan.output = slot.output;
    plan.steps = std::span<const SynthStep>(arena_.data() + slot.offset, slot.count);
    return plan;
  }

 private:
  /// A plan's header with its program as an arena range instead of a view,
  /// which keeps a slot at 32 bytes.
  struct Slot {
    std::uint64_t table = 0;
    std::uint32_t offset = 0;  ///< arena range owned by this slot
    std::uint16_t capacity = 0;
    std::uint16_t count = 0;   ///< steps of the cached program
    std::uint16_t output = 0;
    std::int8_t nvars = -1;    ///< -1: empty
    SynthPlan::Kind kind = SynthPlan::Kind::Const0;
    bool complemented = false;
    std::uint8_t num_kept = 0;
    std::array<std::uint8_t, kTtMaxVars> kept{};
  };
  static_assert(sizeof(Slot) == 32);

  void fill(Slot& slot, std::uint64_t table, int nvars) {
    if (arena_.size() + SynthPlan::kMaxSteps > kArenaSteps) {
      for (Slot& s : slots_) s = Slot{};
      arena_.clear();
    }
    const std::size_t end = arena_.size();
    const SynthPlan plan = compile_synth_plan(table, nvars, arena_);
    const std::size_t count = plan.steps.size();
    if (count <= slot.capacity) {
      // Reuse the evicted plan's range and drop the freshly appended copy.
      std::copy(arena_.begin() + static_cast<std::ptrdiff_t>(end), arena_.end(),
                arena_.begin() + slot.offset);
      arena_.resize(end);
    } else {
      slot.offset = static_cast<std::uint32_t>(end);
      slot.capacity = static_cast<std::uint16_t>(count);
    }
    slot.table = table;
    slot.count = static_cast<std::uint16_t>(count);
    slot.output = plan.output;
    slot.nvars = static_cast<std::int8_t>(nvars);
    slot.kind = plan.kind;
    slot.complemented = plan.complemented;
    slot.num_kept = plan.num_kept;
    slot.kept = plan.kept;
  }

  std::vector<Slot> slots_;
  std::vector<SynthStep> arena_;
};

}  // namespace

SynthPlan compile_synth_plan(std::uint64_t table, int nvars, std::vector<SynthStep>& program) {
  SynthPlan plan;
  // Support-minimize so shortcuts below see the true function arity.
  std::uint64_t t = table;
  const int k = tt_shrink_support(t, nvars, plan.kept);
  plan.num_kept = static_cast<std::uint8_t>(k);
  const std::size_t start = program.size();
  ProgramEmitter emitter(plan, program);

  if (t == tt_const0()) {
    plan.kind = SynthPlan::Kind::Const0;
    plan.output = kOpFalse;
  } else if (t == tt_const1()) {
    plan.kind = SynthPlan::Kind::Const1;
    plan.output = kOpTrue;
  } else if (k == 1) {
    plan.kind = SynthPlan::Kind::Literal;
    plan.complemented = t != tt_var(0);
    plan.output = ProgramEmitter::leaf(0);
  } else if (bool parity_complemented = false;
             tt_is_parity(t, static_cast<std::uint32_t>((1u << k) - 1), parity_complemented)) {
    // Parity shortcut: an n-input XOR has a 2^(n-1)-cube ISOP, but only
    // 3*(n-1) AND nodes as a chain.
    plan.kind = SynthPlan::Kind::Parity;
    plan.complemented = parity_complemented;
    std::vector<Operand> leaves;
    for (int i = 0; i < k; ++i) leaves.push_back(ProgramEmitter::leaf(i));
    plan.output = ProgramEmitter::balanced_reduce(
        std::move(leaves), kOpFalse,
        [&emitter](Operand x, Operand y) { return emitter.xor_of(x, y); });
  } else {
    // ISOP of both polarities; build the cheaper cover.
    const std::vector<Cube> cover_pos = isop(t, tt_const0(), k);
    const std::vector<Cube> cover_neg = isop(~t, tt_const0(), k);
    const int cost_pos = cover_literals(cover_pos) + static_cast<int>(cover_pos.size());
    const int cost_neg = cover_literals(cover_neg) + static_cast<int>(cover_neg.size());
    plan.kind = SynthPlan::Kind::Cover;
    plan.complemented = cost_neg < cost_pos;
    plan.output = emitter.cover(plan.complemented ? cover_neg : cover_pos);
  }
  plan.output = static_cast<Operand>(plan.output ^ static_cast<Operand>(plan.complemented));
  plan.steps = std::span<const SynthStep>(program.data() + start, program.size() - start);
  return plan;
}

SynthPlan synth_plan(std::uint64_t table, int nvars) {
  thread_local PlanCache cache;
  return cache.get(table, nvars);
}

Lit synthesize_tt(const AndFn& and_fn, std::uint64_t table, int nvars,
                  std::span<const Lit> leaf_lits) {
  return replay_plan(synth_plan(table, nvars), and_fn, leaf_lits);
}

Lit synthesize_tt_into(Aig& g, std::uint64_t table, int nvars, std::span<const Lit> leaf_lits) {
  auto make_and = [&g](Lit a, Lit b) { return g.make_and(a, b); };
  return replay_plan(synth_plan(table, nvars), make_and, leaf_lits);
}

AndProber::AndProber(const Aig& g, std::span<const std::uint32_t> levels)
    : g_(g), levels_(levels), base_(static_cast<NodeId>(g.num_nodes())), slots_(64, 0) {}

std::size_t AndProber::slot_of(std::uint64_t key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
  while (live(slots_[s]) && keys_[index_of(slots_[s])] != key) s = (s + 1) & mask;
  return s;
}

void AndProber::grow() {
  slots_.assign(slots_.size() * 2, 0);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    slots_[slot_of(keys_[i])] = (std::uint64_t{generation_} << 32) | i;
  }
}

Lit AndProber::operator()(Lit a, Lit b) {
  if (a > b) std::swap(a, b);
  if (a == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (a == b) return a;
  if ((a ^ b) == 1u) return kLitFalse;
  if (lit_var(b) < base_) {  // a <= b, so both are real
    const Lit existing = g_.probe_and(a, b);
    if (existing != kLitInvalid) return existing;
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  const std::size_t s = slot_of(key);
  if (live(slots_[s])) return make_lit(base_ + index_of(slots_[s]));
  const auto index = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(key);
  hypo_levels_.push_back(1 + std::max(level_of(a), level_of(b)));
  slots_[s] = (std::uint64_t{generation_} << 32) | index;
  if (2 * keys_.size() > slots_.size()) grow();
  return make_lit(base_ + index);
}

std::uint32_t AndProber::level_of(Lit lit) const {
  const NodeId var = lit_var(lit);
  if (var < base_) {
    return var < levels_.size() ? levels_[var] : 0;
  }
  return hypo_levels_[var - base_];
}

void AndProber::reset() {
  if (++generation_ == 0) {  // stamp wrap-around: clear and restart
    std::fill(slots_.begin(), slots_.end(), 0);
    generation_ = 1;
  }
  keys_.clear();
  hypo_levels_.clear();
  base_ = static_cast<NodeId>(g_.num_nodes());
}

void AndProber::reset(std::span<const std::uint32_t> levels) {
  levels_ = levels;
  reset();
}

}  // namespace aigml::aig
