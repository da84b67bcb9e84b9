// Microbenchmarks (google-benchmark) for the substrate kernels behind every
// experiment: cut enumeration, technology mapping, STA, feature extraction,
// GBDT inference, transforms, simulation, and equivalence checking.
//
// These quantify the per-iteration cost structure of the three flows (the
// raw material of Fig. 2 / Table IV) and expose regressions.

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "aig/analysis.hpp"
#include "aig/cuts.hpp"
#include "aig/sim.hpp"
#include "features/features.hpp"
#include "flow/experiment.hpp"
#include "gen/designs.hpp"
#include "mapper/mapper.hpp"
#include "ml/gbdt.hpp"
#include "sta/sta.hpp"
#include "transforms/balance.hpp"
#include "transforms/resynth.hpp"

using namespace aigml;

namespace {

const aig::Aig& design(const std::string& name) {
  static std::map<std::string, aig::Aig> cache;
  auto it = cache.find(name);
  if (it == cache.end()) it = cache.emplace(name, gen::build_design(name)).first;
  return it->second;
}

/// EXnn design named by a benchmark argument (2 -> "EX02", 54 -> "EX54").
const aig::Aig& design_arg(std::int64_t number) {
  return design((number < 10 ? "EX0" : "EX") + std::to_string(number));
}

void BM_CutEnumeration(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const aig::Aig& g = design_arg(state.range(1));
  for (auto _ : state) {
    aig::CutSets cuts(g, aig::CutParams{k, 8});
    benchmark::DoNotOptimize(cuts.cuts(static_cast<aig::NodeId>(g.num_nodes() - 1)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_ands()));
}
BENCHMARK(BM_CutEnumeration)->ArgNames({"k", "EX"})->ArgsProduct({{3, 4, 6}, {2, 54}});

void BM_AigCleanup(benchmark::State& state) {
  // Every rebuild ends in cleanup(): a cone walk plus one strashed AND per
  // live node.
  const aig::Aig& g = design("EX54");
  for (auto _ : state) {
    auto t = g.cleanup();
    benchmark::DoNotOptimize(t.num_ands());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_ands()));
}
BENCHMARK(BM_AigCleanup);

void BM_AigCopy(benchmark::State& state) {
  // The SA loop copies its current graph for each candidate move.
  const aig::Aig& g = design("EX54");
  for (auto _ : state) {
    aig::Aig copy = g;
    benchmark::DoNotOptimize(copy.num_ands());
  }
}
BENCHMARK(BM_AigCopy);

void BM_Mapping(benchmark::State& state) {
  const aig::Aig& g = design(state.range(0) == 0 ? "EX68" : "EX02");
  const auto& lib = cell::mini_sky130();
  for (auto _ : state) {
    auto netlist = map::map_to_cells(g, lib);
    benchmark::DoNotOptimize(netlist.num_gates());
  }
}
BENCHMARK(BM_Mapping)->Arg(0)->Arg(1);

void BM_Sta(benchmark::State& state) {
  const aig::Aig& g = design("EX02");
  const auto& lib = cell::mini_sky130();
  const auto netlist = map::map_to_cells(g, lib);
  for (auto _ : state) {
    auto result = sta::run_sta(netlist, lib, {});
    benchmark::DoNotOptimize(result.max_delay_ps);
  }
}
BENCHMARK(BM_Sta);

void BM_MapPlusSta(benchmark::State& state) {
  // The ground-truth evaluation (one Fig. 2 / Table IV iteration's cost).
  const aig::Aig& g = design("EX02");
  const auto& lib = cell::mini_sky130();
  for (auto _ : state) {
    const auto netlist = map::map_to_cells(g, lib);
    const auto result = sta::run_sta(netlist, lib, {});
    benchmark::DoNotOptimize(result.max_delay_ps);
  }
}
BENCHMARK(BM_MapPlusSta);

void BM_FeatureExtraction(benchmark::State& state) {
  const aig::Aig& g = design("EX02");
  for (auto _ : state) {
    auto f = features::extract(g);
    benchmark::DoNotOptimize(f[0]);
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_AnalysisCache(benchmark::State& state) {
  // The fused sweep feeding features, cost evaluators, and datagen.
  const aig::Aig& g = design("EX02");
  for (auto _ : state) {
    aig::AnalysisCache cache(g);
    benchmark::DoNotOptimize(cache.max_depth());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_nodes()));
}
BENCHMARK(BM_AnalysisCache);

void BM_GbdtInference(benchmark::State& state) {
  // Model shape comparable to the repo-scale delay model.
  ml::Dataset train(features::feature_names());
  Rng rng(1);
  std::vector<double> row(features::kNumFeatures);
  for (int i = 0; i < 300; ++i) {
    for (auto& v : row) v = rng.next_double(0, 100);
    train.append(row, rng.next_double(500, 5000), "syn");
  }
  ml::GbdtParams p;
  p.num_trees = static_cast<int>(state.range(0));
  const auto model = ml::GbdtModel::train(train, p);
  const auto f = features::extract(design("EX02"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(f));
  }
}
BENCHMARK(BM_GbdtInference)->Arg(100)->Arg(600);

void BM_GbdtPredictAll(benchmark::State& state) {
  // Batched inference over the flattened SoA forest (dataset-accuracy path).
  ml::Dataset train(features::feature_names());
  Rng rng(4);
  std::vector<double> row(features::kNumFeatures);
  for (int i = 0; i < 300; ++i) {
    for (auto& v : row) v = rng.next_double(0, 100);
    train.append(row, rng.next_double(500, 5000), "syn");
  }
  ml::GbdtParams p;
  p.num_trees = 200;
  const auto model = ml::GbdtModel::train(train, p);
  for (auto _ : state) {
    auto preds = model.predict_all(train);
    benchmark::DoNotOptimize(preds[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(train.num_rows()));
}
BENCHMARK(BM_GbdtPredictAll);

void BM_MlEvaluation(benchmark::State& state) {
  // Features + inference: the ML flow's per-iteration evaluation cost.
  ml::Dataset train(features::feature_names());
  Rng rng(2);
  std::vector<double> row(features::kNumFeatures);
  for (int i = 0; i < 300; ++i) {
    for (auto& v : row) v = rng.next_double(0, 100);
    train.append(row, rng.next_double(500, 5000), "syn");
  }
  const auto model = ml::GbdtModel::train(train, flow::default_gbdt_params());
  const aig::Aig& g = design("EX02");
  for (auto _ : state) {
    const auto f = features::extract(g);
    benchmark::DoNotOptimize(model.predict(f));
  }
}
BENCHMARK(BM_MlEvaluation);

void BM_Balance(benchmark::State& state) {
  const aig::Aig& g = design("EX02");
  for (auto _ : state) {
    auto t = transforms::balance(g);
    benchmark::DoNotOptimize(t.num_ands());
  }
}
BENCHMARK(BM_Balance);

void BM_Rewrite(benchmark::State& state) {
  const aig::Aig& g = design("EX02");
  for (auto _ : state) {
    auto t = transforms::rewrite(g);
    benchmark::DoNotOptimize(t.num_ands());
  }
}
BENCHMARK(BM_Rewrite);

void BM_RewriteDepth(benchmark::State& state) {
  const aig::Aig& g = design("EX02");
  for (auto _ : state) {
    auto t = transforms::rewrite_depth(g);
    benchmark::DoNotOptimize(t.num_ands());
  }
}
BENCHMARK(BM_RewriteDepth);

void BM_Rewrite3(benchmark::State& state) {
  const aig::Aig& g = design("EX02");
  for (auto _ : state) {
    auto t = transforms::rewrite_k3(g);
    benchmark::DoNotOptimize(t.num_ands());
  }
}
BENCHMARK(BM_Rewrite3);

void BM_Refactor(benchmark::State& state) {
  const aig::Aig& g = design("EX02");
  for (auto _ : state) {
    auto t = transforms::refactor(g);
    benchmark::DoNotOptimize(t.num_ands());
  }
}
BENCHMARK(BM_Refactor);

void BM_Resub(benchmark::State& state) {
  const aig::Aig& g = design("EX02");
  for (auto _ : state) {
    auto t = transforms::resub(g);
    benchmark::DoNotOptimize(t.num_ands());
  }
}
BENCHMARK(BM_Resub);

void BM_Simulation64(benchmark::State& state) {
  const aig::Aig& g = design("EX02");
  Rng rng(3);
  std::vector<std::uint64_t> words(g.num_inputs());
  for (auto& w : words) w = rng.next();
  for (auto _ : state) {
    auto out = aig::simulate_words(g, words);
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Simulation64);

void BM_EquivalenceCheck(benchmark::State& state) {
  const aig::Aig& g = design("EX68");
  const aig::Aig t = transforms::rewrite(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aig::equivalent(g, t));
  }
}
BENCHMARK(BM_EquivalenceCheck);

}  // namespace

BENCHMARK_MAIN();
