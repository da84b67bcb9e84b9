// Serving throughput bench: predictions/second of the three ways this repo
// can consume a trained GBDT —
//
//   reload_per_call     the pre-serve baseline: GbdtModel::load from disk +
//                       extract + predict for every query (what `aigml
//                       predict` cost per AIG before the serving layer)
//   service_sequential  in-process PredictService, one outstanding request
//                       (pays the micro-batch coalescing window per call)
//   service_batched     concurrent clients submitting futures in bulk —
//                       the intended serving shape
//
// Emits BENCH_serve.json so the serving-throughput trajectory is tracked
// across PRs alongside BENCH_datagen.json.  Exit status enforces the two
// serve acceptance invariants: batched results bit-identical to single-call
// GbdtModel::predict, and batched throughput >= 5x reload_per_call.
// Run with --smoke for a CI-sized workload.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "aig/analysis.hpp"
#include "bench/temp_dir.hpp"
#include "features/features.hpp"
#include "gen/circuits.hpp"
#include "ml/gbdt.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "transforms/scripts.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace aigml;

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  const std::size_t num_variants = smoke ? 24 : 64;
  const std::size_t num_queries = smoke ? 120 : 480;
  const int num_clients = 4;

  // Distinct AIG variants of one design (random optimization scripts), the
  // query stream every leg replays in the same order.
  const aig::Aig base = gen::multiplier(6);
  const auto& registry_scripts = transforms::script_registry();
  Rng rng(0x5e47e0);
  std::vector<aig::Aig> variants;
  variants.reserve(num_variants);
  for (std::size_t i = 0; i < num_variants; ++i) {
    variants.push_back(registry_scripts.apply(registry_scripts.random_index(rng), base));
  }

  // A small delay model trained on the variants themselves (label: level as
  // a stand-in — throughput does not depend on label quality).
  ml::Dataset data(features::feature_names());
  for (const aig::Aig& g : variants) {
    data.append(features::extract(g), static_cast<double>(aig::aig_level(g)), "bench");
  }
  // Repo-scale tree count (DESIGN.md §4): the reload baseline must pay a
  // realistic model-parse cost, and the service legs a realistic forest.
  ml::GbdtParams params;
  params.num_trees = smoke ? 240 : 400;
  params.max_depth = 5;
  const ml::GbdtModel model = ml::GbdtModel::train(data, params);
  const bench::TempDir model_tmp("aigml_serve_bench_models");
  const std::filesystem::path& model_dir = model_tmp.path();
  const std::filesystem::path model_path = model_dir / "delay.gbdt";
  model.save(model_path);

  // Reference answers: one-at-a-time GbdtModel::predict (the bit-identity
  // oracle for every serving leg).
  std::vector<double> reference;
  reference.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    reference.push_back(model.predict(features::extract(variants[q % num_variants])));
  }

  struct Run {
    std::string mode;
    double seconds = 0.0;
    double preds_per_sec = 0.0;
    bool identical = true;
  };
  std::vector<Run> runs;
  auto record = [&](const std::string& mode, double seconds,
                    const std::vector<double>& results) {
    Run run{mode, seconds, static_cast<double>(num_queries) / seconds, true};
    for (std::size_t q = 0; q < num_queries; ++q) {
      if (results[q] != reference[q]) run.identical = false;
    }
    std::printf("%-20s %8.3f s  %10.1f preds/s  %s\n", mode.c_str(), seconds,
                run.preds_per_sec, run.identical ? "identical" : "MISMATCH");
    runs.push_back(run);
  };

  {  // Leg 1: reload the .gbdt from disk for every query.
    std::vector<double> results(num_queries);
    Timer timer;
    for (std::size_t q = 0; q < num_queries; ++q) {
      const ml::GbdtModel fresh = ml::GbdtModel::load(model_path);
      results[q] = fresh.predict(features::extract(variants[q % num_variants]));
    }
    record("reload_per_call", timer.elapsed_s(), results);
  }

  serve::ModelRegistry registry(model_dir);
  serve::PredictService service(registry);

  {  // Leg 2: in-process service, one outstanding request at a time.
    std::vector<double> results(num_queries);
    Timer timer;
    for (std::size_t q = 0; q < num_queries; ++q) {
      results[q] = service.predict("delay", variants[q % num_variants]);
    }
    record("service_sequential", timer.elapsed_s(), results);
  }

  {  // Leg 3: concurrent clients, futures submitted in bulk.
    std::vector<double> results(num_queries);
    Timer timer;
    std::vector<std::thread> clients;
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::pair<std::size_t, std::future<double>>> futures;
        for (std::size_t q = static_cast<std::size_t>(c); q < num_queries;
             q += static_cast<std::size_t>(num_clients)) {
          futures.emplace_back(q, service.submit("delay", variants[q % num_variants]));
        }
        for (auto& [q, future] : futures) results[q] = future.get();
      });
    }
    for (auto& t : clients) t.join();
    record("service_batched", timer.elapsed_s(), results);
  }

  const serve::ServiceStats stats = service.stats();
  const double speedup = runs[2].preds_per_sec / runs[0].preds_per_sec;
  const bool identical = runs[0].identical && runs[1].identical && runs[2].identical;
  std::printf("batched vs reload_per_call: %.1fx  (batches=%llu, max_batch=%llu)\n", speedup,
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.max_batch));

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"serve\",\n  \"design\": \"mult6\",\n  \"queries\": " << num_queries
      << ",\n  \"variants\": " << num_variants << ",\n  \"model_trees\": " << model.num_trees()
      << ",\n  \"clients\": " << num_clients << ",\n  \"batches\": " << stats.batches
      << ",\n  \"max_batch\": " << stats.max_batch
      << ",\n  \"identical_to_single_predict\": " << (identical ? "true" : "false")
      << ",\n  \"speedup_batched_vs_reload\": " << speedup << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << "    {\"mode\": \"" << runs[i].mode << "\", \"seconds\": " << runs[i].seconds
        << ", \"preds_per_sec\": " << runs[i].preds_per_sec << "}"
        << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: batched predictions differ from single-call predict\n");
    return 1;
  }
  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: batched speedup %.1fx < 5x over reload_per_call\n", speedup);
    return 1;
  }
  return 0;
}
