// High-concurrency serving bench: the PR-7 gate artifact (DESIGN.md §11).
//
// Two legs over the SAME trained model and the SAME query stream, each
// driven by serve::run_loadgen (one event-loop thread multiplexing >= 200
// concurrent connections):
//
//   legacy_threads   serve::PredictServer — thread-per-connection, text
//                    protocol, one outstanding request per connection (the
//                    pre-PR-7 serving shape)
//   event_loop       serve::BatchServer — epoll/poll reactor + slot
//                    scheduler + continuous batching, binary protocol,
//                    pipelined requests per connection
//
// Emits BENCH_server.json.  Exit status enforces the acceptance gates:
// every response from BOTH legs bit-identical to local GbdtModel::predict,
// zero losses, and event_loop throughput >= 3x legacy_threads at >= 200
// concurrent connections.  p50/p90/p99 service latency is reported per leg.
// Run with --smoke for a CI-sized workload (same connection count, fewer
// requests).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "aig/analysis.hpp"
#include "bench/temp_dir.hpp"
#include "features/features.hpp"
#include "gen/circuits.hpp"
#include "ml/gbdt.hpp"
#include "serve/batch_server.hpp"
#include "serve/loadgen.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "transforms/scripts.hpp"
#include "util/rng.hpp"

using namespace aigml;

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_server.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  const std::size_t num_variants = smoke ? 24 : 64;
  const std::size_t connections = 200;  // the gate is defined at >= 200
  const std::size_t legacy_requests = smoke ? 1000 : 4000;
  const std::size_t batch_requests = smoke ? 4000 : 40000;
  const std::size_t batch_pipeline = 16;

  // Feature rows from distinct optimized variants of one design — the query
  // stream both legs replay (request i sends rows[i % rows.size()]).
  const aig::Aig base = gen::multiplier(6);
  const auto& scripts = transforms::script_registry();
  Rng rng(0x5e47e0);
  std::vector<std::vector<double>> rows;
  ml::Dataset data(features::feature_names());
  rows.reserve(num_variants);
  for (std::size_t i = 0; i < num_variants; ++i) {
    const aig::Aig g = scripts.apply(scripts.random_index(rng), base);
    const features::FeatureVector fv = features::extract(g);
    rows.emplace_back(fv.begin(), fv.end());
    data.append(fv, static_cast<double>(aig::aig_level(g)), "bench");
  }

  // Repo-scale forest (DESIGN.md §4) so per-request predict cost is honest.
  ml::GbdtParams params;
  params.num_trees = smoke ? 240 : 400;
  params.max_depth = 5;
  const ml::GbdtModel model = ml::GbdtModel::train(data, params);
  const bench::TempDir model_tmp("aigml_server_bench_models");
  const std::filesystem::path& model_dir = model_tmp.path();
  model.save(model_dir / "delay.gbdt");

  // Bit-identity oracle: local single-call predict per variant.
  std::vector<double> reference;
  reference.reserve(num_variants);
  for (const std::vector<double>& row : rows) reference.push_back(model.predict(row));

  struct Leg {
    std::string mode;
    std::size_t requests = 0;
    std::size_t pipeline = 1;
    bool binary = false;
    serve::LoadGenResult result;
    bool identical = true;
  };
  std::vector<Leg> legs;

  auto drive = [&](const std::string& mode, std::uint16_t port, std::size_t requests,
                   std::size_t pipeline, bool binary) {
    serve::LoadGenParams lg;
    lg.port = port;
    lg.connections = connections;
    lg.requests = requests;
    lg.pipeline = pipeline;
    lg.binary = binary;
    lg.model = "delay";
    lg.rows = rows;
    Leg leg{mode, requests, pipeline, binary, serve::run_loadgen(lg), true};
    for (std::size_t i = 0; i < requests; ++i) {
      if (leg.result.values[i] != reference[i % num_variants]) leg.identical = false;
    }
    std::printf("%-14s %6zu conns  %7zu reqs  %8.3f s  %10.1f req/s  p99 %7.0f us  %s\n",
                mode.c_str(), connections, requests, leg.result.seconds,
                leg.result.throughput_rps, leg.result.latency.percentile_us(99.0),
                leg.identical ? "identical" : "MISMATCH");
    legs.push_back(std::move(leg));
  };

  serve::ModelRegistry registry(model_dir);
  serve::PredictService service(registry);

  {  // Leg 1: thread-per-connection text server, one outstanding per conn.
    serve::ServerParams sp;
    sp.max_connections = 0;  // the bench wants contention, not accept sheds
    serve::PredictServer server(registry, service, sp);
    server.start();
    drive("legacy_threads", server.port(), legacy_requests, 1, false);
    server.stop();
  }

  {  // Leg 2: continuous-batching event loop, binary protocol, pipelined.
    serve::BatchServer server(registry, service);
    server.start();
    drive("event_loop", server.port(), batch_requests, batch_pipeline, true);
    server.stop();
  }

  const Leg& legacy = legs[0];
  const Leg& batch = legs[1];
  const double speedup = legacy.result.throughput_rps > 0.0
                             ? batch.result.throughput_rps / legacy.result.throughput_rps
                             : 0.0;
  const bool identical = legacy.identical && batch.identical;
  const bool lossless = legacy.result.ok == legacy.requests && batch.result.ok == batch.requests;
  std::printf("event_loop vs legacy_threads: %.1fx\n", speedup);

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"server\",\n  \"design\": \"mult6\",\n  \"connections\": "
      << connections << ",\n  \"variants\": " << num_variants
      << ",\n  \"model_trees\": " << model.num_trees()
      << ",\n  \"identical_to_local_predict\": " << (identical ? "true" : "false")
      << ",\n  \"lossless\": " << (lossless ? "true" : "false")
      << ",\n  \"speedup_event_loop_vs_legacy\": " << speedup << ",\n  \"legs\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const Leg& leg = legs[i];
    const LatencyHistogram& h = leg.result.latency;
    out << "    {\"mode\": \"" << leg.mode << "\", \"protocol\": \""
        << (leg.binary ? "binary" : "text") << "\", \"requests\": " << leg.requests
        << ", \"pipeline\": " << leg.pipeline << ", \"ok\": " << leg.result.ok
        << ", \"busy\": " << leg.result.busy << ", \"errors\": " << leg.result.errors
        << ", \"seconds\": " << leg.result.seconds
        << ", \"throughput_rps\": " << leg.result.throughput_rps
        << ", \"latency_us\": {\"mean\": " << h.mean_us() << ", \"p50\": " << h.percentile_us(50.0)
        << ", \"p90\": " << h.percentile_us(90.0) << ", \"p99\": " << h.percentile_us(99.0)
        << ", \"max\": " << h.max_us() << "}}" << (i + 1 < legs.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: served predictions differ from local GbdtModel::predict\n");
    return 1;
  }
  if (!lossless) {
    std::fprintf(stderr, "FAIL: lost requests (legacy ok=%zu/%zu, event_loop ok=%zu/%zu)\n",
                 legacy.result.ok, legacy.requests, batch.result.ok, batch.requests);
    return 1;
  }
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: event_loop speedup %.1fx < 3x over legacy_threads\n", speedup);
    return 1;
  }
  return 0;
}
