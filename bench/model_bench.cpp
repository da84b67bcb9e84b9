// Model container + inference-kernel bench: gates the two perf claims of
// the .gbdt2 subsystem (DESIGN.md §13) and re-proves the correctness
// contract on the bench-sized model:
//
//   1. load: mmap'ed .gbdt2 load is >= 10x faster than parsing the same
//      ensemble from the text .gbdt format,
//   2. batch: the SoA batched predict_all is >= 4x faster than the scalar
//      per-row walk over the same matrix, and
//   3. identity: v2-loaded predictions at quant=none are bit-identical to
//      the text-loaded model's, and batched == scalar exactly.
//
// Also reports the measured fp16/int16 quantization error (normalized to
// the prediction spread) so the error model in DESIGN.md stays anchored to
// a number CI reproduces.  Emits BENCH_model.json; run with --smoke for a
// CI-sized workload.  Timings are min-of-reps to shed scheduler noise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/temp_dir.hpp"
#include "ml/dataset.hpp"
#include "ml/gbdt.hpp"
#include "ml/model_v2.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace aigml;

namespace {

namespace fs = std::filesystem;

ml::Dataset synthetic(std::size_t rows, std::size_t width, std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < width; ++i) names.push_back("f" + std::to_string(i));
  ml::Dataset d(names);
  Rng rng(seed);
  std::vector<double> row(width);
  for (std::size_t i = 0; i < rows; ++i) {
    for (double& v : row) v = rng.next_double(-10.0, 10.0);
    const double label = 3.0 * row[0] - 2.0 * row[1] + row[2] * row[3] +
                         0.5 * std::abs(row[4]) + 0.25 * static_cast<double>(rng.next_below(8));
    d.append(row, label, "bench");
  }
  return d;
}

std::vector<double> random_matrix(std::uint64_t seed, std::size_t rows, std::size_t width) {
  Rng rng(seed);
  std::vector<double> values(rows * width);
  for (double& v : values) v = rng.next_double(-12.0, 12.0);
  return values;
}

template <typename Fn>
double min_of_reps(int reps, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Timer t;
    fn();
    best = rep == 0 ? t.elapsed_s() : std::min(best, t.elapsed_s());
  }
  return best;
}

struct QuantError {
  double max_norm = 0.0;
  double rmse_norm = 0.0;
};

QuantError quant_error(const std::vector<double>& ref, const std::vector<double>& got) {
  double lo = ref[0], hi = ref[0], worst = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    lo = std::min(lo, ref[i]);
    hi = std::max(hi, ref[i]);
    const double err = std::abs(got[i] - ref[i]);
    worst = std::max(worst, err);
    sum_sq += err * err;
  }
  const double spread = hi - lo > 0.0 ? hi - lo : 1.0;
  QuantError e;
  e.max_norm = worst / spread;
  e.rmse_norm = std::sqrt(sum_sq / static_cast<double>(ref.size())) / spread;
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_model.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  // A serving-shaped ensemble: enough trees/depth that the text parser does
  // real work and the batched kernel has a forest worth streaming.
  const std::size_t width = 22;
  ml::GbdtParams params;
  params.num_trees = smoke ? 150 : 400;
  params.max_depth = 6;
  const ml::Dataset data = synthetic(smoke ? 800 : 2000, width, 0xB0);
  std::printf("model bench: training %d trees (depth %d) on %zu rows...\n", params.num_trees,
              params.max_depth, data.num_rows());
  const ml::GbdtModel trained = ml::GbdtModel::train(data, params);
  std::printf("model bench: %zu trees, %zu flat nodes\n", trained.num_trees(),
              trained.forest_nodes().size());

  const bench::TempDir model_dir("aigml_model_bench");
  const fs::path& dir = model_dir.path();
  const fs::path text_path = dir / "m.gbdt";
  const fs::path v2_path = dir / "m.gbdt2";
  trained.save(text_path);
  trained.save_v2(v2_path);
  const auto text_bytes = fs::file_size(text_path);
  const auto v2_bytes = fs::file_size(v2_path);

  // ---- load: text parse vs mmap ---------------------------------------------
  const int load_reps = smoke ? 5 : 10;
  const double text_load_s =
      min_of_reps(load_reps, [&] { (void)ml::GbdtModel::load(text_path); });
  const double v2_load_s =
      min_of_reps(load_reps, [&] { (void)ml::GbdtModel::load_v2(v2_path); });
  const double load_speedup = v2_load_s > 0.0 ? text_load_s / v2_load_s : 0.0;
  std::printf("load: text %.2f ms (%zu KB), v2 %.2f ms (%zu KB) -> %.1fx\n",
              1e3 * text_load_s, static_cast<std::size_t>(text_bytes) / 1024,
              1e3 * v2_load_s, static_cast<std::size_t>(v2_bytes) / 1024, load_speedup);

  // ---- identity: text == v2 at quant=none, batched == scalar -----------------
  const ml::GbdtModel from_text = ml::GbdtModel::load(text_path);
  const ml::GbdtModel from_v2 = ml::GbdtModel::load_v2(v2_path);
  const std::size_t rows = smoke ? 4096 : 16384;
  const auto values = random_matrix(0xB1, rows, width);
  const auto batched = from_v2.predict_all(values, rows);
  std::vector<double> scalar(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    scalar[r] = from_text.predict(std::span<const double>(values.data() + r * width, width));
  }
  const bool identical = batched == scalar;
  std::printf("identity: v2 batched vs text scalar over %zu rows -> %s\n", rows,
              identical ? "BIT-IDENTICAL" : "MISMATCH");

  // ---- batch: SoA kernel vs scalar walk (same mapped model both legs) --------
  const int predict_reps = smoke ? 3 : 5;
  const double batched_s =
      min_of_reps(predict_reps, [&] { (void)from_v2.predict_all(values, rows); });
  const double scalar_s = min_of_reps(predict_reps, [&] {
    double sink = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      sink += from_v2.predict(std::span<const double>(values.data() + r * width, width));
    }
    if (!std::isfinite(sink)) std::abort();  // keep the loop observable
  });
  const double batch_speedup = batched_s > 0.0 ? scalar_s / batched_s : 0.0;
  std::printf("batch: scalar %.1f ms, batched %.1f ms over %zu rows -> %.2fx "
              "(%.0f ns/row batched)\n",
              1e3 * scalar_s, 1e3 * batched_s, rows, batch_speedup,
              1e9 * batched_s / static_cast<double>(rows));

  // ---- quantization error (informational; gated loosely) ---------------------
  const ml::GbdtModel fp16 = ml::GbdtModel::load_v2(v2_path, ml::QuantMode::kFp16);
  const ml::GbdtModel int16 = ml::GbdtModel::load_v2(v2_path, ml::QuantMode::kInt16);
  const QuantError fp16_err = quant_error(batched, fp16.predict_all(values, rows));
  const QuantError int16_err = quant_error(batched, int16.predict_all(values, rows));
  std::printf("quant: fp16 max %.4f%% / rmse %.4f%%, int16 max %.4f%% / rmse %.4f%% "
              "(of prediction spread)\n",
              100.0 * fp16_err.max_norm, 100.0 * fp16_err.rmse_norm,
              100.0 * int16_err.max_norm, 100.0 * int16_err.rmse_norm);
  const bool quant_sane = fp16_err.max_norm < 0.05 && int16_err.max_norm < 0.05;

  const bool load_ok = load_speedup >= 10.0;
  const bool batch_ok = batch_speedup >= 4.0;
  std::printf("gate: identity %s, load %.1fx (need >= 10x) %s, batch %.2fx (need >= 4x) %s, "
              "quant error %s -> %s\n",
              identical ? "PASS" : "FAIL", load_speedup, load_ok ? "PASS" : "FAIL",
              batch_speedup, batch_ok ? "PASS" : "FAIL", quant_sane ? "PASS" : "FAIL",
              identical && load_ok && batch_ok && quant_sane ? "PASS" : "FAIL");

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"model\",\n  \"trees\": " << trained.num_trees()
      << ",\n  \"nodes\": " << trained.forest_nodes().size() << ",\n  \"rows\": " << rows
      << ",\n  \"text_bytes\": " << text_bytes << ",\n  \"v2_bytes\": " << v2_bytes
      << ",\n  \"text_load_ms\": " << 1e3 * text_load_s
      << ",\n  \"v2_load_ms\": " << 1e3 * v2_load_s
      << ",\n  \"load_speedup\": " << load_speedup
      << ",\n  \"scalar_predict_ms\": " << 1e3 * scalar_s
      << ",\n  \"batched_predict_ms\": " << 1e3 * batched_s
      << ",\n  \"batch_speedup\": " << batch_speedup
      << ",\n  \"batched_ns_per_row\": " << 1e9 * batched_s / static_cast<double>(rows)
      << ",\n  \"fp16_max_err_norm\": " << fp16_err.max_norm
      << ",\n  \"fp16_rmse_norm\": " << fp16_err.rmse_norm
      << ",\n  \"int16_max_err_norm\": " << int16_err.max_norm
      << ",\n  \"int16_rmse_norm\": " << int16_err.rmse_norm
      << ",\n  \"bit_identical\": " << (identical ? "true" : "false") << "\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return identical && load_ok && batch_ok && quant_sane ? 0 : 1;
}
