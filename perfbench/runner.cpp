// Benchmark runner for aigml: one run of one workload, measured for a given
// number of seconds, with its outputs checked.  See perfbench/README.md for
// the workloads, the metrics and which layer each per-layer metric stands
// for.  Normally started through perfbench/run.py, which builds it first.
//
//   perfbench_runner --workload opt-ml|opt-gt|serve --seed N --seconds S
//                    --trace 0|1 --workdir DIR --state-dir DIR
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full record (metric sample counts, thread counts, build type, seed).

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aiger.hpp"
#include "aig/analysis.hpp"
#include "aig/cuts.hpp"
#include "aig/dirty.hpp"
#include "aig/sim.hpp"
#include "celllib/library.hpp"
#include "features/features.hpp"
#include "flow/datagen.hpp"
#include "flow/experiment.hpp"
#include "gen/designs.hpp"
#include "mapper/mapper.hpp"
#include "ml/gbdt.hpp"
#include "opt/cost.hpp"
#include "opt/sa.hpp"
#include "serve/batch_server.hpp"
#include "serve/bin_client.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "sta/sta.hpp"
#include "trace.hpp"
#include "transforms/scripts.hpp"
#include "util/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace aigml;
using perfbench::now_ns;
using perfbench::SpanLog;

namespace {

// ---- fixed workload parameters ----------------------------------------------
// The design, search and training sizes are fixed, so every run of a seed
// produces the same outputs.  Only the seed varies between runs.

constexpr const char* kDesign = "EX54";  // largest unseen test design (2,215 ANDs)
constexpr int kSaIterations = 25;        // one SA run (fixed seed and budget)
constexpr int kMinSaRuns = 8;            // opt-*: gt_area_um2 and the checks use these
constexpr int kServeSearches = 4;        // serve: SA runs whose visited states are served
constexpr int kServeSearchIterations = 10;
constexpr int kVariantsPerDesign = 50;   // datagen on the 4 train designs: 200 rows
constexpr int kSetupReps = 3;            // setup_s is the median of these ...
constexpr int kSetupRepsBuildOnly = 51;  // ... or of these where setup only builds EX54
constexpr int kClientConnections = 4;    // serve: 3 FEATURES + 1 PREDICT-with-graph
constexpr int kGraphConnections = 1;
// The PREDICT-with-graph connection waits this long before each request, as
// a client preparing its next graph would.  The server decodes AIGER on its
// event-loop thread, so with no wait the graph class holds the loop ~70% of
// the time and the FEATURES median sits on the edge between unblocked and
// blocked requests, where it swung by a third between runs.
constexpr auto kGraphThink = std::chrono::milliseconds(2);
// PredictService's extraction pool width.  With more than one thread,
// ThreadPool::parallel_for deadlocks under back-to-back small jobs, which
// stalls the service within seconds under this traffic (see README.md).  With
// one PREDICT-with-graph connection a batch holds at most one graph, so the
// pool would only copy feature rows: one thread does the same work.
constexpr int kServiceThreads = 1;
constexpr int kWatchdogGraceS = 5;       // serve: deadline after the timed phase
constexpr double kWindowS = 2.0;         // serve: window of the per-window medians
constexpr double kWarmupS = 1.0;         // serve: traffic at the end of each set-up
constexpr std::size_t kProbeGraphs = 6;  // traced: visited graphs re-timed per layer
constexpr std::size_t kMaxTraceEvents = 200000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir;
  fs::path state_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload opt-ml|opt-gt|serve "
               "--seed N --seconds S --trace 0|1 --workdir DIR --state-dir DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--workdir") {
      a.workdir = value;
    } else if (key == "--state-dir") {
      a.state_dir = value;
    } else {
      usage("unknown flag " + key);
    }
  }
  if (a.workload != "opt-ml" && a.workload != "opt-gt" && a.workload != "serve") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.workdir.empty() || a.state_dir.empty()) usage("--workdir and --state-dir are required");
  return a;
}

// ---- statistics and the report ----------------------------------------------

double ms_between(std::int64_t t0, std::int64_t t1) { return static_cast<double>(t1 - t0) * 1e-6; }

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t n = 0;  ///< samples behind the value
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> record_only;
  std::vector<std::string> problems;

  void add(std::string name, std::string unit, double value, std::size_t n) {
    metrics.push_back(Metric{std::move(name), std::move(unit), value, n});
  }
  /// A metric printed in the record line only, not in the result object.
  void add_record_only(std::string name, std::string unit, double value, std::size_t n) {
    record_only.push_back(Metric{std::move(name), std::move(unit), value, n});
  }
  void fail_check(const std::string& what) {
    correct = false;
    problems.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

void print_outcome(const Args& args, const Outcome& out) {
  std::ostringstream rec;
  rec.precision(17);
  rec << "{\"record\":{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"seconds\":" << args.seconds << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"threads\":" << default_num_threads()
      << ",\"client_threads\":" << (args.workload == "serve" ? kClientConnections : 0)
      << ",\"service_threads\":" << kServiceThreads
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"design\":\"" << kDesign
      << "\",\"sa_iterations\":" << kSaIterations << ",\"min_sa_runs\":" << kMinSaRuns
      << ",\"problems\":[";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    rec << (i ? "," : "") << '"' << json_escape(out.problems[i]) << '"';
  }
  rec << "]},\"metrics\":{";
  std::ostringstream res;
  res.precision(17);
  res << "{\"correct\":" << (out.correct ? "true" : "false") << ",\"attempted\":" << out.attempted
      << ",\"failed\":" << out.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    res << (i ? "," : "") << '"' << m.name << "\":{\"value\":" << m.value << ",\"unit\":\""
        << m.unit << "\"}";
  }
  std::vector<Metric> all = out.metrics;
  all.insert(all.end(), out.record_only.begin(), out.record_only.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    rec << (i ? "," : "") << '"' << all[i].name << "\":{\"value\":" << all[i].value
        << ",\"unit\":\"" << all[i].unit << "\",\"n\":" << all[i].n << '}';
  }
  rec << "}}";
  res << "}}";
  std::printf("%s\n%s\n", rec.str().c_str(), res.str().c_str());
  std::fflush(stdout);
}

// ---- training ------------------------------------------------------------------

struct Trained {
  ml::GbdtModel delay;
  ml::GbdtModel area;
  double datagen_s = 0.0;
  double train_s = 0.0;
  std::size_t rows = 0;
};

/// Labels structural variants of the four training designs by map+STA and
/// trains the delay and area models on them.  The dataset seed is the
/// library's default, not the run's: every run trains the same models, so the
/// seed varies only the searches.
Trained train_models() {
  const cell::Library& lib = cell::mini_sky130();
  flow::ExperimentData data;
  data.delay_train = ml::Dataset(features::feature_names());
  data.area_train = ml::Dataset(features::feature_names());
  Trained t;
  const std::int64_t t0 = now_ns();
  for (const std::string& name : gen::training_designs()) {
    flow::DataGenParams params;
    params.num_variants = kVariantsPerDesign;
    const flow::GeneratedData gd = flow::generate_dataset(gen::build_design(name), name, lib, params);
    data.delay_train.merge(gd.delay);
    data.area_train.merge(gd.area);
  }
  const std::int64_t t1 = now_ns();
  flow::TrainedModels m = flow::train_models(data, flow::default_gbdt_params());
  t.datagen_s = ms_between(t0, t1) * 1e-3;
  t.train_s = ms_between(t1, now_ns()) * 1e-3;
  t.delay = std::move(m.delay);
  t.area = std::move(m.area);
  t.rows = data.delay_train.num_rows();
  return t;
}

// ---- search instrumentation ----------------------------------------------------

/// A visited state kept for re-timing single layers: the graph a move started
/// from and the candidate it produced.
struct Visited {
  aig::Aig parent;
  aig::Aig candidate;
};

/// Observer plus evaluator decorator around one SA run.  Untraced, it keeps
/// the per-iteration and per-oracle-call latencies.  With a span log it also
/// records, per iteration, the transform, eval and accept spans (commit and
/// rollback nested in accept); iteration ids continue across the SA runs it
/// observes.  With `keep_all` it copies every visited candidate; with
/// `sample_every` > 0 it keeps the (parent, candidate) pair of every
/// `sample_every`-th iteration, up to kProbeGraphs pairs.
class SearchProbe final : public opt::Observer {
 public:
  SearchProbe(SpanLog* log, bool keep_all, int sample_every)
      : log_(log), keep_all_(keep_all), sample_every_(sample_every) {}

  std::vector<double> iter_ms;
  std::vector<double> eval_ms;  ///< oracle calls inside iterations
  std::uint64_t accepted = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t delta_calls = 0;
  double ands_sum = 0.0;
  std::vector<aig::Aig> candidates;  ///< every visited candidate (keep_all)
  std::vector<Visited> samples;

  void on_start(const aig::Aig& initial, const opt::QualityEval&, double) override {
    if (sample_every_ > 0) current_ = initial;
    iter_start_ = now_ns();
    in_loop_ = true;
  }

  void on_candidate(int iteration, const aig::Aig& candidate, const opt::QualityEval&) override {
    ands_sum += static_cast<double>(candidate.num_ands());
    if (!keep_all_ && sample_every_ <= 0) return;
    const std::int64_t t0 = now_ns();
    if (keep_all_) candidates.push_back(candidate);
    if (sample_every_ > 0) {
      pending_ = candidate;
      if ((iteration + 1) % sample_every_ == 0 && samples.size() < kProbeGraphs) {
        samples.push_back(Visited{current_, candidate});
      }
    }
    if (log_ != nullptr) log_->add("bench.capture", op(), t0, now_ns(), accept_span_);
  }

  void on_iteration(int, const opt::IterationRecord& record) override {
    const std::int64_t t = now_ns();
    iter_ms.push_back(ms_between(iter_start_, t));
    if (record.accepted) {
      ++accepted;
      if (sample_every_ > 0) current_ = std::move(pending_);
    }
    if (log_ != nullptr && root_ >= 0) {
      close_at(accept_span_, t);
      close_at(root_, t);
    }
    root_ = accept_span_ = -1;
    ++iteration_;
    iter_start_ = now_ns();
  }

  void on_finish(const opt::OptResult&) override { in_loop_ = false; }

  // Evaluator-side hooks (called by TimedEvaluator).
  std::int32_t eval_begin(bool delta) {
    ++oracle_calls;
    if (delta) ++delta_calls;
    eval_t0_ = now_ns();
    if (log_ == nullptr) return -1;
    if (!in_loop_) return log_->add("opt.bind", 0, eval_t0_, 0);
    root_ = log_->add("opt.iteration", op(), iter_start_, 0);
    log_->add("transforms.script", op(), iter_start_, eval_t0_, root_);
    return log_->add("opt.eval", op(), eval_t0_, 0, root_);
  }
  void eval_end(std::int32_t span) {
    const std::int64_t t = now_ns();
    if (in_loop_) eval_ms.push_back(ms_between(eval_t0_, t));
    if (log_ == nullptr) return;
    close_at(span, t);
    if (in_loop_) accept_span_ = log_->add("opt.accept", op(), t, 0, root_);
  }
  std::int32_t resolve_begin(bool commit) {
    if (log_ == nullptr) return -1;
    return log_->open(commit ? "opt.commit" : "opt.rollback", op(), accept_span_);
  }
  void resolve_end(std::int32_t span) {
    if (log_ != nullptr) log_->close(span);
  }

 private:
  [[nodiscard]] std::uint64_t op() const { return iteration_ + 1; }
  void close_at(std::int32_t span, std::int64_t t) {
    if (span >= 0) log_->close_at(span, t);
  }

  SpanLog* log_;
  bool keep_all_;
  int sample_every_;
  bool in_loop_ = false;
  std::uint64_t iteration_ = 0;
  std::int64_t iter_start_ = 0;
  std::int64_t eval_t0_ = 0;
  std::int32_t root_ = -1;
  std::int32_t accept_span_ = -1;
  aig::Aig current_;
  aig::Aig pending_;
};

/// Forwards every CostEvaluator entry point to `inner` and reports each call
/// to the probe, so oracle time is measured from outside the library.
class TimedEvaluator final : public opt::CostEvaluator {
 public:
  TimedEvaluator(opt::CostEvaluator& inner, SearchProbe& probe) : inner_(inner), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool supports_incremental() const noexcept override {
    return inner_.supports_incremental();
  }

 protected:
  opt::QualityEval evaluate_impl(const aig::Aig& g) override {
    const std::int32_t s = probe_.eval_begin(false);
    const opt::QualityEval q = inner_.evaluate(g);
    probe_.eval_end(s);
    return q;
  }
  opt::QualityEval bind_impl(const aig::Aig& g) override {
    const std::int32_t s = probe_.eval_begin(false);
    const opt::QualityEval q = inner_.bind(g);
    probe_.eval_end(s);
    return q;
  }
  opt::QualityEval evaluate_delta_impl(const aig::Aig& g, const aig::DirtyRegion& d) override {
    const std::int32_t s = probe_.eval_begin(true);
    const opt::QualityEval q = inner_.evaluate_delta(g, d);
    probe_.eval_end(s);
    return q;
  }
  void commit_impl() override {
    const std::int32_t s = probe_.resolve_begin(true);
    inner_.commit_move();
    probe_.resolve_end(s);
  }
  void rollback_impl() override {
    const std::int32_t s = probe_.resolve_begin(false);
    inner_.rollback_move();
    probe_.resolve_end(s);
  }

 private:
  opt::CostEvaluator& inner_;
  SearchProbe& probe_;
};

/// The oracle of one search: ML models trained in setup, or map+STA.
std::unique_ptr<opt::CostEvaluator> make_oracle(const Trained* models) {
  if (models != nullptr) return std::make_unique<opt::MlCost>(models->delay, models->area);
  return std::make_unique<opt::GroundTruthCost>(cell::mini_sky130());
}

struct SearchRun {
  opt::OptResult result;
  double wall_s = 0.0;
};

/// One SA run: fixed seed and iteration budget, windows=0, no learning.
SearchRun run_search(const aig::Aig& initial, const Trained* models, std::uint64_t seed,
                     int iterations, SearchProbe& probe) {
  opt::SaParams params;
  params.seed = seed;
  params.iterations = iterations;
  const std::unique_ptr<opt::CostEvaluator> oracle = make_oracle(models);
  TimedEvaluator evaluator(*oracle, probe);
  opt::StopCondition stop;
  stop.max_iterations = iterations;
  const std::int64_t t0 = now_ns();
  SearchRun run;
  run.result = opt::SaStrategy(params).run(initial, evaluator, stop, &probe);
  run.wall_s = ms_between(t0, now_ns()) * 1e-3;
  return run;
}

// ---- output checks -------------------------------------------------------------

struct Quality {
  double delay_ps = 0.0;
  double area_um2 = 0.0;
  std::uint64_t hash = 0;
};

std::string quality_string(const Quality& q) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "delay_ps=%.17g area_um2=%.17g hash=%016llx", q.delay_ps,
                q.area_um2, static_cast<unsigned long long>(q.hash));
  return buf;
}

/// Ground truth of each SA run's best AIG (map+STA), after checking that it
/// is equivalent to the initial design; returns the mean delay and area.
/// Every run of one workload and seed must reach the same best AIGs: the
/// first run in a checkout records them under the state directory, later
/// runs compare and print both values on a mismatch.
Quality check_bests(const Args& args, const aig::Aig& initial, const std::vector<aig::Aig>& bests,
                    Outcome& out) {
  const cell::Library& lib = cell::mini_sky130();
  Quality mean;
  std::vector<std::string> mine;
  for (const aig::Aig& best : bests) {
    if (!aig::equivalent(initial, best)) out.fail_check("a best AIG is not equivalent to the design");
    const sta::StaResult r = sta::run_sta(map::map_to_cells(best, lib), lib);
    const Quality q{r.max_delay_ps, r.total_area_um2, best.structural_hash()};
    mean.delay_ps += q.delay_ps / static_cast<double>(bests.size());
    mean.area_um2 += q.area_um2 / static_cast<double>(bests.size());
    mean.hash = mean.hash * 1099511628211ULL ^ q.hash;
    mine.push_back(quality_string(q));
  }
  const fs::path dir = args.state_dir / "golden";
  fs::create_directories(dir);
  const fs::path file = dir / (args.workload + "-" + std::to_string(args.seed) + ".txt");
  std::ifstream in(file);
  std::vector<std::string> theirs;
  for (std::string line; in && std::getline(in, line);) theirs.push_back(line);
  if (theirs.empty()) {
    const fs::path tmp = file.string() + ".tmp";
    {
      std::ofstream f(tmp);
      for (const std::string& line : mine) f << line << '\n';
    }
    fs::rename(tmp, file);
  } else if (theirs != mine) {
    for (std::size_t i = 0; i < std::max(theirs.size(), mine.size()); ++i) {
      const std::string a = i < theirs.size() ? theirs[i] : "(none)";
      const std::string b = i < mine.size() ? mine[i] : "(none)";
      if (a != b) {
        out.fail_check("SA run " + std::to_string(i) + " of this seed reached another best AIG " +
                       "than an earlier run: earlier " + a + ", now " + b);
      }
    }
  }
  return mean;
}

// ---- serving stack -------------------------------------------------------------

/// Registry over the run's model directory, the batching service and the
/// event-loop server in front of it, on the server's default backend.
struct ServeStack {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::PredictService> service;
  std::unique_ptr<serve::BatchServer> server;

  explicit ServeStack(const fs::path& model_dir) : registry(model_dir) {
    if (registry.size() != 2) throw std::runtime_error("model registry did not load both models");
    serve::ServiceParams params;
    params.num_threads = kServiceThreads;
    service = std::make_unique<serve::PredictService>(registry, params);
    server = std::make_unique<serve::BatchServer>(registry, *service);
    server->start();
  }
  ~ServeStack() {
    if (server) server->stop();
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
};

fs::path save_models(const Trained& t, const fs::path& dir) {
  fs::create_directories(dir);
  t.delay.save(dir / "delay.gbdt2");
  t.area.save(dir / "area.gbdt2");
  return dir;
}

std::unique_ptr<serve::BinClient> connect(const ServeStack& stack) {
  serve::ClientOptions opts;
  opts.connect_timeout_ms = 5000;
  return std::make_unique<serve::BinClient>("127.0.0.1", stack.server->port(), opts);
}

// ---- traced mode: the per-layer probe -----------------------------------------

template <typename Fn>
double time_ms(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return ms_between(t0, now_ns());
}

/// What the probe needs from a workload: visited states, models, and a
/// serving stack (the workload's own on `serve`).
struct ProbeInputs {
  std::vector<Visited> samples;
  const Trained* models = nullptr;
  ServeStack* stack = nullptr;
  double batch_mean = 0.0;  ///< served batch size; 0 = measure on the probe's service pass
};

std::vector<std::vector<double>> rows_of(const std::vector<aig::Aig>& graphs) {
  std::vector<std::vector<double>> rows;
  rows.reserve(graphs.size());
  for (const aig::Aig& g : graphs) {
    const features::FeatureVector f = features::extract(g);
    rows.emplace_back(f.begin(), f.end());
  }
  return rows;
}

/// Closed loop of `threads` callers over PredictService with no socket; one
/// request outstanding per caller.  Returns per-request microseconds.
std::vector<double> service_pass(serve::PredictService& service,
                                 const std::vector<std::vector<double>>& rows, int threads,
                                 double seconds) {
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(threads));
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); now_ns() < end; ++i) {
        std::promise<double> done;
        std::future<double> f = done.get_future();
        const std::int64_t t0 = now_ns();
        service.submit_features_async(
            (i & 1) ? "area" : "delay", rows[i % rows.size()],
            [&done](double v, std::exception_ptr e) {
              if (e) {
                done.set_exception(e);
              } else {
                done.set_value(v);
              }
            });
        (void)f.get();
        lat[static_cast<std::size_t>(t)].push_back(ms_between(t0, now_ns()) * 1e3);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// Where timed calls leave their results, so the compiler keeps the calls.
volatile double g_sink = 0.0;

/// Re-times each layer's public function on the workload's visited states.
void probe_layers(const ProbeInputs& in, Outcome& out) {
  const cell::Library& lib = cell::mini_sky130();
  std::map<std::string, std::vector<double>> ms;
  std::vector<aig::Aig> graphs;
  for (const Visited& v : in.samples) {
    graphs.push_back(v.candidate);
    for (const std::string& p : transforms::primitive_names()) {
      ms["transforms." + p + "_ms"].push_back(
          time_ms([&] { (void)transforms::apply_primitive(p, v.candidate); }));
    }
    ms["aig.cuts_ms"].push_back(time_ms([&] { aig::CutSets cuts(v.candidate, aig::CutParams{}); }));
    aig::DirtyRegion dirty;
    ms["aig.diff_ms"].push_back(time_ms([&] { dirty = aig::diff_region(v.parent, v.candidate); }));
    aig::AnalysisCache cache(v.parent);
    ms["aig.analysis_ms"].push_back(time_ms([&] { cache.update(v.candidate, dirty); }));
    std::string text;
    ms["aig.write_aag_ms"].push_back(time_ms([&] { text = aig::to_aiger_string(v.candidate); }));
    ms["aig.read_aag_ms"].push_back(time_ms([&] { (void)aig::from_aiger_string(text); }));
    std::optional<net::Netlist> netlist;
    ms["mapper.map_ms"].push_back(time_ms([&] { netlist = map::map_to_cells(v.candidate, lib); }));
    ms["sta.sta_ms"].push_back(time_ms([&] { (void)sta::run_sta(*netlist, lib); }));
    ms["features.extract_ms"].push_back(time_ms([&] { (void)features::extract(v.candidate); }));
  }
  const char* const order[] = {"transforms.b_ms",   "transforms.rw_ms",   "transforms.rwd_ms",
                               "transforms.rw3_ms", "transforms.rf_ms",   "transforms.rfd_ms",
                               "transforms.rs_ms",  "aig.cuts_ms",        "aig.diff_ms",
                               "aig.analysis_ms",   "aig.read_aag_ms",    "aig.write_aag_ms",
                               "mapper.map_ms",     "sta.sta_ms",         "features.extract_ms"};
  for (const char* name : order) out.add(name, "ms", mean(ms[name]), ms[name].size());

  // Inference: scalar predict, then predict_all at the served batch size.
  const std::vector<std::vector<double>> rows = rows_of(graphs);
  const ml::GbdtModel& delay = in.models->delay;
  constexpr int kPredictCalls = 20000;
  double sink = 0.0;
  const double predict_ms = time_ms([&] {
    for (int i = 0; i < kPredictCalls; ++i) sink += delay.predict(rows[static_cast<std::size_t>(i) % rows.size()]);
  });
  out.add("ml.predict_us", "us", predict_ms * 1e3 / kPredictCalls, kPredictCalls);

  // The probe's own service pass (also the batch size on opt-*).
  std::vector<double> service_us = service_pass(*in.stack->service, rows, 3, 1.0);
  const serve::ServiceStats st = in.stack->service->stats();
  const double pass_batch_mean =
      st.batches == 0 ? 1.0 : static_cast<double>(st.completed) / static_cast<double>(st.batches);
  const double batch_mean = in.batch_mean > 0 ? in.batch_mean : pass_batch_mean;
  const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(batch_mean)));
  std::vector<double> matrix;
  for (std::size_t r = 0; r < batch; ++r) {
    const std::vector<double>& row = rows[r % rows.size()];
    matrix.insert(matrix.end(), row.begin(), row.end());
  }
  const int batch_calls = std::max(1, static_cast<int>(20000 / batch));
  const double batch_ms = time_ms([&] {
    for (int i = 0; i < batch_calls; ++i) sink += delay.predict_all(matrix, batch)[0];
  });
  out.add("ml.batch_us_per_row", "us", batch_ms * 1e3 / (batch_calls * static_cast<double>(batch)),
          static_cast<std::size_t>(batch_calls) * batch);
  out.add("ml.train_s", "s", in.models->train_s, 2);
  out.add("flow.datagen_s", "s", in.models->datagen_s, in.models->rows);
  out.add("serve.service_us.p50", "us", quantile(service_us, 0.5), service_us.size());
  out.add("serve.service_us.p90", "us", quantile(service_us, 0.9), service_us.size());
  out.add("serve.batch_mean", "count", batch_mean, st.batches);

  std::unique_ptr<serve::BinClient> client = connect(*in.stack);
  std::vector<double> ping_us;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = now_ns();
    (void)client->ping();
    ping_us.push_back(ms_between(t0, now_ns()) * 1e3);
  }
  client->quit();
  out.add("net.ping_us.p50", "us", quantile(ping_us, 0.5), ping_us.size());
  g_sink = sink;
}

/// Per-layer table from the spans, the self-time coverage check, and the
/// span-derived per-layer metrics of the search.
void report_search_spans(const std::vector<const SpanLog*>& logs, const SearchProbe& probe,
                         Outcome& out) {
  const std::map<std::string, perfbench::LayerTime> lt = perfbench::layer_times(logs);
  const auto get = [&](const char* n) {
    const auto it = lt.find(n);
    return it == lt.end() ? perfbench::LayerTime{} : it->second;
  };
  const perfbench::LayerTime iter = get("opt.iteration");
  double covered = 0.0;
  std::fprintf(stderr, "%-22s %12s %10s %12s %8s\n", "layer", "self_ms", "calls", "self/call_ms",
               "share");
  for (const auto& [name, t] : lt) {
    std::fprintf(stderr, "%-22s %12.3f %10llu %12.4f %7.2f%%\n", name.c_str(), t.self_ms,
                 static_cast<unsigned long long>(t.count), t.count ? t.self_ms / t.count : 0.0,
                 iter.total_ms > 0 ? 100.0 * t.self_ms / iter.total_ms : 0.0);
    if (name != "opt.iteration" && name != "opt.bind") covered += t.self_ms;
  }
  const double coverage = iter.total_ms > 0 ? covered / iter.total_ms : 0.0;
  std::fprintf(stderr, "layers cover %.2f%% of traced iteration time\n", 100.0 * coverage);
  if (std::abs(coverage - 1.0) > 0.05) {
    out.fail_check("layer self times cover " + std::to_string(100.0 * coverage) +
                   "% of traced iteration time (must be within 5%)");
  }
  const perfbench::LayerTime script = get("transforms.script");
  const perfbench::LayerTime eval = get("opt.eval");
  out.add("transforms.script_ms", "ms", script.count ? script.self_ms / script.count : 0.0,
          script.count);
  out.add("opt.eval_ms", "ms", eval.count ? eval.total_ms / eval.count : 0.0, eval.count);
  out.add("opt.transform_frac", "1", iter.total_ms > 0 ? script.self_ms / iter.total_ms : 0.0,
          iter.count);
  out.add("opt.accept_frac", "1",
          probe.iter_ms.empty() ? 0.0
                                : static_cast<double>(probe.accepted) /
                                      static_cast<double>(probe.iter_ms.size()),
          probe.iter_ms.size());
  out.add("opt.delta_frac", "1",
          probe.oracle_calls == 0 ? 0.0
                                  : static_cast<double>(probe.delta_calls) /
                                        static_cast<double>(probe.oracle_calls),
          probe.oracle_calls);
  out.add("aig.ands", "count",
          probe.iter_ms.empty() ? 0.0 : probe.ands_sum / static_cast<double>(probe.iter_ms.size()),
          probe.iter_ms.size());
}

void write_trace(const Args& args, const std::vector<const SpanLog*>& logs) {
  const fs::path dir = args.state_dir / "traces";
  fs::create_directories(dir);
  const fs::path file = dir / (args.workload + "-" + std::to_string(args.seed) + ".json");
  if (!perfbench::write_chrome_trace(file.string(), logs, kMaxTraceEvents)) {
    std::fprintf(stderr, "warning: could not write %s\n", file.string().c_str());
  } else {
    std::fprintf(stderr, "spans written to %s\n", file.string().c_str());
  }
}

// ---- workloads -------------------------------------------------------------------

/// Median of `reps` timed calls of `setup`; the last call's product is kept.
template <typename Fn>
double timed_setup(int reps, Fn&& setup) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) s.push_back(time_ms([&] { setup(r); }) * 1e-3);
  return quantile(s, 0.5);
}

Outcome run_opt(const Args& args) {
  const bool ml = args.workload == "opt-ml";
  Outcome out;
  aig::Aig design;
  std::optional<Trained> models;
  const int reps = args.trace ? 1 : ml ? kSetupReps : kSetupRepsBuildOnly;
  const double setup_s = timed_setup(reps, [&](int) {
    design = gen::build_design(kDesign);
    if (ml) models = train_models();
  });

  // Timed phase: SA runs from seeds derived from the run's seed, one after
  // another, until the time is up and at least kMinSaRuns have run.  Traced
  // runs do every seed twice, untraced and traced, alternating which goes
  // first, so the tracing overhead is measured on the same work.
  SpanLog log;
  SearchProbe untraced(nullptr, false, 0);
  SearchProbe traced(&log, false, kSaIterations);
  std::vector<aig::Aig> bests;  // of the first kMinSaRuns runs
  const Trained* m = models ? &*models : nullptr;
  double wall[2] = {0.0, 0.0};  // untraced, traced
  int seeds = 0;
  try {
    const std::int64_t t0 = now_ns();
    for (; seeds < kMinSaRuns || ms_between(t0, now_ns()) < args.seconds * 1e3; ++seeds) {
      const std::uint64_t seed = opt::derive_seed(args.seed, 100 + static_cast<std::uint64_t>(seeds));
      for (int k = 0; k < (args.trace ? 2 : 1); ++k) {
        const int t = args.trace ? (seeds + k) % 2 : 0;
        SearchRun r = run_search(design, m, seed, kSaIterations, t ? traced : untraced);
        wall[t] += r.wall_s;
        if (k == 0 && seeds < kMinSaRuns) bests.push_back(std::move(r.result.best));
      }
    }
  } catch (const std::exception& e) {
    out.fail_check(std::string("an SA run threw: ") + e.what());
  }
  const Quality q = check_bests(args, design, bests, out);
  std::fprintf(stderr, "%s seed %llu: %d SA runs x %d iterations; mean best of the first %d: %s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), seeds,
               kSaIterations, kMinSaRuns, quality_string(q).c_str());

  // A run that throws or ends at a wrong best AIG fails all its iterations.
  out.attempted = untraced.iter_ms.size() + traced.iter_ms.size();
  if (!out.correct) out.failed = out.attempted;
  if (!args.trace) {
    out.add("setup_s", "s", setup_s, static_cast<std::size_t>(reps));
    out.add("lat_ms.p50", "ms", quantile(untraced.iter_ms, 0.5), untraced.iter_ms.size());
    out.add("lat_ms.p90", "ms", quantile(untraced.iter_ms, 0.9), untraced.iter_ms.size());
    out.add("ops_per_s", "1/s", static_cast<double>(untraced.iter_ms.size()) / wall[0],
            untraced.iter_ms.size());
    out.add("graph_lat_ms.p50", "ms", quantile(untraced.eval_ms, 0.5), untraced.eval_ms.size());
    out.add("graph_lat_ms.p90", "ms", quantile(untraced.eval_ms, 0.9), untraced.eval_ms.size());
    out.add("graph_ops_per_s", "1/s", static_cast<double>(untraced.eval_ms.size()) / wall[0],
            untraced.eval_ms.size());
    out.add_record_only("gt_delay_ps", "ps", q.delay_ps, bests.size());
    out.add("gt_area_um2", "um2", q.area_um2, bests.size());
    out.add("peak_rss_mb", "MB", peak_rss_mb(), 1);
    return out;
  }

  std::vector<const SpanLog*> logs{&log};
  report_search_spans(logs, traced, out);
  const double overhead = wall[1] / wall[0] - 1.0;
  std::fprintf(stderr, "tracing overhead: %+.2f%% of SA time\n", 100.0 * overhead);
  out.add("trace.overhead_pct", "%", 100.0 * overhead, static_cast<std::size_t>(seeds));
  write_trace(args, logs);

  // opt-gt trains nothing in setup; the probe trains here to time ml and flow.
  if (!models) models = train_models();
  ServeStack stack(save_models(*models, args.workdir / "models"));
  ProbeInputs in;
  in.samples = traced.samples;
  in.models = &*models;
  in.stack = &stack;
  probe_layers(in, out);
  return out;
}

/// One connection's record.  The client thread writes it under `mu`; once
/// the watchdog has set `abandoned`, the thread leaves it alone.
struct ClientLog {
  std::mutex mu;
  bool abandoned = false;
  std::vector<std::int64_t> sent_ns;  ///< send time of each correct reply's request
  std::vector<double> lat_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t outstanding = 0;  ///< request id in flight, 0 = none
  std::string error;
  SpanLog spans;
};

/// One closed-loop connection: send, wait for the reply, compare it bit for
/// bit with local predict, repeat until `end`.  `next_id` mirrors the frame
/// id BinClient gives the next request on this connection.
void client_loop(serve::BinClient& client, bool graphs, std::size_t offset,
                 const std::vector<std::vector<double>>& rows, const std::vector<aig::Aig>& gs,
                 const std::vector<double>& expect, std::int64_t end, bool trace,
                 std::uint64_t op_base, std::uint64_t& next_id, ClientLog& log) {
  const std::size_t n = graphs ? gs.size() : rows.size();
  for (;;) {
    if (graphs) std::this_thread::sleep_for(kGraphThink);
    if (now_ns() >= end) break;
    const std::uint64_t id = next_id++;
    const std::size_t i = (offset + id) % n;
    const bool area = (id & 1) != 0;
    const char* model = area ? "area" : "delay";
    {
      const std::lock_guard<std::mutex> lk(log.mu);
      ++log.attempted;
      log.outstanding = id;
    }
    const std::int64_t t0 = now_ns();
    double v = 0.0;
    std::string error;
    try {
      v = graphs ? client.predict(model, gs[i]) : client.predict_features(model, rows[i]);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::int64_t t1 = now_ns();
    const std::lock_guard<std::mutex> lk(log.mu);
    if (log.abandoned) return;
    log.outstanding = 0;
    if (!error.empty()) {
      ++log.failed;
      log.error = error;
      return;  // the stream may be out of sync; this connection stops
    }
    if (std::bit_cast<std::uint64_t>(v) != std::bit_cast<std::uint64_t>(expect[2 * i + area])) {
      ++log.mismatched;
      ++log.failed;
      continue;
    }
    log.sent_ns.push_back(t0);
    log.lat_ms.push_back(ms_between(t0, t1));
    if (trace) log.spans.add(graphs ? "serve.graph_request" : "serve.features_request", op_base + id, t0, t1);
  }
}

struct Phase {
  std::vector<std::unique_ptr<ClientLog>> logs;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;  ///< end of the timed phase
  bool timed_out = false;
};

/// One request class over a phase, summarised per window of kWindowS
/// seconds: the reported quantiles and throughput are medians over the
/// windows, so a burst of outside load moves one window, not the figure.
struct ClassStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double ops_per_s = 0.0;
  std::size_t n = 0;
  double mean_ms = 0.0;
};

ClassStats class_stats(const Phase& ph, bool graphs) {
  const std::int64_t span = std::max<std::int64_t>(1, ph.t1 - ph.t0);
  const int windows = std::max(1, static_cast<int>(static_cast<double>(span) * 1e-9 / kWindowS));
  const double window_s = static_cast<double>(span) * 1e-9 / windows;
  std::vector<std::vector<double>> per(static_cast<std::size_t>(windows));
  ClassStats st;
  for (int c = 0; c < kClientConnections; ++c) {
    if ((c >= kClientConnections - kGraphConnections) != graphs) continue;
    const ClientLog& l = *ph.logs[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < l.lat_ms.size(); ++i) {
      const auto w = std::clamp<std::int64_t>((l.sent_ns[i] - ph.t0) * windows / span, 0, windows - 1);
      per[static_cast<std::size_t>(w)].push_back(l.lat_ms[i]);
      st.mean_ms += l.lat_ms[i];
      ++st.n;
    }
  }
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> rate;
  for (const std::vector<double>& v : per) {
    rate.push_back(static_cast<double>(v.size()) / window_s);
    if (v.empty()) continue;
    p50.push_back(quantile(v, 0.5));
    p90.push_back(quantile(v, 0.9));
  }
  st.p50_ms = quantile(p50, 0.5);
  st.p90_ms = quantile(p90, 0.5);
  st.ops_per_s = quantile(rate, 0.5);
  if (st.n > 0) st.mean_ms /= static_cast<double>(st.n);
  return st;
}

/// Runs all connections until `seconds` have passed.  If a connection still
/// has a request outstanding `kWatchdogGraceS` after that, the run stops
/// waiting: those requests count as failed and their ids are printed.
Phase serve_phase(std::vector<std::unique_ptr<serve::BinClient>>& clients,
                  const std::vector<std::vector<double>>& rows, const std::vector<aig::Aig>& gs,
                  const std::vector<double>& row_expect, const std::vector<double>& graph_expect,
                  double seconds, bool trace, std::vector<std::uint64_t>& next_ids) {
  Phase ph;
  for (int c = 0; c < kClientConnections; ++c) ph.logs.push_back(std::make_unique<ClientLog>());
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClientConnections; ++c) {
    const bool graphs = c >= kClientConnections - kGraphConnections;
    threads.emplace_back([&, c, graphs] {
      client_loop(*clients[static_cast<std::size_t>(c)], graphs,
                  static_cast<std::size_t>(c) * 7919, rows, gs, graphs ? graph_expect : row_expect,
                  end, trace, static_cast<std::uint64_t>(c) << 40,
                  next_ids[static_cast<std::size_t>(c)], *ph.logs[static_cast<std::size_t>(c)]);
      std::lock_guard<std::mutex> lk(mu);
      ++done;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(end - now_ns()) +
                          std::chrono::seconds(kWatchdogGraceS);
    ph.timed_out = !cv.wait_until(lk, deadline, [&] { return done == kClientConnections; });
  }
  ph.t0 = t0;
  ph.t1 = end;
  if (ph.timed_out) {
    for (int c = 0; c < kClientConnections; ++c) {
      ClientLog& l = *ph.logs[static_cast<std::size_t>(c)];
      const std::lock_guard<std::mutex> lk(l.mu);
      l.abandoned = true;
      std::fprintf(stderr, "WATCHDOG: connection %d %s\n", c,
                   l.outstanding == 0
                       ? "idle"
                       : ("request id " + std::to_string(l.outstanding) + " outstanding").c_str());
      if (l.outstanding != 0) ++l.failed;
    }
    for (std::thread& t : threads) t.detach();  // blocked on a socket; the process exits next
  } else {
    for (std::thread& t : threads) t.join();
  }
  return ph;
}

Outcome run_serve(const Args& args) {
  Outcome out;
  aig::Aig design;
  std::optional<Trained> models;
  std::unique_ptr<ServeStack> stack;
  std::vector<std::unique_ptr<serve::BinClient>> clients;
  std::vector<aig::Aig> bests;
  SpanLog search_log;
  std::optional<SearchProbe> probe;
  std::vector<std::vector<double>> rows;
  std::vector<aig::Aig> graphs;
  const int reps = args.trace ? 1 : kSetupReps;
  std::vector<double> row_expect;
  std::vector<double> graph_expect;
  std::vector<std::uint64_t> next_ids;
  const auto phase = [&](double seconds, bool trace) {
    return serve_phase(clients, rows, graphs, row_expect, graph_expect, seconds, trace, next_ids);
  };
  std::vector<Phase> warmups;
  const double setup_s = timed_setup(reps, [&](int r) {
    // After a watchdog stop, client threads still block on these connections.
    if (!warmups.empty() && warmups.back().timed_out) return;
    clients.clear();
    stack.reset();
    design = gen::build_design(kDesign);
    models = train_models();
    // The served rows and graphs are every state these searches visit.
    probe.emplace(args.trace ? &search_log : nullptr, true,
                  args.trace ? kServeSearchIterations : 0);
    bests.clear();
    for (int j = 0; j < kServeSearches; ++j) {
      const std::uint64_t seed = opt::derive_seed(args.seed, 100 + static_cast<std::uint64_t>(j));
      bests.push_back(run_search(design, &*models, seed, kServeSearchIterations, *probe).result.best);
    }
    rows = rows_of(probe->candidates);
    graphs = probe->candidates;
    // Expected values: local Model::predict on the same rows and graphs.
    row_expect.clear();
    for (const auto& row : rows) {
      row_expect.push_back(models->delay.predict(row));
      row_expect.push_back(models->area.predict(row));
    }
    graph_expect.clear();
    for (const aig::Aig& g : graphs) {
      graph_expect.push_back(models->delay.predict(g));
      graph_expect.push_back(models->area.predict(g));
    }
    stack = std::make_unique<ServeStack>(
        save_models(*models, args.workdir / ("models" + std::to_string(r))));
    for (int c = 0; c < kClientConnections; ++c) clients.push_back(connect(*stack));
    next_ids.assign(kClientConnections, 1);
    // Warm-up traffic, so the timed phase starts on a warm server.
    warmups.push_back(phase(kWarmupS, false));
  });
  const Quality q = check_bests(args, design, bests, out);

  // Traced runs go untraced, traced, untraced for a quarter, a half and a
  // quarter of the time, so drift in machine speed does not bias the
  // tracing-overhead figure.
  std::optional<Phase> ph;
  if (!warmups.back().timed_out) ph = phase(args.trace ? args.seconds / 4 : args.seconds, false);
  const serve::ServiceStats before_traced = stack->service->stats();
  std::optional<Phase> traced;
  if (args.trace && ph && !ph->timed_out) traced = phase(args.seconds / 2, true);
  const serve::ServiceStats after_traced = stack->service->stats();
  std::optional<Phase> tail;
  if (traced && !traced->timed_out) tail = phase(args.seconds / 4, false);

  const auto count = [&](const Phase& p) {
    for (int c = 0; c < kClientConnections; ++c) {
      const ClientLog& l = *p.logs[static_cast<std::size_t>(c)];
      out.attempted += l.attempted;
      out.failed += l.failed;
      if (l.mismatched) {
        out.fail_check("connection " + std::to_string(c) + ": " + std::to_string(l.mismatched) +
                       " served values differ from local predict");
      }
      if (!l.error.empty()) std::fprintf(stderr, "connection %d failed: %s\n", c, l.error.c_str());
    }
  };
  for (const Phase& w : warmups) count(w);
  for (const std::optional<Phase>* p : {&ph, &traced, &tail}) {
    if (p->has_value()) count(**p);
  }
  if (!ph) {
    // The warm-up already hit the watchdog; the server may be wedged.
    std::fflush(stderr);
    print_outcome(args, out);
    std::_Exit(0);
  }
  const ClassStats rows_st = class_stats(*ph, false);
  const ClassStats graphs_st = class_stats(*ph, true);
  std::fprintf(stderr, "serve seed %llu: %zu FEATURES, %zu PREDICT-with-graph replies in %.2f s; "
               "mean best of the searches %s\n", static_cast<unsigned long long>(args.seed),
               rows_st.n, graphs_st.n, ms_between(ph->t0, ph->t1) * 1e-3, quality_string(q).c_str());
  if (!args.trace) {
    out.add("setup_s", "s", setup_s, static_cast<std::size_t>(reps));
    out.add("lat_ms.p50", "ms", rows_st.p50_ms, rows_st.n);
    out.add("lat_ms.p90", "ms", rows_st.p90_ms, rows_st.n);
    out.add("ops_per_s", "1/s", rows_st.ops_per_s, rows_st.n);
    out.add("graph_lat_ms.p50", "ms", graphs_st.p50_ms, graphs_st.n);
    out.add("graph_lat_ms.p90", "ms", graphs_st.p90_ms, graphs_st.n);
    out.add("graph_ops_per_s", "1/s", graphs_st.ops_per_s, graphs_st.n);
    out.add_record_only("gt_delay_ps", "ps", q.delay_ps, bests.size());
    out.add("gt_area_um2", "um2", q.area_um2, bests.size());
    out.add("peak_rss_mb", "MB", peak_rss_mb(), 1);
  }
  if (ph->timed_out || (traced && traced->timed_out) || (tail && tail->timed_out)) {
    // The server may be wedged; its shutdown could block.  Report and leave.
    std::fflush(stderr);
    print_outcome(args, out);
    std::_Exit(0);
  }
  if (!args.trace) return out;

  std::vector<const SpanLog*> logs{&search_log};
  for (const auto& l : traced->logs) logs.push_back(&l->spans);
  report_search_spans({&search_log}, *probe, out);
  const ClassStats head = class_stats(*ph, false);
  const ClassStats body = class_stats(*traced, false);
  const ClassStats rear = class_stats(*tail, false);
  const double untraced_ms =
      (head.mean_ms * head.n + rear.mean_ms * rear.n) / static_cast<double>(head.n + rear.n);
  const double overhead = body.mean_ms / untraced_ms - 1.0;
  std::fprintf(stderr, "tracing overhead: %+.2f%% of mean FEATURES request latency\n",
               100.0 * overhead);
  out.add("trace.overhead_pct", "%", 100.0 * overhead, body.n);
  write_trace(args, logs);

  ProbeInputs in;
  in.samples = probe->samples;
  in.models = &*models;
  in.stack = stack.get();
  const std::uint64_t batches = after_traced.batches - before_traced.batches;
  in.batch_mean = batches == 0 ? 1.0
                               : static_cast<double>(after_traced.completed - before_traced.completed) /
                                     static_cast<double>(batches);
  for (auto& c : clients) c->quit();
  clients.clear();
  probe_layers(in, out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    fs::create_directories(args.workdir);
    fs::create_directories(args.state_dir);
    const Outcome out = args.workload == "serve" ? run_serve(args) : run_opt(args);
    print_outcome(args, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
