// Tests for the parallel labeling subsystem: ThreadPool semantics, the
// datagen determinism contract (same seed => identical datasets at any
// thread count), AnalysisCache-vs-legacy equivalence, and flat-forest GBDT
// inference consistency.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "aig/analysis.hpp"
#include "celllib/library.hpp"
#include "features/features.hpp"
#include "flow/datagen.hpp"
#include "gen/circuits.hpp"
#include "ml/gbdt.hpp"
#include "transforms/shuffle.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace aigml {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out = pool.parallel_map<std::size_t>(1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, EmptyRangeAndReuse) {
  ThreadPool pool(3);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  // The pool must survive many consecutive jobs (epoch handling).
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool remains usable after an exception.
  std::atomic<int> ok{0};
  pool.parallel_for(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

// Regression: parallel_for wakes workers with one notify_one per participant
// slot.  A worker that finished a job and returned to wait() could absorb a
// later notification (its predicate was false at that moment), so a slot was
// never claimed and the caller waited for it forever.  Small back-to-back
// jobs hung an unfixed 4-thread pool within 200k calls.
TEST(ThreadPool, BackToBackSmallJobsNeverHang) {
  std::mutex mutex;
  std::condition_variable finished;
  bool done = false;
  // A hang blocks the caller; abort with a message instead of stalling.
  std::thread watchdog([&] {
    std::unique_lock lock(mutex);
    if (!finished.wait_for(lock, std::chrono::seconds(240), [&] { return done; })) {
      std::fprintf(stderr, "ThreadPool.BackToBackSmallJobsNeverHang: parallel_for hung\n");
      std::abort();
    }
  });
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  std::size_t expected = 0;
  for (int call = 0; call < 300000; ++call) {
    const std::size_t n = 2 + static_cast<std::size_t>(call % 3);
    pool.parallel_for(n, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
    expected += n;
  }
  {
    std::lock_guard lock(mutex);
    done = true;
  }
  finished.notify_one();
  watchdog.join();
  EXPECT_EQ(total.load(), expected);
}

TEST(Rng, TaskForkIsDeterministicAndConst) {
  Rng parent(42);
  const std::uint64_t before = parent.next();
  Rng parent2(42);
  (void)parent2.next();
  // Same parent state + same task id => same stream; parent not advanced.
  Rng a = parent.fork(std::uint64_t{7});
  Rng b = parent2.fork(std::uint64_t{7});
  EXPECT_EQ(a.next(), b.next());
  Rng c = parent.fork(std::uint64_t{8});
  Rng d = parent.fork(std::uint64_t{7});
  EXPECT_NE(c.next(), d.next());
  EXPECT_EQ(parent.next(), parent2.next());
  (void)before;
}

// ---- datagen determinism ------------------------------------------------------

std::string dataset_csv(const ml::Dataset& d) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("aigml_det_" + std::to_string(::getpid()) + ".csv");
  d.save(path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::filesystem::remove(path);
  return ss.str();
}

TEST(DatagenDeterminism, SameSeedAnyThreadCountByteIdenticalCsv) {
  const aig::Aig base = gen::adder_cla(4);
  const auto& lib = cell::mini_sky130();
  flow::DataGenParams params;
  params.num_variants = 20;
  params.seed = 0xfeedULL;

  params.num_threads = 1;
  const auto ref = flow::generate_dataset(base, "cla4", lib, params);
  EXPECT_EQ(ref.unique_variants, 20u);
  const std::string ref_delay = dataset_csv(ref.delay);
  const std::string ref_area = dataset_csv(ref.area);

  for (const int threads : {2, 8}) {
    params.num_threads = threads;
    const auto got = flow::generate_dataset(base, "cla4", lib, params);
    EXPECT_EQ(got.unique_variants, ref.unique_variants);
    EXPECT_EQ(dataset_csv(got.delay), ref_delay) << "threads=" << threads;
    EXPECT_EQ(dataset_csv(got.area), ref_area) << "threads=" << threads;
  }
}

TEST(DatagenDeterminism, DifferentSeedsDiffer) {
  const aig::Aig base = gen::adder_cla(4);
  const auto& lib = cell::mini_sky130();
  flow::DataGenParams params;
  params.num_variants = 10;
  params.seed = 1;
  const auto a = flow::generate_dataset(base, "cla4", lib, params);
  params.seed = 2;
  const auto b = flow::generate_dataset(base, "cla4", lib, params);
  EXPECT_NE(dataset_csv(a.delay), dataset_csv(b.delay));
}

// ---- AnalysisCache equivalence ------------------------------------------------

std::vector<aig::Aig> equivalence_corpus() {
  std::vector<aig::Aig> corpus;
  corpus.push_back(gen::multiplier(4));
  corpus.push_back(gen::adder_kogge_stone(8));
  corpus.push_back(gen::alu(4));
  corpus.push_back(gen::parity_tree(16));
  corpus.push_back(gen::comparator(6));
  // Randomly restructured variants exercise irregular fanout/depth shapes.
  Rng rng(0xcafeULL);
  for (int i = 0; i < 6; ++i) {
    const aig::Aig& base = corpus[static_cast<std::size_t>(i) % 5];
    corpus.push_back(transforms::randomized_rebalance(base, rng.next()));
    corpus.push_back(transforms::randomized_resynthesis(base, rng.next()));
  }
  return corpus;
}

TEST(AnalysisCache, MatchesLegacyTraversals) {
  for (const aig::Aig& g : equivalence_corpus()) {
    const aig::AnalysisCache cache(g);
    EXPECT_EQ(cache.levels(), aig::levels(g));
    EXPECT_EQ(cache.depths(), aig::node_depths(g));
    EXPECT_EQ(cache.fanouts(), aig::fanout_counts(g));
    EXPECT_EQ(cache.path_counts(), aig::path_counts(g));
    EXPECT_EQ(cache.critical_nodes(), aig::critical_path_nodes(g));
    EXPECT_EQ(cache.aig_level(), aig::aig_level(g));

    const auto fanout = aig::fanout_counts(g);
    std::vector<double> w(g.num_nodes());
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<double>(fanout[i]);
    EXPECT_EQ(cache.fanout_weighted_depths(), aig::weighted_depths(g, w));
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = fanout[i] >= 2 ? 1.0 : 0.0;
    EXPECT_EQ(cache.binary_weighted_depths(), aig::weighted_depths(g, w));

    // And the feature vector built on the cache matches the one-shot path.
    const auto f1 = features::extract(g);
    const auto f2 = features::extract(g, cache);
    for (int i = 0; i < features::kNumFeatures; ++i) {
      EXPECT_DOUBLE_EQ(f1[static_cast<std::size_t>(i)], f2[static_cast<std::size_t>(i)]);
    }
  }
}

// ---- flat-forest GBDT ---------------------------------------------------------

TEST(GbdtFlatForest, SerializeRoundTripPredictsIdentically) {
  ml::Dataset train(features::feature_names());
  Rng rng(99);
  std::vector<double> row(features::kNumFeatures);
  for (int i = 0; i < 200; ++i) {
    for (auto& v : row) v = rng.next_double(0, 50);
    train.append(row, row[0] * 3.0 + row[5] - 0.1 * row[11] + rng.next_gaussian(), "syn");
  }
  ml::GbdtParams p;
  p.num_trees = 30;
  const auto model = ml::GbdtModel::train(train, p);

  std::stringstream buf;
  model.serialize(buf);
  const auto loaded = ml::GbdtModel::deserialize(buf);

  const auto a = model.predict_all(train);
  const auto b = loaded.predict_all(train);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // predict_all must agree with row-at-a-time predict.
  for (std::size_t i = 0; i < train.num_rows(); ++i) {
    EXPECT_EQ(a[i], model.predict(train.row(i)));
  }
}

}  // namespace
}  // namespace aigml
