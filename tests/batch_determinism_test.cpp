// The parallel batch runtime must be provably reproducible: annotating a
// seeded batch with 1, 2, and 8 worker threads has to yield bit-identical
// labels, hierarchies, and metric values (GENIE-ASI-style requirement --
// subcircuit identification may never depend on scheduling).
#include <gtest/gtest.h>

#include "core/batch_runner.hpp"
#include "core/features.hpp"
#include "core/hierarchy.hpp"
#include "datagen/dataset.hpp"
#include "gcn/model.hpp"
#include "util/thread_pool.hpp"

namespace gana::core {
namespace {

gcn::ModelConfig tiny_config(std::size_t classes, bool pooling) {
  gcn::ModelConfig cfg;
  cfg.in_features = kNumFeatures;
  cfg.num_classes = classes;
  cfg.conv_channels = {8, 16};
  cfg.cheb_k = 3;
  cfg.fc_hidden = 32;
  cfg.use_pooling = pooling;
  cfg.seed = 5;
  return cfg;
}

/// Field-by-field bitwise comparison of two annotation results.
void expect_identical(const AnnotateResult& a, const AnnotateResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.prepared.name, b.prepared.name);
  EXPECT_EQ(a.prepared.labels, b.prepared.labels);
  // Probabilities and accuracies: exact doubles, not approximate.
  EXPECT_TRUE(a.probabilities.data() == b.probabilities.data())
      << "GCN probabilities differ bitwise";
  EXPECT_EQ(a.gcn_class, b.gcn_class);
  EXPECT_EQ(a.post1_class, b.post1_class);
  EXPECT_EQ(a.final_class, b.final_class);
  EXPECT_EQ(a.ccc.component_of, b.ccc.component_of);
  EXPECT_EQ(a.ccc.count, b.ccc.count);
  EXPECT_EQ(a.post.cluster_class, b.post.cluster_class);
  EXPECT_EQ(a.post.primitives.size(), b.post.primitives.size());
  EXPECT_EQ(a.post.standalone, b.post.standalone);
  EXPECT_EQ(to_string(a.hierarchy), to_string(b.hierarchy));
  EXPECT_EQ(a.acc_gcn, b.acc_gcn);
  EXPECT_EQ(a.acc_post1, b.acc_post1);
  EXPECT_EQ(a.acc_post2, b.acc_post2);
}

void expect_identical(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    expect_identical(a.results[i], b.results[i],
                     "circuit " + std::to_string(i) + " (" +
                         a.results[i].prepared.name + ")");
  }
}

void check_thread_invariance(const Annotator& annotator,
                             const std::vector<datagen::LabeledCircuit>& batch) {
  BatchResult ref;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const BatchRunner runner(annotator, {.jobs = jobs});
    BatchResult got = runner.run(batch);
    EXPECT_EQ(got.results.size(), batch.size());
    if (jobs == 1u) {
      ref = std::move(got);
    } else {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      expect_identical(ref, got);
    }
  }
}

TEST(BatchDeterminism, OtaBatchBitIdenticalAcross1_2_8Threads) {
  datagen::DatasetOptions opt;
  opt.circuits = 8;
  opt.seed = 3;
  const auto batch = datagen::make_ota_dataset(opt);
  ASSERT_EQ(batch.size(), 8u);

  gcn::GcnModel model(tiny_config(2, /*pooling=*/false));
  const Annotator annotator(&model, {"ota", "bias"});
  check_thread_invariance(annotator, batch);
}

TEST(BatchDeterminism, RfBatchBitIdenticalAcross1_2_8Threads) {
  datagen::DatasetOptions opt;
  opt.circuits = 8;
  opt.seed = 4;
  const auto batch = datagen::make_rf_dataset(opt);
  ASSERT_EQ(batch.size(), 8u);

  gcn::GcnModel model(tiny_config(3, /*pooling=*/false));
  const Annotator annotator(&model, datagen::rf_class_names());
  check_thread_invariance(annotator, batch);
}

TEST(BatchDeterminism, PooledModelBitIdenticalAcrossThreads) {
  // Graclus coarsening + pool/unpool inference must also be invariant.
  datagen::DatasetOptions opt;
  opt.circuits = 4;
  opt.seed = 6;
  const auto batch = datagen::make_ota_dataset(opt);

  gcn::GcnModel model(tiny_config(2, /*pooling=*/true));
  const Annotator annotator(&model, {"ota", "bias"});
  check_thread_invariance(annotator, batch);
}

TEST(BatchDeterminism, ParallelSpmmInsideBatchDoesNotChangeResults) {
  // With the shared compute pool enabled, single-circuit annotation uses
  // the row-partitioned spmm; batch workers must suppress it (nested
  // parallelism) without changing a single bit of the output.
  datagen::DatasetOptions opt;
  opt.circuits = 4;
  opt.seed = 9;
  const auto batch = datagen::make_ota_dataset(opt);

  gcn::GcnModel model(tiny_config(2, /*pooling=*/false));
  const Annotator annotator(&model, {"ota", "bias"});

  const BatchRunner seq(annotator, {.jobs = 1});
  const BatchResult plain = seq.run(batch);

  set_compute_threads(4);
  const BatchResult spmm_parallel = seq.run(batch);
  const BatchRunner par(annotator, {.jobs = 4});
  const BatchResult both = par.run(batch);
  set_compute_threads(1);

  expect_identical(plain, spmm_parallel);
  expect_identical(plain, both);
}

TEST(BatchDeterminism, MatchesDirectSequentialAnnotateCalls) {
  // The runner's documented contract: every task runs exactly the
  // direct annotation (the per-circuit stream is derived from the
  // structure, never from the slot or the scheduling).
  datagen::DatasetOptions opt;
  opt.circuits = 3;
  opt.seed = 12;
  const auto batch = datagen::make_ota_dataset(opt);

  gcn::GcnModel model(tiny_config(2, /*pooling=*/false));
  const Annotator annotator(&model, {"ota", "bias"});
  const BatchRunner runner(annotator, {.jobs = 2});
  const BatchResult got = runner.run(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const AnnotateResult direct = annotator.annotate(batch[i]);
    expect_identical(direct, got.results[i], "direct vs batch " +
                                                 std::to_string(i));
  }
}

TEST(BatchDeterminism, SampleCacheOnVsOffBitIdenticalAcross1_2_8Threads) {
  // A batch of copies of one OTA (same structure, different instance
  // names) must produce the same bits whether the SamplePrepCache is
  // attached or not, at every thread count -- cache hits may only skip
  // work, never change results.
  datagen::DatasetOptions opt;
  opt.circuits = 1;
  opt.seed = 21;
  const auto one = datagen::make_ota_dataset(opt);
  ASSERT_EQ(one.size(), 1u);
  std::vector<datagen::LabeledCircuit> batch(8, one[0]);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].name = "copy" + std::to_string(i);
  }

  // The pooled model's prep also carries Graclus cluster maps, the one
  // part of it drawn from the prep Rng.
  for (const bool pooling : {false, true}) {
    gcn::GcnModel model(tiny_config(2, pooling));
    const Annotator plain(&model, {"ota", "bias"});
    const BatchRunner seq(plain, {.jobs = 1});
    const BatchResult ref = seq.run(batch);

    for (const std::size_t jobs : {1u, 2u, 8u}) {
      Annotator cached(&model, {"ota", "bias"});
      auto cache = std::make_shared<gcn::SamplePrepCache>();
      cached.set_sample_cache(cache);
      const BatchRunner runner(cached, {.jobs = jobs});
      BatchResult got = runner.run(batch);
      SCOPED_TRACE(std::string(pooling ? "pooled" : "unpooled") +
                   " cached jobs=" + std::to_string(jobs));
      // Results carry the per-copy names; align them before comparing.
      ASSERT_EQ(got.results.size(), ref.results.size());
      for (std::size_t i = 0; i < got.results.size(); ++i) {
        expect_identical(ref.results[i], got.results[i],
                         "slot " + std::to_string(i));
      }
      // All eight copies share one structural hash: a single prep entry.
      const auto stats = cache->stats();
      EXPECT_EQ(stats.entries, 1u);
      EXPECT_GE(stats.hits + stats.misses, batch.size());
    }
  }
}

TEST(BatchRunner, NetlistOverloadNamesResults) {
  datagen::DatasetOptions opt;
  opt.circuits = 2;
  opt.seed = 5;
  const auto circuits = datagen::make_ota_dataset(opt);
  std::vector<spice::Netlist> netlists;
  for (const auto& c : circuits) netlists.push_back(c.netlist);

  const Annotator annotator(nullptr, {"ota", "bias"});
  const BatchRunner runner(annotator, {.jobs = 2});
  const BatchResult r = runner.run(netlists, {"first"});
  ASSERT_EQ(r.results.size(), 2u);
  EXPECT_EQ(r.results[0].prepared.name, "first");
  EXPECT_EQ(r.results[1].prepared.name, "batch/1");
}

TEST(BatchRunner, PropagatesWorkerExceptions) {
  // An invalid circuit in the batch must surface as the original
  // exception type, not hang or crash the pool.
  datagen::DatasetOptions opt;
  opt.circuits = 2;
  opt.seed = 5;
  const auto circuits = datagen::make_ota_dataset(opt);
  std::vector<spice::Netlist> netlists;
  for (const auto& c : circuits) netlists.push_back(c.netlist);
  spice::Netlist bad;
  bad.instances.push_back({"x0", "missing_subckt", {"a"}});
  netlists.push_back(bad);

  const Annotator annotator(nullptr, {"ota", "bias"});
  const BatchRunner runner(annotator, {.jobs = 4});
  EXPECT_THROW((void)runner.run(netlists), spice::NetlistError);
}

}  // namespace
}  // namespace gana::core
