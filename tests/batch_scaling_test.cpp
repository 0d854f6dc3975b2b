// Batch-scaling regression harness for the contention work (ISSUE 6).
//
// A 64-copy OTA batch through one cached Annotator at 1, 2, and 8 jobs
// must (a) stay bit-identical across job counts -- the determinism
// contract -- and (b) not burn materially more *CPU* at 8 jobs than at
// 1: per-stage `*_seconds` sums thread-CPU time (ThreadCpuTimer), which
// excludes descheduled time, so on any host -- even a single core
// oversubscribed 8x -- the sums stay comparable across job counts once
// the runtime stops convoying on shared locks. The summed wall clocks
// (`*_wall_seconds`) are recorded alongside but never asserted on: on an
// oversubscribed host they legitimately inflate with scheduling noise.
//
// Timing bounds are skipped under sanitizers (10-50x slowdowns with
// their own synchronization make CPU ratios meaningless there); the
// determinism half still runs, which is what tsan is pointed at.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/features.hpp"
#include "datagen/dataset.hpp"
#include "gcn/model.hpp"
#include "gcn/inference_cache.hpp"
#include "gcn/sample_cache.hpp"
#include "primitives/annotation_cache.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GANA_TIMING_ASSERTS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GANA_TIMING_ASSERTS 0
#endif
#endif
#ifndef GANA_TIMING_ASSERTS
#define GANA_TIMING_ASSERTS 1
#endif

namespace gana::core {
namespace {

/// Summed thread-CPU at J jobs may exceed the 1-job figure by cache-miss
/// duplication (racing workers computing the same prep) and per-chunk
/// overhead, but not by lock convoys or descheduling -- those are wall
/// phenomena. The bound is deliberately loose; pre-fix the wall-summed
/// inflation measured on this workload was >10x.
constexpr double kCpuInflationBound = 4.0;
/// Stages cheaper than this at 1 job are pure timer noise; the ratio
/// assertion gets an absolute floor instead.
constexpr double kStageFloorSeconds = 0.05;

std::vector<datagen::LabeledCircuit> ota_copies(std::size_t count) {
  datagen::DatasetOptions opt;
  opt.circuits = 1;
  opt.seed = 21;
  const auto one = datagen::make_ota_dataset(opt);
  std::vector<datagen::LabeledCircuit> batch(count, one.at(0));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].name = "copy" + std::to_string(i);
  }
  return batch;
}

gcn::ModelConfig tiny_config() {
  gcn::ModelConfig cfg;
  cfg.in_features = kNumFeatures;
  cfg.num_classes = 2;
  cfg.conv_channels = {8, 16};
  cfg.cheb_k = 3;
  cfg.fc_hidden = 32;
  cfg.use_pooling = false;
  cfg.seed = 5;
  return cfg;
}

void expect_identical_outputs(const BatchResult& a, const BatchResult& b,
                              const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_TRUE(a.results[i].probabilities.data() ==
                b.results[i].probabilities.data())
        << "slot " << i << ": GCN probabilities differ bitwise";
    EXPECT_EQ(a.results[i].final_class, b.results[i].final_class)
        << "slot " << i;
    EXPECT_EQ(a.results[i].gcn_class, b.results[i].gcn_class) << "slot " << i;
  }
}

void expect_cpu_bounded(double base, double at8, const char* stage) {
  const double bound =
      std::max(base * kCpuInflationBound, base + kStageFloorSeconds);
  EXPECT_LE(at8, bound) << stage << ": 8-job summed thread-CPU " << at8
                        << "s vs 1-job " << base
                        << "s exceeds the contention bound";
}

TEST(BatchScaling, SixtyFourCopyOtaBatchIdenticalAndCpuBounded) {
  const auto batch = ota_copies(64);
  gcn::GcnModel model(tiny_config());
  Annotator annotator(&model, {"ota", "bias"});
  annotator.set_sample_cache(std::make_shared<gcn::SamplePrepCache>());
  annotator.set_annotation_cache(
      std::make_shared<primitives::AnnotationCache>());

  BatchResult ref;
  BatchTimings base_timings;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const BatchRunner runner(annotator, {.jobs = jobs});
    BatchResult got = runner.run(batch);
    ASSERT_EQ(got.results.size(), batch.size());
    EXPECT_GT(got.timings.wall_seconds, 0.0);
    // Both clocks must be populated for every successful run.
    EXPECT_GT(got.timings.gcn_seconds, 0.0);
    EXPECT_GT(got.timings.gcn_wall_seconds, 0.0);
    if (jobs == 1u) {
      base_timings = got.timings;
      ref = std::move(got);
      continue;
    }
    expect_identical_outputs(ref, got, "jobs=" + std::to_string(jobs));
#if GANA_TIMING_ASSERTS
    if (jobs == 8u) {
      expect_cpu_bounded(base_timings.prepare_seconds,
                         got.timings.prepare_seconds, "prepare");
      expect_cpu_bounded(base_timings.gcn_seconds, got.timings.gcn_seconds,
                         "gcn");
      expect_cpu_bounded(base_timings.post_seconds, got.timings.post_seconds,
                         "post");
    }
#endif
  }
}

TEST(BatchScaling, InferenceCacheOnOffBitIdenticalAcrossJobs) {
  // Memoized probabilities must be indistinguishable from recomputed
  // ones at every job count: one forward pass feeds all 16 slots.
  const auto batch = ota_copies(16);
  gcn::GcnModel model(tiny_config());
  Annotator plain(&model, {"ota", "bias"});
  const BatchResult ref =
      BatchRunner(plain, {.jobs = 1}).run(batch);

  for (const std::size_t jobs : {1u, 8u}) {
    Annotator cached(&model, {"ota", "bias"});
    cached.set_sample_cache(std::make_shared<gcn::SamplePrepCache>());
    auto icache = std::make_shared<gcn::InferenceCache>();
    cached.set_inference_cache(icache);
    const BatchResult got =
        BatchRunner(cached, {.jobs = jobs}).run(batch);
    expect_identical_outputs(ref, got,
                             "inference cache, jobs=" + std::to_string(jobs));
    const auto stats = icache->stats();
    // All copies share one structure; racing workers may duplicate the
    // miss, but first-insert-wins keeps a single entry.
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits + stats.misses, batch.size());
    EXPECT_GE(stats.misses, 1u);
  }
}

TEST(BatchScaling, InferenceCacheKeysOnWeightsFingerprint) {
  // A cache shared across models must never serve one model's
  // probabilities to another: keys mix in the weights fingerprint.
  const auto batch = ota_copies(2);
  gcn::GcnModel model_a(tiny_config());
  gcn::ModelConfig cfg_b = tiny_config();
  cfg_b.seed = 6;  // different init, different weights
  gcn::GcnModel model_b(cfg_b);
  ASSERT_NE(model_a.weights_fingerprint(), model_b.weights_fingerprint());

  Annotator plain_b(&model_b, {"ota", "bias"});
  const BatchResult want_b =
      BatchRunner(plain_b, {.jobs = 1}).run(batch);

  auto shared = std::make_shared<gcn::InferenceCache>();
  Annotator a(&model_a, {"ota", "bias"});
  a.set_inference_cache(shared);
  (void)BatchRunner(a, {.jobs = 1}).run(batch);
  EXPECT_EQ(shared->stats().entries, 1u);

  Annotator b(&model_b, {"ota", "bias"});
  b.set_inference_cache(shared);
  const BatchResult got_b =
      BatchRunner(b, {.jobs = 1}).run(batch);
  expect_identical_outputs(want_b, got_b, "model B through a shared cache");
  EXPECT_EQ(shared->stats().entries, 2u);
}

TEST(BatchScaling, RunnerReusesItsPoolAcrossRuns) {
  // The persistent-pool contract: back-to-back runs on one runner reuse
  // the same workers (and their thread_local inference workspaces) and
  // stay bit-identical to each other.
  const auto batch = ota_copies(16);
  gcn::GcnModel model(tiny_config());
  Annotator annotator(&model, {"ota", "bias"});
  annotator.set_sample_cache(std::make_shared<gcn::SamplePrepCache>());

  const BatchRunner runner(annotator, {.jobs = 8});
  const BatchResult first = runner.run(batch);
  const BatchResult second = runner.run(batch);
  const BatchResult third = runner.run(batch);
  expect_identical_outputs(first, second, "run 1 vs 2");
  expect_identical_outputs(first, third, "run 1 vs 3");
}

TEST(BatchScaling, ChunkedDispatchCoversEverySlotAtAwkwardCounts) {
  // Chunk boundaries are count/jobs arithmetic; counts that do not divide
  // evenly (and counts below the chunk target) must still fill every slot
  // exactly once.
  gcn::GcnModel model(tiny_config());
  Annotator annotator(&model, {"ota", "bias"});
  for (const std::size_t count : {2u, 3u, 7u, 13u}) {
    const auto batch = ota_copies(count);
    const BatchRunner runner(annotator, {.jobs = 8});
    const BatchResult got = runner.run(batch);
    ASSERT_EQ(got.results.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(got.results[i].prepared.name, "copy" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace gana::core
