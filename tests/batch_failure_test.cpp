// Fault isolation in the batch runtime: a malformed circuit in a batch
// must come back as a structured Diag in its own slot, leave every
// healthy sibling bit-identical to the sequential run, and do so
// reproducibly at any thread count (CollectAll policy).
#include <gtest/gtest.h>

#include <limits>

#include "core/batch_runner.hpp"
#include "core/features.hpp"
#include "datagen/dataset.hpp"
#include "gcn/model.hpp"

namespace gana::core {
namespace {

gcn::ModelConfig tiny_config(std::size_t classes) {
  gcn::ModelConfig cfg;
  cfg.in_features = kNumFeatures;
  cfg.num_classes = classes;
  cfg.conv_channels = {8, 16};
  cfg.cheb_k = 3;
  cfg.fc_hidden = 32;
  cfg.use_pooling = false;
  cfg.seed = 5;
  return cfg;
}

/// Field-by-field bitwise comparison of two annotation results.
void expect_identical(const AnnotateResult& a, const AnnotateResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.prepared.name, b.prepared.name);
  EXPECT_EQ(a.prepared.labels, b.prepared.labels);
  EXPECT_TRUE(a.probabilities.data() == b.probabilities.data())
      << "GCN probabilities differ bitwise";
  EXPECT_EQ(a.gcn_class, b.gcn_class);
  EXPECT_EQ(a.post1_class, b.post1_class);
  EXPECT_EQ(a.final_class, b.final_class);
  EXPECT_EQ(a.post.cluster_class, b.post.cluster_class);
  EXPECT_EQ(to_string(a.hierarchy), to_string(b.hierarchy));
  EXPECT_EQ(a.acc_gcn, b.acc_gcn);
  EXPECT_EQ(a.acc_post1, b.acc_post1);
  EXPECT_EQ(a.acc_post2, b.acc_post2);
}

/// A batch of netlists where slots 1 and 4 are malformed: one references
/// an undefined subckt (fails in flatten), one carries an Inf resistor
/// (fails in validate inside flatten's output check).
struct MixedBatch {
  std::vector<spice::Netlist> netlists;
  std::vector<std::string> names;
  std::set<std::size_t> bad;  ///< indices expected to fail
};

MixedBatch make_mixed_batch() {
  datagen::DatasetOptions opt;
  opt.circuits = 4;
  opt.seed = 3;
  const auto circuits = datagen::make_ota_dataset(opt);

  MixedBatch out;
  for (const auto& c : circuits) out.netlists.push_back(c.netlist);

  spice::Netlist undefined;
  undefined.instances.push_back({"x0", "missing_subckt", {"a"}, 7});
  out.netlists.insert(out.netlists.begin() + 1, undefined);

  spice::Netlist nonfinite;
  spice::Device r;
  r.name = "r1";
  r.type = spice::DeviceType::Resistor;
  r.pins = {"a", "0"};
  r.value = std::numeric_limits<double>::infinity();
  r.src_line = 2;
  nonfinite.devices.push_back(r);
  out.netlists.insert(out.netlists.begin() + 4, nonfinite);

  out.bad = {1, 4};
  for (std::size_t i = 0; i < out.netlists.size(); ++i) {
    out.names.push_back("mixed/" + std::to_string(i));
  }
  return out;
}

TEST(BatchFailure, MixedBatchIsolatesFailuresPerSlot) {
  const MixedBatch mixed = make_mixed_batch();
  gcn::GcnModel model(tiny_config(2));
  const Annotator annotator(&model, {"ota", "bias"});
  const BatchRunner runner(
      annotator, {.jobs = 2, .policy = FailurePolicy::CollectAll});

  const BatchOutcome got = runner.run_isolated(mixed.netlists, mixed.names);
  ASSERT_EQ(got.outcomes.size(), mixed.netlists.size());
  EXPECT_EQ(got.failure_count(), mixed.bad.size());
  for (std::size_t i = 0; i < got.outcomes.size(); ++i) {
    EXPECT_EQ(got.outcomes[i].ok(), mixed.bad.count(i) == 0)
        << "slot " << i;
  }

  // The structured diagnostics identify stage, code, and location.
  const Diag& undefined = got.outcomes[1].diag();
  EXPECT_EQ(undefined.code, DiagCode::UndefinedSubckt);
  EXPECT_EQ(undefined.stage, Stage::Flatten);
  EXPECT_EQ(undefined.loc.file, "mixed/1");
  EXPECT_EQ(undefined.loc.line, 7u);

  const Diag& nonfinite = got.outcomes[4].diag();
  EXPECT_EQ(nonfinite.code, DiagCode::NonFinite);
  EXPECT_EQ(nonfinite.loc.line, 2u);

  EXPECT_NE(got.first_failure(), nullptr);
  EXPECT_EQ(got.first_failure()->code, DiagCode::UndefinedSubckt);
}

TEST(BatchFailure, PerSlotOutcomesIdenticalAcross1_2_8Threads) {
  const MixedBatch mixed = make_mixed_batch();
  gcn::GcnModel model(tiny_config(2));
  const Annotator annotator(&model, {"ota", "bias"});

  BatchOutcome ref;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const BatchRunner runner(
        annotator, {.jobs = jobs, .policy = FailurePolicy::CollectAll});
    BatchOutcome got = runner.run_isolated(mixed.netlists, mixed.names);
    ASSERT_EQ(got.outcomes.size(), mixed.netlists.size());
    if (jobs == 1u) {
      ref = std::move(got);
      continue;
    }
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    for (std::size_t i = 0; i < got.outcomes.size(); ++i) {
      ASSERT_EQ(got.outcomes[i].ok(), ref.outcomes[i].ok()) << "slot " << i;
      if (got.outcomes[i].ok()) {
        expect_identical(ref.outcomes[i].value(), got.outcomes[i].value(),
                         "slot " + std::to_string(i));
      } else {
        EXPECT_EQ(got.outcomes[i].diag().render(),
                  ref.outcomes[i].diag().render())
            << "slot " << i;
      }
    }
  }
}

TEST(BatchFailure, HealthySlotsBitIdenticalToDirectSequentialCalls) {
  const MixedBatch mixed = make_mixed_batch();
  gcn::GcnModel model(tiny_config(2));
  const Annotator annotator(&model, {"ota", "bias"});
  const BatchRunner runner(
      annotator, {.jobs = 4, .policy = FailurePolicy::CollectAll});
  const BatchOutcome got = runner.run_isolated(mixed.netlists, mixed.names);

  for (std::size_t i = 0; i < mixed.netlists.size(); ++i) {
    if (mixed.bad.count(i)) continue;
    // Siblings failing must not perturb healthy results: identical to a
    // direct (throwing) sequential annotation.
    const AnnotateResult direct =
        annotator.annotate(mixed.netlists[i], mixed.names[i]);
    ASSERT_TRUE(got.outcomes[i].ok());
    expect_identical(direct, got.outcomes[i].value(),
                     "slot " + std::to_string(i));
  }
}

TEST(BatchFailure, FailFastSequentialSkipsRemainingTasks) {
  const MixedBatch mixed = make_mixed_batch();
  const Annotator annotator(nullptr, {"ota", "bias"});
  const BatchRunner runner(
      annotator, {.jobs = 1, .policy = FailurePolicy::FailFast});
  const BatchOutcome got = runner.run_isolated(mixed.netlists, mixed.names);
  ASSERT_EQ(got.outcomes.size(), mixed.netlists.size());
  EXPECT_TRUE(got.outcomes[0].ok());
  EXPECT_EQ(got.outcomes[1].diag().code, DiagCode::UndefinedSubckt);
  for (std::size_t i = 2; i < got.outcomes.size(); ++i) {
    ASSERT_FALSE(got.outcomes[i].ok()) << "slot " << i;
    EXPECT_EQ(got.outcomes[i].diag().code, DiagCode::Skipped) << "slot " << i;
    EXPECT_EQ(got.outcomes[i].diag().stage, Stage::Batch) << "slot " << i;
  }
  // first_failure skips the Skipped markers and reports the real cause.
  ASSERT_NE(got.first_failure(), nullptr);
  EXPECT_EQ(got.first_failure()->code, DiagCode::UndefinedSubckt);
}

TEST(BatchFailure, FailFastParallelMarksUnstartedTasksSkipped) {
  // Which tasks get skipped is scheduling-dependent; the invariants are
  // (a) every slot has an outcome, (b) the real failures keep their
  // structured diags, (c) non-failures are either OK or Skipped.
  const MixedBatch mixed = make_mixed_batch();
  const Annotator annotator(nullptr, {"ota", "bias"});
  const BatchRunner runner(
      annotator, {.jobs = 4, .policy = FailurePolicy::FailFast});
  const BatchOutcome got = runner.run_isolated(mixed.netlists, mixed.names);
  ASSERT_EQ(got.outcomes.size(), mixed.netlists.size());
  for (std::size_t i = 0; i < got.outcomes.size(); ++i) {
    if (got.outcomes[i].ok()) continue;
    const DiagCode code = got.outcomes[i].diag().code;
    if (mixed.bad.count(i)) {
      EXPECT_TRUE(code == DiagCode::UndefinedSubckt ||
                  code == DiagCode::NonFinite || code == DiagCode::Skipped)
          << "slot " << i;
    } else {
      EXPECT_EQ(code, DiagCode::Skipped) << "slot " << i;
    }
  }
}

TEST(BatchFailure, ThrowingRunStillPropagatesTheFirstRealFailure) {
  const MixedBatch mixed = make_mixed_batch();
  const Annotator annotator(nullptr, {"ota", "bias"});
  const BatchRunner runner(annotator, {.jobs = 4});
  try {
    (void)runner.run(mixed.netlists, mixed.names);
    FAIL() << "expected NetlistError";
  } catch (const spice::NetlistError& e) {
    EXPECT_NE(e.diag().code, DiagCode::Skipped)
        << "run() must surface a real failure, not a fail-fast marker";
  }
}

TEST(BatchFailure, AllHealthyBatchHasNoFailures) {
  datagen::DatasetOptions opt;
  opt.circuits = 3;
  opt.seed = 8;
  const auto circuits = datagen::make_ota_dataset(opt);
  const Annotator annotator(nullptr, {"ota", "bias"});
  const BatchRunner runner(
      annotator, {.jobs = 2, .policy = FailurePolicy::CollectAll});
  const BatchOutcome got = runner.run_isolated(circuits);
  EXPECT_EQ(got.ok_count(), circuits.size());
  EXPECT_EQ(got.failure_count(), 0u);
  EXPECT_EQ(got.first_failure(), nullptr);
}

TEST(BatchFailure, EmptyBatch) {
  const Annotator annotator(nullptr, {"ota", "bias"});
  const BatchRunner runner(annotator, {.jobs = 4});
  const BatchOutcome got = runner.run_isolated(std::vector<spice::Netlist>{});
  EXPECT_TRUE(got.outcomes.empty());
  EXPECT_EQ(got.first_failure(), nullptr);
}

}  // namespace
}  // namespace gana::core
