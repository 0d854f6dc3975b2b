#include <gtest/gtest.h>

#include "core/pipeline.hpp"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "gcn/serialize.hpp"
#include "shard/driver.hpp"
#include "spice/parser.hpp"
#include "util/deadline.hpp"
#include "util/diag.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"
#include "datagen/dataset.hpp"
#include "datagen/phased_array.hpp"
#include "datagen/rf_gen.hpp"
#include "datagen/sc_filter.hpp"
#include "gcn/trainer.hpp"

namespace gana::core {
namespace {

TEST(Prepare, TransfersLabelsAcrossPreprocess) {
  Rng rng(1);
  datagen::OtaOptions opt;
  opt.with_stacking = true;
  opt.with_dummies = true;
  const auto circuit = datagen::generate_ota(opt, rng, "ota");
  const auto prepared = prepare_circuit(circuit);
  // Stacked copies were merged / dummies removed.
  EXPECT_GT(prepared.preprocess_report.total_removed(), 0u);
  // Every element vertex has a label.
  for (std::size_t v = 0; v < prepared.graph.vertex_count(); ++v) {
    if (prepared.graph.vertex(v).kind == graph::VertexKind::Element) {
      EXPECT_GE(prepared.labels[v], 0)
          << prepared.graph.vertex(v).name;
    }
  }
}

TEST(Prepare, SamplesCarryFeaturesAndLabels) {
  datagen::DatasetOptions opt;
  opt.circuits = 4;
  const auto circuits = datagen::make_ota_dataset(opt);
  const auto samples = make_gcn_samples(circuits, 0, 9);
  ASSERT_EQ(samples.size(), 4u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.features.cols(), kNumFeatures);
    EXPECT_EQ(s.labels.size(), s.features.rows());
    EXPECT_EQ(s.lhat.size(), 1u);
  }
}

TEST(Annotator, NoModelStillBuildsHierarchy) {
  Rng rng(2);
  const auto circuit = datagen::generate_ota({}, rng, "ota");
  Annotator annotator(nullptr, {"ota", "bias"});
  const auto result = annotator.annotate(circuit);
  EXPECT_EQ(result.hierarchy.kind, HierarchyNode::Kind::System);
  EXPECT_FALSE(result.hierarchy.children.empty());
  EXPECT_GT(result.hierarchy.element_count(), 0u);
  EXPECT_EQ(result.final_class.size(), result.prepared.graph.vertex_count());
}

TEST(Annotator, TrainedModelBeatsChanceAndPostprocessingHelps) {
  // Small end-to-end smoke: train on 24 OTAs, annotate 6 unseen ones.
  datagen::DatasetOptions train_opt;
  train_opt.circuits = 24;
  train_opt.seed = 3;
  const auto train_circuits = datagen::make_ota_dataset(train_opt);
  auto samples = make_gcn_samples(train_circuits, 0, 4);
  auto [train_set, val_set] = gcn::split_dataset(std::move(samples), 0.8, 5);

  gcn::ModelConfig cfg;
  cfg.in_features = kNumFeatures;
  cfg.num_classes = 2;
  cfg.conv_channels = {16, 16};
  cfg.cheb_k = 4;
  cfg.fc_hidden = 32;
  cfg.seed = 6;
  gcn::GcnModel model(cfg);
  gcn::TrainConfig tc;
  tc.epochs = 25;
  tc.patience = 0;
  const auto tr = gcn::train(model, train_set, val_set, tc);
  EXPECT_GT(tr.final_train_acc, 0.6);

  datagen::DatasetOptions test_opt;
  test_opt.circuits = 6;
  test_opt.seed = 77;
  const auto test_circuits = datagen::make_ota_dataset(test_opt);
  Annotator annotator(&model, {"ota", "bias"});
  double acc_gcn = 0.0, acc_post = 0.0;
  for (const auto& c : test_circuits) {
    const auto r = annotator.annotate(c);
    acc_gcn += r.acc_gcn;
    acc_post += r.acc_post2;
  }
  acc_gcn /= 6.0;
  acc_post /= 6.0;
  EXPECT_GT(acc_gcn, 0.5);        // beats chance
  EXPECT_GE(acc_post, acc_gcn - 1e-9);  // postprocessing never hurts here
}

TEST(Annotator, ScFilterPipelineRuns) {
  Rng rng(8);
  const auto circuit = datagen::generate_sc_filter({}, rng);
  Annotator annotator(nullptr, {"ota", "bias"});
  const auto r = annotator.annotate(circuit);
  EXPECT_GT(r.post.primitives.size(), 4u);
  // With no model every cluster votes the same class, so connected blocks
  // merge; the tree still must cover every element.
  EXPECT_GE(r.hierarchy.children.size(), 1u);
  EXPECT_EQ(r.hierarchy.element_count(), r.prepared.graph.element_count());
}

TEST(Annotator, PhasedArrayPostprocessingIdentifiesStructure) {
  Rng rng(9);
  datagen::PhasedArrayOptions opt;
  opt.channels = 2;
  const auto circuit = datagen::generate_phased_array(opt, rng);
  Annotator annotator(nullptr, datagen::rf_class_names());
  const auto r = annotator.annotate(circuit);
  // Stand-alone buffers/inverters must be separated by PP-I.
  EXPECT_FALSE(r.post.standalone.empty());
  // Hierarchy contains multiple sub-blocks.
  std::size_t sub_blocks = 0;
  for (const auto& child : r.hierarchy.children) {
    if (child.kind == HierarchyNode::Kind::SubBlock) ++sub_blocks;
  }
  EXPECT_GE(sub_blocks, 4u);
}

TEST(Annotator, AnnotateBareNetlistWithoutTruth) {
  const auto netlist = spice::parse_netlist(R"(
mt tail vbn gnd! gnd! nmos w=2u l=100n
m1 x vinp tail gnd! nmos w=4u l=100n
m2 out vinn tail gnd! nmos w=4u l=100n
m3 x x vdd! vdd! pmos w=8u l=100n
m4 out x vdd! vdd! pmos w=8u l=100n
.end
)");
  Annotator annotator(nullptr, {"ota", "bias"});
  const auto r = annotator.annotate(netlist, "bare");
  // No truth -> accuracy trivially 1.0 (nothing counted).
  EXPECT_DOUBLE_EQ(r.acc_gcn, 1.0);
  EXPECT_GT(r.post.primitives.size(), 0u);
}

TEST(Annotator, StageTimingsPopulated) {
  Rng rng(10);
  const auto circuit = datagen::generate_ota({}, rng, "t");
  Annotator annotator(nullptr, {"ota", "bias"});
  const auto r = annotator.annotate(circuit);
  EXPECT_GE(r.seconds_gcn, 0.0);
  EXPECT_GE(r.seconds_post, 0.0);
}

TEST(Annotator, AttachCachesAttachesAllThreeAtOneCapacity) {
  // The one cache policy every binary uses: all three caches, each
  // bounded by the same whole-cache capacity.
  Annotator annotator(nullptr, {"ota", "bias"});
  annotator.attach_caches(7);
  ASSERT_NE(annotator.sample_cache(), nullptr);
  ASSERT_NE(annotator.inference_cache(), nullptr);
  ASSERT_NE(annotator.annotation_cache(), nullptr);
  const std::size_t per_shard = per_shard_capacity_for(7);
  EXPECT_EQ(annotator.sample_cache()->per_shard_capacity(), per_shard);
  EXPECT_EQ(annotator.inference_cache()->per_shard_capacity(), per_shard);
  EXPECT_EQ(annotator.annotation_cache()->per_shard_capacity(), per_shard);
}

TEST(Annotator, AnnotateThrowsTheDiagTryAnnotateReturns) {
  // Flatten rejects the instance of an undefined subcircuit (added
  // after parsing, whose validation would reject it first).
  auto netlist = spice::parse_netlist(R"(
m1 x vinp tail gnd! nmos w=4u l=100n
.end
)");
  netlist.instances.push_back({"x1", "nosuchcell", {"x", "out"}, 3});
  Annotator annotator(nullptr, {"ota", "bias"});
  const auto tried = annotator.try_annotate(netlist, "malformed");
  ASSERT_FALSE(tried.ok());
  try {
    (void)annotator.annotate(netlist, "malformed");
    FAIL() << "annotate accepted a malformed netlist";
  } catch (const spice::NetlistError& e) {
    EXPECT_EQ(e.diag().code, tried.diag().code);
    EXPECT_EQ(e.diag().stage, tried.diag().stage);
    EXPECT_EQ(e.diag().message, tried.diag().message);
    EXPECT_EQ(e.diag().loc.line, tried.diag().loc.line);
    EXPECT_EQ(e.diag().render(), tried.diag().render());
  }
}

/// A resistor card as a hand-built netlist holds it (no parser checks).
spice::Device resistor(std::string name, std::vector<std::string> pins,
                       std::size_t src_line) {
  spice::Device d;
  d.name = std::move(name);
  d.type = spice::DeviceType::Resistor;
  d.pins = std::move(pins);
  d.value = 1e3;
  d.src_line = src_line;
  return d;
}

TEST(Annotator, TryAnnotateRejectsASevenPinDevice) {
  // 200 resistors, then one with more pins than any device has. The
  // Diag names the circuit.
  spice::Netlist netlist;
  for (int i = 0; i < 200; ++i) {
    const std::string n = std::to_string(i);
    netlist.devices.push_back(resistor("r" + n, {"a" + n, "b" + n}, 0));
  }
  netlist.devices.push_back(
      resistor("rwide", {"a", "b", "c", "d", "e", "f", "g"}, 201));
  Annotator annotator(nullptr, {"ota", "bias"});
  const auto tried = annotator.try_annotate(netlist, "wide");
  ASSERT_FALSE(tried.ok());
  EXPECT_EQ(tried.diag().code, DiagCode::BadPinCount);
  EXPECT_EQ(tried.diag().stage, Stage::Validate);
  EXPECT_EQ(tried.diag().message,
            "device rwide in top level has 7 pins, expected 2");
  EXPECT_EQ(tried.diag().loc.file, "wide");
  EXPECT_EQ(tried.diag().loc.line, 201u);
}

TEST(Annotator, TryAnnotateRejectsAnUnnamedFirstDevice) {
  spice::Netlist netlist;
  netlist.devices.push_back(resistor("", {"a", "b"}, 2));
  netlist.devices.push_back(resistor("r1", {"b", "c"}, 3));
  Annotator annotator(nullptr, {"ota", "bias"});
  const auto tried = annotator.try_annotate(netlist, "anon");
  ASSERT_FALSE(tried.ok());
  EXPECT_EQ(tried.diag().code, DiagCode::EmptyName);
  EXPECT_EQ(tried.diag().stage, Stage::Validate);
  EXPECT_EQ(tried.diag().message, "unnamed device in top level");
  EXPECT_EQ(tried.diag().loc.file, "anon");
  EXPECT_EQ(tried.diag().loc.line, 2u);
}

// --- Model shape checks --------------------------------------------------
//
// The layers check shapes with asserts only, which release builds
// compile out: a model wider than the 18 features would read past every
// feature row, one with more classes than names would export null
// classes. The Annotator must reject both with a structured diag, and
// everything built on an Annotator inherits that.

gcn::ModelConfig small_model_config() {
  gcn::ModelConfig cfg;
  cfg.conv_channels = {8, 8};
  cfg.cheb_k = 3;
  cfg.fc_hidden = 16;
  return cfg;
}

TEST(ModelShape, CheckpointWithWrongInFeaturesIsRejected) {
  gcn::ModelConfig cfg = small_model_config();
  cfg.in_features = 20;
  const std::string path = testing::TempDir() + "gana_model_in20.ckpt";
  gcn::save_model_file(gcn::GcnModel(cfg), path);
  auto loaded = gcn::load_model_any(path);
  ASSERT_TRUE(loaded.ok()) << "the checkpoint itself is well-formed";
  const gcn::GcnModel model = loaded.take();

  try {
    const Annotator annotator(&model, {"ota", "bias"});
    ADD_FAILURE() << "a 20-feature model was accepted";
  } catch (const DiagError& e) {
    EXPECT_EQ(e.diag().code, DiagCode::ModelMismatch);
    EXPECT_EQ(e.diag().stage, Stage::Gcn);
    EXPECT_NE(e.diag().message.find("20"), std::string::npos)
        << e.diag().message;
  }

  // gana-shard's worker start-up builds an Annotator, so it fails with
  // the same diag instead of annotating anything.
  shard::PipelineOptions options;
  options.load_model = path;
  shard::SliceRunner runner;
  const auto init = runner.init(options);
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.diag().code, DiagCode::ModelMismatch);
  std::remove(path.c_str());
}

TEST(ModelShape, MoreClassesThanNamesIsRejected) {
  gcn::ModelConfig cfg = small_model_config();
  cfg.num_classes = 3;
  const gcn::GcnModel model(cfg);
  try {
    const Annotator annotator(&model, {"ota", "bias"});
    ADD_FAILURE() << "a 3-class model was accepted for 2 class names";
  } catch (const DiagError& e) {
    EXPECT_EQ(e.diag().code, DiagCode::ModelMismatch);
  }
  // Every class has a name: exact fit, or a prefix of a larger vocabulary.
  EXPECT_NO_THROW(Annotator(&model, {"lna", "mixer", "osc"}));
  EXPECT_NO_THROW(Annotator(&model, datagen::rf_class_names()));
}

TEST(ModelShape, ZeroClassModelIsRejected) {
  // softmax would read row[0] of a 0-column matrix on the first call.
  // The model itself cannot be built, so no Annotator can run one.
  gcn::ModelConfig cfg = small_model_config();
  cfg.num_classes = 0;
  try {
    const gcn::GcnModel model(cfg);
    ADD_FAILURE() << "a 0-class model was built";
  } catch (const DiagError& e) {
    EXPECT_EQ(e.diag().code, DiagCode::BadValue);
    EXPECT_EQ(e.diag().stage, Stage::Gcn);
  }
}

TEST(ModelShape, ConstructorRejectsConfigErrors) {
  // Without the check, cheb_k = 0 built a model whose ChebConv checked
  // K only by assert, and try_annotate crashed on it instead of
  // returning a Diag.
  std::vector<std::pair<std::string, gcn::ModelConfig>> cases(
      4, {"", small_model_config()});
  cases[0].first = "cheb_k 0";
  cases[0].second.cheb_k = 0;
  cases[1].first = "cheb_k kMaxChebK + 1";
  cases[1].second.cheb_k = gcn::kMaxChebK + 1;
  cases[2].first = "conv width 0";
  cases[2].second.conv_channels = {8, 0};
  cases[3].first = "fc_hidden 0";
  cases[3].second.fc_hidden = 0;
  for (const auto& [what, cfg] : cases) {
    SCOPED_TRACE(what);
    const std::string error = gcn::config_error(cfg);
    ASSERT_FALSE(error.empty());
    std::unique_ptr<gcn::GcnModel> model;
    try {
      model = std::make_unique<gcn::GcnModel>(cfg);
      ADD_FAILURE() << "the model was built";
    } catch (const DiagError& e) {
      EXPECT_EQ(e.diag().code, DiagCode::BadValue);
      EXPECT_EQ(e.diag().stage, Stage::Gcn);
      EXPECT_NE(e.diag().message.find(error), std::string::npos)
          << e.diag().message;
    }
    if (model == nullptr) continue;
    // Reached only when the constructor accepted the config: the
    // Annotator must not run the model.
    try {
      const Annotator annotator(model.get(), {"ota", "bias"});
      const auto r = annotator.try_annotate(
          spice::parse_netlist("m1 d g s b nmos w=1u l=1u\n.end\n"), "one");
      ADD_FAILURE() << "an Annotator ran the model: "
                    << (r.ok() ? "ok" : r.diag().render());
    } catch (const DiagError&) {
    }
  }
  // The boundary values still build.
  gcn::ModelConfig edge = small_model_config();
  edge.cheb_k = 1;
  EXPECT_NO_THROW(gcn::GcnModel{edge});
  edge.cheb_k = gcn::kMaxChebK;
  edge.conv_channels = {1};
  edge.fc_hidden = 1;
  EXPECT_NO_THROW(gcn::GcnModel{edge});
}

TEST(ModelShape, TextLoaderRejectsOutOfRangeConfigs) {
  // A 0-class model crashes softmax on its first call, and an
  // out-of-range K throws length_error or bad_alloc out of GcnModel's
  // constructor: each must be a BadValue diag instead.
  std::stringstream buffer;
  gcn::save_model(gcn::GcnModel(small_model_config()), buffer);
  const std::string text = buffer.str();
  const std::pair<std::string, std::string> cases[] = {
      {"num_classes", "0"}, {"cheb_k", "-3"}, {"cheb_k", "2000000000"}};
  for (const auto& [key, value] : cases) {
    SCOPED_TRACE(key + " " + value);
    const std::size_t at = text.find("\n" + key + " ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = text.find('\n', at + 1);
    std::stringstream in(text.substr(0, at + 1) + key + " " + value +
                         text.substr(end));
    const auto loaded = gcn::load_model_result(in, "bad.ckpt");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.diag().code, DiagCode::BadValue) << loaded.diag().render();
  }
}

TEST(ModelShape, ScalarCountMatchesTheModelsTensors) {
  std::vector<gcn::ModelConfig> configs(4, small_model_config());
  configs[1].conv_kind = gcn::ConvKind::SageMean;
  configs[2].batch_norm = false;
  configs[2].conv_channels = {4, 5, 6};
  configs[3].use_pooling = true;
  configs[3].num_classes = 5;
  for (const gcn::ModelConfig& cfg : configs) {
    gcn::GcnModel model(cfg);
    std::size_t total = 0;
    for (const Matrix* p : model.params()) total += p->size();
    for (const Matrix* b : model.buffers()) total += b->size();
    EXPECT_EQ(gcn::tensor_scalar_count(cfg), total);
  }
  gcn::ModelConfig huge = small_model_config();
  huge.fc_hidden = std::size_t{1} << 62;
  EXPECT_EQ(gcn::tensor_scalar_count(huge), std::nullopt);
}

// --- Primitive matching beside the GCN. With a compute pool attached,
// Annotator::run runs CCC and primitive matching as one pool task, which
// fans the library patterns out on the same pool, while the calling
// thread runs the GCN branch. Outputs, and the Diag of a failure, must
// equal the sequential run's at one compute thread.

/// Runs `body` at 1, 2 and 3 compute threads and returns its results in
/// that order; the pool is disabled again afterwards.
template <typename F>
std::vector<std::string> at_one_two_three_threads(F&& body) {
  std::vector<std::string> out;
  for (const std::size_t threads : {1, 2, 3}) {
    set_compute_threads(threads);
    out.push_back(body());
  }
  set_compute_threads(1);
  return out;
}

/// The annotation JSON of a successful run, or its rendered Diag.
std::string json_or_diag(const Annotator& annotator,
                         const Result<AnnotateResult>& r) {
  if (!r.ok()) return "diag " + r.diag().render();
  return annotation_to_json(r.value(), annotator.class_names());
}

void expect_all_equal(const std::vector<std::string>& runs) {
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[1], runs[0]) << "2 compute threads";
  EXPECT_EQ(runs[2], runs[0]) << "3 compute threads";
}

TEST(AnnotatorOverlap, PhasedArrayJsonIsByteIdenticalAtOneTwoThreeThreads) {
  Rng rng(3);
  datagen::PhasedArrayOptions opt;
  opt.channels = 3;
  const auto design = datagen::generate_phased_array(opt, rng);
  for (const gcn::ConvKind kind :
       {gcn::ConvKind::Chebyshev, gcn::ConvKind::SageMean}) {
    gcn::ModelConfig cfg = small_model_config();
    cfg.conv_kind = kind;
    cfg.num_classes = datagen::rf_class_names().size();
    const gcn::GcnModel model(cfg);
    Annotator annotator(&model, datagen::rf_class_names());
    const auto runs = at_one_two_three_threads(
        [&] { return json_or_diag(annotator, annotator.try_annotate(design)); });
    ASSERT_EQ(runs[0].rfind("diag", 0), std::string::npos) << runs[0];
    expect_all_equal(runs);
    // With every cache attached, a miss and then a hit give the same bytes.
    annotator.attach_caches(0);
    const auto cached = at_one_two_three_threads([&] {
      return json_or_diag(annotator, annotator.try_annotate(design)) +
             json_or_diag(annotator, annotator.try_annotate(design));
    });
    for (const std::string& run : cached) EXPECT_EQ(run, runs[0] + runs[0]);
  }
}

TEST(AnnotatorOverlap, EveryFixtureJsonIsByteIdenticalAtOneTwoThreeThreads) {
  const gcn::GcnModel model(small_model_config());
  const Annotator annotator(&model, {"ota", "bias"});
  std::size_t fixtures = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GANA_TEST_FIXTURE_DIR)) {
    if (entry.path().extension() != ".sp") continue;
    ++fixtures;
    const std::string name = entry.path().stem().string();
    SCOPED_TRACE(name);
    const spice::Netlist netlist =
        spice::parse_netlist_file(entry.path().string());
    const auto runs = at_one_two_three_threads([&] {
      return json_or_diag(annotator, annotator.try_annotate(netlist, name));
    });
    EXPECT_EQ(runs[0].rfind("diag", 0), std::string::npos) << runs[0];
    expect_all_equal(runs);
  }
  EXPECT_GE(fixtures, 5u);
}

TEST(AnnotatorOverlap, HighFanoutJsonIsByteIdenticalAtOneTwoThreeThreads) {
  // A matching-heavy circuit: 32 devices share one drain and one source
  // net, so every two-device pattern has O(N^2) candidate pairs for the
  // task's pattern fan-out to share out.
  const gcn::GcnModel model(small_model_config());
  const Annotator annotator(&model, {"ota", "bias"});
  const spice::Netlist netlist = spice::parse_netlist_file(
      std::string(GANA_FUZZ_CORPUS_DIR) + "/high_fanout.sp");
  const auto runs = at_one_two_three_threads([&] {
    return json_or_diag(annotator, annotator.try_annotate(netlist, "fan"));
  });
  ASSERT_EQ(runs[0].rfind("diag", 0), std::string::npos) << runs[0];
  expect_all_equal(runs);
}

TEST(AnnotatorOverlap, OracleRunIsByteIdenticalAtOneTwoThreeThreads) {
  // annotate_oracle replaces the GCN with a probabilities hook; matching
  // still runs beside it.
  Rng rng(3);
  datagen::PhasedArrayOptions opt;
  opt.channels = 3;
  const auto design = datagen::generate_phased_array(opt, rng);
  const Annotator annotator(nullptr, datagen::rf_class_names());
  const std::size_t classes = datagen::rf_class_names().size();
  const auto runs = at_one_two_three_threads([&] {
    return annotation_to_json(annotator.annotate_oracle(design, classes),
                              annotator.class_names());
  });
  expect_all_equal(runs);
}

/// Disarms the process-wide fault injector when a test ends.
struct DisarmOnExit {
  ~DisarmOnExit() { FaultInjector::instance().disarm(); }
};

/// Annotates a phased array at `threads` compute threads, with fault
/// key 11 and a deadline `deadline_seconds` after the annotation starts
/// (none when negative).
std::string phased_array_at(std::size_t threads,
                            double deadline_seconds = -1.0) {
  Rng rng(3);
  datagen::PhasedArrayOptions opt;
  opt.channels = 2;
  const auto design = datagen::generate_phased_array(opt, rng);
  gcn::ModelConfig cfg = small_model_config();
  cfg.num_classes = datagen::rf_class_names().size();
  const gcn::GcnModel model(cfg);
  const Annotator annotator(&model, datagen::rf_class_names());
  set_compute_threads(threads);
  const Deadline deadline = deadline_seconds < 0.0
                                ? Deadline()
                                : Deadline::after_seconds(deadline_seconds);
  const RequestContext ctx{&deadline, 11};
  std::string out;
  {
    ScopedRequestContext scope(&ctx);
    out = json_or_diag(annotator, annotator.try_annotate(design));
  }
  set_compute_threads(1);
  return out;
}

std::vector<std::string> phased_array_diags(double deadline_seconds = -1.0) {
  return {phased_array_at(1, deadline_seconds),
          phased_array_at(2, deadline_seconds),
          phased_array_at(3, deadline_seconds)};
}

TEST(AnnotatorOverlap, PreExpiredDeadlineGivesTheSequentialDiag) {
  const auto runs = phased_array_diags(0.0);
  EXPECT_NE(runs[0].find("deadline-exceeded"), std::string::npos) << runs[0];
  expect_all_equal(runs);
}

TEST(AnnotatorOverlap, FaultsInBothBranchesGiveTheGcnBranchDiag) {
  const DisarmOnExit disarm;
  FaultInjector& injector = FaultInjector::instance();
  FaultPlan error;
  error.stage_error = 1.0;
  FaultPlan alloc;
  alloc.alloc_failure = 1.0;
  // Both branches fail: the GCN's Diag wins, as in sequence.
  injector.arm(5);
  injector.set_stage_plan(Stage::Gcn, error);
  injector.set_stage_plan(Stage::Primitives, alloc);
  auto runs = phased_array_diags();
  EXPECT_NE(runs[0].find("internal"), std::string::npos) << runs[0];
  EXPECT_NE(runs[0].find("gcn"), std::string::npos) << runs[0];
  expect_all_equal(runs);
  // Only the primitive task fails: its Diag, stamped Primitives.
  injector.arm(5);
  injector.set_stage_plan(Stage::Primitives, alloc);
  runs = phased_array_diags();
  EXPECT_NE(runs[0].find("budget-exhausted"), std::string::npos) << runs[0];
  EXPECT_NE(runs[0].find("primitives"), std::string::npos) << runs[0];
  expect_all_equal(runs);
  injector.arm(5);
  injector.set_stage_plan(Stage::Primitives, error);
  runs = phased_array_diags();
  EXPECT_NE(runs[0].find("primitives"), std::string::npos) << runs[0];
  expect_all_equal(runs);
  // Only the GCN branch fails, while the task may still be matching.
  injector.arm(5);
  injector.set_stage_plan(Stage::Features, error);
  runs = phased_array_diags();
  EXPECT_NE(runs[0].find("features"), std::string::npos) << runs[0];
  expect_all_equal(runs);
}

TEST(AnnotatorOverlap, DeadlineExpiringInTheGcnBranchGivesItsDiag) {
  // A stall at the features checkpoint carries the request past its
  // deadline there, whatever the primitive task is doing meanwhile. The
  // front end must finish well inside the deadline, sanitizer builds
  // included.
  const DisarmOnExit disarm;
  FaultPlan stall;
  stall.stage_delay = 1.0;
  stall.delay_seconds = 0.3;
  FaultInjector::instance().arm(5);
  FaultInjector::instance().set_stage_plan(Stage::Features, stall);
  const auto runs = phased_array_diags(0.15);
  EXPECT_NE(runs[0].find("deadline-exceeded"), std::string::npos) << runs[0];
  EXPECT_NE(runs[0].find("features"), std::string::npos) << runs[0];
  expect_all_equal(runs);
}

}  // namespace
}  // namespace gana::core
