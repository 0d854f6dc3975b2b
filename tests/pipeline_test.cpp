#include <gtest/gtest.h>

#include "core/pipeline.hpp"

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gcn/serialize.hpp"
#include "shard/driver.hpp"
#include "spice/parser.hpp"
#include "util/diag.hpp"
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
  gcn::ModelConfig cfg = small_model_config();
  cfg.num_classes = 0;
  const gcn::GcnModel model(cfg);
  try {
    const Annotator annotator(&model, {"ota", "bias"});
    ADD_FAILURE() << "a 0-class model was accepted";
  } catch (const DiagError& e) {
    EXPECT_EQ(e.diag().code, DiagCode::ModelMismatch);
  }
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

}  // namespace
}  // namespace gana::core
