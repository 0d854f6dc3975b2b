#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "gcn/serialize.hpp"
#include "gcn/trainer.hpp"

namespace gana::gcn {
namespace {

GraphSample tiny_sample(std::uint64_t seed) {
  std::vector<Triplet> t{{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}, {2, 1, 1.0}};
  auto adj = SparseMatrix::from_triplets(3, 3, std::move(t));
  Rng rng(seed);
  Matrix x = Matrix::randn(3, 4, 1.0, rng);
  return make_sample(adj, std::move(x), {0, 1, 0}, 0, rng, "tiny");
}

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.in_features = 4;
  cfg.num_classes = 2;
  cfg.conv_channels = {6, 5};
  cfg.cheb_k = 3;
  cfg.fc_hidden = 7;
  cfg.dropout = 0.25;
  cfg.seed = 99;
  return cfg;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/gana_serialize_" + name;
}

/// Saves `model` as an artifact at `path` and loads it back.
GcnModel round_trip(const GcnModel& model, const std::string& path) {
  const auto saved = save_model_artifact(model, path);
  if (!saved.ok()) throw DiagError(saved.diag());
  auto loaded = load_model_any(path);
  if (!loaded.ok()) throw DiagError(loaded.diag());
  return loaded.take();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Serialize, RoundTripPreservesOutputs) {
  GcnModel model(tiny_config());
  const auto s = tiny_sample(1);
  const Matrix before = model.forward(s, false);

  GcnModel loaded = round_trip(model, temp_path("outputs.bin"));
  const Matrix after = loaded.forward(s, false);

  ASSERT_EQ(before.rows(), after.rows());
  ASSERT_EQ(before.cols(), after.cols());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.data()[i], after.data()[i]) << "bit drift at " << i;
  }
}

void expect_same_config(const ModelConfig& a, const ModelConfig& b) {
  EXPECT_EQ(a.in_features, b.in_features);
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.conv_kind, b.conv_kind);
  EXPECT_EQ(a.conv_channels, b.conv_channels);
  EXPECT_EQ(a.cheb_k, b.cheb_k);
  EXPECT_EQ(a.fc_hidden, b.fc_hidden);
  EXPECT_EQ(a.use_pooling, b.use_pooling);
  EXPECT_EQ(a.pool_mode, b.pool_mode);
  EXPECT_EQ(a.dropout, b.dropout);
  EXPECT_EQ(a.batch_norm, b.batch_norm);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(Serialize, EveryConfigFieldSurvivesBothFormats) {
  // Every ModelConfig field off its default, then the other value of
  // each enum and flag. A SageConv model with cheb_k = 2 has the tensor
  // shapes and weights fingerprint of a K = 2 Chebyshev model, so only
  // the config itself can tell the two apart.
  ModelConfig off_default;
  off_default.in_features = 5;
  off_default.num_classes = 3;
  off_default.conv_kind = ConvKind::SageMean;
  off_default.conv_channels = {6, 4};
  off_default.cheb_k = 2;
  off_default.fc_hidden = 7;
  off_default.use_pooling = true;
  off_default.pool_mode = GraclusPool::Mode::Mean;
  off_default.dropout = 0.125;
  off_default.batch_norm = false;
  off_default.seed = 4242;
  ModelConfig flipped = off_default;
  flipped.conv_kind = ConvKind::Chebyshev;
  flipped.cheb_k = 3;
  flipped.use_pooling = false;
  flipped.pool_mode = GraclusPool::Mode::Max;
  flipped.batch_norm = true;
  for (const ModelConfig& cfg : {off_default, flipped}) {
    const GcnModel model(cfg);
    const GcnModel loaded = round_trip(model, temp_path("config.bin"));
    expect_same_config(loaded.config(), cfg);
    EXPECT_EQ(loaded.weights_fingerprint(), model.weights_fingerprint());
  }
}

TEST(Serialize, TrainedWeightsSurvive) {
  GcnModel model(tiny_config());
  std::vector<GraphSample> data{tiny_sample(2), tiny_sample(3)};
  TrainConfig tc;
  tc.epochs = 5;
  tc.patience = 0;
  train(model, data, {}, tc);
  const double acc_before = evaluate_accuracy(model, data);

  GcnModel loaded = round_trip(model, temp_path("trained.bin"));
  EXPECT_EQ(loaded.weights_fingerprint(), model.weights_fingerprint());
  EXPECT_DOUBLE_EQ(evaluate_accuracy(loaded, data), acc_before);
}

TEST(Serialize, FileRoundTrip) {
  // Saving a loaded model writes the file it was loaded from, byte for
  // byte.
  GcnModel model(tiny_config());
  const std::string first = temp_path("first.bin");
  const std::string second = temp_path("second.bin");
  const GcnModel loaded = round_trip(model, first);
  ASSERT_TRUE(save_model_artifact(loaded, second).ok());
  const std::string bytes = read_file(first);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(read_file(second), bytes);
}

TEST(Serialize, MissingFileIsIoError) {
  const auto r = load_model_any("/no/such/dir/model.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::IoError) << r.diag().render();
  EXPECT_EQ(r.diag().loc.file, "/no/such/dir/model.bin");
}

TEST(Serialize, TextCheckpointIsAFormatError) {
  // A 1-wide ChebConv model (in_features, num_classes, conv_channels,
  // cheb_k and fc_hidden all 1) in the retired "gana-gcn-v1" text
  // checkpoint format, as its writer laid it out. Text has no checksum
  // or fingerprint, so it is not a model file: the loader must reject it
  // before reading any weight.
  const std::string text =
      "gana-gcn-v1\n"
      "in_features 1\n"
      "num_classes 1\n"
      "conv_kind cheb\n"
      "conv_channels 1\n"
      "cheb_k 1\n"
      "fc_hidden 1\n"
      "use_pooling 0\n"
      "pool_mode max\n"
      "dropout 0.5\n"
      "batch_norm 1\n"
      "seed 1\n"
      "tensors 10\n"
      "1 1\n0.7029418499922877 \n"
      "1 1\n0 \n"
      "1 1\n1 \n"
      "1 1\n0 \n"
      "1 1\n0.070794528138150792 \n"
      "1 1\n0 \n"
      "1 1\n0.25670967512923459 \n"
      "1 1\n0 \n"
      "1 1\n0 \n"
      "1 1\n1 \n";
  const std::string path = temp_path("one_wide.ckpt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
  }
  const auto r = load_model_any(path);
  ASSERT_FALSE(r.ok()) << "a text checkpoint loaded";
  EXPECT_EQ(r.diag().code, DiagCode::FormatError) << r.diag().render();
  EXPECT_EQ(r.diag().stage, Stage::Io);
  EXPECT_EQ(r.diag().loc.file, path);
}

}  // namespace
}  // namespace gana::gcn
