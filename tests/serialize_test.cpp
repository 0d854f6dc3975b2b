#include <gtest/gtest.h>

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

TEST(Serialize, RoundTripPreservesOutputs) {
  GcnModel model(tiny_config());
  const auto s = tiny_sample(1);
  const Matrix before = model.forward(s, false);

  std::stringstream buffer;
  save_model(model, buffer);
  GcnModel loaded = load_model(buffer);
  const Matrix after = loaded.forward(s, false);

  ASSERT_EQ(before.rows(), after.rows());
  ASSERT_EQ(before.cols(), after.cols());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-12);
  }
}

TEST(Serialize, RoundTripPreservesConfig) {
  GcnModel model(tiny_config());
  std::stringstream buffer;
  save_model(model, buffer);
  GcnModel loaded = load_model(buffer);
  EXPECT_EQ(loaded.config().in_features, 4u);
  EXPECT_EQ(loaded.config().num_classes, 2u);
  EXPECT_EQ(loaded.config().conv_channels,
            (std::vector<std::size_t>{6, 5}));
  EXPECT_EQ(loaded.config().cheb_k, 3);
  EXPECT_EQ(loaded.config().fc_hidden, 7u);
  EXPECT_DOUBLE_EQ(loaded.config().dropout, 0.25);
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
    std::stringstream buffer;
    save_model(model, buffer);
    auto text = load_model_result(buffer);
    ASSERT_TRUE(text.ok()) << text.diag().render();
    expect_same_config(text.value().config(), cfg);
    EXPECT_EQ(text.value().weights_fingerprint(), model.weights_fingerprint());

    const std::string path = ::testing::TempDir() + "/gana_config.bin";
    ASSERT_TRUE(save_model_artifact(model, path).ok());
    auto binary = load_model_artifact(path);
    ASSERT_TRUE(binary.ok()) << binary.diag().render();
    expect_same_config(binary.value().config(), cfg);
    EXPECT_EQ(binary.value().weights_fingerprint(),
              model.weights_fingerprint());
  }
}

TEST(Serialize, RejectsUnknownConvKindAndPoolMode) {
  const GcnModel model(tiny_config());
  std::stringstream buffer;
  save_model(model, buffer);
  const std::string text = buffer.str();
  for (const auto& [line, bad] :
       {std::pair<std::string, std::string>{"conv_kind cheb\n",
                                            "conv_kind chebyshev\n"},
        {"pool_mode max\n", "pool_mode min\n"}}) {
    SCOPED_TRACE(bad);
    std::string edited = text;
    const auto pos = edited.find(line);
    ASSERT_NE(pos, std::string::npos);
    edited.replace(pos, line.size(), bad);
    std::stringstream in(edited);
    auto r = load_model_result(in, "bad.ckpt");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::BadValue) << r.diag().render();
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

  std::stringstream buffer;
  save_model(model, buffer);
  GcnModel loaded = load_model(buffer);
  EXPECT_DOUBLE_EQ(evaluate_accuracy(loaded, data), acc_before);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buffer("not-a-checkpoint 42");
  EXPECT_THROW(load_model(buffer), std::runtime_error);
}

TEST(Serialize, RejectsTruncated) {
  GcnModel model(tiny_config());
  std::stringstream buffer;
  save_model(model, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_THROW(load_model(half), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  GcnModel model(tiny_config());
  const std::string path = ::testing::TempDir() + "/gana_model.ckpt";
  save_model_file(model, path);
  GcnModel loaded = load_model_file(path);
  const auto s = tiny_sample(4);
  const Matrix a = model.forward(s, false);
  const Matrix b = loaded.forward(s, false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-12);
  }
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model_file("/no/such/dir/model.ckpt"),
               std::runtime_error);
}

}  // namespace
}  // namespace gana::gcn
