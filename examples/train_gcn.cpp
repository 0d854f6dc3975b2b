// Trains the circuit-recognition GCN on the synthetic OTA-bias dataset
// (paper §V-A) and reports training/validation accuracy.
//
//   ./train_gcn [--circuits 200] [--epochs 40] [--k 8] [--pooling]
//
// --circuits and --epochs are at least 1 and --k lies in
// 1..gcn::kMaxChebK; any other value is a usage error (exit 1).
#include <cstdio>

#include "gana.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const gana::Args args(argc, argv);
  std::size_t circuits = 0;
  int epochs = 0, k = 0;
  try {
    args.reject_unknown({"circuits", "epochs", "k", "pooling"});
    circuits = args.get_count("circuits", 200, 1);
    epochs = static_cast<int>(args.get_count("epochs", 40, 1));
    k = static_cast<int>(args.get_count("k", 8, 1, gana::gcn::kMaxChebK));
  } catch (const gana::ArgError& e) {
    std::fprintf(stderr, "train_gcn: %s\n", e.what());
    return 1;
  }
  const bool pooling = args.has("pooling");

  std::printf("generating %zu OTA circuits...\n", circuits);
  gana::datagen::DatasetOptions dopt;
  dopt.circuits = circuits;
  dopt.seed = 1;
  const auto dataset = gana::datagen::make_ota_dataset(dopt);
  const auto stats = gana::datagen::dataset_stats(dataset);
  std::printf("  %zu devices + %zu nets = %zu nodes, %zu labels\n",
              stats.devices, stats.nets, stats.nodes(), stats.labels);

  gana::gcn::ModelConfig cfg;
  cfg.in_features = gana::core::kNumFeatures;
  cfg.num_classes = 2;
  cfg.conv_channels = {32, 64};
  cfg.cheb_k = k;
  cfg.fc_hidden = 512;
  cfg.use_pooling = pooling;
  cfg.seed = 7;

  auto samples = gana::core::make_gcn_samples(
      dataset, cfg.required_pool_levels(), /*seed=*/11);
  auto [train_set, val_set] =
      gana::gcn::split_dataset(std::move(samples), 0.8, 13);
  std::printf("train %zu circuits, validation %zu circuits\n",
              train_set.size(), val_set.size());

  gana::gcn::GcnModel model(cfg);
  std::printf("model: %zu parameters, K=%d, pooling=%s\n",
              model.parameter_count(), k, pooling ? "on" : "off");

  gana::gcn::TrainConfig tc;
  tc.epochs = epochs;
  tc.patience = 10;
  tc.verbose = true;
  const auto result = gana::gcn::train(model, train_set, val_set, tc);

  std::printf("\nbest validation accuracy %.2f%% at epoch %d (%.1fs)\n",
              result.best_val_acc * 100.0, result.best_epoch,
              result.train_seconds);

  const auto confusion =
      gana::gcn::confusion_matrix(model, val_set, cfg.num_classes);
  std::printf("validation confusion (rows=truth ota/bias):\n");
  for (const auto& row : confusion) {
    std::printf(" ");
    for (std::size_t v : row) std::printf(" %6zu", v);
    std::printf("\n");
  }
  return 0;
}
