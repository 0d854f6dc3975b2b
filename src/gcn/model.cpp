#include "gcn/model.hpp"

#include "util/deadline.hpp"
#include "util/diag.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace gana::gcn {

std::string config_error(const ModelConfig& cfg) {
  if (cfg.cheb_k < 1 || cfg.cheb_k > kMaxChebK) {
    return "cheb_k " + std::to_string(cfg.cheb_k) + " outside [1, " +
           std::to_string(kMaxChebK) + "]";
  }
  if (cfg.num_classes < 1) return "num_classes must be at least 1";
  if (cfg.in_features < 1) return "in_features must be at least 1";
  if (cfg.fc_hidden < 1) return "fc_hidden must be at least 1";
  for (const std::size_t c : cfg.conv_channels) {
    if (c < 1) return "every conv_channels width must be at least 1";
  }
  return {};
}

std::optional<std::size_t> tensor_scalar_count(const ModelConfig& cfg) {
  // Mirrors the constructor below: a convolution holds its weight and
  // bias, a batch norm gamma, beta and the two running statistics, a
  // dense layer its weight and bias.
  std::size_t total = 0;
  bool overflow = false;
  const auto add_product = [&](std::size_t a, std::size_t b) {
    std::size_t p = 0;
    overflow = overflow || __builtin_mul_overflow(a, b, &p) ||
               __builtin_add_overflow(total, p, &total);
  };
  const std::size_t taps =
      cfg.conv_kind == ConvKind::Chebyshev
          ? static_cast<std::size_t>(std::max(cfg.cheb_k, 0))
          : 2;
  std::size_t channels = cfg.in_features;
  for (const std::size_t out : cfg.conv_channels) {
    std::size_t rows = 0;
    overflow = overflow || __builtin_mul_overflow(taps, channels, &rows);
    add_product(rows, out);
    add_product(cfg.batch_norm ? 5 : 1, out);
    channels = out;
  }
  add_product(channels, cfg.fc_hidden);
  add_product(1, cfg.fc_hidden);
  add_product(cfg.fc_hidden, cfg.num_classes);
  add_product(1, cfg.num_classes);
  if (overflow) return std::nullopt;
  return total;
}

GcnModel::GcnModel(const ModelConfig& config)
    : config_(config), rng_(config.seed) {
  if (const std::string error = config_error(config_); !error.empty()) {
    throw DiagError(
        make_diag(DiagCode::BadValue, Stage::Gcn, "model config: " + error));
  }
  std::size_t channels = config_.in_features;
  const int num_convs = static_cast<int>(config_.conv_channels.size());
  for (int i = 0; i < num_convs; ++i) {
    const std::size_t out = config_.conv_channels[static_cast<std::size_t>(i)];
    const int level = config_.use_pooling ? i : 0;
    if (config_.conv_kind == ConvKind::SageMean) {
      layers_.push_back(std::make_unique<SageConv>(channels, out, level, rng_));
    } else {
      layers_.push_back(std::make_unique<ChebConv>(
          channels, out, config_.cheb_k, level, rng_));
    }
    if (config_.batch_norm) {
      layers_.push_back(std::make_unique<BatchNorm>(out));
    }
    layers_.push_back(std::make_unique<Relu>());
    if (config_.use_pooling) {
      layers_.push_back(std::make_unique<GraclusPool>(i, config_.pool_mode));
    }
    channels = out;
  }
  if (config_.dropout > 0.0) {
    layers_.push_back(std::make_unique<Dropout>(config_.dropout));
  }
  layers_.push_back(std::make_unique<Dense>(channels, config_.fc_hidden, rng_));
  layers_.push_back(std::make_unique<Relu>());
  if (config_.dropout > 0.0) {
    layers_.push_back(std::make_unique<Dropout>(config_.dropout));
  }
  layers_.push_back(
      std::make_unique<Dense>(config_.fc_hidden, config_.num_classes, rng_));
  // Broadcast coarse logits back to the original vertices.
  if (config_.use_pooling) {
    for (int i = num_convs - 1; i >= 0; --i) {
      layers_.push_back(std::make_unique<Unpool>(i));
    }
  }
}

Matrix GcnModel::forward(const GraphSample& sample, bool training) {
  Matrix x = sample.features;
  for (auto& layer : layers_) {
    x = layer->forward(x, sample, training, rng_);
  }
  return x;
}

Matrix GcnModel::infer(const GraphSample& sample) const {
  InferWorkspace ws;
  return infer(sample, ws);  // copies the logits out of the workspace
}

const Matrix& GcnModel::infer(const GraphSample& sample,
                              InferWorkspace& ws) const {
  // Segment executor: a step over the whole graph (a convolution's
  // basis, a pool or an unpool), then every row-local layer up to the
  // next graph step as one RowTail, evaluated per block of rows.
  const Matrix* cur = &sample.features;
  const auto spare = [&ws](const Matrix* m) {
    return m == &ws.act_a ? &ws.act_b : &ws.act_a;
  };
  std::size_t i = 0;
  while (i < layers_.size()) {
    // Per-request deadline checkpoints between steps: inference is the
    // longest uninterruptible span of the pipeline, and a step is its
    // natural granularity (aborting mid-kernel would buy little and
    // cost a branch per tile).
    check_deadline(Stage::Gcn);
    if (layers_[i]->has_graph_step()) {
      cur = &layers_[i]->infer_graph(*cur, sample, ws, *spare(cur));
    }
    ws.tail.clear();
    do {
      layers_[i]->append_to_tail(ws.tail);
      ++i;
    } while (i < layers_.size() && !layers_[i]->has_graph_step());
    if (ws.tail.empty()) continue;
    check_deadline(Stage::Gcn);
    Matrix* out = spare(cur);
    ws.tail.run(*cur, *out);
    cur = out;
  }
  return *cur;
}

void GcnModel::backward(const Matrix& grad_logits) {
  Matrix g = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
}

std::vector<Matrix*> GcnModel::params() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> GcnModel::grads() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::vector<Matrix*> GcnModel::buffers() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* b : layer->buffers()) out.push_back(b);
  }
  return out;
}

void GcnModel::zero_grads() {
  for (auto& layer : layers_) layer->zero_grads();
}

std::size_t GcnModel::parameter_count() {
  std::size_t total = 0;
  for (Matrix* p : params()) total += p->size();
  return total;
}

std::uint64_t GcnModel::weights_fingerprint() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix_u64 = [&h](std::uint64_t bits) {
    h ^= bits;
    h *= 1099511628211ull;  // FNV-1a prime
  };
  auto mix_matrix = [&](const Matrix& m) {
    mix_u64(static_cast<std::uint64_t>(m.rows()));
    mix_u64(static_cast<std::uint64_t>(m.cols()));
    for (const double v : m.data()) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      mix_u64(bits);
    }
  };
  for (const auto& layer : layers_) {
    for (const Matrix* p : layer->params()) mix_matrix(*p);
    for (const Matrix* b : layer->buffers()) mix_matrix(*b);
  }
  return h;
}

}  // namespace gana::gcn
