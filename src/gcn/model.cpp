#include "gcn/model.hpp"

#include "util/deadline.hpp"

#include <cstdint>
#include <cstring>

namespace gana::gcn {

GcnModel::GcnModel(const ModelConfig& config)
    : config_(config), rng_(config.seed) {
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
  const Matrix* cur = &sample.features;
  Matrix* next = &ws.act_a;
  for (const auto& layer : layers_) {
    // Per-request deadline checkpoint between layers: inference is the
    // longest uninterruptible span of the pipeline, and a layer is its
    // natural granularity (aborting mid-kernel would buy little and cost
    // a branch per tile).
    check_deadline(Stage::Gcn);
    if (layer->infers_identity()) continue;  // eval-mode dropout
    layer->infer_into(*cur, sample, ws, *next);
    cur = next;
    next = (next == &ws.act_a) ? &ws.act_b : &ws.act_a;
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
