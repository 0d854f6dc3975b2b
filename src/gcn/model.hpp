// The circuit-recognition GCN (paper §III-B, Fig. 4).
//
// Default topology: two Chebyshev convolution stages (with batch norm,
// ReLU, and optional Graclus pooling) followed by a 512-wide fully
// connected layer and a softmax classifier over sub-block classes.
// Without pooling the network is a per-node ChebNet classifier; with
// pooling enabled, convolutions after the i-th pool operate on the i-th
// coarsened graph and the logits are broadcast back to the original
// vertices through unpooling layers.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gcn/layers.hpp"

namespace gana::gcn {

/// Which graph convolution the model uses.
enum class ConvKind {
  Chebyshev,  ///< spectral ChebNet (the paper's choice, Eq. 3-5)
  SageMean,   ///< GraphSAGE mean aggregator (ablation alternative)
};

struct ModelConfig {
  std::size_t in_features = 18;
  std::size_t num_classes = 2;
  ConvKind conv_kind = ConvKind::Chebyshev;
  /// Output channels of each Chebyshev convolution stage; the paper uses
  /// two stages (one to three explored in the layer ablation).
  std::vector<std::size_t> conv_channels = {32, 64};
  /// Chebyshev filter size K (paper Fig. 5 sweeps this).
  int cheb_k = 8;
  /// Width of the fully connected layer ("of size 512" in the paper).
  std::size_t fc_hidden = 512;
  bool use_pooling = false;
  GraclusPool::Mode pool_mode = GraclusPool::Mode::Max;
  double dropout = 0.5;
  bool batch_norm = true;
  std::uint64_t seed = 1;

  /// Number of Graclus levels a GraphSample must be prepared with.
  [[nodiscard]] int required_pool_levels() const {
    return use_pooling ? static_cast<int>(conv_channels.size()) : 0;
  }
};

/// Largest Chebyshev filter size a model may have: past the paper's
/// sweep (Fig. 5 goes to 48), small enough that a corrupt config cannot
/// turn K x width into an absurd allocation.
inline constexpr int kMaxChebK = 256;

/// Why `cfg` cannot build a model, or an empty string when it can:
/// 1 <= cheb_k <= kMaxChebK, num_classes >= 1 and every width >= 1.
/// Loaders check it before constructing anything, and GcnModel's
/// constructor throws on it.
[[nodiscard]] std::string config_error(const ModelConfig& cfg);

/// Scalars in every parameter and buffer tensor a model built from
/// `cfg` holds, or nullopt when the count overflows size_t. Arithmetic
/// only, so a loader can compare it with a file before it allocates.
[[nodiscard]] std::optional<std::size_t> tensor_scalar_count(
    const ModelConfig& cfg);

/// A feed-forward stack of layers with explicit backprop.
class GcnModel {
 public:
  /// Throws DiagError (BadValue, stage gcn) carrying config_error's
  /// message when `config` cannot build a model: a layer built from it
  /// would check its shape only with asserts, compiled out of release
  /// builds, and annotation would crash instead of failing.
  explicit GcnModel(const ModelConfig& config);

  /// Per-node logits, shape nodes x num_classes.
  Matrix forward(const GraphSample& sample, bool training);

  /// Evaluation-mode logits without touching any mutable state --
  /// bit-identical to forward(sample, false). Thread-safe: concurrent
  /// infer() calls may share one model (the parallel batch runtime
  /// annotates many circuits against the same weights).
  [[nodiscard]] Matrix infer(const GraphSample& sample) const;

  /// Zero-allocation fast path: logits land in a workspace buffer that
  /// is reused (and stays valid) until the next infer call with the same
  /// workspace. Bit-identical to infer(sample) and to forward(sample,
  /// false) at any compute-pool width. Runs the network as segments: a
  /// whole-graph step (a convolution's basis, a pool, an unpool), then
  /// the row-local layers up to the next one as a RowTail, whose row
  /// blocks fan out over compute_pool() when the caller is not a pool
  /// worker. Once the workspace is warm for the largest sample shape,
  /// steady-state calls perform zero heap allocations.
  const Matrix& infer(const GraphSample& sample, InferWorkspace& ws) const;

  /// Backpropagates dLoss/dLogits, accumulating parameter gradients.
  void backward(const Matrix& grad_logits);

  [[nodiscard]] std::vector<Matrix*> params();
  [[nodiscard]] std::vector<Matrix*> grads();
  /// Non-trainable persistent state (batch-norm running statistics).
  [[nodiscard]] std::vector<Matrix*> buffers();
  void zero_grads();

  /// Total number of trainable scalars.
  [[nodiscard]] std::size_t parameter_count();

  /// Bit-stable FNV-1a hash over every parameter and buffer (shapes and
  /// raw double bit patterns). Two models agree iff their weights are
  /// bitwise identical, so it keys the InferenceCache: an entry written
  /// under one set of weights can never be served to another. Recompute
  /// after any training step or weight load.
  [[nodiscard]] std::uint64_t weights_fingerprint() const;

  [[nodiscard]] const ModelConfig& config() const { return config_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Ties external weight storage to the model's lifetime. The
  /// zero-copy artifact loader points parameter matrices into a
  /// memory-mapped file (`Matrix::borrow`); the mapping handed here
  /// stays alive as long as the model does, so those borrows can never
  /// dangle. Multiple calls accumulate.
  void retain_storage(std::shared_ptr<const void> storage) {
    retained_.push_back(std::move(storage));
  }

 private:
  ModelConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<std::shared_ptr<const void>> retained_;
};

}  // namespace gana::gcn
