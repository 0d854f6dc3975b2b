// Neural network layers for the circuit-recognition GCN (paper §III).
//
// Implemented from scratch: each layer provides an explicit forward and
// backward pass and exposes its parameters/gradients to the optimizer.
// Layers cache activations from the most recent forward call, so a model
// processes one sample at a time (gradients accumulate across a batch).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "gcn/sample.hpp"
#include "gcn/workspace.hpp"
#include "linalg/dense.hpp"
#include "util/rng.hpp"

namespace gana::gcn {

/// Abstract layer with explicit backprop.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output; caches whatever backward() needs.
  virtual Matrix forward(const Matrix& x, const GraphSample& sample,
                         bool training, Rng& rng) = 0;

  // Evaluation mode. GcnModel::infer runs the network as segments: a
  // step over the whole graph, then the row-local layers up to the next
  // graph step as one RowTail. A layer contributes a graph step, tail
  // stages, or both (a convolution: its basis, then its product). Both
  // are const -- no mutable layer state -- so many threads can run
  // inference through one shared model, and together they are
  // bit-identical to forward(x, sample, training=false, rng).

  /// True when the layer starts with a whole-graph step (infer_graph),
  /// which ends the tail before it.
  [[nodiscard]] virtual bool has_graph_step() const { return false; }

  /// The whole-graph step: returns what the layer's tail stages (or the
  /// next layer) read, written into `out` or a workspace buffer. `out`
  /// must not alias `x`. Called only when has_graph_step().
  virtual const Matrix& infer_graph(const Matrix& x,
                                    const GraphSample& /*sample*/,
                                    InferWorkspace& /*ws*/,
                                    Matrix& /*out*/) const {
    return x;
  }

  /// Appends the layer's row-local part to the segment's tail; nothing
  /// for graph-only layers and for the eval-mode identity (Dropout).
  virtual void append_to_tail(RowTail& /*tail*/) const {}

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must follow a forward() call.
  virtual Matrix backward(const Matrix& grad_out) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Matrix*> params() { return {}; }
  /// Gradients, parallel to params().
  virtual std::vector<Matrix*> grads() { return {}; }
  /// Non-trainable persistent state (e.g. batch-norm running statistics);
  /// serialized with the model but never touched by the optimizer.
  virtual std::vector<Matrix*> buffers() { return {}; }

  void zero_grads() {
    for (Matrix* g : grads()) g->fill(0.0);
  }
};

/// Chebyshev spectral graph convolution (paper Eq. 3-5):
///   y = sum_{k=0}^{K-1} theta_k T_k(L̂) x
/// operating on the sample's level-`level` operator. Weights are stored
/// as a (K*in) x out matrix; the k-th block row holds theta_k.
class ChebConv : public Layer {
 public:
  ChebConv(std::size_t in_features, std::size_t out_features, int k,
           int level, Rng& rng);

  Matrix forward(const Matrix& x, const GraphSample& sample, bool training,
                 Rng& rng) override;
  [[nodiscard]] bool has_graph_step() const override { return true; }
  /// The Chebyshev stack, built in place in ws.z.
  const Matrix& infer_graph(const Matrix& x, const GraphSample& sample,
                            InferWorkspace& ws, Matrix& out) const override;
  void append_to_tail(RowTail& tail) const override {
    tail.product(weight_, bias_);
  }
  Matrix backward(const Matrix& grad_out) override;
  std::vector<Matrix*> params() override { return {&weight_, &bias_}; }
  std::vector<Matrix*> grads() override { return {&grad_weight_, &grad_bias_}; }

  [[nodiscard]] int order() const { return k_; }

 private:
  std::size_t in_ = 0, out_ = 0;
  int k_ = 1;
  int level_ = 0;
  Matrix weight_, bias_;
  Matrix grad_weight_, grad_bias_;
  // Forward cache.
  Matrix z_;                          ///< [T_0 x | ... | T_{K-1} x]
  const SparseMatrix* lhat_ = nullptr;
};

/// GraphSAGE-style mean-aggregator convolution (ablation alternative to
/// the spectral ChebConv; cf. Hamilton et al., cited as [7] in the
/// paper): y = [x | P x] W + b with P = D^{-1} A.
class SageConv : public Layer {
 public:
  SageConv(std::size_t in_features, std::size_t out_features, int level,
           Rng& rng);

  Matrix forward(const Matrix& x, const GraphSample& sample, bool training,
                 Rng& rng) override;
  [[nodiscard]] bool has_graph_step() const override { return true; }
  /// [x | Px], built in ws.z. Throws DiagError (Internal, stage gcn)
  /// when `sample` was prepared without propagation operators.
  const Matrix& infer_graph(const Matrix& x, const GraphSample& sample,
                            InferWorkspace& ws, Matrix& out) const override;
  void append_to_tail(RowTail& tail) const override {
    tail.product(weight_, bias_);
  }
  Matrix backward(const Matrix& grad_out) override;
  std::vector<Matrix*> params() override { return {&weight_, &bias_}; }
  std::vector<Matrix*> grads() override { return {&grad_weight_, &grad_bias_}; }

 private:
  std::size_t in_ = 0, out_ = 0;
  int level_ = 0;
  Matrix weight_, bias_, grad_weight_, grad_bias_;
  // Forward cache.
  Matrix z_;  ///< [x | P x]
  const SparseMatrix* prop_t_ = nullptr;
};

/// Rectified linear unit.
class Relu : public Layer {
 public:
  Matrix forward(const Matrix& x, const GraphSample& sample, bool training,
                 Rng& rng) override;
  void append_to_tail(RowTail& tail) const override { tail.relu(); }
  Matrix backward(const Matrix& grad_out) override;

 private:
  std::vector<bool> mask_;
};

/// Inverted dropout; identity in evaluation mode.
class Dropout : public Layer {
 public:
  explicit Dropout(double rate) : rate_(rate) {}
  Matrix forward(const Matrix& x, const GraphSample& sample, bool training,
                 Rng& rng) override;
  Matrix backward(const Matrix& grad_out) override;

 private:
  double rate_ = 0.5;
  std::vector<double> scale_;  ///< per-entry multiplier of the last pass
};

/// Batch normalization over the node dimension with running statistics.
class BatchNorm : public Layer {
 public:
  explicit BatchNorm(std::size_t features, double momentum = 0.9,
                     double eps = 1e-5);
  Matrix forward(const Matrix& x, const GraphSample& sample, bool training,
                 Rng& rng) override;
  void append_to_tail(RowTail& tail) const override {
    tail.batch_norm(running_mean_, running_var_, gamma_, beta_, eps_);
  }
  Matrix backward(const Matrix& grad_out) override;
  std::vector<Matrix*> params() override { return {&gamma_, &beta_}; }
  std::vector<Matrix*> grads() override { return {&grad_gamma_, &grad_beta_}; }
  std::vector<Matrix*> buffers() override {
    return {&running_mean_, &running_var_};
  }

 private:
  double momentum_, eps_;
  Matrix gamma_, beta_, grad_gamma_, grad_beta_;
  Matrix running_mean_, running_var_;
  // Forward cache.
  Matrix xhat_;
  std::vector<double> ivar_;
  bool trained_pass_ = false;  ///< last forward used batch statistics
};

/// Per-node fully connected layer: y = x W + b.
class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);
  Matrix forward(const Matrix& x, const GraphSample& sample, bool training,
                 Rng& rng) override;
  void append_to_tail(RowTail& tail) const override {
    tail.product(weight_, bias_);
  }
  Matrix backward(const Matrix& grad_out) override;
  std::vector<Matrix*> params() override { return {&weight_, &bias_}; }
  std::vector<Matrix*> grads() override { return {&grad_weight_, &grad_bias_}; }

 private:
  Matrix weight_, bias_, grad_weight_, grad_bias_;
  Matrix x_;  ///< forward cache
};

/// Graclus pooling (paper §III-B): aggregates each level-`level` cluster
/// into one coarse vertex, max or mean over members.
class GraclusPool : public Layer {
 public:
  enum class Mode { Max, Mean };
  GraclusPool(int level, Mode mode) : level_(level), mode_(mode) {}
  Matrix forward(const Matrix& x, const GraphSample& sample, bool training,
                 Rng& rng) override;
  [[nodiscard]] bool has_graph_step() const override { return true; }
  const Matrix& infer_graph(const Matrix& x, const GraphSample& sample,
                            InferWorkspace& ws, Matrix& out) const override;
  Matrix backward(const Matrix& grad_out) override;

 private:
  int level_ = 0;
  Mode mode_ = Mode::Max;
  // Forward cache.
  std::vector<std::size_t> argmax_;      ///< Max mode: winning fine vertex
  std::vector<std::size_t> cluster_of_;  ///< fine vertex -> cluster
  std::vector<double> inv_size_;         ///< Mean mode: 1/|cluster|
  std::size_t fine_n_ = 0;
  std::size_t cols_ = 0;
};

/// Broadcast unpooling: copies each cluster's row back to its members
/// (used to produce per-node logits after pooled convolutions).
class Unpool : public Layer {
 public:
  explicit Unpool(int level) : level_(level) {}
  Matrix forward(const Matrix& x, const GraphSample& sample, bool training,
                 Rng& rng) override;
  [[nodiscard]] bool has_graph_step() const override { return true; }
  const Matrix& infer_graph(const Matrix& x, const GraphSample& sample,
                            InferWorkspace& ws, Matrix& out) const override;
  Matrix backward(const Matrix& grad_out) override;

 private:
  int level_ = 0;
  std::vector<std::size_t> cluster_of_;
  std::size_t coarse_n_ = 0;
};

/// Softmax cross-entropy over per-node logits; labels of -1 are ignored.
struct LossResult {
  double loss = 0.0;        ///< mean over counted nodes
  Matrix grad;              ///< dLoss/dLogits (already divided by count)
  std::size_t correct = 0;  ///< argmax == label
  std::size_t counted = 0;  ///< labels >= 0
};

LossResult softmax_cross_entropy(const Matrix& logits,
                                 const std::vector<int>& labels);

/// Row-wise softmax (inference-time class probabilities).
Matrix softmax(const Matrix& logits);

}  // namespace gana::gcn
