#include "gcn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "gcn/coarsen.hpp"
#include "graph/laplacian.hpp"
#include "util/diag.hpp"

namespace gana::gcn {

// ---------------------------------------------------------------------------
// Sample preparation
// ---------------------------------------------------------------------------

SparseMatrix make_scaled_laplacian(const SparseMatrix& adjacency) {
  // A normalized Laplacian's spectrum lies in [0, 2] on any graph with
  // non-negative weights, and reaches 2 on every bipartite one -- every
  // circuit graph, since each edge joins an element to a net. The 1%
  // pad keeps the top of L̂'s spectrum strictly below 1.
  constexpr double kLambdaMax = 2.0 * 1.01;
  return graph::normalized_laplacian(adjacency).scale_add_identity(
      2.0 / kLambdaMax, -1.0);
}

namespace {

// Row-normalized propagation P = D^{-1} A for the GraphSAGE-mean
// alternative. Zero-degree vertices get an identity self-loop row so an
// isolated vertex propagates its own features instead of zeros.
SparseMatrix row_normalized(const SparseMatrix& adj) {
  const auto deg = adj.row_sums();
  std::vector<Triplet> t;
  t.reserve(adj.nnz());
  const auto& rp = adj.row_ptr();
  for (std::size_t r = 0; r < adj.rows(); ++r) {
    if (deg[r] <= 0.0) {
      t.push_back({r, r, 1.0});
      continue;
    }
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      t.push_back({r, adj.col_idx()[k], adj.values()[k] / deg[r]});
    }
  }
  return SparseMatrix::from_triplets(adj.rows(), adj.cols(), std::move(t));
}

}  // namespace

SamplePrep make_sample_prep(const SparseMatrix& adjacency, int pool_levels,
                            Rng& rng, bool propagation) {
  SamplePrep prep;
  auto push_level = [&](const SparseMatrix& adj) {
    prep.lhat.push_back(make_scaled_laplacian(adj));
    if (!propagation) return;
    SparseMatrix p = row_normalized(adj);
    prep.prop_t.push_back(p.transposed());
    prep.prop.push_back(std::move(p));
  };

  push_level(adjacency);
  if (pool_levels > 0) {
    const Coarsening c = graclus_coarsen(adjacency, pool_levels, rng);
    for (std::size_t l = 0; l < c.levels(); ++l) {
      prep.cluster_maps.push_back(c.cluster_maps[l]);
      push_level(c.adjacency[l]);
    }
    // Coarsening stops once the graph is down to one vertex, but the
    // model still pools pool_levels times: the levels left over map
    // that vertex (or none) to itself.
    const SparseMatrix& last = c.adjacency.back();
    for (std::size_t l = c.levels(); l < static_cast<std::size_t>(pool_levels);
         ++l) {
      prep.cluster_maps.emplace_back(last.rows(), 0);
      push_level(last);
    }
  }
  return prep;
}

GraphSample sample_from_prep(const SamplePrep& prep, Matrix features,
                             std::vector<int> labels, std::string name) {
  GraphSample s;
  s.name = std::move(name);
  s.features = std::move(features);
  s.labels = std::move(labels);
  s.lhat = prep.lhat;
  s.cluster_maps = prep.cluster_maps;
  s.prop = prep.prop;
  s.prop_t = prep.prop_t;
  return s;
}

GraphSample make_sample(const SparseMatrix& adjacency, Matrix features,
                        std::vector<int> labels, int pool_levels, Rng& rng,
                        std::string name, bool propagation) {
  assert(features.rows() == adjacency.rows());
  assert(labels.size() == adjacency.rows());
  SamplePrep prep =
      make_sample_prep(adjacency, pool_levels, rng, propagation);
  GraphSample s;
  s.name = std::move(name);
  s.features = std::move(features);
  s.labels = std::move(labels);
  s.lhat = std::move(prep.lhat);
  s.cluster_maps = std::move(prep.cluster_maps);
  s.prop = std::move(prep.prop);
  s.prop_t = std::move(prep.prop_t);
  return s;
}

// ---------------------------------------------------------------------------
// ChebConv
// ---------------------------------------------------------------------------

ChebConv::ChebConv(std::size_t in_features, std::size_t out_features, int k,
                   int level, Rng& rng)
    : in_(in_features), out_(out_features), k_(k), level_(level) {
  assert(k_ >= 1);
  weight_ = Matrix::glorot(static_cast<std::size_t>(k_) * in_, out_, rng);
  bias_ = Matrix(1, out_);
  grad_weight_ = Matrix(weight_.rows(), weight_.cols());
  grad_bias_ = Matrix(1, out_);
}

Matrix ChebConv::forward(const Matrix& x, const GraphSample& sample,
                         bool /*training*/, Rng& /*rng*/) {
  assert(x.cols() == in_);
  assert(static_cast<std::size_t>(level_) < sample.lhat.size());
  lhat_ = &sample.lhat[static_cast<std::size_t>(level_)];
  const std::size_t n = x.rows();
  assert(lhat_->rows() == n);

  // Chebyshev recurrence: T_0 = X, T_1 = L̂X, T_k = 2 L̂ T_{k-1} - T_{k-2}.
  z_ = Matrix(n, static_cast<std::size_t>(k_) * in_);
  Matrix t_prev2;  // T_{k-2}
  Matrix t_prev = x;
  for (int k = 0; k < k_; ++k) {
    Matrix t_cur;
    if (k == 0) {
      t_cur = x;
    } else if (k == 1) {
      t_cur = lhat_->multiply(x);
    } else {
      t_cur = lhat_->multiply(t_prev);
      t_cur *= 2.0;
      t_cur -= t_prev2;
    }
    for (std::size_t r = 0; r < n; ++r) {
      double* zrow = z_.row_ptr(r) + static_cast<std::size_t>(k) * in_;
      const double* trow = t_cur.row_ptr(r);
      for (std::size_t c = 0; c < in_; ++c) zrow[c] = trow[c];
    }
    t_prev2 = std::move(t_prev);
    t_prev = std::move(t_cur);
  }

  Matrix y = matmul(z_, weight_);
  for (std::size_t r = 0; r < n; ++r) {
    double* yrow = y.row_ptr(r);
    for (std::size_t c = 0; c < out_; ++c) yrow[c] += bias_(0, c);
  }
  return y;
}

const Matrix& ChebConv::infer_graph(const Matrix& x, const GraphSample& sample,
                                    InferWorkspace& ws,
                                    Matrix& /*out*/) const {
  // The same recurrence as forward(), with each T_k written straight
  // into its column slice of z: T_0 = X is copied in, and every later
  // step reads the slices before it.
  assert(x.cols() == in_);
  assert(static_cast<std::size_t>(level_) < sample.lhat.size());
  const SparseMatrix& lhat = sample.lhat[static_cast<std::size_t>(level_)];
  const std::size_t n = x.rows();
  assert(lhat.rows() == n);

  ws.z.resize_for_overwrite(n, static_cast<std::size_t>(k_) * in_);
  for (std::size_t r = 0; r < n; ++r) {
    const double* xrow = x.row_ptr(r);
    std::copy(xrow, xrow + in_, ws.z.row_ptr(r));
  }
  for (std::size_t k = 1; k < static_cast<std::size_t>(k_); ++k) {
    lhat.chebyshev_step_into(
        ws.z, in_, (k - 1) * in_, k * in_,
        k >= 2 ? (k - 2) * in_ : SparseMatrix::kNoSlice);
  }
  return ws.z;
}

Matrix ChebConv::backward(const Matrix& grad_out) {
  assert(lhat_ != nullptr);
  const std::size_t n = grad_out.rows();
  assert(grad_out.cols() == out_);

  grad_weight_ += matmul_at_b(z_, grad_out);
  for (std::size_t r = 0; r < n; ++r) {
    const double* grow = grad_out.row_ptr(r);
    for (std::size_t c = 0; c < out_; ++c) grad_bias_(0, c) += grow[c];
  }

  // dZ = dY W^T, split into per-order blocks B_k.
  const Matrix dz = matmul_a_bt(grad_out, weight_);
  std::vector<Matrix> blocks(static_cast<std::size_t>(k_));
  for (int k = 0; k < k_; ++k) {
    Matrix& b = blocks[static_cast<std::size_t>(k)];
    b = Matrix(n, in_);
    for (std::size_t r = 0; r < n; ++r) {
      const double* src = dz.row_ptr(r) + static_cast<std::size_t>(k) * in_;
      double* dst = b.row_ptr(r);
      for (std::size_t c = 0; c < in_; ++c) dst[c] = src[c];
    }
  }

  // dX = sum_k T_k(L̂) B_k, evaluated by the Clenshaw recurrence
  //   b_k = B_k + 2 L̂ b_{k+1} - b_{k+2},   dX = B_0 + L̂ b_1 - b_2.
  // (Valid because L̂ is symmetric, so T_k(L̂)^T = T_k(L̂).)
  Matrix b_next1(n, in_), b_next2(n, in_);  // b_{k+1}, b_{k+2}
  for (int k = k_ - 1; k >= 1; --k) {
    Matrix bk = lhat_->multiply(b_next1);
    bk *= 2.0;
    bk -= b_next2;
    bk += blocks[static_cast<std::size_t>(k)];
    b_next2 = std::move(b_next1);
    b_next1 = std::move(bk);
  }
  Matrix dx = lhat_->multiply(b_next1);
  dx -= b_next2;
  dx += blocks[0];
  return dx;
}

// ---------------------------------------------------------------------------
// SageConv
// ---------------------------------------------------------------------------

SageConv::SageConv(std::size_t in_features, std::size_t out_features,
                   int level, Rng& rng)
    : in_(in_features), out_(out_features), level_(level) {
  weight_ = Matrix::glorot(2 * in_, out_, rng);
  bias_ = Matrix(1, out_);
  grad_weight_ = Matrix(weight_.rows(), weight_.cols());
  grad_bias_ = Matrix(1, out_);
}

Matrix SageConv::forward(const Matrix& x, const GraphSample& sample,
                         bool /*training*/, Rng& /*rng*/) {
  assert(x.cols() == in_);
  assert(static_cast<std::size_t>(level_) < sample.prop.size());
  const SparseMatrix& p = sample.prop[static_cast<std::size_t>(level_)];
  prop_t_ = &sample.prop_t[static_cast<std::size_t>(level_)];
  z_ = hcat(x, p.multiply(x));
  Matrix y = matmul(z_, weight_);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double* yrow = y.row_ptr(r);
    for (std::size_t c = 0; c < out_; ++c) yrow[c] += bias_(0, c);
  }
  return y;
}

const Matrix& SageConv::infer_graph(const Matrix& x, const GraphSample& sample,
                                    InferWorkspace& ws,
                                    Matrix& /*out*/) const {
  assert(x.cols() == in_);
  if (static_cast<std::size_t>(level_) >= sample.prop.size()) {
    throw DiagError(make_diag(
        DiagCode::Internal, Stage::Gcn,
        "sample has no propagation operator at level " +
            std::to_string(level_) + " (prepared for a Chebyshev model)"));
  }
  const SparseMatrix& p = sample.prop[static_cast<std::size_t>(level_)];
  const std::size_t n = x.rows();
  ws.z.resize_for_overwrite(n, 2 * in_);
  for (std::size_t r = 0; r < n; ++r) {
    const double* xrow = x.row_ptr(r);
    std::copy(xrow, xrow + in_, ws.z.row_ptr(r));
  }
  p.chebyshev_step_into(ws.z, in_, 0, in_);
  return ws.z;
}

Matrix SageConv::backward(const Matrix& grad_out) {
  assert(prop_t_ != nullptr);
  const std::size_t n = grad_out.rows();
  grad_weight_ += matmul_at_b(z_, grad_out);
  for (std::size_t r = 0; r < n; ++r) {
    const double* grow = grad_out.row_ptr(r);
    for (std::size_t c = 0; c < out_; ++c) grad_bias_(0, c) += grow[c];
  }
  const Matrix dz = matmul_a_bt(grad_out, weight_);
  // Split dz into the self block and the neighbor block.
  Matrix d_self(n, in_), d_neigh(n, in_);
  for (std::size_t r = 0; r < n; ++r) {
    const double* src = dz.row_ptr(r);
    double* s = d_self.row_ptr(r);
    double* g = d_neigh.row_ptr(r);
    for (std::size_t c = 0; c < in_; ++c) {
      s[c] = src[c];
      g[c] = src[in_ + c];
    }
  }
  Matrix dx = prop_t_->multiply(d_neigh);
  dx += d_self;
  return dx;
}

// ---------------------------------------------------------------------------
// Relu / Dropout
// ---------------------------------------------------------------------------

Matrix Relu::forward(const Matrix& x, const GraphSample& /*sample*/,
                     bool /*training*/, Rng& /*rng*/) {
  Matrix y = x;
  mask_.assign(y.size(), false);
  auto d = y.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d[i] > 0.0) {
      mask_[i] = true;
    } else {
      d[i] = 0.0;
    }
  }
  return y;
}

Matrix Relu::backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  auto d = g.data();
  assert(d.size() == mask_.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (!mask_[i]) d[i] = 0.0;
  }
  return g;
}

Matrix Dropout::forward(const Matrix& x, const GraphSample& /*sample*/,
                        bool training, Rng& rng) {
  Matrix y = x;
  scale_.assign(y.size(), 1.0);
  if (training && rate_ > 0.0) {
    const double keep = 1.0 - rate_;
    auto d = y.data();
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (rng.uniform() < rate_) {
        scale_[i] = 0.0;
        d[i] = 0.0;
      } else {
        scale_[i] = 1.0 / keep;
        d[i] *= scale_[i];
      }
    }
  }
  return y;
}

Matrix Dropout::backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  auto d = g.data();
  assert(d.size() == scale_.size());
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= scale_[i];
  return g;
}

// ---------------------------------------------------------------------------
// BatchNorm
// ---------------------------------------------------------------------------

BatchNorm::BatchNorm(std::size_t features, double momentum, double eps)
    : momentum_(momentum),
      eps_(eps),
      gamma_(1, features, 1.0),
      beta_(1, features, 0.0),
      grad_gamma_(1, features),
      grad_beta_(1, features),
      running_mean_(1, features, 0.0),
      running_var_(1, features, 1.0) {}

Matrix BatchNorm::forward(const Matrix& x, const GraphSample& /*sample*/,
                          bool training, Rng& /*rng*/) {
  const std::size_t n = x.rows(), f = x.cols();
  Matrix y(n, f);
  xhat_ = Matrix(n, f);
  ivar_.assign(f, 0.0);
  trained_pass_ = training && n > 0;
  for (std::size_t c = 0; c < f; ++c) {
    double mean, var;
    if (training && n > 0) {
      mean = 0.0;
      for (std::size_t r = 0; r < n; ++r) mean += x(r, c);
      mean /= static_cast<double>(n);
      var = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        const double d = x(r, c) - mean;
        var += d * d;
      }
      var /= static_cast<double>(n);
      running_mean_(0, c) =
          momentum_ * running_mean_(0, c) + (1.0 - momentum_) * mean;
      running_var_(0, c) =
          momentum_ * running_var_(0, c) + (1.0 - momentum_) * var;
    } else {
      mean = running_mean_(0, c);
      var = running_var_(0, c);
    }
    const double iv = 1.0 / std::sqrt(var + eps_);
    ivar_[c] = iv;
    for (std::size_t r = 0; r < n; ++r) {
      const double xh = (x(r, c) - mean) * iv;
      xhat_(r, c) = xh;
      y(r, c) = gamma_(0, c) * xh + beta_(0, c);
    }
  }
  return y;
}

Matrix BatchNorm::backward(const Matrix& grad_out) {
  const std::size_t n = grad_out.rows(), f = grad_out.cols();
  Matrix dx(n, f);
  const double inv_n = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  for (std::size_t c = 0; c < f; ++c) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum_dy += grad_out(r, c);
      sum_dy_xhat += grad_out(r, c) * xhat_(r, c);
    }
    grad_beta_(0, c) += sum_dy;
    grad_gamma_(0, c) += sum_dy_xhat;
    const double g = gamma_(0, c) * ivar_[c];
    if (trained_pass_) {
      // Batch statistics depend on x: full batch-norm backward.
      for (std::size_t r = 0; r < n; ++r) {
        dx(r, c) = g * (grad_out(r, c) - inv_n * sum_dy -
                        inv_n * xhat_(r, c) * sum_dy_xhat);
      }
    } else {
      // Running statistics are constants: the layer is affine.
      for (std::size_t r = 0; r < n; ++r) {
        dx(r, c) = g * grad_out(r, c);
      }
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : weight_(Matrix::glorot(in_features, out_features, rng)),
      bias_(1, out_features),
      grad_weight_(in_features, out_features),
      grad_bias_(1, out_features) {}

Matrix Dense::forward(const Matrix& x, const GraphSample& /*sample*/,
                      bool /*training*/, Rng& /*rng*/) {
  x_ = x;
  Matrix y = matmul(x, weight_);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double* yrow = y.row_ptr(r);
    for (std::size_t c = 0; c < y.cols(); ++c) yrow[c] += bias_(0, c);
  }
  return y;
}

Matrix Dense::backward(const Matrix& grad_out) {
  grad_weight_ += matmul_at_b(x_, grad_out);
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    const double* grow = grad_out.row_ptr(r);
    for (std::size_t c = 0; c < grad_out.cols(); ++c) {
      grad_bias_(0, c) += grow[c];
    }
  }
  return matmul_a_bt(grad_out, weight_);
}

// ---------------------------------------------------------------------------
// GraclusPool / Unpool
// ---------------------------------------------------------------------------

Matrix GraclusPool::forward(const Matrix& x, const GraphSample& sample,
                            bool /*training*/, Rng& /*rng*/) {
  assert(static_cast<std::size_t>(level_) < sample.cluster_maps.size());
  cluster_of_ = sample.cluster_maps[static_cast<std::size_t>(level_)];
  fine_n_ = x.rows();
  cols_ = x.cols();
  assert(cluster_of_.size() == fine_n_);
  const std::size_t coarse_n =
      cluster_of_.empty()
          ? 0
          : *std::max_element(cluster_of_.begin(), cluster_of_.end()) + 1;

  Matrix y(coarse_n, cols_);
  if (mode_ == Mode::Max) {
    y.fill(-1e300);
    argmax_.assign(coarse_n * cols_, 0);
    for (std::size_t v = 0; v < fine_n_; ++v) {
      const std::size_t c = cluster_of_[v];
      for (std::size_t j = 0; j < cols_; ++j) {
        if (x(v, j) > y(c, j)) {
          y(c, j) = x(v, j);
          argmax_[c * cols_ + j] = v;
        }
      }
    }
  } else {
    std::vector<double> count(coarse_n, 0.0);
    for (std::size_t v = 0; v < fine_n_; ++v) {
      const std::size_t c = cluster_of_[v];
      count[c] += 1.0;
      for (std::size_t j = 0; j < cols_; ++j) y(c, j) += x(v, j);
    }
    inv_size_.assign(coarse_n, 0.0);
    for (std::size_t c = 0; c < coarse_n; ++c) {
      if (count[c] > 0.0) inv_size_[c] = 1.0 / count[c];
      for (std::size_t j = 0; j < cols_; ++j) y(c, j) *= inv_size_[c];
    }
  }
  return y;
}

const Matrix& GraclusPool::infer_graph(const Matrix& x,
                                       const GraphSample& sample,
                                       InferWorkspace& ws, Matrix& out) const {
  assert(static_cast<std::size_t>(level_) < sample.cluster_maps.size());
  const std::vector<std::size_t>& cluster_of =
      sample.cluster_maps[static_cast<std::size_t>(level_)];
  const std::size_t fine_n = x.rows(), cols = x.cols();
  assert(cluster_of.size() == fine_n);
  const std::size_t coarse_n =
      cluster_of.empty()
          ? 0
          : *std::max_element(cluster_of.begin(), cluster_of.end()) + 1;

  out.resize(coarse_n, cols);
  if (mode_ == Mode::Max) {
    out.fill(-1e300);
    for (std::size_t v = 0; v < fine_n; ++v) {
      const std::size_t c = cluster_of[v];
      for (std::size_t j = 0; j < cols; ++j) {
        if (x(v, j) > out(c, j)) out(c, j) = x(v, j);
      }
    }
  } else {
    ws.scratch.assign(coarse_n, 0.0);
    for (std::size_t v = 0; v < fine_n; ++v) {
      const std::size_t c = cluster_of[v];
      ws.scratch[c] += 1.0;
      for (std::size_t j = 0; j < cols; ++j) out(c, j) += x(v, j);
    }
    for (std::size_t c = 0; c < coarse_n; ++c) {
      const double inv = ws.scratch[c] > 0.0 ? 1.0 / ws.scratch[c] : 0.0;
      for (std::size_t j = 0; j < cols; ++j) out(c, j) *= inv;
    }
  }
  return out;
}

Matrix GraclusPool::backward(const Matrix& grad_out) {
  Matrix dx(fine_n_, cols_);
  if (mode_ == Mode::Max) {
    for (std::size_t c = 0; c < grad_out.rows(); ++c) {
      for (std::size_t j = 0; j < cols_; ++j) {
        dx(argmax_[c * cols_ + j], j) += grad_out(c, j);
      }
    }
  } else {
    for (std::size_t v = 0; v < fine_n_; ++v) {
      const std::size_t c = cluster_of_[v];
      for (std::size_t j = 0; j < cols_; ++j) {
        dx(v, j) = grad_out(c, j) * inv_size_[c];
      }
    }
  }
  return dx;
}

Matrix Unpool::forward(const Matrix& x, const GraphSample& sample,
                       bool /*training*/, Rng& /*rng*/) {
  assert(static_cast<std::size_t>(level_) < sample.cluster_maps.size());
  cluster_of_ = sample.cluster_maps[static_cast<std::size_t>(level_)];
  coarse_n_ = x.rows();
  Matrix y(cluster_of_.size(), x.cols());
  for (std::size_t v = 0; v < cluster_of_.size(); ++v) {
    const std::size_t c = cluster_of_[v];
    assert(c < coarse_n_);
    for (std::size_t j = 0; j < x.cols(); ++j) y(v, j) = x(c, j);
  }
  return y;
}

const Matrix& Unpool::infer_graph(const Matrix& x, const GraphSample& sample,
                                  InferWorkspace& /*ws*/, Matrix& out) const {
  assert(static_cast<std::size_t>(level_) < sample.cluster_maps.size());
  const std::vector<std::size_t>& cluster_of =
      sample.cluster_maps[static_cast<std::size_t>(level_)];
  out.resize(cluster_of.size(), x.cols());
  for (std::size_t v = 0; v < cluster_of.size(); ++v) {
    const std::size_t c = cluster_of[v];
    assert(c < x.rows());
    for (std::size_t j = 0; j < x.cols(); ++j) out(v, j) = x(c, j);
  }
  return out;
}

Matrix Unpool::backward(const Matrix& grad_out) {
  Matrix dx(coarse_n_, grad_out.cols());
  for (std::size_t v = 0; v < cluster_of_.size(); ++v) {
    const std::size_t c = cluster_of_[v];
    for (std::size_t j = 0; j < grad_out.cols(); ++j) {
      dx(c, j) += grad_out(v, j);
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// Loss
// ---------------------------------------------------------------------------

Matrix softmax(const Matrix& logits) {
  Matrix p = logits;
  for (std::size_t r = 0; r < p.rows(); ++r) {
    double* row = p.row_ptr(r);
    double mx = row[0];
    for (std::size_t c = 1; c < p.cols(); ++c) mx = std::max(mx, row[c]);
    double sum = 0.0;
    for (std::size_t c = 0; c < p.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    for (std::size_t c = 0; c < p.cols(); ++c) row[c] /= sum;
  }
  return p;
}

LossResult softmax_cross_entropy(const Matrix& logits,
                                 const std::vector<int>& labels) {
  assert(labels.size() == logits.rows());
  LossResult res;
  res.grad = Matrix(logits.rows(), logits.cols());
  const Matrix p = softmax(logits);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    if (labels[r] < 0) continue;
    ++res.counted;
  }
  if (res.counted == 0) return res;
  const double inv = 1.0 / static_cast<double>(res.counted);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const int y = labels[r];
    if (y < 0) continue;
    assert(static_cast<std::size_t>(y) < logits.cols());
    res.loss -= std::log(std::max(p(r, static_cast<std::size_t>(y)), 1e-300));
    std::size_t best = 0;
    for (std::size_t c = 1; c < p.cols(); ++c) {
      if (p(r, c) > p(r, best)) best = c;
    }
    if (best == static_cast<std::size_t>(y)) ++res.correct;
    for (std::size_t c = 0; c < p.cols(); ++c) {
      res.grad(r, c) =
          (p(r, c) - (c == static_cast<std::size_t>(y) ? 1.0 : 0.0)) * inv;
    }
  }
  res.loss *= inv;
  return res;
}

}  // namespace gana::gcn
