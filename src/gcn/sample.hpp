// A training/inference sample for the GCN: one circuit graph with its
// multilevel spectral operators precomputed.
#pragma once

#include <string>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"

namespace gana {
class Rng;
}

namespace gana::gcn {

/// The graph-level precomputation of one sample: multilevel spectral
/// operators and cluster maps. Everything here is a function of the
/// adjacency *pattern* alone (plus, for pooled models, the Rng stream
/// that breaks Graclus ties), never of device values or names -- which
/// is why structurally identical circuits can share one SamplePrep
/// through the SamplePrepCache.
struct SamplePrep {
  std::vector<SparseMatrix> lhat;
  std::vector<std::vector<std::size_t>> cluster_maps;
  /// Row-normalized propagation operators P = D^{-1} A per level (and
  /// their transposes, needed by backprop), used by the GraphSAGE-mean
  /// alternative convolution. Zero-degree vertices get an identity
  /// self-loop row so isolated vertices keep their own features under
  /// mean propagation. Empty when prepared without propagation.
  std::vector<SparseMatrix> prop;
  std::vector<SparseMatrix> prop_t;
};

/// One circuit, ready for the network. `lhat[0]` is the scaled Laplacian
/// L̂ = 2L/λ_max - I of the original graph (paper Eq. 3); `lhat[l]` for
/// l > 0 are the operators of the Graclus-coarsened graphs used below
/// each pooling layer; `cluster_maps[l]` maps level-l vertices to their
/// level-(l+1) cluster.
struct GraphSample {
  std::string name;
  Matrix features;         ///< n x d input features
  std::vector<int> labels; ///< per-node class id; -1 = excluded from loss
  std::vector<SparseMatrix> lhat;
  std::vector<std::vector<std::size_t>> cluster_maps;
  /// See SamplePrep::prop.
  std::vector<SparseMatrix> prop;
  std::vector<SparseMatrix> prop_t;

  [[nodiscard]] std::size_t nodes() const { return features.rows(); }
};

/// Scaled Laplacian L̂ = 2L/λ - I of one adjacency matrix, with L its
/// normalized Laplacian and λ = 2 × 1.01 on every graph: λ_max(L) is 2
/// on a bipartite circuit graph and at most 2 on its coarsened levels,
/// so spec(L̂) lies in [-1, 2/1.01 - 1] whatever the vertex order.
SparseMatrix make_scaled_laplacian(const SparseMatrix& adjacency);

/// Graph-level precomputation: scaled Laplacians, propagation operators,
/// and `pool_levels` rounds of Graclus coarsening. Only Graclus draws
/// from `rng`, so with `pool_levels` 0 the prep is a function of the
/// adjacency alone. With `propagation` false, `prop` and `prop_t` stay
/// empty: only SageConv reads them, so a Chebyshev model's prep skips
/// them; the Laplacians and cluster maps are the same either way.
SamplePrep make_sample_prep(const SparseMatrix& adjacency, int pool_levels,
                            Rng& rng, bool propagation = true);

/// Builds a GraphSample from an adjacency matrix: make_sample_prep's
/// operators (`rng` breaks Graclus ties) around the given features and
/// labels. `propagation` is make_sample_prep's.
GraphSample make_sample(const SparseMatrix& adjacency, Matrix features,
                        std::vector<int> labels, int pool_levels, Rng& rng,
                        std::string name = {}, bool propagation = true);

/// Assembles a GraphSample around precomputed (possibly cached) prep;
/// the operators are copied out of `prep`, features/labels stay
/// per-sample.
GraphSample sample_from_prep(const SamplePrep& prep, Matrix features,
                             std::vector<int> labels, std::string name = {});

}  // namespace gana::gcn
