// Graph Laplacian operators for the spectral GCN (paper §III-A, Eq. 1);
// gcn::make_scaled_laplacian applies the Eq. 3 scaling.
#pragma once

#include "graph/circuit_graph.hpp"
#include "linalg/sparse.hpp"

namespace gana::graph {

/// Unweighted adjacency matrix over all vertices (elements and nets);
/// symmetric, zero diagonal, one entry per bipartite edge direction.
SparseMatrix adjacency(const CircuitGraph& g);

/// Normalized Laplacian L = I - D^{-1/2} A D^{-1/2} (Eq. 1). Rows of
/// isolated vertices are zero.
SparseMatrix normalized_laplacian(const SparseMatrix& adjacency);

/// Convenience overload building the adjacency internally.
SparseMatrix normalized_laplacian(const CircuitGraph& g);

}  // namespace gana::graph
