#include "graph/laplacian.hpp"

#include <cmath>

namespace gana::graph {

SparseMatrix adjacency(const CircuitGraph& g) {
  std::vector<Triplet> t;
  t.reserve(2 * g.edge_count());
  for (const Edge& e : g.edges()) {
    t.push_back({e.element, e.net, 1.0});
    t.push_back({e.net, e.element, 1.0});
  }
  return SparseMatrix::from_triplets(g.vertex_count(), g.vertex_count(),
                                     std::move(t));
}

SparseMatrix normalized_laplacian(const SparseMatrix& adjacency) {
  const std::size_t n = adjacency.rows();
  const std::vector<double> deg = adjacency.row_sums();
  std::vector<double> dinv_sqrt(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (deg[i] > 0.0) dinv_sqrt[i] = 1.0 / std::sqrt(deg[i]);
  }
  std::vector<Triplet> t;
  t.reserve(adjacency.nnz() + n);
  const auto& rp = adjacency.row_ptr();
  const auto& ci = adjacency.col_idx();
  const auto& vals = adjacency.values();
  for (std::size_t r = 0; r < n; ++r) {
    if (deg[r] > 0.0) t.push_back({r, r, 1.0});
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::size_t c = ci[k];
      const double v = -vals[k] * dinv_sqrt[r] * dinv_sqrt[c];
      if (v != 0.0) t.push_back({r, c, v});
    }
  }
  return SparseMatrix::from_triplets(n, n, std::move(t));
}

SparseMatrix normalized_laplacian(const CircuitGraph& g) {
  return normalized_laplacian(adjacency(g));
}

}  // namespace gana::graph
