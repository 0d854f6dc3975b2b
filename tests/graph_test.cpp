#include <gtest/gtest.h>

#include <cmath>

#include "gcn/sample.hpp"
#include "graph/builder.hpp"
#include "graph/laplacian.hpp"
#include "spice/flatten.hpp"
#include "spice/parser.hpp"

namespace gana::graph {
namespace {

CircuitGraph graph_of(const std::string& text) {
  return build_graph(spice::flatten(spice::parse_netlist(text)));
}

/// True when the symmetric `m` is positive semidefinite up to `tol`: a
/// dense Cholesky factorization of m + tol·I meets no non-positive pivot.
bool positive_semidefinite(const SparseMatrix& m, double tol = 1e-9) {
  const std::size_t n = m.rows();
  std::vector<double> a(n * n, 0.0);
  auto at = [&](std::size_t i, std::size_t j) -> double& {
    return a[i * n + j];
  };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
      at(r, m.col_idx()[k]) = m.values()[k];
    }
    at(r, r) += tol;
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < j; ++k) at(j, j) -= at(j, k) * at(j, k);
    if (at(j, j) <= 0.0) return false;
    at(j, j) = std::sqrt(at(j, j));
    for (std::size_t i = j + 1; i < n; ++i) {
      for (std::size_t k = 0; k < j; ++k) at(i, j) -= at(i, k) * at(j, k);
      at(i, j) /= at(j, j);
    }
  }
  return true;
}

TEST(Builder, CurrentMirrorMatchesPaperFigure2) {
  // Fig. 2: CM-N(2) has 2 element vertices, 3 net vertices (d1, d2, s),
  // edges labeled 101 (M0-d1: gate+drain), 100 (M1-d1: gate),
  // 001 (M1-d2: drain), 010 (both sources).
  const auto g = graph_of(R"(
m0 d1 d1 s gnd! nmos
m1 d2 d1 s gnd! nmos
.end
)");
  EXPECT_EQ(g.element_count(), 2u);
  EXPECT_EQ(g.net_count(), 3u);
  EXPECT_EQ(g.edge_count(), 5u);

  const std::size_t d1 = g.find_net("d1");
  const std::size_t d2 = g.find_net("d2");
  const std::size_t s = g.find_net("s");
  ASSERT_NE(d1, CircuitGraph::npos);

  auto label_between = [&](std::size_t elem, std::size_t net) -> int {
    for (std::size_t eid : g.incident(elem)) {
      if (g.edge(eid).net == net) return g.edge(eid).label;
    }
    return -1;
  };
  // m0 is element vertex 0, m1 is 1 (device order).
  EXPECT_EQ(label_between(0, d1), kLabelGate | kLabelDrain);  // 101
  EXPECT_EQ(label_between(0, s), kLabelSource);               // 010
  EXPECT_EQ(label_between(1, d1), kLabelGate);                // 100
  EXPECT_EQ(label_between(1, d2), kLabelDrain);               // 001
  EXPECT_EQ(label_between(1, s), kLabelSource);               // 010
}

TEST(Builder, GraphIsBipartite) {
  const auto g = graph_of(R"(
m0 out in tail gnd! nmos
r1 out vdd! 1k
c1 out 0 1p
.end
)");
  for (const auto& e : g.edges()) {
    EXPECT_EQ(g.vertex(e.element).kind, VertexKind::Element);
    EXPECT_EQ(g.vertex(e.net).kind, VertexKind::Net);
  }
}

TEST(Builder, RailBodySkippedFloatingBodyKept) {
  const auto g = graph_of("m0 d g s bodynet nmos\n.end\n");
  // d, g, s, bodynet nets all present; body edge labeled 0.
  EXPECT_EQ(g.net_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  const auto g2 = graph_of("m0 d g s gnd! nmos\n.end\n");
  EXPECT_EQ(g2.net_count(), 3u);  // gnd! body edge (and vertex) skipped
  EXPECT_EQ(g2.edge_count(), 3u);
}

TEST(Builder, PassiveEdgesUnlabeled) {
  const auto g = graph_of("r1 a b 1k\n.end\n");
  for (const auto& e : g.edges()) EXPECT_EQ(e.label, 0);
}

TEST(Builder, NetRolesFromNamesAndLabels) {
  const auto g = graph_of(R"(
.portlabel in1 input
.portlabel out1 output
.portlabel vb bias
.portlabel rf antenna
.portlabel lo1 lo
.portlabel ck clock
m0 out1 in1 gnd! gnd! nmos
r1 vb rf 1k
r2 lo1 ck 1k
r3 vdd! n1 1k
.end
)");
  auto role_of = [&](const std::string& name) {
    return g.vertex(g.find_net(name)).role;
  };
  EXPECT_EQ(role_of("in1"), NetRole::Input);
  EXPECT_EQ(role_of("out1"), NetRole::Output);
  EXPECT_EQ(role_of("vb"), NetRole::Bias);
  EXPECT_EQ(role_of("rf"), NetRole::Antenna);
  EXPECT_EQ(role_of("lo1"), NetRole::LocalOsc);
  EXPECT_EQ(role_of("ck"), NetRole::Clock);
  EXPECT_EQ(role_of("vdd!"), NetRole::Supply);
  EXPECT_EQ(role_of("gnd!"), NetRole::Ground);
  EXPECT_EQ(role_of("n1"), NetRole::Internal);
}

TEST(Builder, MosWidthBecomesVertexValue) {
  const auto g = graph_of("m0 d g s gnd! nmos w=3u l=100n\n.end\n");
  EXPECT_NEAR(g.vertex(0).value, 3e-6, 1e-12);
}

TEST(Builder, ParallelTerminalsMergeToOneEdge) {
  // Gate and drain on the same net: one edge with OR'd label.
  const auto g = graph_of("m0 n n s gnd! nmos\n.end\n");
  EXPECT_EQ(g.edge_count(), 2u);
  bool found_diode_edge = false;
  for (const auto& e : g.edges()) {
    if (e.label == (kLabelGate | kLabelDrain)) found_diode_edge = true;
  }
  EXPECT_TRUE(found_diode_edge);
}

TEST(Laplacian, RowsSumToZeroOnSupport) {
  const auto g = graph_of(R"(
m0 out in tail gnd! nmos
m1 out2 in2 tail gnd! nmos
r1 out out2 1k
.end
)");
  const auto lap = normalized_laplacian(g);
  // Symmetry.
  for (std::size_t r = 0; r < lap.rows(); ++r) {
    for (std::size_t k = lap.row_ptr()[r]; k < lap.row_ptr()[r + 1]; ++k) {
      const std::size_t c = lap.col_idx()[k];
      EXPECT_NEAR(lap.values()[k], lap.at(c, r), 1e-12);
    }
  }
}

TEST(Laplacian, SpectrumWithinZeroTwo) {
  const auto g = graph_of(R"(
m0 x x s gnd! nmos
m1 y x s gnd! nmos
m2 z y s gnd! nmos
r1 x z 1k
c1 y z 1p
.end
)");
  const auto lap = normalized_laplacian(g);
  // spec(L) in [0, 2] <=> L and 2I - L are both positive semidefinite.
  EXPECT_TRUE(positive_semidefinite(lap));
  EXPECT_TRUE(positive_semidefinite(lap.scale_add_identity(-1.0, 2.0)));
  EXPECT_FALSE(positive_semidefinite(lap.scale_add_identity(-1.0, 1.99)));
}

TEST(Laplacian, ScaledSpectrumWithinMinusOneOne) {
  // A fixture circuit's graph. Elements and nets form its two sides, so
  // v = +sqrt(d) on elements and -sqrt(d) on nets has Lv = 2v, and L̂,
  // scaled by λ = 2.02 at every level, maps v to (4/2.02 - 1)v exactly.
  const auto g = build_graph(spice::flatten(spice::parse_netlist_file(
      std::string(GANA_TEST_FIXTURE_DIR) + "/two_stage_ota.sp")));
  const SparseMatrix adj = adjacency(g);
  const SparseMatrix lhat = gcn::make_scaled_laplacian(adj);
  const std::vector<double> deg = adj.row_sums();
  std::vector<double> v(g.vertex_count());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double side = g.vertex(i).kind == VertexKind::Element ? 1.0 : -1.0;
    v[i] = side * std::sqrt(deg[i]);
  }
  const std::vector<double> lv = lhat.multiply(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(lv[i], (4.0 / 2.02 - 1.0) * v[i], 1e-12) << "vertex " << i;
  }
  // spec(L̂) in [-1, 1] <=> I - L̂ and I + L̂ are positive semidefinite.
  EXPECT_TRUE(positive_semidefinite(lhat.scale_add_identity(-1.0, 1.0)));
  EXPECT_TRUE(positive_semidefinite(lhat.scale_add_identity(1.0, 1.0)));
}

TEST(Graph, DegreeAndOpposite) {
  const auto g = graph_of("r1 a b 1k\nr2 b c 1k\n.end\n");
  const std::size_t b = g.find_net("b");
  EXPECT_EQ(g.degree(b), 2u);
  for (std::size_t eid : g.incident(b)) {
    const std::size_t other = g.opposite(eid, b);
    EXPECT_EQ(g.vertex(other).kind, VertexKind::Element);
  }
}

TEST(Graph, FindNetMissing) {
  const auto g = graph_of("r1 a b 1k\n.end\n");
  EXPECT_EQ(g.find_net("zzz"), CircuitGraph::npos);
}

TEST(Graph, ElementAndNetIds) {
  const auto g = graph_of("r1 a b 1k\nc1 b c 1p\n.end\n");
  EXPECT_EQ(g.element_ids().size(), 2u);
  EXPECT_EQ(g.net_ids().size(), 3u);
  EXPECT_EQ(g.vertex_count(), 5u);
}

}  // namespace
}  // namespace gana::graph
