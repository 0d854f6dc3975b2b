// Micro-benchmarks (google-benchmark) for the core kernels, including an
// empirical check of the §IV-A complexity claim: VF2 with O(1)-size
// library patterns scales linearly in circuit size, and an ablation of
// the edge-label pruning that makes labeled matching fast and precise.
#include <benchmark/benchmark.h>

#include <sstream>

#include "gana.hpp"

namespace {

using namespace gana;

/// A synthetic flat circuit with n OTA-like cells (mirrors, pairs,
/// inverters) chained together.
spice::Netlist chained_cells(int cells) {
  std::ostringstream text;
  text << "* chained cells\n";
  for (int i = 0; i < cells; ++i) {
    const std::string s = std::to_string(i);
    const std::string in = i == 0 ? "in0" : "out" + std::to_string(i - 1);
    text << "mt" << s << " tail" << s << " vb" << s << " gnd! gnd! nmos\n"
         << "mb" << s << " vb" << s << " vb" << s << " gnd! gnd! nmos\n"
         << "m1" << s << " x" << s << " " << in << " tail" << s
         << " gnd! nmos\n"
         << "m2" << s << " out" << s << " ref" << s << " tail" << s
         << " gnd! nmos\n"
         << "m3" << s << " x" << s << " x" << s << " vdd! vdd! pmos\n"
         << "m4" << s << " out" << s << " x" << s << " vdd! vdd! pmos\n";
  }
  text << ".end\n";
  return spice::parse_netlist(text.str());
}

void BM_SpiceParse(benchmark::State& state) {
  const auto netlist = chained_cells(static_cast<int>(state.range(0)));
  const std::string text = spice::write_netlist(netlist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::parse_netlist(text));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpiceParse)->Range(8, 512)->Complexity(benchmark::oN);

void BM_GraphBuild(benchmark::State& state) {
  const auto netlist = chained_cells(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_graph(netlist));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphBuild)->Range(8, 512)->Complexity(benchmark::oN);

void BM_Ccc(benchmark::State& state) {
  const auto g = graph::build_graph(chained_cells(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::channel_connected_components(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Ccc)->Range(8, 512)->Complexity(benchmark::oN);

void BM_Vf2CurrentMirror(benchmark::State& state) {
  // §IV-A: for library subgraphs with O(1) diameter and degree, VF2 runs
  // in O(n) over the circuit size.
  const auto g = graph::build_graph(chained_cells(static_cast<int>(state.range(0))));
  const auto lib = primitives::PrimitiveLibrary::standard();
  const auto* cm = lib.find("cm_n2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(iso::find_subgraph_matches(cm->pattern(), g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Vf2CurrentMirror)->Range(8, 512)->Complexity(benchmark::oN);

void BM_Vf2UnlabeledAblation(benchmark::State& state) {
  // Ablation (DESIGN.md decision 1): matching *without* the 3-bit
  // terminal labels. The pattern is rebuilt with all labels zeroed, which
  // removes the diode/gate pruning and inflates both the match count and
  // the search cost.
  const auto g_labeled = graph::build_graph(chained_cells(static_cast<int>(state.range(0))));
  // Strip labels from a copy of the target and the pattern.
  graph::CircuitGraph target;
  {
    for (const auto& v : g_labeled.vertices()) {
      if (v.kind == graph::VertexKind::Element) {
        target.add_element(v);
      } else {
        target.add_net(v);
      }
    }
    for (const auto& e : g_labeled.edges()) {
      target.connect(e.element, e.net, 0);
    }
  }
  const auto lib = primitives::PrimitiveLibrary::standard();
  const auto* cm = lib.find("cm_n2");
  graph::CircuitGraph pattern;
  for (const auto& v : cm->graph.vertices()) {
    if (v.kind == graph::VertexKind::Element) {
      pattern.add_element(v);
    } else {
      pattern.add_net(v);
    }
  }
  for (const auto& e : cm->graph.edges()) pattern.connect(e.element, e.net, 0);
  iso::Pattern p{&pattern, cm->strict_degree, cm->forbid_rail};
  for (auto _ : state) {
    benchmark::DoNotOptimize(iso::find_subgraph_matches(p, target));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Vf2UnlabeledAblation)->Range(8, 256)->Complexity();

void BM_FullPrimitiveAnnotation(benchmark::State& state) {
  const auto g = graph::build_graph(chained_cells(static_cast<int>(state.range(0))));
  const auto lib = primitives::PrimitiveLibrary::standard();
  for (auto _ : state) {
    benchmark::DoNotOptimize(primitives::annotate_primitives(g, lib));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullPrimitiveAnnotation)->Range(8, 256)->Complexity(benchmark::oN);

void BM_SparseMatVec(benchmark::State& state) {
  const auto g = graph::build_graph(chained_cells(static_cast<int>(state.range(0))));
  const auto lhat = gcn::make_scaled_laplacian(graph::adjacency(g));
  Matrix x(lhat.rows(), 32, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lhat.multiply(x));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SparseMatVec)->Range(8, 512)->Complexity(benchmark::oN);

void BM_GcnForward(benchmark::State& state) {
  Rng rng(1);
  const auto g = graph::build_graph(chained_cells(static_cast<int>(state.range(0))));
  auto sample = gcn::make_sample(graph::adjacency(g), core::build_features(g),
                                 std::vector<int>(g.vertex_count(), 0), 0,
                                 rng);
  gcn::ModelConfig cfg;
  cfg.in_features = core::kNumFeatures;
  cfg.num_classes = 2;
  cfg.conv_channels = {32, 64};
  cfg.cheb_k = 8;
  cfg.fc_hidden = 512;
  gcn::GcnModel model(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(sample, false));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GcnForward)->Range(8, 128)->Complexity(benchmark::oN);

}  // namespace

BENCHMARK_MAIN();
