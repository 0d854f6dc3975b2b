// Canonical structural hash of a bipartite circuit graph.
//
// Two circuits hash equally exactly when their graphs were built with
// the same vertex/edge sequences up to *structure*: vertex kinds, device
// types, net roles, and the (element, net, terminal-label) edge list.
// Device/net names, device values (W/L/R/C), and hierarchy depths are
// deliberately excluded -- 64 copies of one OTA cell with different
// instance names and sizings share a hash, which is what lets the
// SamplePrepCache share their spectral operators and cluster maps (all
// derived from the unweighted adjacency pattern alone).
//
// The hash is canonical for graphs produced by graph::build_graph, whose
// vertex ordering is a deterministic function of the flat netlist's
// device/net order; it is not a graph-isomorphism invariant (permuting
// device cards changes the hash, which only costs cache hits, never
// correctness).
#pragma once

#include <cstdint>

#include "graph/circuit_graph.hpp"

namespace gana::graph {

/// 64-bit FNV-1a over the structural word stream described above.
[[nodiscard]] std::uint64_t structural_hash(const CircuitGraph& g);

/// Order-sensitive combiner (splitmix64 finalizer over h ^ mix(v)); used
/// to fold pool levels and the batch seed into a cache key.
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v);

}  // namespace gana::graph
