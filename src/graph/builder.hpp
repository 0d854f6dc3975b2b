// Construction of the bipartite circuit graph from a flat netlist.
#pragma once

#include "graph/circuit_graph.hpp"
#include "spice/interned.hpp"
#include "spice/netlist.hpp"

namespace gana::graph {

/// The value an element vertex carries into the low/medium/high feature
/// bucket: a MOS device's width "w" when given, else the device value.
double characteristic_value(const spice::Device& d);

/// Builds the bipartite graph; element vertex ids appear in netlist device
/// order first, followed by net vertices in first-touch order. Requires a
/// flat netlist. A MOS body terminal gets a (label-0) edge only when the
/// body is not tied to a supply/ground rail (body-driven circuits),
/// matching the paper's figures, which omit rail-tied body connections;
/// every other pin, rails included, gets its edge. Net roles come from
/// rail naming plus the netlist's port labels.
CircuitGraph build_graph(const spice::InternedNetlist& netlist);

/// String-space overload: interns `netlist` and builds from that.
CircuitGraph build_graph(const spice::Netlist& netlist);

}  // namespace gana::graph
