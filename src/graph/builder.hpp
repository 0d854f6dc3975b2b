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
/// order first, followed by net vertices. Requires a flat netlist. A MOS
/// body terminal gets a (label-0) edge only when the body is not tied to
/// a supply/ground rail (body-driven circuits), matching the paper's
/// figures, which omit rail-tied body connections; every other pin,
/// rails included, gets its edge.
CircuitGraph build_graph(const spice::Netlist& netlist);

/// Id-space overload for the interned front end: consumes SymbolIds
/// directly (net vertices are still created in first-touch order, so the
/// resulting graph is bit-identical to the string overload's -- same
/// vertex ids, names, roles, and edges).
CircuitGraph build_graph(const spice::InternedNetlist& netlist);

/// Net role from rail naming plus the netlist's port labels.
NetRole classify_net(const std::string& name, const spice::Netlist& netlist);

}  // namespace gana::graph
