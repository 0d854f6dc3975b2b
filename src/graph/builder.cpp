#include "graph/builder.hpp"

namespace gana::graph {

double characteristic_value(const spice::Device& d) {
  if (spice::is_mos(d.type)) {
    const auto w = d.params.find("w");
    if (w != d.params.end()) return w->second;
  }
  return d.value;
}

CircuitGraph build_graph(const spice::Netlist& netlist) {
  return build_graph(spice::intern_netlist(netlist));
}

namespace {

/// Per-id net role from rail naming plus the netlist's port labels;
/// resolves each distinct net name once instead of once per pin.
class NetRoleCache {
 public:
  explicit NetRoleCache(const spice::InternedNetlist& netlist)
      : netlist_(netlist), rails_(netlist.syms) {}

  NetRole role(spice::SymbolId id) {
    if (rails_.supply(id)) return NetRole::Supply;
    if (rails_.ground(id)) return NetRole::Ground;
    for (const auto& [net, label] : netlist_.port_labels) {
      if (net != id) continue;
      switch (label) {
        case spice::PortLabel::Input: return NetRole::Input;
        case spice::PortLabel::Output: return NetRole::Output;
        case spice::PortLabel::Bias: return NetRole::Bias;
        case spice::PortLabel::Clock: return NetRole::Clock;
        case spice::PortLabel::Antenna: return NetRole::Antenna;
        case spice::PortLabel::LocalOsc: return NetRole::LocalOsc;
        case spice::PortLabel::None: break;
      }
    }
    return NetRole::Internal;
  }

  bool rail(spice::SymbolId id) { return rails_.rail(id); }

 private:
  const spice::InternedNetlist& netlist_;
  spice::NetClassCache rails_;
};

}  // namespace

CircuitGraph build_graph(const spice::InternedNetlist& netlist) {
  if (!netlist.is_flat()) {
    throw spice::NetlistError(
        make_diag(DiagCode::NotFlat, Stage::GraphBuild,
                  "build_graph requires a flattened netlist"));
  }
  const spice::SymbolId w_key = netlist.syms.find("w");
  CircuitGraph g;
  // Element vertices, in device order.
  for (std::size_t di = 0; di < netlist.devices.size(); ++di) {
    const auto& d = netlist.devices[di];
    Vertex v;
    v.name = std::string(netlist.syms.name(d.name));
    v.dtype = d.type;
    v.value = d.value;
    if (spice::is_mos(d.type)) {
      // MOS devices carry their width as the characteristic value (drives
      // the low/medium/high feature bucket).
      if (const double* w = d.find_param(w_key)) v.value = *w;
    }
    v.hier_depth = d.hier_depth;
    v.device_index = di;
    g.add_element(std::move(v));
  }
  // Net vertices, created on demand in first-touch order as devices are
  // walked.
  NetRoleCache roles(netlist);
  std::vector<std::size_t> net_vertex_of(netlist.syms.size(),
                                         CircuitGraph::npos);
  auto net_vertex = [&](spice::SymbolId id) -> std::size_t {
    if (net_vertex_of[id] != CircuitGraph::npos) return net_vertex_of[id];
    Vertex v;
    v.name = std::string(netlist.syms.name(id));
    v.role = roles.role(id);
    const std::size_t vid = g.add_net(std::move(v));
    net_vertex_of[id] = vid;
    return vid;
  };

  for (std::size_t di = 0; di < netlist.devices.size(); ++di) {
    const auto& d = netlist.devices[di];
    if (spice::is_mos(d.type)) {
      const std::uint8_t bits[4] = {kLabelDrain, kLabelGate, kLabelSource, 0};
      for (std::size_t pi = 0; pi < 4; ++pi) {
        const spice::SymbolId net = d.pins[pi];
        if (pi == spice::kBody && roles.rail(net)) continue;  // rail-tied
        g.connect(di, net_vertex(net), bits[pi]);
      }
    } else {
      for (std::size_t pi = 0; pi < d.pins.size(); ++pi) {
        g.connect(di, net_vertex(d.pins[pi]), 0);
      }
    }
  }
  return g;
}

}  // namespace gana::graph
