#include "spice/netlist.hpp"

#include "spice/interned.hpp"
#include "util/strings.hpp"

namespace gana::spice {

const char* to_string(DeviceType t) {
  switch (t) {
    case DeviceType::Nmos: return "nmos";
    case DeviceType::Pmos: return "pmos";
    case DeviceType::Resistor: return "res";
    case DeviceType::Capacitor: return "cap";
    case DeviceType::Inductor: return "ind";
    case DeviceType::VSource: return "vsrc";
    case DeviceType::ISource: return "isrc";
  }
  return "?";
}

bool is_mos(DeviceType t) {
  return t == DeviceType::Nmos || t == DeviceType::Pmos;
}

bool is_passive(DeviceType t) {
  return t == DeviceType::Resistor || t == DeviceType::Capacitor ||
         t == DeviceType::Inductor;
}

const char* to_string(PortLabel l) {
  switch (l) {
    case PortLabel::None: return "none";
    case PortLabel::Input: return "input";
    case PortLabel::Output: return "output";
    case PortLabel::Bias: return "bias";
    case PortLabel::Clock: return "clock";
    case PortLabel::Antenna: return "antenna";
    case PortLabel::LocalOsc: return "lo";
  }
  return "?";
}

std::optional<PortLabel> port_label_from_string(const std::string& s) {
  const std::string l = to_lower(s);
  if (l == "none") return PortLabel::None;
  if (l == "input" || l == "in") return PortLabel::Input;
  if (l == "output" || l == "out") return PortLabel::Output;
  if (l == "bias") return PortLabel::Bias;
  if (l == "clock" || l == "clk") return PortLabel::Clock;
  if (l == "antenna" || l == "ant") return PortLabel::Antenna;
  if (l == "lo" || l == "osc") return PortLabel::LocalOsc;
  return std::nullopt;
}

std::vector<std::string> Netlist::nets() const {
  std::set<std::string> s;
  for (const auto& d : devices) {
    for (const auto& p : d.pins) s.insert(p);
  }
  for (const auto& i : instances) {
    for (const auto& n : i.nets) s.insert(n);
  }
  return {s.begin(), s.end()};
}

bool Netlist::is_flat() const { return instances.empty(); }

std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
Netlist::connectivity() const {
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>> m;
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const auto& pins = devices[di].pins;
    for (std::size_t pi = 0; pi < pins.size(); ++pi) {
      m[pins[pi]].push_back({di, pi});
    }
  }
  return m;
}

std::optional<Diag> Netlist::check(const std::string& source) const {
  try {
    validate_interned(intern_netlist(*this, source), source);
  } catch (const NetlistError& e) {
    return e.diag();
  }
  return std::nullopt;
}

void Netlist::validate(const std::string& source) const {
  if (auto d = check(source)) throw NetlistError(std::move(*d));
}

bool is_supply_net(const std::string& net) {
  const std::string l = to_lower(net);
  return starts_with(l, "vdd") || starts_with(l, "vcc") ||
         starts_with(l, "avdd") || starts_with(l, "dvdd") ||
         starts_with(l, "vpwr");
}

bool is_ground_net(const std::string& net) {
  const std::string l = to_lower(net);
  return l == "0" || starts_with(l, "gnd") || starts_with(l, "vss") ||
         starts_with(l, "agnd") || starts_with(l, "dgnd") ||
         starts_with(l, "vgnd");
}

}  // namespace gana::spice
