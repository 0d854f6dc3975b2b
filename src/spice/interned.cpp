#include "spice/interned.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace gana::spice {

std::size_t InternedNetlist::find_subckt(SymbolId name) const {
  for (std::size_t i = 0; i < subckts.size(); ++i) {
    if (subckts[i].name == name) return i;
  }
  return npos;
}

namespace {

/// Diag at the card's recorded source line, stage Validate.
Diag at(const std::string& source, std::size_t line, DiagCode code,
        std::string message) {
  return make_diag(code, Stage::Validate, std::move(message),
                   SourceLoc{source, line});
}

std::size_t expected_pins(DeviceType type) { return is_mos(type) ? 4 : 2; }

Diag bad_pin_count(std::string_view device, DeviceType type,
                   std::size_t pins, std::size_t line,
                   const std::string& scope, const std::string& source) {
  return at(source, line, DiagCode::BadPinCount,
            "device " + std::string(device) + " in " + scope + " has " +
                std::to_string(pins) + " pins, expected " +
                std::to_string(expected_pins(type)));
}

InternedDevice intern_device(const Device& d, SymbolTable& syms,
                             const std::string& scope,
                             const std::string& source) {
  // A hand-built Device can carry any number of pins; PinArray holds at
  // most kCapacity, so reject the card before writing any of them.
  if (d.pins.size() > PinArray::kCapacity) {
    throw NetlistError(bad_pin_count(d.name, d.type, d.pins.size(),
                                     d.src_line, scope, source));
  }
  InternedDevice out;
  out.name = syms.intern(d.name);
  out.type = d.type;
  out.model = d.model.empty() ? kNoSymbol : syms.intern(d.model);
  for (const auto& p : d.pins) out.pins.push_back(syms.intern(p));
  out.value = d.value;
  out.params.reserve(d.params.size());
  for (const auto& [k, v] : d.params) out.params.push_back({syms.intern(k), v});
  out.hier_depth = d.hier_depth;
  out.src_line = d.src_line;
  return out;
}

InternedInstance intern_instance(const Instance& i, SymbolTable& syms) {
  InternedInstance out;
  out.name = syms.intern(i.name);
  out.subckt = syms.intern(i.subckt);
  out.nets.reserve(i.nets.size());
  for (const auto& n : i.nets) out.nets.push_back(syms.intern(n));
  out.src_line = i.src_line;
  return out;
}

Device materialize_device(const InternedDevice& d, const SymbolTable& syms) {
  Device out;
  out.name = std::string(syms.name(d.name));
  out.type = d.type;
  if (d.model != kNoSymbol) out.model = std::string(syms.name(d.model));
  out.pins.reserve(d.pins.size());
  for (std::size_t i = 0; i < d.pins.size(); ++i) {
    out.pins.emplace_back(syms.name(d.pins[i]));
  }
  out.value = d.value;
  for (const auto& p : d.params) {
    out.params.emplace(std::string(syms.name(p.key)), p.value);
  }
  out.hier_depth = d.hier_depth;
  out.src_line = d.src_line;
  return out;
}

Instance materialize_instance(const InternedInstance& i,
                              const SymbolTable& syms) {
  Instance out;
  out.name = std::string(syms.name(i.name));
  out.subckt = std::string(syms.name(i.subckt));
  out.nets.reserve(i.nets.size());
  for (const SymbolId n : i.nets) out.nets.emplace_back(syms.name(n));
  out.src_line = i.src_line;
  return out;
}

}  // namespace

InternedNetlist intern_netlist(const Netlist& netlist,
                               const std::string& source) {
  const std::string top_level = "top level";
  InternedNetlist out;
  out.title = netlist.title;
  out.devices.reserve(netlist.devices.size());
  for (const auto& d : netlist.devices) {
    out.devices.push_back(intern_device(d, out.syms, top_level, source));
  }
  out.instances.reserve(netlist.instances.size());
  for (const auto& i : netlist.instances) {
    out.instances.push_back(intern_instance(i, out.syms));
  }
  out.subckts.reserve(netlist.subckts.size());
  for (const auto& [name, def] : netlist.subckts) {
    InternedSubckt s;
    s.name = out.syms.intern(name);
    s.ports.reserve(def.ports.size());
    for (const auto& p : def.ports) s.ports.push_back(out.syms.intern(p));
    s.devices.reserve(def.devices.size());
    const std::string scope = "subckt " + name;
    for (const auto& d : def.devices) {
      s.devices.push_back(intern_device(d, out.syms, scope, source));
    }
    s.instances.reserve(def.instances.size());
    for (const auto& i : def.instances) {
      s.instances.push_back(intern_instance(i, out.syms));
    }
    s.src_line = def.src_line;
    out.subckts.push_back(std::move(s));
  }
  for (const auto& [net, label] : netlist.port_labels) {
    out.port_labels.emplace_back(out.syms.intern(net), label);
  }
  for (const auto& g : netlist.globals) {
    out.globals.push_back(out.syms.intern(g));
  }
  out.syms.flush_stats();
  return out;
}

Netlist materialize_netlist(const InternedNetlist& netlist) {
  const SymbolTable& syms = netlist.syms;
  Netlist out;
  out.title = netlist.title;
  out.devices.reserve(netlist.devices.size());
  for (const auto& d : netlist.devices) {
    out.devices.push_back(materialize_device(d, syms));
  }
  out.instances.reserve(netlist.instances.size());
  for (const auto& i : netlist.instances) {
    out.instances.push_back(materialize_instance(i, syms));
  }
  for (const auto& s : netlist.subckts) {
    SubcktDef def;
    def.name = std::string(syms.name(s.name));
    def.ports.reserve(s.ports.size());
    for (const SymbolId p : s.ports) def.ports.emplace_back(syms.name(p));
    def.devices.reserve(s.devices.size());
    for (const auto& d : s.devices) {
      def.devices.push_back(materialize_device(d, syms));
    }
    def.instances.reserve(s.instances.size());
    for (const auto& i : s.instances) {
      def.instances.push_back(materialize_instance(i, syms));
    }
    def.src_line = s.src_line;
    out.subckts.emplace(def.name, std::move(def));
  }
  for (const auto& [net, label] : netlist.port_labels) {
    out.port_labels[std::string(syms.name(net))] = label;
  }
  for (const SymbolId g : netlist.globals) {
    out.globals.emplace(syms.name(g));
  }
  return out;
}

namespace {

bool all_finite(const InternedDevice& d) {
  if (!std::isfinite(d.value)) return false;
  for (const auto& p : d.params) {
    if (!std::isfinite(p.value)) return false;
  }
  return true;
}

std::optional<Diag> check_devices(const std::vector<InternedDevice>& devices,
                                  const SymbolTable& syms,
                                  const std::string& scope,
                                  const std::string& source) {
  for (const auto& d : devices) {
    if (syms.name(d.name).empty()) {
      return at(source, d.src_line, DiagCode::EmptyName,
                "unnamed device in " + scope);
    }
    if (d.pins.size() != expected_pins(d.type)) {
      return bad_pin_count(syms.name(d.name), d.type, d.pins.size(),
                           d.src_line, scope, source);
    }
    for (std::size_t i = 0; i < d.pins.size(); ++i) {
      if (syms.name(d.pins[i]).empty()) {
        return at(source, d.src_line, DiagCode::EmptyName,
                  "device " + std::string(syms.name(d.name)) + " in " + scope +
                      " has an empty net name");
      }
    }
    // Inf/NaN values would silently poison the feature matrix and every
    // downstream GCN activation; reject them at the model boundary.
    if (!all_finite(d)) {
      return at(source, d.src_line, DiagCode::NonFinite,
                "device " + std::string(syms.name(d.name)) + " in " + scope +
                    " has a non-finite value or parameter");
    }
  }
  return std::nullopt;
}

// Devices and subckt instances share one per-scope namespace: a repeated
// name would silently alias two elements after flattening (prefixes are
// built from instance paths), so reject it up front.
std::optional<Diag> check_unique_names(
    const std::vector<InternedDevice>& devices,
    const std::vector<InternedInstance>& instances, const SymbolTable& syms,
    const std::string& scope, const std::string& source) {
  std::unordered_set<SymbolId> seen;
  for (const auto& d : devices) {
    if (!seen.insert(d.name).second) {
      return at(source, d.src_line, DiagCode::DuplicateName,
                "duplicate device name " + std::string(syms.name(d.name)) +
                    " in " + scope);
    }
  }
  for (const auto& i : instances) {
    if (!seen.insert(i.name).second) {
      return at(source, i.src_line, DiagCode::DuplicateName,
                "duplicate instance name " + std::string(syms.name(i.name)) +
                    " in " + scope);
    }
  }
  return std::nullopt;
}

}  // namespace

void validate_interned(const InternedNetlist& netlist,
                       const std::string& source) {
  const SymbolTable& syms = netlist.syms;
  auto raise = [](std::optional<Diag> d) {
    if (d) throw NetlistError(std::move(*d));
  };
  raise(check_devices(netlist.devices, syms, "top level", source));
  raise(check_unique_names(netlist.devices, netlist.instances, syms,
                           "top level", source));
  auto check_instances = [&](const std::vector<InternedInstance>& insts,
                             const std::string& scope) {
    for (const auto& inst : insts) {
      const std::size_t def = netlist.find_subckt(inst.subckt);
      if (def == InternedNetlist::npos) {
        raise(at(source, inst.src_line, DiagCode::UndefinedSubckt,
                 "instance " + std::string(syms.name(inst.name)) + " in " +
                     scope + " references undefined subckt " +
                     std::string(syms.name(inst.subckt))));
      }
      if (netlist.subckts[def].ports.size() != inst.nets.size()) {
        raise(at(
            source, inst.src_line, DiagCode::PortMismatch,
            "instance " + std::string(syms.name(inst.name)) + " in " + scope +
                " binds " + std::to_string(inst.nets.size()) +
                " nets to subckt " + std::string(syms.name(inst.subckt)) +
                " with " + std::to_string(netlist.subckts[def].ports.size()) +
                " ports"));
      }
    }
  };
  check_instances(netlist.instances, "top level");
  // Definitions are checked in name order (the order of
  // `Netlist::subckts`), not parse order, so the first violation
  // reported does not depend on how the netlist was written or interned.
  std::vector<std::size_t> order(netlist.subckts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return syms.name(netlist.subckts[a].name) <
           syms.name(netlist.subckts[b].name);
  });
  for (const std::size_t i : order) {
    const InternedSubckt& def = netlist.subckts[i];
    const std::string scope = "subckt " + std::string(syms.name(def.name));
    raise(check_devices(def.devices, syms, scope, source));
    raise(check_unique_names(def.devices, def.instances, syms, scope, source));
    check_instances(def.instances, scope);
  }
}

std::uint8_t NetClassCache::flags(SymbolId id) {
  if (id >= flags_.size()) flags_.resize(syms_->size(), 0);
  std::uint8_t& f = flags_[id];
  if (!(f & kKnown)) {
    const std::string name(syms_->name(id));
    f = kKnown;
    if (is_supply_net(name)) f |= kSupply;
    if (is_ground_net(name)) f |= kGround;
  }
  return f;
}

}  // namespace gana::spice
