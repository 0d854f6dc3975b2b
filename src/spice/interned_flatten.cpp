// Hierarchy expansion in id space (see flatten.hpp for the contract).
//
// Instances expand depth-first in card order, so the flattened device
// order is the order a reader meets the cards. All prefixed names are
// built once into a scratch string and interned into the netlist's own
// symbol table, whose arena the flattened result inherits.
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "spice/flatten.hpp"
#include "spice/interned.hpp"

namespace gana::spice {
namespace {

class InternedFlattener {
 public:
  InternedFlattener(InternedNetlist& src, const std::string& source)
      : src_(src), source_(source), syms_(src.syms), rails_(src.syms) {
    for (const SymbolId g : src_.globals) globals_.insert(g);
    // Subckt definitions keyed by name id for O(1) instance expansion.
    for (std::size_t i = 0; i < src_.subckts.size(); ++i) {
      def_by_name_.emplace(src_.subckts[i].name, i);
    }
  }

  std::vector<InternedDevice> run() {
    std::vector<InternedDevice> out = src_.devices;
    out_ = &out;
    // Top-level instance nets are already in their final (top-level) form.
    for (const auto& inst : src_.instances) {
      expand(inst, /*depth=*/1);
    }
    return out;
  }

 private:
  /// Maps a net seen inside a subckt body to its flattened name: formal
  /// ports bind to the caller's nets; globals and supply/ground rails are
  /// never scoped; everything else gets the instance-path prefix.
  SymbolId map_net(SymbolId net, const std::string& prefix,
                   const std::vector<std::pair<SymbolId, SymbolId>>& net_map) {
    for (const auto& [formal, actual] : net_map) {
      if (formal == net) return actual;
    }
    if (globals_.count(net) != 0 || rails_.rail(net)) return net;
    return prefixed(prefix, net);
  }

  /// Interns "<prefix><name(id)>" via a reused scratch buffer.
  SymbolId prefixed(const std::string& prefix, SymbolId id) {
    scratch_.assign(prefix);
    scratch_.append(syms_.name(id));
    return syms_.intern(scratch_);
  }

  /// The active instantiation path, rendered one hop per note line:
  /// "x0 instantiates subckt a".
  [[nodiscard]] std::vector<std::string> chain_notes(
      const InternedInstance& last) const {
    std::vector<std::string> notes;
    for (const auto* inst : chain_) {
      notes.push_back(std::string(syms_.name(inst->name)) +
                      " instantiates subckt " +
                      std::string(syms_.name(inst->subckt)));
    }
    notes.push_back(std::string(syms_.name(last.name)) +
                    " instantiates subckt " +
                    std::string(syms_.name(last.subckt)) + " again -- cycle");
    return notes;
  }

  [[noreturn]] void fail(const InternedInstance& inst, DiagCode code,
                         std::string message,
                         std::vector<std::string> notes = {}) const {
    throw NetlistError(make_diag(code, Stage::Flatten, std::move(message),
                                 SourceLoc{source_, inst.src_line},
                                 std::move(notes)));
  }

  /// Expands an instance whose actual nets are already flattened names.
  void expand(const InternedInstance& inst, int depth) {
    auto def_it = def_by_name_.find(inst.subckt);
    if (def_it == def_by_name_.end()) {
      fail(inst, DiagCode::UndefinedSubckt,
           "undefined subckt " + std::string(syms_.name(inst.subckt)));
    }
    const InternedSubckt& def = src_.subckts[def_it->second];
    // A subckt on the active expansion path instantiating itself (directly
    // or through intermediates) would recurse forever; the depth budget is
    // only a backstop for absurdly deep but acyclic hierarchies.
    if (!active_.insert(def.name).second) {
      fail(inst, DiagCode::RecursiveSubckt,
           "recursive instantiation of subckt " +
               std::string(syms_.name(inst.subckt)),
           chain_notes(inst));
    }
    if (depth > kMaxDepth) {
      active_.erase(def.name);
      fail(inst, DiagCode::DepthExceeded,
           "subckt nesting exceeds depth " + std::to_string(kMaxDepth) +
               " at instance " + std::string(syms_.name(inst.name)));
    }
    if (def.ports.size() != inst.nets.size()) {
      active_.erase(def.name);
      fail(inst, DiagCode::PortMismatch,
           "port count mismatch instantiating " +
               std::string(syms_.name(inst.subckt)) + " (" +
               std::to_string(inst.nets.size()) + " nets, " +
               std::to_string(def.ports.size()) + " ports)");
    }
    chain_.push_back(&inst);

    const std::string prefix =
        std::string(syms_.name(inst.name)) + std::string(1, kHierSeparator);
    std::vector<std::pair<SymbolId, SymbolId>> net_map;
    net_map.reserve(def.ports.size());
    for (std::size_t i = 0; i < def.ports.size(); ++i) {
      net_map.emplace_back(def.ports[i], inst.nets[i]);
    }

    for (const auto& d : def.devices) {
      InternedDevice nd = d;
      nd.name = prefixed(prefix, d.name);
      nd.hier_depth = depth;
      for (std::size_t pi = 0; pi < nd.pins.size(); ++pi) {
        nd.pins[pi] = map_net(nd.pins[pi], prefix, net_map);
      }
      out_->push_back(std::move(nd));
    }
    for (const auto& child : def.instances) {
      InternedInstance bound = child;
      bound.name = prefixed(prefix, child.name);
      for (auto& n : bound.nets) {
        n = map_net(n, prefix, net_map);
      }
      expand(bound, depth + 1);
    }

    chain_.pop_back();
    active_.erase(def.name);
  }

  static constexpr int kMaxDepth = 64;

  InternedNetlist& src_;
  const std::string& source_;
  SymbolTable& syms_;
  NetClassCache rails_;
  std::vector<InternedDevice>* out_ = nullptr;
  std::unordered_set<SymbolId> globals_;
  std::unordered_map<SymbolId, std::size_t> def_by_name_;
  std::unordered_set<SymbolId> active_;  ///< subckts on the expansion path
  std::vector<const InternedInstance*> chain_;  ///< instances on the path
  std::string scratch_;
};

}  // namespace

InternedNetlist flatten_interned(InternedNetlist netlist,
                                 const std::string& source) {
  std::vector<InternedDevice> flat_devices =
      InternedFlattener(netlist, source).run();
  InternedNetlist out;
  out.title = std::move(netlist.title);
  out.port_labels = std::move(netlist.port_labels);
  out.globals = std::move(netlist.globals);
  out.devices = std::move(flat_devices);
  out.syms = std::move(netlist.syms);
  out.syms.flush_stats();
  validate_interned(out, source);
  return out;
}

}  // namespace gana::spice
