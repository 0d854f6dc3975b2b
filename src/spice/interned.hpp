// Id-space netlist representation: the implementation of the front end.
//
// `InternedNetlist` is a `Netlist` with every name replaced by a
// dense `SymbolId` into an owned `SymbolTable`, pins stored inline, and
// parameters as a small flat vector instead of `std::map`. Every
// front-end stage -- parse, validate, flatten, preprocess, graph build
// -- is implemented once, here, in id space. The string-space entry
// points (`parse_netlist`, `Netlist::check`, `flatten`, `preprocess`,
// `graph::build_graph(const Netlist&)`) are adapters: they intern,
// call the id-space function, and materialize the result
// (`materialize_netlist`).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/parser.hpp"
#include "spice/preprocess.hpp"
#include "spice/symbol_table.hpp"

namespace gana::spice {

/// One `key=value` device parameter; keys are interned names.
struct InternedParam {
  SymbolId key = kNoSymbol;
  double value = 0.0;
};

/// Inline pin storage: MOS devices have 4 pins, everything else 2, so
/// a fixed array avoids one heap allocation per device.
struct PinArray {
  static constexpr std::size_t kCapacity = 4;
  std::array<SymbolId, kCapacity> ids{kNoSymbol, kNoSymbol, kNoSymbol,
                                      kNoSymbol};
  std::uint8_t count = 0;

  [[nodiscard]] std::size_t size() const { return count; }
  [[nodiscard]] SymbolId operator[](std::size_t i) const { return ids[i]; }
  SymbolId& operator[](std::size_t i) { return ids[i]; }
  void push_back(SymbolId id) { ids[count++] = id; }
};

/// Element card in id space; field-for-field parallel to `Device`.
struct InternedDevice {
  SymbolId name = kNoSymbol;
  DeviceType type = DeviceType::Nmos;
  SymbolId model = kNoSymbol;  ///< kNoSymbol when the model name is empty
  PinArray pins;
  double value = 0.0;
  /// Insertion-ordered; at most a handful of entries, so linear scans
  /// beat any map. Materialization sorts by key name via std::map.
  std::vector<InternedParam> params;
  int hier_depth = 0;
  std::size_t src_line = 0;

  [[nodiscard]] const double* find_param(SymbolId key) const {
    for (const auto& p : params) {
      if (p.key == key) return &p.value;
    }
    return nullptr;
  }
  double& param(SymbolId key) {
    for (auto& p : params) {
      if (p.key == key) return p.value;
    }
    params.push_back({key, 0.0});
    return params.back().value;
  }
};

/// Subcircuit instantiation in id space.
struct InternedInstance {
  SymbolId name = kNoSymbol;
  SymbolId subckt = kNoSymbol;
  std::vector<SymbolId> nets;
  std::size_t src_line = 0;
};

/// .subckt definition in id space.
struct InternedSubckt {
  SymbolId name = kNoSymbol;
  std::vector<SymbolId> ports;
  std::vector<InternedDevice> devices;
  std::vector<InternedInstance> instances;
  std::size_t src_line = 0;
};

/// A full netlist in id space, owning its symbol table. Movable only
/// (the table's arena is not copyable); stages hand the value through
/// `parse_netlist_interned` -> `flatten_interned` -> `preprocess_interned`
/// -> `graph::build_graph` / `materialize_netlist`.
struct InternedNetlist {
  std::string title;
  std::vector<InternedDevice> devices;
  std::vector<InternedInstance> instances;
  std::vector<InternedSubckt> subckts;  ///< definition order (parse order)
  std::vector<std::pair<SymbolId, PortLabel>> port_labels;  ///< insertion order
  std::vector<SymbolId> globals;                            ///< insertion order
  SymbolTable syms;

  [[nodiscard]] bool is_flat() const { return instances.empty(); }
  [[nodiscard]] std::string_view name(SymbolId id) const {
    return syms.name(id);
  }
  /// Definition index for a subckt name, or npos.
  [[nodiscard]] std::size_t find_subckt(SymbolId name) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Converts a string netlist into id space, interning every name once.
/// The inverse of `materialize_netlist` (round-trips exactly). A device
/// with more pins than `PinArray` holds is rejected with a BadPinCount
/// NetlistError (stage Validate, located at its card in `source`)
/// before any of its pins is written; every other malformation is left
/// for `validate_interned` to report.
[[nodiscard]] InternedNetlist intern_netlist(const Netlist& netlist,
                                             const std::string& source = {});

/// Materializes the string `Netlist` at the front-end boundary. Device
/// order is preserved; params/subckts/port_labels/globals land in their
/// sorted containers.
[[nodiscard]] Netlist materialize_netlist(const InternedNetlist& netlist);

/// The netlist validator behind `Netlist::check`: throws a NetlistError
/// carrying a Diag for the first violation (undefined subckt reference,
/// port-count mismatch, wrong pin count, empty/duplicate names,
/// non-finite device value). Names are materialized only for the error
/// message.
void validate_interned(const InternedNetlist& netlist,
                       const std::string& source = {});

/// The SPICE parser (`parse_netlist` materializes its result): lexes
/// `std::string_view` tokens out of one lowercased whole-file buffer (a
/// single allocation) instead of a string per token, and validates the
/// result before returning it.
[[nodiscard]] InternedNetlist parse_netlist_interned(
    std::string_view text, const ParseOptions& options = {});

/// File variant; reads through `read_netlist_text`, so the file is read
/// exactly once, with the size limit checked up front.
[[nodiscard]] InternedNetlist parse_netlist_file_interned(
    const std::string& path, const ParseLimits& limits = {});

/// Hierarchy expansion (see `flatten` for the contract): all
/// instance-path prefixing happens in the symbol table's arena. Takes
/// the netlist by value -- the symbol table moves into the flattened
/// result and is extended with the prefixed names.
[[nodiscard]] InternedNetlist flatten_interned(InternedNetlist netlist,
                                               const std::string& source = {});

/// Preprocessing (see `preprocess` for the passes): parallel/series
/// merging and dummy/decap removal on ids, with net iteration ordered
/// by name so the merge sequence (and therefore the surviving devices,
/// values, and aliases) does not depend on symbol ids.
PreprocessReport preprocess_interned(InternedNetlist& netlist,
                                     const PreprocessOptions& options = {});

/// Per-symbol classification used by flatten/preprocess/graph-build so
/// `is_supply_net`/`is_ground_net` run once per distinct name instead of
/// once per reference. Lazily grown; safe to query any id of `syms`.
class NetClassCache {
 public:
  explicit NetClassCache(const SymbolTable& syms) : syms_(&syms) {}

  [[nodiscard]] bool supply(SymbolId id) { return flags(id) & kSupply; }
  [[nodiscard]] bool ground(SymbolId id) { return flags(id) & kGround; }
  [[nodiscard]] bool rail(SymbolId id) {
    return flags(id) & (kSupply | kGround);
  }

 private:
  static constexpr std::uint8_t kKnown = 1, kSupply = 2, kGround = 4;
  std::uint8_t flags(SymbolId id);

  const SymbolTable* syms_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace gana::spice
