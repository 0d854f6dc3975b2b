// Netlist flattening (paper §II-B, "Netlist flattening").
//
// Designer-specified hierarchies are expanded away so that recognition is
// independent of per-designer hierarchy styles. Instance-scoped names are
// prefixed with the instance path ("xamp/m1"); global and supply/ground
// nets keep their names.
#pragma once

#include "spice/netlist.hpp"

namespace gana::spice {

/// Separator between instance path components in flattened names.
inline constexpr char kHierSeparator = '/';

/// Returns a flat copy of `netlist`: no instances remain, every device is
/// top-level, and Device::hier_depth records the original nesting depth.
///
/// Throws NetlistError on undefined subcircuit references, on recursive
/// (cyclic) subcircuit instantiation -- the diagnostic's notes list the
/// offending instantiation chain -- and on nesting beyond a fixed depth
/// budget. `source` names the netlist in diagnostics. Interns `netlist`,
/// runs `flatten_interned` (spice/interned.hpp) and materializes the
/// result.
Netlist flatten(const Netlist& netlist, const std::string& source = {});

/// Non-throwing variant: structural hazards come back as a Diag.
[[nodiscard]] Result<Netlist> flatten_result(const Netlist& netlist,
                                             const std::string& source = {});

}  // namespace gana::spice
