#include "spice/flatten.hpp"

#include "spice/interned.hpp"

namespace gana::spice {

Netlist flatten(const Netlist& netlist, const std::string& source) {
  return materialize_netlist(
      flatten_interned(intern_netlist(netlist, source), source));
}

Result<Netlist> flatten_result(const Netlist& netlist,
                               const std::string& source) {
  try {
    return flatten(netlist, source);
  } catch (const DiagError& e) {
    // Covers NetlistError plus checkpoint aborts (expired deadline,
    // injected fault) -- all already structured.
    return e.diag();
  } catch (const std::exception& e) {
    return make_diag(DiagCode::Internal, Stage::Flatten, e.what(),
                     SourceLoc{source, 0});
  }
}

}  // namespace gana::spice
