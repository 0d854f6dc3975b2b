#include "spice/preprocess.hpp"

#include "spice/interned.hpp"

namespace gana::spice {

PreprocessReport preprocess(Netlist& netlist,
                            const PreprocessOptions& options) {
  InternedNetlist interned = intern_netlist(netlist);
  PreprocessReport report = preprocess_interned(interned, options);
  netlist = materialize_netlist(interned);
  return report;
}

}  // namespace gana::spice
