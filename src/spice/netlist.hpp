// Object model for transistor-level SPICE netlists.
//
// This is the input representation of the GANA flow (paper §II-B): the
// user supplies a SPICE netlist for the design and SPICE netlists for the
// primitive template library.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/diag.hpp"

namespace gana::spice {

/// Element types at the lowest level of the hierarchy (paper §II-A).
enum class DeviceType {
  Nmos,
  Pmos,
  Resistor,
  Capacitor,
  Inductor,
  VSource,  ///< voltage source / voltage reference
  ISource,  ///< current source / current reference
};

[[nodiscard]] const char* to_string(DeviceType t);

/// True for NMOS/PMOS.
[[nodiscard]] bool is_mos(DeviceType t);

/// True for R/C/L.
[[nodiscard]] bool is_passive(DeviceType t);

/// Designer/testbench-provided port semantics, used by the featurizer
/// (5 net-type features) and by Postprocessing II (paper §V-A: "the
/// antenna at the LNA port and the oscillating signal at the oscillator
/// port are used to correct LNA/oscillator misclassifications").
enum class PortLabel {
  None,
  Input,
  Output,
  Bias,
  Clock,
  Antenna,   ///< RF input from the antenna (implies Input)
  LocalOsc,  ///< oscillating input, e.g. a mixer's LO port (implies Input)
};

[[nodiscard]] const char* to_string(PortLabel l);
[[nodiscard]] std::optional<PortLabel> port_label_from_string(
    const std::string& s);

/// MOS terminal indices within Device::pins.
enum MosPin : std::size_t { kDrain = 0, kGate = 1, kSource = 2, kBody = 3 };

/// One element card (M/R/C/L/V/I).
struct Device {
  std::string name;
  DeviceType type = DeviceType::Nmos;
  std::string model;              ///< model name for MOS, empty otherwise
  std::vector<std::string> pins;  ///< MOS: d g s b; others: 2 pins
  double value = 0.0;             ///< R/C/L/V/I principal value
  std::map<std::string, double> params;  ///< w=, l=, m=, ...
  int hier_depth = 0;  ///< original hierarchy depth before flattening
  std::size_t src_line = 0;  ///< 1-based source line, 0 = synthetic

  /// Multiplicity (parallel copies folded by preprocessing), param "m".
  [[nodiscard]] double multiplicity() const {
    auto it = params.find("m");
    return it == params.end() ? 1.0 : it->second;
  }
};

/// A subcircuit instantiation (X card).
struct Instance {
  std::string name;
  std::string subckt;             ///< definition name
  std::vector<std::string> nets;  ///< actual nets bound to the def's ports
  std::size_t src_line = 0;       ///< 1-based source line, 0 = synthetic
};

/// A .subckt definition.
struct SubcktDef {
  std::string name;
  std::vector<std::string> ports;
  std::vector<Device> devices;
  std::vector<Instance> instances;
  std::size_t src_line = 0;  ///< 1-based source line, 0 = synthetic
};

/// Error type for malformed netlists. Carries a structured `gana::Diag`
/// (via the layer-neutral `gana::DiagError` base) so batch callers can
/// recover the error code, pipeline stage, and netlist source location
/// without parsing the message.
class NetlistError : public DiagError {
 public:
  explicit NetlistError(Diag diag) : DiagError(std::move(diag)) {}

  /// Legacy constructor for unstructured throws; synthesizes a Diag.
  explicit NetlistError(const std::string& what,
                        DiagCode code = DiagCode::Internal,
                        Stage stage = Stage::Validate)
      : NetlistError(make_diag(code, stage, what)) {}
};

/// A full netlist: top-level devices/instances plus subcircuit definitions.
struct Netlist {
  std::string title;
  std::vector<Device> devices;
  std::vector<Instance> instances;
  std::map<std::string, SubcktDef> subckts;
  std::map<std::string, PortLabel> port_labels;  ///< net name -> label
  std::set<std::string> globals;                 ///< .global nets

  /// Nets referenced by top-level devices/instances, sorted.
  [[nodiscard]] std::vector<std::string> nets() const;

  /// Number of top-level devices (instances not expanded).
  [[nodiscard]] std::size_t device_count() const { return devices.size(); }

  /// True if there are no unexpanded subcircuit instances anywhere.
  [[nodiscard]] bool is_flat() const;

  /// net -> list of (device index, pin index) over top-level devices.
  [[nodiscard]] std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
  connectivity() const;

  /// Non-throwing validation: nullopt when well-formed, otherwise a Diag
  /// describing the first violation (undefined subckt reference, wrong
  /// pin count, empty/duplicate names, non-finite device value), located
  /// at the offending card's source line within `source` when known.
  /// Interns the netlist and runs `validate_interned`
  /// (spice/interned.hpp).
  [[nodiscard]] std::optional<Diag> check(const std::string& source = {}) const;

  /// Throws NetlistError on the first violation found by `check`.
  void validate(const std::string& source = {}) const;
};

/// True if the net name denotes a power supply (vdd!, vcc, avdd, ...).
[[nodiscard]] bool is_supply_net(const std::string& net);

/// True if the net name denotes ground (0, gnd!, vss, ...).
[[nodiscard]] bool is_ground_net(const std::string& net);

}  // namespace gana::spice
