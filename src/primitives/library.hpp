// The primitive template library (paper §IV).
//
// "We populate a library of 21 basic primitives that are building blocks
// for larger sub-blocks. The primitives are specified as SPICE netlists,
// enabling a user to easily add new primitives to the library."
//
// Each entry is compiled once into a labeled bipartite pattern graph
// (paper §II-C) that the VF2 annotator searches for.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "graph/circuit_graph.hpp"
#include "isomorph/vf2.hpp"
#include "primitives/constraint.hpp"
#include "spice/netlist.hpp"

namespace gana::primitives {

/// Constraint template: like constraints::Constraint but members refer to
/// the device names (or, for net-level constraints such as SymmetricNets,
/// the net names) inside the primitive's SPICE definition; they are
/// rebound to the matched target at annotation time.
struct ConstraintTemplate {
  constraints::Kind kind;
  std::vector<std::string> members;  ///< primitive-local device/net names
  bool members_are_nets = false;     ///< resolve through the net binding
};

/// One compiled library entry.
struct PrimitiveSpec {
  std::string name;          ///< identifier, e.g. "cm_n2"
  std::string display_name;  ///< paper-style label, e.g. "CM-N(2)"
  std::string spice;         ///< the SPICE source it was compiled from
  int priority = 0;          ///< higher matches first (bigger/rarer first)
  std::vector<ConstraintTemplate> constraint_templates;

  // Compiled form:
  spice::Netlist netlist;           ///< flat body of the subckt
  graph::CircuitGraph graph;        ///< pattern graph
  std::vector<bool> strict_degree;  ///< internal-net strictness flags
  std::vector<bool> forbid_rail;    ///< nets that must not bind a rail
  std::vector<std::string> ports;

  [[nodiscard]] iso::Pattern pattern() const {
    return {&graph, strict_degree, forbid_rail};
  }
  [[nodiscard]] std::size_t element_count() const {
    return graph.element_count();
  }
};

/// Immutable library of compiled primitive patterns.
class PrimitiveLibrary {
 public:
  /// Builds the default 21-primitive library of the paper's Table/Fig. 1
  /// vocabulary: differential pairs, current mirrors (simple, multi-output,
  /// cascode), cross-coupled pairs, single-device stages (CS/CG/SF),
  /// transmission gate, inverter and buffer, RC compensation, LC tank,
  /// and a resistive voltage divider.
  static PrimitiveLibrary standard();

  /// Empty library; add entries with add().
  PrimitiveLibrary() = default;

  /// Compiles a primitive from SPICE text containing exactly one .subckt
  /// definition; throws spice::NetlistError on malformed input or a
  /// duplicate primitive name (DiagCode::DuplicateName -- names are the
  /// library's identity, so last-write-wins would be ambiguous).
  /// `non_rail_nets` lists pattern net names that must not bind to a
  /// supply/ground rail in the target.
  void add(const std::string& name, const std::string& display_name,
           const std::string& spice_text, int priority,
           std::vector<ConstraintTemplate> constraint_templates = {},
           std::vector<std::string> non_rail_nets = {});

  /// Inserts an already-compiled spec (the parse-free path the binary
  /// artifact loader uses). Throws spice::NetlistError on a duplicate
  /// name, like add().
  void add_spec(std::unique_ptr<PrimitiveSpec> spec);

  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] const PrimitiveSpec& spec(std::size_t i) const {
    return *specs_[i];
  }
  [[nodiscard]] const PrimitiveSpec* find(const std::string& name) const;

  /// Indices sorted by descending priority (annotation order).
  [[nodiscard]] std::vector<std::size_t> priority_order() const;

 private:
  // unique_ptr keeps PrimitiveSpec addresses stable across add() calls.
  std::vector<std::unique_ptr<PrimitiveSpec>> specs_;
};

/// Content hash of a library: per-spec names, display names, pattern
/// structural hashes and priorities, in priority order. Stamped into the
/// library artifact header and re-derived on load, so a corrupt or
/// regenerated library is not mistaken for the one that was packed --
/// except in the patterns' forbid_rail/strict_degree flags and
/// constraint templates, which it does not cover (annotation_cache_key
/// folds the flags on top of it).
[[nodiscard]] std::uint64_t library_fingerprint(const PrimitiveLibrary& lib);

}  // namespace gana::primitives
