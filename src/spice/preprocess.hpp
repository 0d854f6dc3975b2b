// Recognition-oriented netlist preprocessing (paper §II-B).
//
// "Preprocessing also identifies netlist features that help performance
// but do not affect functionality (and can be disregarded during
// recognition), e.g., parallel transistors for sizing, series transistors
// for large transistor lengths, dummies, decaps."
//
// The operations here simplify a *flat* netlist for recognition only:
//  * parallel devices with identical connectivity fold into one card with
//    an increased multiplicity parameter `m`;
//  * series MOS stacks sharing a gate (and series resistors) collapse
//    through their internal node;
//  * dummy transistors and supply decoupling caps are dropped.
//
// Every removed device is recorded in `alias` (removed name -> surviving
// name, empty string when simply deleted) so ground-truth labels can be
// carried across preprocessing.
#pragma once

#include <map>
#include <string>

#include "spice/netlist.hpp"

namespace gana::spice {

/// What preprocessing did; see file comment.
struct PreprocessReport {
  std::size_t merged_parallel = 0;
  std::size_t merged_series = 0;
  std::size_t removed_dummies = 0;
  std::size_t removed_decaps = 0;
  /// removed device name -> surviving representative ("" if deleted).
  std::map<std::string, std::string> alias;

  [[nodiscard]] std::size_t total_removed() const {
    return merged_parallel + merged_series + removed_dummies + removed_decaps;
  }
};

/// Options controlling individual preprocessing passes.
struct PreprocessOptions {
  bool merge_parallel = true;
  bool merge_series = true;
  bool remove_dummies = true;
  bool remove_decaps = true;
};

/// Runs all enabled passes to a fixpoint on a flat netlist (throws
/// NetlistError if `netlist` still contains instances). Interns
/// `netlist`, runs `preprocess_interned` (spice/interned.hpp) and
/// materializes the result back into it.
PreprocessReport preprocess(Netlist& netlist,
                            const PreprocessOptions& options = {});

}  // namespace gana::spice
