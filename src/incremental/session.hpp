// Incremental re-annotation sessions (DESIGN.md §14).
//
// An AnnotationSession holds the artifacts of the previous annotation
// of one evolving design and re-annotates each edited revision by
// recomputing only what the edit dirtied. It is a reuse policy over
// core::Annotator::run, the one annotation path, and plugs into it at
// three points:
//
//   * the prepare function: value-only edits (device sizing, same
//     topology) skip the front end entirely -- the previous flat netlist
//     and graph are patched (guarded by the preprocess alias map, whose
//     decisions are value-independent); any other revision runs the
//     cold prepare plus a flat-level diff against the previous one. The
//     GCN stage then runs unchanged, and the inference cache -- keyed by
//     a fingerprint of the feature *values* on top of the structural
//     sample key -- serves the probabilities when the edit stays inside
//     its feature buckets;
//   * the `reuse` hook (the sizing-loop fast path): when a value patch
//     leaves the GCN probabilities bit-identical (compared, not
//     assumed), every downstream stage would run on inputs equal to the
//     previous revision's, so run re-emits the stored result;
//   * the `extract` hook: the VF2 sweep is decomposed by region
//     (incremental/region.hpp). Region-safe patterns are matched per
//     region with results cached under the region's canonical structure
//     key, so an edit re-matches only the regions it touched; the
//     remaining patterns are matched whole-graph. A design that is a
//     single region skips the split (and its canonical labelling) and
//     matches every pattern whole-graph. A whole-graph annotation store
//     short-circuits both when the structural hash is unchanged.
//
// Everything else -- guard, stage marks, timers, CCC, both postprocess
// stages, hierarchy, accuracies -- is Annotator::run's own code.
//
// Bit-identity contract: reannotate() output equals a cold
// Annotator::try_annotate of the same netlist, byte for byte, at any
// thread count. Every reuse path above preserves it by construction
// (patching reproduces what prepare would build; region match sets
// equal whole-graph sets restricted to the region for safe patterns;
// acceptance runs globally on the merged lists). Any VF2 budget
// truncation anywhere aborts reuse and falls back to the cold sweep,
// whose truncation points the determinism tests already pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "isomorph/vf2.hpp"
#include "primitives/annotation_cache.hpp"
#include "spice/netlist.hpp"

namespace gana::incremental {

/// Per-revision reuse report (also flushed to the perf counters).
struct SessionStats {
  bool full_prepare = true;   ///< false when the value-patch path ran
  std::size_t devices_added = 0;    ///< flattened-instance-level diff
  std::size_t devices_removed = 0;  ///< vs. the previous revision
  std::size_t devices_changed = 0;
  bool structure_changed = true;  ///< whole-graph structural hash moved
  std::size_t regions = 0;
  std::size_t region_reuses = 0;      ///< served from the region cache
  std::size_t region_recomputes = 0;  ///< ran VF2 fresh
  bool annotation_reused = false;  ///< whole-graph annotation store hit
  /// The previous revision's entire derived result (CCC, postprocess,
  /// hierarchy, classes) was re-emitted: a value-only edit left the
  /// structure, names, and GCN probabilities bit-identical, so every
  /// downstream stage's inputs were unchanged.
  bool result_reused = false;
  bool fallback_cold = false;      ///< truncation forced a cold sweep
};

class AnnotationSession {
 public:
  /// `annotator` is borrowed and must outlive the session. Its attached
  /// sample/inference caches carry the GCN reuse; the session adds its
  /// own match-level stores on top.
  explicit AnnotationSession(const core::Annotator* annotator);

  /// Annotates the next revision of the design. Never throws; failures
  /// come back as Diags exactly like Annotator::try_annotate. On
  /// success the revision becomes the new baseline for the next call.
  [[nodiscard]] Result<core::AnnotateResult> reannotate(
      const spice::Netlist& netlist, const std::string& name);

  /// Reuse report of the last reannotate() call.
  [[nodiscard]] const SessionStats& last_stats() const { return stats_; }

  [[nodiscard]] const core::Annotator& annotator() const {
    return *annotator_;
  }

 private:
  struct WholeEntry {
    std::shared_ptr<const primitives::CachedAnnotation> ann;
    std::size_t regions = 0;  ///< region count of the structure, for stats
  };

  /// The prepare step of one revision: the value patch when it applies,
  /// else the cold prepare plus the flat diff.
  core::PreparedCircuit prepare_revision(const spice::Netlist& netlist,
                                         const std::string& name,
                                         Stage* stage);
  primitives::AnnotateOutcome incremental_annotate(
      const graph::CircuitGraph& g);
  bool try_patch_prepare(const spice::Netlist& input, const std::string& name,
                         core::PreparedCircuit& out);
  void diff_flat(const spice::Netlist& flat);
  /// Rebuilds every index over prev_.prepared after a full prepare.
  void remember(const spice::Netlist& input);
  /// O(edited devices) baseline update after a successful patch-path
  /// revision: names, structure, and every derived index are unchanged,
  /// so only the edited sizings are folded into the stored baseline.
  void remember_patched(const spice::Netlist& input);

  const core::Annotator* annotator_;
  SessionStats stats_;

  // Previous-revision baseline.
  bool has_prev_ = false;
  spice::Netlist prev_input_;
  /// The last successful revision's result. Its `prepared` is the
  /// baseline the value patch edits and the flat diff compares against.
  /// When a value patch leaves the probabilities bit-identical, its
  /// derived fields are the outputs of pure functions whose inputs did
  /// not change, so the reuse hook hands it back to Annotator::run.
  core::AnnotateResult prev_;
  std::size_t prev_regions_ = 0;  ///< prev_'s region count, for stats
  std::uint64_t prev_graph_hash_ = 0;
  std::unordered_map<std::string, std::size_t> prev_flat_index_;
  std::vector<std::size_t> prev_device_vertex_;  ///< flat index -> vertex id
  std::unordered_map<std::string, bool> prev_alias_names_;  ///< either side
  /// Flat-device indices the last successful patch-path revision edited.
  std::vector<std::size_t> patch_changed_;

  // Match-level stores, keyed by structure. Unbounded: a session tracks
  // one evolving design, so the population is the design's distinct
  // region structures (dozens), not a corpus.
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const std::vector<iso::Match>>>
      region_matches_;
  std::unordered_map<std::uint64_t, WholeEntry> whole_annotations_;
  /// Region-safety of each library pattern, classified once.
  std::vector<bool> pattern_safe_;
};

}  // namespace gana::incremental
