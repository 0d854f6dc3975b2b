// Primitive annotation: exact subgraph matching against the library
// (paper §IV-A) plus constraint instantiation (§IV-B).
//
// The sweep over library patterns is accelerated three ways, none of
// which may change the accepted primitive set:
//  * a per-circuit iso::CandidateIndex is built once and shared across
//    all patterns (and worker threads);
//  * a counting filter skips patterns whose device-type/edge-label/rail
//    requirements the circuit cannot meet (a sound necessary condition,
//    see candidate_index.hpp);
//  * with a ThreadPool attached, patterns are matched in parallel and
//    the per-pattern match lists are merged sequentially in canonical
//    (library priority, element-key) order, so greedy acceptance is
//    bit-identical to the sequential sweep at any thread count.
// An optional AnnotationCache keyed by the circuit's structural hash
// lets structurally identical circuits (batch copies of one cell, or
// the revisions of one design in an incremental session) pay for a
// single sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/circuit_graph.hpp"
#include "isomorph/candidate_index.hpp"
#include "isomorph/vf2.hpp"
#include "primitives/annotation_cache.hpp"
#include "primitives/constraint.hpp"
#include "primitives/library.hpp"

namespace gana {
class ThreadPool;
}

namespace gana::primitives {

/// One recognized primitive occurrence in a circuit graph.
struct PrimitiveInstance {
  std::string type;          ///< library name, e.g. "cm_n2"
  std::string display_name;  ///< e.g. "CM-N(2)"
  std::size_t library_index = 0;
  /// Target element vertex ids covered by this instance, sorted.
  std::vector<std::size_t> elements;
  /// Pattern net name -> target net vertex id (ports and internal nets).
  std::map<std::string, std::size_t> net_binding;
  /// Constraints instantiated from the library templates, with members
  /// rebound to target device names.
  std::vector<constraints::Constraint> constraints;
};

/// Each element belongs to at most one primitive: matches are accepted
/// greedily in library priority order.
struct AnnotateOptions {
  /// Per-pattern VF2 resource budget. On adversarial graphs the search
  /// truncates deterministically instead of hanging; the outcome reports
  /// it so callers can surface a partial-annotation warning.
  iso::MatchOptions match;
  /// When non-null, library patterns are matched in parallel on this
  /// pool (parallel_for, one pattern per chunk); a task of the pool may
  /// pass it too, since the calling thread claims patterns itself. Never
  /// affects results: acceptance runs on the merged lists in the same
  /// canonical order the sequential sweep uses. Not owned.
  ThreadPool* pool = nullptr;
  /// When non-null, annotations are shared across structurally identical
  /// circuits through this cache. Not owned.
  AnnotationCache* cache = nullptr;
};

/// Primitive annotation plus the resource outcome of the VF2 sweeps.
/// The work counters (`vf2_states`, `sig_rejections`,
/// `patterns_skipped`) describe work done by *this call*: on a cache
/// hit they are zero, while `truncated` still reports the cached
/// annotation's flag (it is a property of the result, not of the call).
struct AnnotateOutcome {
  std::vector<PrimitiveInstance> primitives;
  /// True when at least one library pattern's search hit its budget; the
  /// primitive list is then a (deterministic) partial annotation.
  bool truncated = false;
  /// Total VF2 states explored across all library patterns.
  std::size_t vf2_states = 0;
  /// Candidates rejected by the signature lookahead (Indexed engine).
  std::size_t sig_rejections = 0;
  /// Library patterns skipped by the counting filter.
  std::size_t patterns_skipped = 0;
  /// True when the annotation was served from `options.cache`.
  bool cache_hit = false;
};

/// Finds all primitive instances in `g`. Deterministic: library priority
/// order, then canonical element-key order within each pattern; budget
/// truncation points depend only on the inputs (and the chosen engine),
/// never on thread count or cache state.
AnnotateOutcome annotate_primitives_guarded(
    const graph::CircuitGraph& g, const PrimitiveLibrary& library,
    const AnnotateOptions& options = {});

/// Convenience wrapper discarding the resource outcome.
std::vector<PrimitiveInstance> annotate_primitives(
    const graph::CircuitGraph& g, const PrimitiveLibrary& library,
    const AnnotateOptions& options = {});

/// Elements of `g` not covered by any instance in `found`.
std::vector<std::size_t> unclaimed_elements(
    const graph::CircuitGraph& g,
    const std::vector<PrimitiveInstance>& found);

/// Matching-stage result for one library pattern. Produced read-only
/// from (spec, g, index), so patterns can run on any thread.
struct PatternMatchList {
  std::vector<iso::Match> matches;  ///< sorted by (element key, map)
  iso::MatchStats stats;
  bool skipped = false;  ///< cut by the counting filter
};

/// Runs the matching stage for one library pattern against `g`:
/// counting filter, VF2 enumeration, then the canonical
/// (element-key, map) sort greedy acceptance relies on. Exposed, with
/// the two functions below, so a caller can time the sweep pattern by
/// pattern (bench/e2e's traced pass).
PatternMatchList match_library_pattern(const PrimitiveSpec& spec,
                                       const graph::CircuitGraph& g,
                                       const iso::CandidateIndex& index,
                                       const iso::MatchOptions& match_options);

/// Greedy acceptance over per-pattern match lists: walks `order`
/// (library priority order, `lists` parallel to it) and accepts matches
/// first-come within each list, skipping matches with an element
/// already claimed. Fills the work counters of `outcome` from the
/// per-list stats. This is the sequencing that makes the sweep
/// deterministic -- sequential and pattern-parallel matching both
/// funnel through it. Acceptance reads no option; `options` is unused.
CachedAnnotation accept_pattern_matches(const graph::CircuitGraph& g,
                                        const PrimitiveLibrary& library,
                                        const std::vector<std::size_t>& order,
                                        const std::vector<PatternMatchList>& lists,
                                        const AnnotateOptions& options,
                                        AnnotateOutcome& outcome);

/// Expands binding-level records into full PrimitiveInstances against
/// this circuit's names. Pure string assembly; this is all a cache hit
/// pays for.
void instantiate_annotation(const graph::CircuitGraph& g,
                            const PrimitiveLibrary& library,
                            const CachedAnnotation& ann,
                            std::vector<PrimitiveInstance>& out);

/// The AnnotationCache key for annotating `g` against `library` under
/// `options`: the circuit's structural hash folded with
/// `library_fingerprint(library)`, each pattern's forbid_rail and
/// strict_degree flags (in priority order), and every option that can
/// change the accepted set (VF2 budgets, dedup, engine). Thread count
/// and cache attachment are deliberately excluded -- they never change
/// results. Exposed for tests.
[[nodiscard]] std::uint64_t annotation_cache_key(
    const graph::CircuitGraph& g, const PrimitiveLibrary& library,
    const AnnotateOptions& options);

}  // namespace gana::primitives
