// VF2-style labeled subgraph isomorphism for bipartite circuit graphs
// (paper §IV-A).
//
// The matcher finds monomorphic embeddings of a small primitive pattern
// into a circuit graph:
//  * element vertices must agree on device type (NMOS != PMOS != R != C);
//  * MOS source/drain interchangeability is handled by branching on a
//    per-device orientation flip that swaps the l_s/l_d bits consistently
//    across all edges of that device;
//  * edge labels must match exactly (under the chosen flip), so a
//    diode-connected device (101) never matches a plain gate edge (100);
//  * pattern nets marked `strict_degree` (a primitive's internal nets)
//    must match a target net of identical degree; port nets may have
//    extra fanout in the target;
//  * the mapping is injective on elements and on nets.
//
// Two engines share this contract:
//  * Indexed (default) -- VF2++-style accelerated search: root
//    candidates come from a per-circuit CandidateIndex bucket instead of
//    a full vertex scan, the pattern search order is chosen by target
//    rarity (rarest device type roots the search), and every candidate
//    passes a canonical labeled-edge signature lookahead before any
//    recursion;
//  * Reference -- the original uninidexed search, retained as the
//    ground truth the accelerated engine is pinned against in tests.
// On a non-truncated search both engines return the same match set
// (identical maps; representatives of automorphic element sets are
// canonicalized order-independently), though possibly in a different
// enumeration order and with different `states` counts.
//
// For patterns of O(1) size and O(1) degree the search runs in O(n) per
// root candidate, matching the complexity argument in the paper.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/circuit_graph.hpp"

namespace gana::iso {

class CandidateIndex;

/// A pattern to search for: a small circuit graph plus per-vertex
/// strictness flags for its net vertices.
struct Pattern {
  const graph::CircuitGraph* graph = nullptr;
  /// Per pattern-vertex: true for net vertices that must match a target
  /// net of identical degree (primitive-internal nets). Ignored for
  /// element vertices.
  std::vector<bool> strict_degree;
  /// Per pattern-vertex: true for net vertices that must NOT bind to a
  /// supply/ground rail (e.g. the signal input of a common-gate stage,
  /// which would otherwise subsume every common-source device). May be
  /// empty (no restriction).
  std::vector<bool> forbid_rail;
};

/// One embedding: pattern vertex id -> target vertex id.
struct Match {
  std::vector<std::size_t> map;

  /// Sorted target vertex ids of the matched elements; two matches with
  /// the same element set are the same physical instance.
  [[nodiscard]] std::vector<std::size_t> element_key(
      const graph::CircuitGraph& pattern) const;
};

/// Search strategy selector; see the header comment.
enum class MatchEngine : std::uint8_t { Indexed, Reference };

struct MatchOptions {
  /// Stop after this many distinct (post-dedup) matches.
  std::size_t max_matches = 100000;
  /// Node-expansion budget: abort the search after this many explored
  /// states. Deterministic (a truncated search always truncates at the
  /// same point for the same inputs), so budget-limited results stay
  /// bit-identical across runs and thread counts. The default is never
  /// hit for O(1)-diameter library patterns on sane circuits; adversarial
  /// graphs hit it and come back `truncated` instead of hanging. The
  /// Indexed engine prunes more, so its truncation point differs from
  /// the Reference engine's; each is deterministic on its own.
  std::size_t max_states = 50000000;
  /// Deduplicate matches that cover the same element set (automorphic
  /// images, e.g. the two orderings of a differential pair). The kept
  /// representative is the lexicographically smallest map among the
  /// images enumerated, so it does not depend on enumeration order.
  bool dedup_by_elements = true;
  /// Search engine; Indexed unless a caller explicitly pins Reference.
  MatchEngine engine = MatchEngine::Indexed;
};

/// What the search actually did; written through the optional out-param
/// of `find_subgraph_matches`.
struct MatchStats {
  std::size_t states = 0;    ///< explored search states
  bool truncated = false;    ///< a budget (states/matches) was hit
  /// Candidates rejected by the signature lookahead before recursion
  /// (Indexed engine only; 0 under Reference).
  std::size_t sig_rejections = 0;
};

/// Enumerates embeddings of `pattern` into `target`. When a resource
/// budget is exhausted the matches found so far are returned and
/// `stats->truncated` is set; the caller decides whether a partial
/// enumeration is acceptable.
///
/// `index`, when non-null, must have been built from `target`; it is
/// only consulted by the Indexed engine, which otherwise builds a
/// throwaway index for this one call. Callers matching many patterns
/// against one circuit should build the index once and pass it in.
std::vector<Match> find_subgraph_matches(const Pattern& pattern,
                                         const graph::CircuitGraph& target,
                                         const MatchOptions& options = {},
                                         MatchStats* stats = nullptr,
                                         const CandidateIndex* index = nullptr);

/// Convenience: true if at least one embedding exists.
bool contains_subgraph(const Pattern& pattern,
                       const graph::CircuitGraph& target);

}  // namespace gana::iso
