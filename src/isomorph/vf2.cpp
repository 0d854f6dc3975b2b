#include "isomorph/vf2.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "isomorph/candidate_index.hpp"
#include "util/deadline.hpp"
#include "util/perf.hpp"

namespace gana::iso {

using graph::CircuitGraph;
using graph::Edge;
using graph::NetRole;
using graph::Vertex;
using graph::VertexKind;

namespace {

constexpr std::size_t kNone = CircuitGraph::npos;

/// Static vertex compatibility (ignores edges).
bool vertex_compatible(const Vertex& p, const Vertex& t) {
  if (p.kind != t.kind) return false;
  if (p.kind == VertexKind::Element) {
    return p.dtype == t.dtype;
  }
  // Net roles: a pattern rail must match the same rail in the target; a
  // generic pattern net may match any target net (including rails, so a
  // grounded current-mirror source port can bind to gnd!).
  if (p.role == NetRole::Supply) return t.role == NetRole::Supply;
  if (p.role == NetRole::Ground) return t.role == NetRole::Ground;
  return true;
}

class Vf2State {
 public:
  Vf2State(const Pattern& pattern, const CircuitGraph& target,
           const MatchOptions& options, const CandidateIndex* index)
      : p_(*pattern.graph),
        t_(target),
        strict_(pattern.strict_degree),
        forbid_rail_(pattern.forbid_rail),
        options_(options),
        index_(options.engine == MatchEngine::Indexed ? index : nullptr) {
    core_p_.assign(p_.vertex_count(), kNone);
    core_t_.assign(t_.vertex_count(), kNone);
    flip_.assign(p_.vertex_count(), false);
    if (index_ != nullptr) {
      pattern_sig_.resize(p_.vertex_count());
      for (std::size_t v = 0; v < p_.vertex_count(); ++v) {
        pattern_sig_[v] = label_signature(p_, v);
      }
    }
    order_ = search_order();
  }

  std::vector<Match> run(MatchStats* stats) {
    if (!order_.empty()) recurse(0);
    perf::count_vf2(states_, sig_rejections_);
    if (stats != nullptr) {
      stats->states = states_;
      stats->truncated = truncated_;
      stats->sig_rejections = sig_rejections_;
    }
    return std::move(matches_);
  }

 private:
  /// Root of the search. Reference: highest-degree element (static).
  /// Indexed: the element whose device type is rarest in the target --
  /// the VF2++ "start from the most constrained vertex" rule -- with
  /// degree, then id, breaking ties deterministically.
  std::size_t search_root() const {
    const std::size_t n = p_.vertex_count();
    std::size_t root = 0;
    if (index_ == nullptr) {
      for (std::size_t v = 0; v < n; ++v) {
        const bool better =
            (p_.vertex(v).kind == VertexKind::Element &&
             p_.vertex(root).kind != VertexKind::Element) ||
            (p_.vertex(v).kind == p_.vertex(root).kind &&
             p_.degree(v) > p_.degree(root));
        if (better) root = v;
      }
      return root;
    }
    auto bucket_size = [&](std::size_t v) {
      return index_->elements_of(p_.vertex(v).dtype).size();
    };
    for (std::size_t v = 1; v < n; ++v) {
      const Vertex& a = p_.vertex(v);
      const Vertex& b = p_.vertex(root);
      if (a.kind == VertexKind::Element && b.kind != VertexKind::Element) {
        root = v;
        continue;
      }
      if (a.kind != b.kind) continue;
      if (a.kind == VertexKind::Element) {
        if (bucket_size(v) < bucket_size(root) ||
            (bucket_size(v) == bucket_size(root) &&
             p_.degree(v) > p_.degree(root))) {
          root = v;
        }
      } else if (p_.degree(v) > p_.degree(root)) {
        root = v;
      }
    }
    return root;
  }

  /// A connected search order over pattern vertices: start from the
  /// root, grow by edges. (Primitives are connected.)
  std::vector<std::size_t> search_order() const {
    const std::size_t n = p_.vertex_count();
    if (n == 0) return {};
    const std::size_t root = search_root();
    std::vector<std::size_t> order;
    std::vector<bool> seen(n, false);
    order.push_back(root);
    seen[root] = true;
    for (std::size_t i = 0; i < order.size(); ++i) {
      // Among frontier vertices adjacent to the ordered prefix, prefer
      // elements and high degree: they constrain the search most.
      std::size_t best = kNone;
      auto consider = [&](std::size_t v) {
        if (seen[v]) return;
        if (best == kNone) {
          best = v;
          return;
        }
        const Vertex& a = p_.vertex(v);
        const Vertex& b = p_.vertex(best);
        if (a.kind == VertexKind::Element && b.kind != VertexKind::Element) {
          best = v;
        } else if (a.kind == b.kind && p_.degree(v) > p_.degree(best)) {
          best = v;
        }
      };
      for (std::size_t u : order) {
        for (std::size_t eid : p_.incident(u)) {
          consider(p_.opposite(eid, u));
        }
      }
      if (best != kNone) {
        seen[best] = true;
        order.push_back(best);
      } else if (order.size() < n) {
        // Disconnected pattern: pick any unseen vertex (rare; supported
        // for completeness).
        for (std::size_t v = 0; v < n; ++v) {
          if (!seen[v]) {
            seen[v] = true;
            order.push_back(v);
            break;
          }
        }
      }
    }
    return order;
  }

  /// Expected target label of pattern edge `label` on element `pe` given
  /// its orientation flip.
  std::uint8_t expected_label(std::size_t pe, std::uint8_t label) const {
    return flip_[pe] ? swap_source_drain(label) : label;
  }

  /// Checks all pattern edges from `pu` into already-mapped neighbors.
  bool edges_consistent(std::size_t pu, std::size_t tv) const {
    for (std::size_t eid : p_.incident(pu)) {
      const Edge& pe = p_.edge(eid);
      const std::size_t pw = (pe.element == pu) ? pe.net : pe.element;
      const std::size_t tw = core_p_[pw];
      if (tw == kNone) continue;
      // Locate the target edge (tv, tw); vertex degrees are tiny on the
      // element side, so scan the element endpoint.
      const std::size_t t_elem = (pe.element == pu) ? tv : tw;
      const std::size_t t_net = (pe.element == pu) ? tw : tv;
      const std::size_t p_elem_vertex = pe.element;
      bool found = false;
      for (std::size_t teid : t_.incident(t_elem)) {
        const Edge& te = t_.edge(teid);
        if (te.net != t_net) continue;
        const std::uint8_t want = expected_label(p_elem_vertex, pe.label);
        if (te.label == want) found = true;
        break;  // at most one (element, net) edge exists
      }
      if (!found) return false;
    }
    return true;
  }

  bool feasible(std::size_t pu, std::size_t tv) {
    if (core_t_[tv] != kNone) return false;
    const Vertex& pv = p_.vertex(pu);
    const Vertex& tvert = t_.vertex(tv);
    if (!vertex_compatible(pv, tvert)) return false;
    // Degree: monomorphism needs >=; strict (internal) nets need ==.
    const std::size_t pd = p_.degree(pu);
    const std::size_t td = t_.degree(tv);
    if (td < pd) return false;
    if (pv.kind == VertexKind::Net && pu < strict_.size() && strict_[pu] &&
        td != pd) {
      return false;
    }
    if (pv.kind == VertexKind::Net && pu < forbid_rail_.size() &&
        forbid_rail_[pu] &&
        (tvert.role == NetRole::Supply || tvert.role == NetRole::Ground)) {
      return false;
    }
    // Signature lookahead (Indexed): the candidate's canonical-label
    // multiset must contain the pattern vertex's, or some incident
    // pattern edge can never find its target edge.
    if (index_ != nullptr &&
        !signature_contains(index_->signature(tv), pattern_sig_[pu])) {
      ++sig_rejections_;
      return false;
    }
    return true;
  }

  /// Candidate targets for pattern vertex `pu`: neighbors (in the target)
  /// of the image of a mapped pattern-neighbor, or -- for the root -- the
  /// device-type bucket of the index (Indexed) / every target vertex
  /// (Reference). The Indexed engine picks the mapped neighbor whose
  /// image has the fewest target edges (fewest candidates to try).
  std::vector<std::size_t> candidates(std::size_t pu) const {
    std::size_t from = kNone;
    for (std::size_t eid : p_.incident(pu)) {
      const std::size_t pw = p_.opposite(eid, pu);
      const std::size_t tw = core_p_[pw];
      if (tw == kNone) continue;
      if (from == kNone) {
        from = tw;
        if (index_ == nullptr) break;  // Reference: first mapped neighbor
      } else if (t_.degree(tw) < t_.degree(from)) {
        from = tw;
      }
    }
    std::vector<std::size_t> out;
    if (from != kNone) {
      out.reserve(t_.degree(from));
      for (std::size_t teid : t_.incident(from)) {
        out.push_back(t_.opposite(teid, from));
      }
      return out;
    }
    // Root (or disconnected component start).
    if (index_ != nullptr && p_.vertex(pu).kind == VertexKind::Element) {
      return index_->elements_of(p_.vertex(pu).dtype);
    }
    out.reserve(t_.vertex_count());
    for (std::size_t v = 0; v < t_.vertex_count(); ++v) out.push_back(v);
    return out;
  }

  void record_match() {
    if (options_.dedup_by_elements) {
      auto key = Match{core_p_}.element_key(p_);
      auto [it, inserted] = seen_keys_.try_emplace(std::move(key),
                                                   matches_.size());
      if (!inserted) {
        // Same element set, different automorphic image: keep the
        // lexicographically smallest map so the representative does not
        // depend on enumeration order (and thus on the engine).
        if (core_p_ < matches_[it->second].map) {
          matches_[it->second].map = core_p_;
        }
        return;
      }
    }
    Match m;
    m.map = core_p_;
    matches_.push_back(std::move(m));
  }

  /// True once the states budget stops the search, at a point
  /// determined only by the inputs, so truncated results stay
  /// deterministic. The per-request deadline (util/deadline.hpp), the
  /// one wall-clock bound, is checked every 1024 states to stay off the
  /// hot path, and *throws* instead of truncating: a request past its
  /// wall budget aborts with DeadlineExceeded rather than returning a
  /// partial annotation whose truncation point would be machine-dependent.
  bool budget_exhausted() {
    if (states_ > options_.max_states) {
      truncated_ = true;
      return true;
    }
    if ((states_ & 1023u) == 0) check_deadline(Stage::Primitives);
    return false;
  }

  /// Stop condition re-checked after every nested recursion.
  [[nodiscard]] bool stop_requested() const {
    return truncated_ || matches_.size() >= options_.max_matches;
  }

  void recurse(std::size_t depth) {
    if (matches_.size() >= options_.max_matches) {
      truncated_ = true;  // enumeration cut short, not exhausted
      return;
    }
    ++states_;
    if (budget_exhausted()) return;
    if (depth == order_.size()) {
      record_match();
      return;
    }
    const std::size_t pu = order_[depth];
    const bool is_sym_mos = p_.vertex(pu).kind == VertexKind::Element &&
                            spice::is_mos(p_.vertex(pu).dtype);
    for (std::size_t tv : candidates(pu)) {
      if (!feasible(pu, tv)) continue;
      core_p_[pu] = tv;
      core_t_[tv] = pu;
      // For MOS elements try both source/drain orientations; for anything
      // else a single pass with flip=false.
      const int flips = is_sym_mos ? 2 : 1;
      for (int f = 0; f < flips; ++f) {
        flip_[pu] = (f == 1);
        if (edges_consistent(pu, tv)) {
          recurse(depth + 1);
          if (stop_requested()) break;
        }
      }
      flip_[pu] = false;
      core_p_[pu] = kNone;
      core_t_[tv] = kNone;
      if (stop_requested()) return;
    }
  }

  const CircuitGraph& p_;
  const CircuitGraph& t_;
  std::vector<bool> strict_;
  std::vector<bool> forbid_rail_;
  const MatchOptions& options_;
  const CandidateIndex* index_;  ///< null = Reference engine

  std::vector<std::size_t> core_p_;  // pattern -> target
  std::vector<std::size_t> core_t_;  // target -> pattern
  std::vector<bool> flip_;           // per pattern element: s/d swapped
  std::vector<std::size_t> order_;
  std::vector<LabelSignature> pattern_sig_;  // Indexed engine only
  std::vector<Match> matches_;
  std::map<std::vector<std::size_t>, std::size_t> seen_keys_;
  std::size_t states_ = 0;
  std::size_t sig_rejections_ = 0;
  bool truncated_ = false;
};

}  // namespace

std::vector<std::size_t> Match::element_key(
    const CircuitGraph& pattern) const {
  std::vector<std::size_t> key;
  for (std::size_t pv = 0; pv < map.size(); ++pv) {
    if (pattern.vertex(pv).kind == VertexKind::Element) {
      key.push_back(map[pv]);
    }
  }
  std::sort(key.begin(), key.end());
  return key;
}

std::vector<Match> find_subgraph_matches(const Pattern& pattern,
                                         const graph::CircuitGraph& target,
                                         const MatchOptions& options,
                                         MatchStats* stats,
                                         const CandidateIndex* index) {
  assert(pattern.graph != nullptr);
  if (options.engine == MatchEngine::Indexed && index == nullptr) {
    const CandidateIndex local(target);
    return Vf2State(pattern, target, options, &local).run(stats);
  }
  return Vf2State(pattern, target, options, index).run(stats);
}

bool contains_subgraph(const Pattern& pattern,
                       const graph::CircuitGraph& target) {
  MatchOptions options;
  options.max_matches = 1;
  return !find_subgraph_matches(pattern, target, options).empty();
}

}  // namespace gana::iso
