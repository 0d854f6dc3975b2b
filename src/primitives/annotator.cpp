#include "primitives/annotator.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "graph/structural_hash.hpp"
#include "isomorph/candidate_index.hpp"
#include "isomorph/vf2.hpp"
#include "util/deadline.hpp"
#include "util/perf.hpp"
#include "util/thread_pool.hpp"

namespace gana::primitives {

using graph::CircuitGraph;
using graph::VertexKind;

PatternMatchList match_library_pattern(const PrimitiveSpec& spec,
                                       const CircuitGraph& g,
                                       const iso::CandidateIndex& index,
                                       const iso::MatchOptions& match_options) {
  PatternMatchList out;
  if (!index.profile().admits(iso::count_profile(spec.graph))) {
    out.skipped = true;
    return out;
  }
  out.matches = iso::find_subgraph_matches(spec.pattern(), g, match_options,
                                           &out.stats, &index);
  // Canonical acceptance order: sort by element key (ties, possible only
  // with dedup off, broken by the full map) so greedy acceptance cannot
  // depend on the engine's enumeration order.
  std::vector<std::size_t> idx(out.matches.size());
  std::vector<std::vector<std::size_t>> keys(out.matches.size());
  for (std::size_t i = 0; i < out.matches.size(); ++i) {
    idx[i] = i;
    keys[i] = out.matches[i].element_key(spec.graph);
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return out.matches[a].map < out.matches[b].map;
  });
  std::vector<iso::Match> sorted;
  sorted.reserve(out.matches.size());
  for (std::size_t i : idx) sorted.push_back(std::move(out.matches[i]));
  out.matches = std::move(sorted);
  return out;
}

namespace {

/// Runs the matching stage for every pattern (in parallel when a pool is
/// attached), then merges the per-pattern lists sequentially in library
/// priority order with the same greedy acceptance the one-pattern-at-a-
/// time sweep used. Fills the work counters of `outcome`.
CachedAnnotation compute_annotation(const CircuitGraph& g,
                                    const PrimitiveLibrary& library,
                                    const AnnotateOptions& options,
                                    AnnotateOutcome& outcome) {
  const std::vector<std::size_t> order = library.priority_order();
  const iso::CandidateIndex index(g);

  std::vector<PatternMatchList> results(order.size());
  // One pattern per chunk. Each chunk re-installs the caller's request
  // context (deadline, fault key): the per-1024-states deadline check in
  // VF2 reads a thread_local, which pool workers would otherwise not
  // see, so an expired deadline aborts the patterns on every thread.
  const RequestContext* ctx = current_request_context();
  parallel_for(options.pool, order.size(), 1,
               [&](std::size_t begin, std::size_t end) {
                 ScopedRequestContext scope(ctx);
                 for (std::size_t i = begin; i < end; ++i) {
                   results[i] = match_library_pattern(library.spec(order[i]),
                                                      g, index, options.match);
                 }
               });

  return accept_pattern_matches(g, library, order, results, options, outcome);
}

}  // namespace

CachedAnnotation accept_pattern_matches(const CircuitGraph& g,
                                        const PrimitiveLibrary& library,
                                        const std::vector<std::size_t>& order,
                                        const std::vector<PatternMatchList>& results,
                                        const AnnotateOptions& /*options*/,
                                        AnnotateOutcome& outcome) {
  std::vector<bool> claimed(g.vertex_count(), false);

  CachedAnnotation ann;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t li = order[i];
    const PrimitiveSpec& spec = library.spec(li);
    const PatternMatchList& r = results[i];
    if (r.skipped) {
      ++outcome.patterns_skipped;
      continue;
    }
    outcome.truncated = outcome.truncated || r.stats.truncated;
    outcome.vf2_states += r.stats.states;
    outcome.sig_rejections += r.stats.sig_rejections;
    for (const auto& m : r.matches) {
      // Collect matched target elements; reject if one is already
      // claimed by a higher-priority primitive.
      std::vector<std::size_t> elements;
      bool ok = true;
      for (std::size_t pv = 0; pv < m.map.size(); ++pv) {
        if (spec.graph.vertex(pv).kind != VertexKind::Element) continue;
        const std::size_t tv = m.map[pv];
        if (claimed[tv]) {
          ok = false;
          break;
        }
        elements.push_back(tv);
      }
      if (!ok) continue;

      CachedInstance inst;
      inst.library_index = li;
      inst.elements = std::move(elements);
      std::sort(inst.elements.begin(), inst.elements.end());
      for (std::size_t pv = 0; pv < m.map.size(); ++pv) {
        const auto& pvert = spec.graph.vertex(pv);
        if (pvert.kind == VertexKind::Net) {
          inst.net_binding.emplace_back(pvert.name, m.map[pv]);
        } else {
          inst.device_binding.emplace_back(pvert.name, m.map[pv]);
        }
      }
      for (std::size_t tv : inst.elements) claimed[tv] = true;
      ann.instances.push_back(std::move(inst));
    }
  }
  if (outcome.patterns_skipped != 0) {
    perf::count_vf2_pattern_skips(outcome.patterns_skipped);
  }
  ann.truncated = outcome.truncated;
  return ann;
}

void instantiate_annotation(const CircuitGraph& g,
                            const PrimitiveLibrary& library,
                            const CachedAnnotation& ann,
                            std::vector<PrimitiveInstance>& out) {
  out.reserve(ann.instances.size());
  for (const CachedInstance& ci : ann.instances) {
    const PrimitiveSpec& spec = library.spec(ci.library_index);
    PrimitiveInstance inst;
    inst.type = spec.name;
    inst.display_name = spec.display_name;
    inst.library_index = ci.library_index;
    inst.elements = ci.elements;
    for (const auto& [pname, tv] : ci.net_binding) {
      inst.net_binding[pname] = tv;
    }
    std::map<std::string, std::string> device_name_map;
    for (const auto& [pname, tv] : ci.device_binding) {
      device_name_map[pname] = g.vertex(tv).name;
    }
    for (const auto& tmpl : spec.constraint_templates) {
      constraints::Constraint c;
      c.kind = tmpl.kind;
      for (const auto& member : tmpl.members) {
        if (tmpl.members_are_nets) {
          auto it = inst.net_binding.find(member);
          if (it != inst.net_binding.end()) {
            c.members.push_back(g.vertex(it->second).name);
          }
        } else {
          auto it = device_name_map.find(member);
          if (it != device_name_map.end()) c.members.push_back(it->second);
        }
      }
      c.tag = spec.name + "@" + std::to_string(out.size());
      inst.constraints.push_back(std::move(c));
    }
    out.push_back(std::move(inst));
  }
}

std::uint64_t annotation_cache_key(const CircuitGraph& g,
                                   const PrimitiveLibrary& library,
                                   const AnnotateOptions& options) {
  std::uint64_t h = graph::structural_hash(g);
  h = graph::hash_combine(h, library_fingerprint(library));
  // The flags decide which matches a pattern accepts; library_fingerprint
  // leaves them out.
  const auto fold_flags = [&h](const std::vector<bool>& flags) {
    h = graph::hash_combine(h, flags.size());
    for (const bool f : flags) h = graph::hash_combine(h, f ? 1 : 0);
  };
  for (std::size_t li : library.priority_order()) {
    fold_flags(library.spec(li).forbid_rail);
    fold_flags(library.spec(li).strict_degree);
  }
  h = graph::hash_combine(h, options.match.max_matches);
  h = graph::hash_combine(h, options.match.max_states);
  h = graph::hash_combine(h, options.match.dedup_by_elements ? 1 : 0);
  h = graph::hash_combine(h, static_cast<std::uint64_t>(options.match.engine));
  return h;
}

AnnotateOutcome annotate_primitives_guarded(const CircuitGraph& g,
                                            const PrimitiveLibrary& library,
                                            const AnnotateOptions& options) {
  AnnotateOutcome outcome;
  std::uint64_t key = 0;
  std::shared_ptr<const CachedAnnotation> ann;
  if (options.cache != nullptr) {
    key = annotation_cache_key(g, library, options);
    ann = options.cache->find(key);
  }
  if (ann != nullptr) {
    outcome.cache_hit = true;
    outcome.truncated = ann->truncated;
  } else {
    auto fresh = std::make_shared<CachedAnnotation>(
        compute_annotation(g, library, options, outcome));
    // On an insert race the first entry wins; both workers computed
    // identical records, so instantiating from either is equivalent.
    ann = options.cache != nullptr
              ? options.cache->insert(key, std::move(fresh))
              : std::move(fresh);
  }
  instantiate_annotation(g, library, *ann, outcome.primitives);
  return outcome;
}

std::vector<PrimitiveInstance> annotate_primitives(
    const CircuitGraph& g, const PrimitiveLibrary& library,
    const AnnotateOptions& options) {
  return annotate_primitives_guarded(g, library, options).primitives;
}

std::vector<std::size_t> unclaimed_elements(
    const CircuitGraph& g, const std::vector<PrimitiveInstance>& found) {
  std::vector<bool> claimed(g.vertex_count(), false);
  for (const auto& inst : found) {
    for (std::size_t v : inst.elements) claimed[v] = true;
  }
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    if (g.vertex(v).kind == VertexKind::Element && !claimed[v]) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace gana::primitives
