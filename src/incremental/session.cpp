#include "incremental/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "graph/builder.hpp"
#include "graph/structural_hash.hpp"
#include "incremental/region.hpp"
#include "isomorph/candidate_index.hpp"
#include "primitives/annotator.hpp"
#include "util/perf.hpp"

namespace gana::incremental {

using core::AnnotateResult;
using core::PreparedCircuit;
using graph::CircuitGraph;
using spice::Device;
using spice::Netlist;

namespace {

bool finite_device(const Device& d) {
  if (!std::isfinite(d.value)) return false;
  for (const auto& [key, val] : d.params) {
    if (!std::isfinite(val)) return false;
  }
  return true;
}

/// Everything but the sizing: a device whose non-value fields moved (or
/// whose multiplicity moved -- preprocessing folds "m") routes the
/// revision through the full front end.
bool same_except_sizing(const Device& a, const Device& b) {
  if (a.name != b.name || a.type != b.type || a.model != b.model ||
      a.pins != b.pins || a.hier_depth != b.hier_depth) {
    return false;
  }
  const auto ma = a.params.find("m");
  const auto mb = b.params.find("m");
  if ((ma == a.params.end()) != (mb == b.params.end())) return false;
  if (ma != a.params.end() && ma->second != mb->second) return false;
  return true;
}

/// Applies the sizing of `nd` to flat device `fi` of `p`, whose element
/// vertex is `vertex`: the same value, params and characteristic value
/// the front end would build from the edited netlist.
void apply_sizing(PreparedCircuit& p, std::size_t fi, std::size_t vertex,
                  const Device& nd) {
  Device& fd = p.flat.devices[fi];
  fd.value = nd.value;
  fd.params = nd.params;
  fd.src_line = nd.src_line;
  p.graph.vertex(vertex).value = graph::characteristic_value(fd);
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && !a.empty() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

bool device_equal(const Device& a, const Device& b) {
  return a.name == b.name && a.type == b.type && a.model == b.model &&
         a.pins == b.pins && a.hier_depth == b.hier_depth &&
         a.value == b.value && a.params == b.params;
}

bool instances_equal(const std::vector<spice::Instance>& a,
                     const std::vector<spice::Instance>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].subckt != b[i].subckt ||
        a[i].nets != b[i].nets) {
      return false;
    }
  }
  return true;
}

bool subckts_equal(const std::map<std::string, spice::SubcktDef>& a,
                   const std::map<std::string, spice::SubcktDef>& b) {
  if (a.size() != b.size()) return false;
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    if (ita->first != itb->first) return false;
    const spice::SubcktDef& sa = ita->second;
    const spice::SubcktDef& sb = itb->second;
    if (sa.name != sb.name || sa.ports != sb.ports) return false;
    if (!instances_equal(sa.instances, sb.instances)) return false;
    if (sa.devices.size() != sb.devices.size()) return false;
    for (std::size_t i = 0; i < sa.devices.size(); ++i) {
      if (!device_equal(sa.devices[i], sb.devices[i])) return false;
    }
  }
  return true;
}

}  // namespace

AnnotationSession::AnnotationSession(const core::Annotator* annotator)
    : annotator_(annotator) {
  const primitives::PrimitiveLibrary& library = annotator_->library();
  pattern_safe_.resize(library.size());
  for (std::size_t li = 0; li < library.size(); ++li) {
    pattern_safe_[li] = pattern_region_safe(library.spec(li));
  }
}

Result<AnnotateResult> AnnotationSession::reannotate(const Netlist& netlist,
                                                     const std::string& name) {
  stats_ = SessionStats{};
  bool reused = false;
  core::StageHooks hooks;
  // Sizing-loop fast path: a value patch plus bit-identical
  // probabilities means CCC, extraction, both postprocess stages, and
  // the hierarchy all run on inputs equal to the previous revision's
  // (structure and names are patch-path invariants; values are read by
  // nothing downstream of the GCN).
  hooks.reuse = [&](const Matrix& probabilities) -> const AnnotateResult* {
    reused = !stats_.full_prepare &&
             same_bits(probabilities, prev_.probabilities);
    return reused ? &prev_ : nullptr;
  };
  hooks.extract = [this](const CircuitGraph& g) {
    return incremental_annotate(g);
  };
  Result<AnnotateResult> result = annotator_->run(
      name,
      [&](Stage* stage) { return prepare_revision(netlist, name, stage); },
      hooks);
  if (!result.ok()) return result;
  if (reused) {
    stats_.annotation_reused = true;
    stats_.result_reused = true;
    stats_.regions = prev_regions_;
    stats_.region_reuses = prev_regions_;
    perf::count_incremental_regions(prev_regions_, prev_regions_, 0);
  } else {
    prev_ = result.value();
    prev_regions_ = stats_.regions;
  }
  if (stats_.full_prepare) {
    remember(netlist);
  } else {
    remember_patched(netlist);
  }
  return result;
}

PreparedCircuit AnnotationSession::prepare_revision(const Netlist& netlist,
                                                    const std::string& name,
                                                    Stage* stage) {
  PreparedCircuit prepared;
  // The patch path cannot move the structural hash (it rewrites only
  // sizings), so the hash is recomputed only after a full prepare.
  if (try_patch_prepare(netlist, name, prepared)) {
    stats_.structure_changed = false;
    return prepared;
  }
  prepared = core::prepare_netlist(netlist, annotator_->class_names(), name,
                                   annotator_->prepare_options(), stage);
  diff_flat(prepared.flat);
  stats_.structure_changed =
      !has_prev_ || graph::structural_hash(prepared.graph) != prev_graph_hash_;
  return prepared;
}

bool AnnotationSession::try_patch_prepare(const Netlist& input,
                                          const std::string& name,
                                          PreparedCircuit& out) {
  if (!has_prev_ || name != prev_.prepared.name) return false;
  const Netlist& prev = prev_input_;
  if (prev.title != input.title || prev.globals != input.globals ||
      prev.port_labels != input.port_labels) {
    return false;
  }
  if (!instances_equal(prev.instances, input.instances)) return false;
  if (!subckts_equal(prev.subckts, input.subckts)) return false;
  if (prev.devices.size() != input.devices.size()) return false;

  std::vector<std::size_t> changed;
  for (std::size_t i = 0; i < prev.devices.size(); ++i) {
    const Device& da = prev.devices[i];
    const Device& db = input.devices[i];
    if (!same_except_sizing(da, db)) return false;
    if (da.value != db.value || da.params != db.params) {
      // A cold run validates values in the front end; non-finite edits
      // must take the same path to fail the same way.
      if (!finite_device(db)) return false;
      changed.push_back(i);
    }
  }
  // Every changed device must have survived preprocessing untouched:
  // aliased devices (parallel/series merges, either side) carry derived
  // values, and preprocessing decisions -- though value-independent --
  // may have removed others entirely.
  for (std::size_t i : changed) {
    const std::string& dev = prev.devices[i].name;
    if (prev_alias_names_.count(dev) != 0) return false;
    if (prev_flat_index_.find(dev) == prev_flat_index_.end()) return false;
  }

  out = prev_.prepared;
  for (std::size_t i : changed) {
    const Device& nd = input.devices[i];
    const std::size_t fi = prev_flat_index_.at(nd.name);
    apply_sizing(out, fi, prev_device_vertex_[fi], nd);
  }
  stats_.full_prepare = false;
  stats_.devices_changed = changed.size();
  patch_changed_ = std::move(changed);
  return true;
}

void AnnotationSession::diff_flat(const Netlist& flat) {
  if (!has_prev_) {
    stats_.devices_added = flat.devices.size();
    return;
  }
  std::size_t matched = 0;
  for (const Device& d : flat.devices) {
    const auto it = prev_flat_index_.find(d.name);
    if (it == prev_flat_index_.end()) {
      ++stats_.devices_added;
      continue;
    }
    ++matched;
    if (!device_equal(prev_.prepared.flat.devices[it->second], d)) {
      ++stats_.devices_changed;
    }
  }
  stats_.devices_removed = prev_.prepared.flat.devices.size() - matched;
}

primitives::AnnotateOutcome AnnotationSession::incremental_annotate(
    const CircuitGraph& g) {
  const primitives::PrimitiveLibrary& library = annotator_->library();
  const primitives::AnnotateOptions opt{};
  primitives::AnnotateOutcome outcome;
  const std::uint64_t whole_key =
      primitives::annotation_cache_key(g, library, opt);
  if (const auto it = whole_annotations_.find(whole_key);
      it != whole_annotations_.end()) {
    // Value or rename edit: the structure (and thus the whole accepted
    // match set) is unchanged; only names need re-instantiation.
    outcome.cache_hit = true;
    outcome.truncated = it->second.ann->truncated;
    stats_.annotation_reused = true;
    stats_.regions = it->second.regions;
    stats_.region_reuses = it->second.regions;
    perf::count_incremental_regions(stats_.regions, stats_.region_reuses, 0);
    primitives::instantiate_annotation(g, library, *it->second.ann,
                                       outcome.primitives);
    return outcome;
  }

  const RegionPartition part = partition_regions(g);
  const std::size_t nregions = part.elements.size();
  // A design that is one region has nothing to splice: re-matching its
  // region is re-matching the whole graph, and canonically labelling a
  // large region costs far more than the match (on the phased array it
  // exhausts the leaf budget and falls back to id order anyway). Every
  // pattern then takes the whole-graph path and the result is kept
  // under the whole-structure key alone, so a renumbered copy of a
  // one-region design re-matches instead of reusing region lists.
  const bool single_region = nregions == 1;
  std::vector<RegionSubgraph> subs;
  if (!single_region) {
    subs.reserve(nregions);
    for (const auto& elems : part.elements) {
      subs.push_back(build_region_subgraph(g, elems));
    }
  }

  const std::vector<std::size_t> order = library.priority_order();
  const iso::CandidateIndex whole_index(g);
  std::vector<primitives::PatternMatchList> lists(order.size());
  std::vector<bool> region_fresh(nregions, single_region);
  std::vector<std::unique_ptr<iso::CandidateIndex>> region_index(nregions);
  bool truncated = false;

  for (std::size_t i = 0; i < order.size() && !truncated; ++i) {
    const std::size_t li = order[i];
    const primitives::PrimitiveSpec& spec = library.spec(li);
    if (single_region || !pattern_safe_[li]) {
      // Whole-graph pattern: exactly the cold matching stage.
      lists[i] =
          primitives::match_library_pattern(spec, g, whole_index, opt.match);
      truncated = lists[i].stats.truncated;
      continue;
    }
    // Cold-equivalent counting filter (so patterns_skipped agrees).
    if (!whole_index.profile().admits(iso::count_profile(spec.graph))) {
      lists[i].skipped = true;
      continue;
    }
    std::vector<iso::Match> merged;
    for (std::size_t rid = 0; rid < nregions && !truncated; ++rid) {
      const std::uint64_t key = graph::hash_combine(
          subs[rid].key, static_cast<std::uint64_t>(li));
      std::shared_ptr<const std::vector<iso::Match>> matches;
      if (const auto it = region_matches_.find(key);
          it != region_matches_.end()) {
        matches = it->second;
      } else {
        region_fresh[rid] = true;
        if (region_index[rid] == nullptr) {
          region_index[rid] =
              std::make_unique<iso::CandidateIndex>(subs[rid].graph);
        }
        auto computed = std::make_shared<std::vector<iso::Match>>();
        if (region_index[rid]->profile().admits(
                iso::count_profile(spec.graph))) {
          // Dedup after translation: the cached record must contain
          // every automorphic image so the lex-min representative can
          // be chosen in whole-graph coordinates, as cold VF2 does.
          iso::MatchOptions ropt = opt.match;
          ropt.dedup_by_elements = false;
          iso::MatchStats st;
          *computed = iso::find_subgraph_matches(
              spec.pattern(), subs[rid].graph, ropt, &st, region_index[rid].get());
          lists[i].stats.states += st.states;
          lists[i].stats.sig_rejections += st.sig_rejections;
          truncated = truncated || st.truncated;
        }
        if (!truncated) region_matches_.emplace(key, computed);
        matches = std::move(computed);
      }
      if (truncated) break;
      for (const iso::Match& m : *matches) {
        iso::Match whole;
        whole.map.reserve(m.map.size());
        for (std::size_t lv : m.map) {
          whole.map.push_back(subs[rid].to_whole[lv]);
        }
        merged.push_back(std::move(whole));
      }
    }
    if (truncated) break;
    // Reproduce the cold list: lex-min map per element key (matches of
    // one element set never span regions for a safe pattern), then the
    // canonical (element key, map) acceptance order.
    std::vector<std::vector<std::size_t>> keys(merged.size());
    std::vector<std::size_t> idx(merged.size());
    for (std::size_t k = 0; k < merged.size(); ++k) {
      idx[k] = k;
      keys[k] = merged[k].element_key(spec.graph);
    }
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (keys[a] != keys[b]) return keys[a] < keys[b];
      return merged[a].map < merged[b].map;
    });
    std::vector<iso::Match> sorted;
    sorted.reserve(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      if (opt.match.dedup_by_elements && k > 0 &&
          keys[idx[k]] == keys[idx[k - 1]]) {
        continue;  // automorphic image; the lex-min map came first
      }
      sorted.push_back(std::move(merged[idx[k]]));
    }
    lists[i].matches = std::move(sorted);
  }

  if (truncated) {
    // A budget fired under region decomposition. Cold truncation points
    // are the pinned deterministic ones, so replay the whole sweep cold.
    stats_.fallback_cold = true;
    stats_.regions = nregions;
    stats_.region_recomputes = nregions;
    perf::count_incremental_regions(nregions, 0, nregions);
    return primitives::annotate_primitives_guarded(g, library, opt);
  }

  primitives::CachedAnnotation ann = primitives::accept_pattern_matches(
      g, library, order, lists, opt, outcome);
  stats_.regions = nregions;
  for (const bool fresh : region_fresh) {
    if (fresh) {
      ++stats_.region_recomputes;
    } else {
      ++stats_.region_reuses;
    }
  }
  perf::count_incremental_regions(stats_.regions, stats_.region_reuses,
                                  stats_.region_recomputes);
  auto stored = std::make_shared<const primitives::CachedAnnotation>(
      std::move(ann));
  if (!outcome.truncated) {
    whole_annotations_[whole_key] = {stored, nregions};
  }
  primitives::instantiate_annotation(g, library, *stored, outcome.primitives);
  return outcome;
}

void AnnotationSession::remember(const Netlist& input) {
  const PreparedCircuit& prepared = prev_.prepared;
  prev_input_ = input;
  prev_graph_hash_ = graph::structural_hash(prepared.graph);
  prev_flat_index_.clear();
  for (std::size_t i = 0; i < prepared.flat.devices.size(); ++i) {
    prev_flat_index_.emplace(prepared.flat.devices[i].name, i);
  }
  prev_device_vertex_.assign(prepared.flat.devices.size(), CircuitGraph::npos);
  const CircuitGraph& g = prepared.graph;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const graph::Vertex& vert = g.vertex(v);
    if (vert.kind == graph::VertexKind::Element &&
        vert.device_index < prev_device_vertex_.size()) {
      prev_device_vertex_[vert.device_index] = v;
    }
  }
  prev_alias_names_.clear();
  for (const auto& [removed, kept] : prepared.preprocess_report.alias) {
    prev_alias_names_.emplace(removed, true);
    if (!kept.empty()) prev_alias_names_.emplace(kept, true);
  }
  has_prev_ = true;
}

void AnnotationSession::remember_patched(const Netlist& input) {
  // The patch path already proved names, topology, and the flattening
  // inputs unchanged, so the graph hash, flat index, device-vertex map,
  // and alias set all remain valid. Fold in only the edited sizings --
  // the same rewrite try_patch_prepare applied to its output copy.
  for (std::size_t i : patch_changed_) {
    const Device& nd = input.devices[i];
    prev_input_.devices[i] = nd;
    const std::size_t fi = prev_flat_index_.at(nd.name);
    apply_sizing(prev_.prepared, fi, prev_device_vertex_[fi], nd);
  }
}

}  // namespace gana::incremental
