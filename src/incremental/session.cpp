#include "incremental/session.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "graph/builder.hpp"
#include "graph/structural_hash.hpp"
#include "primitives/annotator.hpp"

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
  // Extraction is the cold sweep over the session's own store: a
  // structure seen before re-instantiates its accepted primitives.
  hooks.extract = [this](const CircuitGraph& g) {
    primitives::AnnotateOptions options;
    options.cache = &annotations_;
    primitives::AnnotateOutcome outcome =
        primitives::annotate_primitives_guarded(g, annotator_->library(),
                                                options);
    stats_.annotation_reused = outcome.cache_hit;
    return outcome;
  };
  Result<AnnotateResult> result = annotator_->run(
      name,
      [&](Stage* stage) { return prepare_revision(netlist, name, stage); },
      hooks);
  if (!result.ok()) return result;
  if (reused) {
    stats_.annotation_reused = true;
    stats_.result_reused = true;
  } else {
    prev_ = result.value();
  }
  stats_.region_reuses = stats_.annotation_reused ? 1 : 0;
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
