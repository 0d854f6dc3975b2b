#include "core/export.hpp"

#include <sstream>

namespace gana::core {
namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void constraint_json(const constraints::Constraint& c, std::ostream& out) {
  out << "{\"kind\":\"" << constraints::to_string(c.kind) << "\",\"members\":[";
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    if (i) out << ",";
    out << "\"" << json_escape(c.members[i]) << "\"";
  }
  out << "]";
  if (!c.tag.empty()) out << ",\"tag\":\"" << json_escape(c.tag) << "\"";
  out << "}";
}

const char* kind_name(HierarchyNode::Kind k) {
  switch (k) {
    case HierarchyNode::Kind::System: return "system";
    case HierarchyNode::Kind::SubBlock: return "sub-block";
    case HierarchyNode::Kind::Primitive: return "primitive";
    case HierarchyNode::Kind::Element: return "element";
  }
  return "?";
}

void node_json(const HierarchyNode& n, std::ostream& out) {
  out << "{\"kind\":\"" << kind_name(n.kind) << "\",\"name\":\""
      << json_escape(n.name) << "\",\"type\":\"" << json_escape(n.type)
      << "\"";
  if (!n.constraints.empty()) {
    out << ",\"constraints\":[";
    for (std::size_t i = 0; i < n.constraints.size(); ++i) {
      if (i) out << ",";
      constraint_json(n.constraints[i], out);
    }
    out << "]";
  }
  if (!n.children.empty()) {
    out << ",\"children\":[";
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (i) out << ",";
      node_json(n.children[i], out);
    }
    out << "]";
  }
  out << "}";
}

}  // namespace

std::string hierarchy_to_json(const HierarchyNode& root) {
  std::ostringstream out;
  node_json(root, out);
  return out.str();
}

std::string batch_timings_to_json(const BatchTimings& t, std::size_t jobs,
                                  std::size_t ok, std::size_t total) {
  std::ostringstream out;
  out << "{\"circuits\":" << total << ",\"ok\":" << ok
      << ",\"jobs\":" << jobs
      << ",\"wall_seconds\":" << t.wall_seconds
      << ",\"prepare_seconds\":" << t.prepare_seconds
      << ",\"gcn_seconds\":" << t.gcn_seconds
      << ",\"post_seconds\":" << t.post_seconds
      << ",\"prepare_wall_seconds\":" << t.prepare_wall_seconds
      << ",\"gcn_wall_seconds\":" << t.gcn_wall_seconds
      << ",\"post_wall_seconds\":" << t.post_wall_seconds;
  // The counter keys, in counter-table order.
#define GANA_PERF_JSON(name) out << ",\"" #name "\":" << t.name;
  GANA_PERF_COUNTERS(GANA_PERF_JSON)
#undef GANA_PERF_JSON
  out << "}";
  return out.str();
}

std::string annotation_to_json(const AnnotateResult& result,
                               const std::vector<std::string>& class_names) {
  std::ostringstream out;
  out << "{\"circuit\":\"" << json_escape(result.prepared.name) << "\",";
  out << "\"classes\":[";
  for (std::size_t i = 0; i < class_names.size(); ++i) {
    if (i) out << ",";
    out << "\"" << json_escape(class_names[i]) << "\"";
  }
  out << "],";
  out << "\"accuracy\":{\"gcn\":" << result.acc_gcn
      << ",\"post1\":" << result.acc_post1
      << ",\"post2\":" << result.acc_post2 << "},";

  out << "\"vertices\":[";
  const auto& g = result.prepared.graph;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    if (v) out << ",";
    const auto& vert = g.vertex(v);
    out << "{\"name\":\"" << json_escape(vert.name) << "\",\"kind\":\""
        << (vert.kind == graph::VertexKind::Element ? "element" : "net")
        << "\",\"class\":";
    const int cls = result.final_class[v];
    if (cls >= 0 && static_cast<std::size_t>(cls) < class_names.size()) {
      out << "\"" << json_escape(class_names[static_cast<std::size_t>(cls)])
          << "\"";
    } else {
      out << "null";
    }
    out << "}";
  }
  out << "],";

  out << "\"primitives\":[";
  for (std::size_t i = 0; i < result.post.primitives.size(); ++i) {
    if (i) out << ",";
    const auto& p = result.post.primitives[i];
    out << "{\"type\":\"" << json_escape(p.display_name)
        << "\",\"elements\":[";
    for (std::size_t j = 0; j < p.elements.size(); ++j) {
      if (j) out << ",";
      out << "\"" << json_escape(g.vertex(p.elements[j]).name) << "\"";
    }
    out << "]}";
  }
  out << "],";

  out << "\"hierarchy\":";
  node_json(result.hierarchy, out);
  out << "}";
  return out.str();
}

std::string graph_to_dot(const graph::CircuitGraph& g,
                         const std::vector<int>& vertex_class,
                         const std::vector<std::string>& class_names) {
  static const char* kPalette[] = {"#4e79a7", "#59a14f", "#e15759",
                                   "#f28e2b", "#76b7b2", "#b07aa1",
                                   "#edc948", "#9c755f"};
  std::ostringstream out;
  out << "graph circuit {\n  graph [overlap=false];\n";
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const auto& vert = g.vertex(v);
    const int cls = v < vertex_class.size() ? vertex_class[v] : -1;
    const char* color =
        cls >= 0 ? kPalette[static_cast<std::size_t>(cls) % 8] : "#cccccc";
    if (vert.kind == graph::VertexKind::Element) {
      out << "  v" << v << " [shape=box,style=filled,fillcolor=\"" << color
          << "\",label=\"" << json_escape(vert.name) << "\\n("
          << spice::to_string(vert.dtype);
      if (cls >= 0 && static_cast<std::size_t>(cls) < class_names.size()) {
        out << ", " << class_names[static_cast<std::size_t>(cls)];
      }
      out << ")\"];\n";
    } else {
      out << "  v" << v << " [shape=ellipse,label=\""
          << json_escape(vert.name) << "\"];\n";
    }
  }
  for (const auto& e : g.edges()) {
    out << "  v" << e.element << " -- v" << e.net;
    if (e.label != 0) {
      out << " [label=\"" << ((e.label >> 2) & 1) << ((e.label >> 1) & 1)
          << (e.label & 1) << "\"]";
    }
    out << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace gana::core
