#include "core/export.hpp"

#include <charconv>
#include <sstream>
#include <string_view>

namespace gana::core {
namespace {

/// Appends `s` with minimal JSON escaping: quotes, backslashes, \n, \t,
/// and \u00XX for the other control bytes. Runs of clean bytes are
/// copied whole.
void append_escaped(std::string& out, std::string_view s) {
  std::size_t clean = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, clean, i - clean);
    clean = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s, clean, s.size() - clean);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(out, s);
  return out;
}

/// Appends `"s"`, escaped.
void append_string(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

/// Appends `v` as an ostream with default flags prints it: %g with six
/// significant digits, in the C locale whatever the global one is.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  out.append(buf, res.ptr);
}

void constraint_json(const constraints::Constraint& c, std::string& out) {
  out += "{\"kind\":\"";
  out += constraints::to_string(c.kind);
  out += "\",\"members\":[";
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    if (i) out += ',';
    append_string(out, c.members[i]);
  }
  out += ']';
  if (!c.tag.empty()) {
    out += ",\"tag\":";
    append_string(out, c.tag);
  }
  out += '}';
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

void node_json(const HierarchyNode& n, std::string& out) {
  out += "{\"kind\":\"";
  out += kind_name(n.kind);
  out += "\",\"name\":";
  append_string(out, n.name);
  out += ",\"type\":";
  append_string(out, n.type);
  if (!n.constraints.empty()) {
    out += ",\"constraints\":[";
    for (std::size_t i = 0; i < n.constraints.size(); ++i) {
      if (i) out += ',';
      constraint_json(n.constraints[i], out);
    }
    out += ']';
  }
  if (!n.children.empty()) {
    out += ",\"children\":[";
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (i) out += ',';
      node_json(n.children[i], out);
    }
    out += ']';
  }
  out += '}';
}

}  // namespace

std::string hierarchy_to_json(const HierarchyNode& root) {
  std::string out;
  node_json(root, out);
  return out;
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
  const auto& g = result.prepared.graph;
  std::string out;
  // The phased array and the OTAs both export about 170 bytes per vertex.
  out.reserve(192 * g.vertex_count() + 256);
  out += "{\"circuit\":";
  append_string(out, result.prepared.name);
  out += ",\"classes\":[";
  for (std::size_t i = 0; i < class_names.size(); ++i) {
    if (i) out += ',';
    append_string(out, class_names[i]);
  }
  out += "],\"accuracy\":{\"gcn\":";
  append_double(out, result.acc_gcn);
  out += ",\"post1\":";
  append_double(out, result.acc_post1);
  out += ",\"post2\":";
  append_double(out, result.acc_post2);
  out += "},";

  out += "\"vertices\":[";
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    if (v) out += ',';
    const auto& vert = g.vertex(v);
    out += "{\"name\":";
    append_string(out, vert.name);
    out += vert.kind == graph::VertexKind::Element
               ? ",\"kind\":\"element\",\"class\":"
               : ",\"kind\":\"net\",\"class\":";
    const int cls = result.final_class[v];
    if (cls >= 0 && static_cast<std::size_t>(cls) < class_names.size()) {
      append_string(out, class_names[static_cast<std::size_t>(cls)]);
    } else {
      out += "null";
    }
    out += '}';
  }
  out += "],";

  out += "\"primitives\":[";
  for (std::size_t i = 0; i < result.post.primitives.size(); ++i) {
    if (i) out += ',';
    const auto& p = result.post.primitives[i];
    out += "{\"type\":";
    append_string(out, p.display_name);
    out += ",\"elements\":[";
    for (std::size_t j = 0; j < p.elements.size(); ++j) {
      if (j) out += ',';
      append_string(out, g.vertex(p.elements[j]).name);
    }
    out += "]}";
  }
  out += "],";

  out += "\"hierarchy\":";
  node_json(result.hierarchy, out);
  out += '}';
  return out;
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
