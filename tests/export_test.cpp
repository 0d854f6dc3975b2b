#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/export.hpp"
#include "util/perf.hpp"
#include "datagen/ota_gen.hpp"
#include "spice/parser.hpp"

namespace gana::core {
namespace {

AnnotateResult annotate_ota() {
  Rng rng(1);
  const auto circuit = datagen::generate_ota({}, rng, "export_ota");
  Annotator annotator(nullptr, {"ota", "bias"});
  return annotator.annotate_oracle(circuit, 2);
}

/// Minimal structural JSON validation: balanced braces/brackets outside
/// strings, and no raw control characters.
bool json_balanced(const std::string& s) {
  int depth = 0, array_depth = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control char inside string
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth; break;
      case '}': --depth; break;
      case '[': ++array_depth; break;
      case ']': --array_depth; break;
      default: break;
    }
    if (depth < 0 || array_depth < 0) return false;
  }
  return depth == 0 && array_depth == 0 && !in_string;
}

TEST(Export, HierarchyJsonBalancedAndComplete) {
  const auto r = annotate_ota();
  const std::string json = hierarchy_to_json(r.hierarchy);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"kind\":\"system\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"sub-block\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"element\""), std::string::npos);
  EXPECT_NE(json.find("symmetry"), std::string::npos);
}

TEST(Export, AnnotationJsonCarriesEverything) {
  const auto r = annotate_ota();
  const std::string json = annotation_to_json(r, {"ota", "bias"});
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"circuit\":\"export_ota\""), std::string::npos);
  EXPECT_NE(json.find("\"classes\":[\"ota\",\"bias\"]"), std::string::npos);
  EXPECT_NE(json.find("\"accuracy\""), std::string::npos);
  EXPECT_NE(json.find("\"primitives\""), std::string::npos);
  EXPECT_NE(json.find("\"hierarchy\""), std::string::npos);
  // Every device appears as a vertex entry.
  for (const auto& d : r.prepared.flat.devices) {
    EXPECT_NE(json.find("\"" + d.name + "\""), std::string::npos) << d.name;
  }
}

TEST(Export, JsonEscapesSpecialCharacters) {
  HierarchyNode node;
  node.kind = HierarchyNode::Kind::Element;
  node.name = "weird\"name\\with\nstuff";
  node.type = "nmos";
  const std::string json = hierarchy_to_json(node);
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);

  // Every control byte, a quote, a backslash, DEL and UTF-8, pinned byte
  // for byte: \n and \t have short escapes, the other control bytes
  // \u00XX (lower-case hex), and everything from 0x20 up but the quote
  // and the backslash passes through raw.
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
  HierarchyNode root;
  root.kind = HierarchyNode::Kind::SubBlock;
  root.name = "q\"b\\" + controls + "\x7f\xc2\xb5\xce\xa9 end";
  root.type = "\xe2\x86\x92";
  constraints::Constraint c;
  c.kind = constraints::Kind::Symmetry;
  c.members = {"m\"1", "m\\2"};
  c.tag = "tag\t";
  root.constraints.push_back(c);
  HierarchyNode leaf;
  leaf.kind = HierarchyNode::Kind::Element;
  leaf.name = "\r";
  leaf.type = "nmos";
  root.children.push_back(leaf);
  EXPECT_EQ(
      hierarchy_to_json(root),
      "{\"kind\":\"sub-block\",\"name\":\"q\\\"b\\\\"
      "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\u0008\\t\\n\\u000b\\u000c\\u000d\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
      "\x7f\xc2\xb5\xce\xa9 end\",\"type\":\"\xe2\x86\x92\","
      "\"constraints\":[{\"kind\":\"symmetry\",\"members\":"
      "[\"m\\\"1\",\"m\\\\2\"],\"tag\":\"tag\\t\"}],"
      "\"children\":[{\"kind\":\"element\",\"name\":\"\\u000d\","
      "\"type\":\"nmos\"}]}");
}

TEST(Export, AccuracyDoublesPrintAsTheStreamDid) {
  // %g with six significant digits, as an ostream with default flags
  // prints a double.
  AnnotateResult r;
  r.prepared.name = "c";
  r.hierarchy.name = "c";
  const double values[] = {0.0,      -0.0,    1.0,     0.5,  1.0 / 3.0,
                           0.987654321, 1e-7, 123456.0, 1234567.0, 2.5e300};
  for (const double v : values) {
    r.acc_gcn = v;
    r.acc_post1 = v / 7.0;
    r.acc_post2 = -v;
    std::ostringstream stream;
    stream << "{\"gcn\":" << r.acc_gcn << ",\"post1\":" << r.acc_post1
           << ",\"post2\":" << r.acc_post2 << "}";
    const std::string json = annotation_to_json(r, {"x"});
    EXPECT_NE(json.find("\"accuracy\":" + stream.str()), std::string::npos)
        << json;
  }
  r.acc_gcn = 0.123456789;
  r.acc_post1 = 1.0;
  r.acc_post2 = 1e-7;
  EXPECT_EQ(annotation_to_json(r, {"x"}),
            "{\"circuit\":\"c\",\"classes\":[\"x\"],\"accuracy\":{\"gcn\":"
            "0.123457,\"post1\":1,\"post2\":1e-07},\"vertices\":[],"
            "\"primitives\":[],\"hierarchy\":{\"kind\":\"system\",\"name\":"
            "\"c\",\"type\":\"\"}}");
}

TEST(Export, DotContainsVerticesEdgesAndLabels) {
  const auto r = annotate_ota();
  const std::string dot =
      graph_to_dot(r.prepared.graph, r.final_class, {"ota", "bias"});
  EXPECT_NE(dot.find("graph circuit {"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find(" -- "), std::string::npos);
  // Edge-label bits appear (some MOS edge).
  EXPECT_NE(dot.find("label=\"0"), std::string::npos);
  // One node per vertex.
  std::size_t nodes = 0;
  for (std::size_t pos = 0; (pos = dot.find("  v", pos)) != std::string::npos;
       ++pos) {
    ++nodes;
  }
  EXPECT_GE(nodes, r.prepared.graph.vertex_count());
}

TEST(Export, DotHandlesUnclassifiedVertices) {
  const auto n = spice::parse_netlist("r1 a b 1k\n.end\n");
  Annotator annotator(nullptr, {"x"});
  const auto r = annotator.annotate(n, "tiny");
  std::vector<int> no_classes(r.prepared.graph.vertex_count(), -1);
  const std::string dot = graph_to_dot(r.prepared.graph, no_classes, {"x"});
  EXPECT_NE(dot.find("#cccccc"), std::string::npos);  // neutral fill
}

// --- batch_timings_to_json: the --perf-json payload, the gana-serve
// metrics payload and the shard worker's perf summary, which bench/e2e's
// corpus workload parses by key. Key set, key order and bytes are pinned.

PerfSnapshot distinct_counters() {
  PerfSnapshot p;
  p.matrix_allocs = 1;
  p.matrix_alloc_bytes = 1234567890123;
  p.spmm_calls = 3;
  p.spmm_flops = 4;
  p.matmul_calls = 5;
  p.matmul_flops = 6;
  p.sample_cache_hits = 7;
  p.sample_cache_misses = 8;
  p.inference_cache_hits = 9;
  p.inference_cache_misses = 10;
  p.vf2_states = 11;
  p.vf2_sig_rejections = 12;
  p.vf2_pattern_skips = 13;
  p.annotation_cache_hits = 14;
  p.annotation_cache_misses = 15;
  p.cache_evictions = 16;
  p.parse_bytes = 17;
  p.intern_hits = 18;
  p.intern_misses = 19;
  p.frontend_allocs = 20;
  p.incr_regions = 21;
  p.incr_region_reuses = 22;
  p.incr_region_recomputes = 23;
  p.incr_canon_fallbacks = 24;
  return p;
}

BatchTimings distinct_timings() {
  BatchTimings t;
  t.wall_seconds = 1.5;
  t.prepare_seconds = 0.25;
  t.gcn_seconds = 0.125;
  t.post_seconds = 2.0;
  t.prepare_wall_seconds = 0.375;
  t.gcn_wall_seconds = 3.5;
  t.post_wall_seconds = 4.25;
  t.apply_perf_delta(distinct_counters());
  return t;
}

TEST(BatchTimingsJson, EmitsEveryKeyOnceInOrder) {
  const std::string json = batch_timings_to_json(distinct_timings(), 4, 3, 5);
  const char* const keys[] = {
      "circuits", "ok", "jobs",
      // The 7 timing keys.
      "wall_seconds", "prepare_seconds", "gcn_seconds", "post_seconds",
      "prepare_wall_seconds", "gcn_wall_seconds", "post_wall_seconds",
      // The 24 counter keys.
      "matrix_allocs", "matrix_alloc_bytes", "spmm_calls", "spmm_flops",
      "matmul_calls", "matmul_flops", "sample_cache_hits",
      "sample_cache_misses", "inference_cache_hits", "inference_cache_misses",
      "vf2_states", "vf2_sig_rejections", "vf2_pattern_skips",
      "annotation_cache_hits", "annotation_cache_misses", "cache_evictions",
      "parse_bytes", "intern_hits", "intern_misses", "frontend_allocs",
      "incr_regions", "incr_region_reuses", "incr_region_recomputes",
      "incr_canon_fallbacks"};
  std::size_t last = 0;
  std::size_t count = 0;
  for (const char* key : keys) {
    SCOPED_TRACE(key);
    const std::string quoted = std::string("\"") + key + "\":";
    const std::size_t at = json.find(quoted);
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(json.find(quoted, at + 1), std::string::npos) << "twice";
    EXPECT_GE(at, last) << "out of order";
    last = at;
    ++count;
  }
  // No other key: every ':' in the flat object belongs to a listed key.
  EXPECT_EQ(static_cast<std::size_t>(std::count(json.begin(), json.end(), ':')),
            count);
}

TEST(BatchTimingsJson, BytesArePinnedForEqualCounters) {
  EXPECT_EQ(
      batch_timings_to_json(distinct_timings(), 4, 3, 5),
      "{\"circuits\":5,\"ok\":3,\"jobs\":4,\"wall_seconds\":1.5,"
      "\"prepare_seconds\":0.25,\"gcn_seconds\":0.125,\"post_seconds\":2,"
      "\"prepare_wall_seconds\":0.375,\"gcn_wall_seconds\":3.5,"
      "\"post_wall_seconds\":4.25,\"matrix_allocs\":1,"
      "\"matrix_alloc_bytes\":1234567890123,\"spmm_calls\":3,"
      "\"spmm_flops\":4,\"matmul_calls\":5,\"matmul_flops\":6,"
      "\"sample_cache_hits\":7,\"sample_cache_misses\":8,"
      "\"inference_cache_hits\":9,\"inference_cache_misses\":10,"
      "\"vf2_states\":11,\"vf2_sig_rejections\":12,"
      "\"vf2_pattern_skips\":13,\"annotation_cache_hits\":14,"
      "\"annotation_cache_misses\":15,\"cache_evictions\":16,"
      "\"parse_bytes\":17,\"intern_hits\":18,\"intern_misses\":19,"
      "\"frontend_allocs\":20,\"incr_regions\":21,"
      "\"incr_region_reuses\":22,\"incr_region_recomputes\":23,"
      "\"incr_canon_fallbacks\":24}");
}

TEST(BatchTimingsJson, PerfDeltaLeavesTimingsAndSumsAddEveryField) {
  BatchTimings zeroed = distinct_timings();
  zeroed.apply_perf_delta(PerfSnapshot{});
  const std::string z = batch_timings_to_json(zeroed, 1, 1, 1);
  EXPECT_NE(z.find("\"post_wall_seconds\":4.25,"), std::string::npos) << z;
  EXPECT_NE(z.find("\"matrix_alloc_bytes\":0,"), std::string::npos) << z;

  BatchTimings twice = distinct_timings();
  twice += distinct_timings();
  const std::string d = batch_timings_to_json(twice, 1, 1, 1);
  EXPECT_NE(d.find("\"wall_seconds\":3,"), std::string::npos) << d;
  EXPECT_NE(d.find("\"post_wall_seconds\":8.5,"), std::string::npos) << d;
  EXPECT_NE(d.find("\"matrix_alloc_bytes\":2469135780246,"),
            std::string::npos) << d;
  EXPECT_NE(d.find("\"incr_canon_fallbacks\":48}"), std::string::npos) << d;
}

}  // namespace
}  // namespace gana::core
