#include <gtest/gtest.h>

#include <set>

#include "graph/builder.hpp"
#include "primitives/annotator.hpp"
#include "primitives/library.hpp"
#include "spice/flatten.hpp"
#include "spice/parser.hpp"

namespace gana::primitives {
namespace {

using graph::CircuitGraph;

CircuitGraph graph_of(const std::string& text) {
  return graph::build_graph(spice::flatten(spice::parse_netlist(text)));
}

const PrimitiveLibrary& lib() {
  static const PrimitiveLibrary library = PrimitiveLibrary::standard();
  return library;
}

std::set<std::string> found_types(const std::vector<PrimitiveInstance>& v) {
  std::set<std::string> out;
  for (const auto& i : v) out.insert(i.type);
  return out;
}

TEST(Library, CoversPaperVocabulary) {
  // The paper populates "a library of 21 basic primitives"; ours ships the
  // same vocabulary plus the PMOS common-gate stage and the two diode
  // current references of Fig. 1.
  EXPECT_EQ(lib().size(), 24u);
  EXPECT_GE(lib().size(), 21u);
}

TEST(Library, DiodeReferencesMatchedAfterMirrors) {
  const auto g = graph_of(R"(
m0 a a s1 gnd! nmos
m1 b a s1 gnd! nmos
m2 vb vb gnd! gnd! nmos
.end
)");
  const auto found = annotate_primitives(g, lib());
  const auto types = found_types(found);
  EXPECT_TRUE(types.count("cm_n2"));  // the mirror pair, diode included
  EXPECT_TRUE(types.count("cr_n"));   // the stand-alone diode
  for (const auto& inst : found) {
    if (inst.type == "cr_n") {
      ASSERT_EQ(inst.elements.size(), 1u);
      EXPECT_EQ(g.vertex(inst.elements[0]).name, "m2");
    }
  }
}

TEST(Library, AllEntriesCompile) {
  for (std::size_t i = 0; i < lib().size(); ++i) {
    const auto& spec = lib().spec(i);
    EXPECT_GT(spec.element_count(), 0u) << spec.name;
    EXPECT_FALSE(spec.display_name.empty());
    EXPECT_EQ(spec.strict_degree.size(), spec.graph.vertex_count());
  }
}

TEST(Library, FindByName) {
  EXPECT_NE(lib().find("cm_n2"), nullptr);
  EXPECT_NE(lib().find("dp_p"), nullptr);
  EXPECT_EQ(lib().find("nonexistent"), nullptr);
}

TEST(Library, PriorityOrderDescending) {
  const auto order = lib().priority_order();
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(lib().spec(order[i - 1]).priority,
              lib().spec(order[i]).priority);
  }
}

TEST(Library, InternalNetsStrict) {
  const auto* buf = lib().find("buf");
  ASSERT_NE(buf, nullptr);
  // The "mid" net of the buffer is internal -> strict.
  bool mid_strict = false;
  for (std::size_t v = 0; v < buf->graph.vertex_count(); ++v) {
    if (buf->graph.vertex(v).kind == graph::VertexKind::Net &&
        buf->graph.vertex(v).name == "mid") {
      mid_strict = buf->strict_degree[v];
    }
  }
  EXPECT_TRUE(mid_strict);
}

TEST(Library, RejectsMalformedPrimitive) {
  PrimitiveLibrary l;
  EXPECT_THROW(l.add("bad", "BAD", "r0 a b 1k\n.end\n", 1),
               spice::NetlistError);  // no .subckt
}

TEST(Annotator, FiveTOtaDecomposition) {
  const auto g = graph_of(R"(
mt tail vbn gnd! gnd! nmos
m1 x vinp tail gnd! nmos
m2 out vinn tail gnd! nmos
m3 x x vdd! vdd! pmos
m4 out x vdd! vdd! pmos
.end
)");
  const auto found = annotate_primitives(g, lib());
  const auto types = found_types(found);
  EXPECT_TRUE(types.count("dp_n")) << "differential pair";
  EXPECT_TRUE(types.count("cm_p2")) << "PMOS mirror load";
}

TEST(Annotator, CurrentMirrorVariants) {
  const auto g = graph_of(R"(
m0 a a s1 gnd! nmos
m1 b a s1 gnd! nmos
m2 c c vdd! vdd! pmos
m3 e c vdd! vdd! pmos
m4 f c vdd! vdd! pmos
.end
)");
  const auto found = annotate_primitives(g, lib());
  const auto types = found_types(found);
  EXPECT_TRUE(types.count("cm_n2"));
  EXPECT_TRUE(types.count("cm_p3"));  // 3-output beats 2-output by priority
  // The 3 PMOS devices must be claimed by cm_p3, not split.
  for (const auto& inst : found) {
    if (inst.type == "cm_p3") {
      EXPECT_EQ(inst.elements.size(), 3u);
    }
  }
}

TEST(Annotator, CascodeMirrorBeatsSimple) {
  const auto g = graph_of(R"(
m2 iin iin x0 gnd! nmos
m0 x0 x0 s gnd! nmos
m3 iout iin x1 gnd! nmos
m1 x1 x0 s gnd! nmos
.end
)");
  const auto found = annotate_primitives(g, lib());
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].type, "ccm_n");
  EXPECT_EQ(found[0].elements.size(), 4u);
}

TEST(Annotator, InverterAndBuffer) {
  const auto inv_g = graph_of(R"(
m0 out in gnd! gnd! nmos
m1 out in vdd! vdd! pmos
.end
)");
  EXPECT_TRUE(found_types(annotate_primitives(inv_g, lib())).count("inv"));

  const auto buf_g = graph_of(R"(
m0 mid in gnd! gnd! nmos
m1 mid in vdd! vdd! pmos
m2 out mid gnd! gnd! nmos
m3 out mid vdd! vdd! pmos
.end
)");
  const auto found = annotate_primitives(buf_g, lib());
  EXPECT_TRUE(found_types(found).count("buf"));
  // buf claims all 4 devices; no leftover inv.
  EXPECT_FALSE(found_types(found).count("inv"));
}

TEST(Annotator, CrossCoupledPair) {
  const auto g = graph_of(R"(
m0 a b s gnd! nmos
m1 b a s gnd! nmos
.end
)");
  EXPECT_TRUE(found_types(annotate_primitives(g, lib())).count("cp_n"));
}

TEST(Annotator, PassivePrimitives) {
  const auto g = graph_of(R"(
r0 a x 1k
c0 x b 1p
l0 p q 1n
c1 p q 1p
r1 vdd! mid 10k
r2 mid gnd! 10k
.end
)");
  const auto types = found_types(annotate_primitives(g, lib()));
  EXPECT_TRUE(types.count("cc_rc"));
  EXPECT_TRUE(types.count("lc_tank"));
  EXPECT_TRUE(types.count("vr_rd"));
}

TEST(Annotator, SingleDeviceStages) {
  const auto g = graph_of(R"(
m0 out1 in1 gnd! gnd! nmos
m1 vdd! in2 out2 gnd! nmos
m2 out3 vb in3 gnd! nmos
m3 out4 in4 vdd! vdd! pmos
.end
)");
  const auto types = found_types(annotate_primitives(g, lib()));
  EXPECT_TRUE(types.count("cs_n"));
  EXPECT_TRUE(types.count("sf_n"));
  EXPECT_TRUE(types.count("cg_n"));
  EXPECT_TRUE(types.count("cs_p"));
}

TEST(Annotator, TransmissionGate) {
  const auto g = graph_of(R"(
m0 a clk b gnd! nmos
m1 a clkb b vdd! pmos
.end
)");
  EXPECT_TRUE(found_types(annotate_primitives(g, lib())).count("tg"));
}

TEST(Annotator, NoOverlapByDefault) {
  const auto g = graph_of(R"(
mt tail vbn gnd! gnd! nmos
m1 x vinp tail gnd! nmos
m2 out vinn tail gnd! nmos
m3 x x vdd! vdd! pmos
m4 out x vdd! vdd! pmos
.end
)");
  const auto found = annotate_primitives(g, lib());
  std::set<std::size_t> seen;
  for (const auto& inst : found) {
    for (std::size_t v : inst.elements) {
      EXPECT_FALSE(seen.count(v)) << "element claimed twice";
      seen.insert(v);
    }
  }
}

TEST(Annotator, ConstraintsInstantiatedWithTargetNames) {
  const auto g = graph_of(R"(
md1 outp inp tail gnd! nmos
md2 outn inn tail gnd! nmos
.end
)");
  const auto found = annotate_primitives(g, lib());
  ASSERT_FALSE(found.empty());
  const auto& dp = found[0];
  ASSERT_EQ(dp.type, "dp_n");
  bool has_symmetry = false;
  for (const auto& c : dp.constraints) {
    if (c.kind == constraints::Kind::Symmetry) {
      has_symmetry = true;
      const std::set<std::string> members(c.members.begin(), c.members.end());
      EXPECT_TRUE(members.count("md1"));
      EXPECT_TRUE(members.count("md2"));
    }
  }
  EXPECT_TRUE(has_symmetry);
}

TEST(Annotator, UnclaimedElements) {
  const auto g = graph_of(R"(
m0 a a s gnd! nmos
m1 b a s gnd! nmos
i0 vdd! a 1u
.end
)");
  const auto found = annotate_primitives(g, lib());
  const auto leftover = unclaimed_elements(g, found);
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(g.vertex(leftover[0]).name, "i0");
}

TEST(Annotator, TelescopicOtaFullDecomposition) {
  // Telescopic OTA: DP + 2 CG cascodes + PMOS cascode structure.
  const auto g = graph_of(R"(
mt tail vbn gnd! gnd! nmos
m1 y1 vinp tail gnd! nmos
m2 y2 vinn tail gnd! nmos
m3 voutn vbcn y1 gnd! nmos
m4 voutp vbcn y2 gnd! nmos
m5 voutn vbcp z1 vdd! pmos
m6 voutp vbcp z2 vdd! pmos
m7 z1 pb0 vdd! vdd! pmos
m8 z2 pb0 vdd! vdd! pmos
.end
)");
  const auto found = annotate_primitives(g, lib());
  const auto leftover = unclaimed_elements(g, found);
  // Everything except possibly the tail should be claimed.
  EXPECT_LE(leftover.size(), 1u);
  EXPECT_TRUE(found_types(found).count("dp_n"));
}

TEST(Annotator, GuardedReportsResourceOutcome) {
  const auto g = graph_of(R"(
m0 a a s1 gnd! nmos
m1 b a s1 gnd! nmos
.end
)");
  const auto outcome = annotate_primitives_guarded(g, lib());
  EXPECT_FALSE(outcome.truncated);
  EXPECT_GT(outcome.vf2_states, 0u);
  EXPECT_EQ(outcome.primitives.size(),
            annotate_primitives(g, lib()).size());
}

TEST(Annotator, GuardedTruncatesDeterministicallyUnderTinyBudget) {
  const auto g = graph_of(R"(
mt tail vbn gnd! gnd! nmos
m1 y1 vinp tail gnd! nmos
m2 y2 vinn tail gnd! nmos
m3 voutn vbcn y1 gnd! nmos
m4 voutp vbcn y2 gnd! nmos
.end
)");
  AnnotateOptions opt;
  opt.match.max_states = 5;  // starves every per-pattern sweep
  const auto a = annotate_primitives_guarded(g, lib(), opt);
  const auto b = annotate_primitives_guarded(g, lib(), opt);
  EXPECT_TRUE(a.truncated);
  EXPECT_EQ(a.vf2_states, b.vf2_states);
  ASSERT_EQ(a.primitives.size(), b.primitives.size());
  for (std::size_t i = 0; i < a.primitives.size(); ++i) {
    EXPECT_EQ(a.primitives[i].type, b.primitives[i].type);
    EXPECT_EQ(a.primitives[i].elements, b.primitives[i].elements);
  }
  // The unguarded search on the same graph finds at least as much.
  EXPECT_GE(annotate_primitives(g, lib()).size(), a.primitives.size());
}

}  // namespace
}  // namespace gana::primitives
