// Pins the front end's answers: parse -> flatten -> preprocess -> graph
// build on fixed inputs must produce these exact flattened netlist
// bytes, PreprocessReport counts and aliases, and graph vertex/edge
// listings (the listings of the five golden fixtures live next to them
// as tests/fixtures/*.graph.golden). Also covers the string <-> id
// round trip, the batch runner's determinism over the front end, the
// SymbolTable determinism properties the batch runner's bit-identical
// guarantee rests on, and the single-read file loader's up-front size
// limit.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "gcn/sample_cache.hpp"
#include "graph/builder.hpp"
#include "spice/flatten.hpp"
#include "spice/interned.hpp"
#include "spice/parser.hpp"
#include "spice/preprocess.hpp"
#include "spice/symbol_table.hpp"
#include "spice/writer.hpp"
#include "util/rng.hpp"

namespace gana::spice {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(GANA_TEST_FIXTURE_DIR) + "/" + name;
}

// A hierarchical netlist exercising nesting, continuation lines,
// .param arithmetic inputs, rails, globals, and port labels.
constexpr const char* kOta = R"(* two-stage ota, hierarchical
.global vbias
.portlabel in1 input
.portlabel out output
.param wn=2u wp=4u
.subckt inv in out
m0 out in gnd! gnd! nmos w=wn l=0.18u
m1 out in vdd! vdd! pmos w=wp l=0.18u
.ends
.subckt diffpair inp inn tail op on
m0 op inp tail gnd! nmos w=wn
+ l=0.18u
m1 on inn tail gnd! nmos w=wn l=0.18u
.ends
.subckt ota inp inn out
xdp inp inn tail o1 o2 diffpair
m2 tail vbias gnd! gnd! nmos w=wn l=0.36u
m3 o1 o1 vdd! vdd! pmos w=wp l=0.18u
m4 o2 o1 vdd! vdd! pmos w=wp l=0.18u
xinv o2 out inv
c0 out gnd! 1p
.ends
x0 in1 in2 out ota
r1 out mid 10k
c1 mid gnd! 100f
.end
)";

// Flat netlist that triggers every preprocessing pass: parallel MOS,
// a series MOS stack, parallel resistors/caps, a dummy and a decap.
constexpr const char* kMergeable = R"(* preprocess workout
m1 out in mid gnd! nmos w=1u l=1u
m2 out in mid gnd! nmos w=1u l=1u
m3 mid in s gnd! nmos w=1u l=2u
m4 s in gnd! gnd! nmos w=1u l=2u
md gnd! gnd! gnd! gnd! nmos w=1u l=1u
cd vdd! gnd! 1p
r1 a b 2k
r2 a b 2k
r3 b c 1k
r4 c d 1k
c1 x y 1p
c2 x y 2p
v1 vdd! gnd! 1.8
.end
)";

struct FrontEndRun {
  Netlist flat;
  PreprocessReport report;
  graph::CircuitGraph graph;
};

FrontEndRun run_front_end(const std::string& text, bool preprocess_pass) {
  FrontEndRun out;
  out.flat = flatten(parse_netlist(text));
  if (preprocess_pass) out.report = preprocess(out.flat);
  out.graph = graph::build_graph(out.flat);
  return out;
}

void expect_same_report(const PreprocessReport& a, const PreprocessReport& b) {
  EXPECT_EQ(a.merged_parallel, b.merged_parallel);
  EXPECT_EQ(a.merged_series, b.merged_series);
  EXPECT_EQ(a.removed_dummies, b.removed_dummies);
  EXPECT_EQ(a.removed_decaps, b.removed_decaps);
  EXPECT_EQ(a.alias, b.alias);
}

/// Exact text form of a graph: one line per vertex in id order (element
/// values as shortest round-trip doubles), then the edges in id order,
/// one "edges <element>:" line per run of edges on the same element,
/// each edge as <net>/<label>.
std::string graph_listing(const graph::CircuitGraph& g) {
  std::ostringstream out;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const auto& x = g.vertex(v);
    if (x.kind == graph::VertexKind::Element) {
      char value[32];
      const auto end = std::to_chars(value, value + sizeof value, x.value).ptr;
      out << v << " element " << x.name << ' ' << to_string(x.dtype) << ' '
          << std::string_view(value, static_cast<std::size_t>(end - value))
          << " depth=" << x.hier_depth << " device=" << x.device_index
          << '\n';
    } else {
      out << v << " net " << x.name << ' ' << graph::to_string(x.role)
          << '\n';
    }
  }
  std::size_t element = graph::CircuitGraph::npos;
  for (const auto& e : g.edges()) {
    if (e.element != element) {
      if (element != graph::CircuitGraph::npos) out << '\n';
      element = e.element;
      out << "edges " << element << ':';
    }
    out << ' ' << e.net << '/' << static_cast<unsigned>(e.label);
  }
  if (element != graph::CircuitGraph::npos) out << '\n';
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// kOta flattens to the same bytes and graph with or without the
// preprocess pass: nothing in it is parallel, series, dummy or decap.
constexpr const char* kOtaFlat = R"(* gana netlist
.global vbias
.portlabel in1 input
.portlabel out output
r1 out mid 10000
c1 mid gnd! 1e-13
mx0/m2 x0/tail vbias gnd! gnd! nmos l=3.6e-07 w=2e-06
mx0/m3 x0/o1 x0/o1 vdd! vdd! pmos l=1.8e-07 w=4e-06
mx0/m4 x0/o2 x0/o1 vdd! vdd! pmos l=1.8e-07 w=4e-06
cx0/c0 out gnd! 1e-12
mx0/xdp/m0 x0/o1 in1 x0/tail gnd! nmos l=1.8e-07 w=2e-06
mx0/xdp/m1 x0/o2 in2 x0/tail gnd! nmos l=1.8e-07 w=2e-06
mx0/xinv/m0 out x0/o2 gnd! gnd! nmos l=1.8e-07 w=2e-06
mx0/xinv/m1 out x0/o2 vdd! vdd! pmos l=1.8e-07 w=4e-06
.end
)";

constexpr const char* kOtaGraph = R"(0 element r1 res 10000 depth=0 device=0
1 element c1 cap 1e-13 depth=0 device=1
2 element x0/m2 nmos 2e-06 depth=1 device=2
3 element x0/m3 pmos 4e-06 depth=1 device=3
4 element x0/m4 pmos 4e-06 depth=1 device=4
5 element x0/c0 cap 1e-12 depth=1 device=5
6 element x0/xdp/m0 nmos 2e-06 depth=2 device=6
7 element x0/xdp/m1 nmos 2e-06 depth=2 device=7
8 element x0/xinv/m0 nmos 2e-06 depth=2 device=8
9 element x0/xinv/m1 pmos 4e-06 depth=2 device=9
10 net out output
11 net mid internal
12 net gnd! ground
13 net x0/tail internal
14 net vbias internal
15 net x0/o1 internal
16 net vdd! supply
17 net x0/o2 internal
18 net in1 input
19 net in2 internal
edges 0: 10/0 11/0
edges 1: 11/0 12/0
edges 2: 13/1 14/4 12/2
edges 3: 15/5 16/2
edges 4: 17/1 15/4 16/2
edges 5: 10/0 12/0
edges 6: 15/1 18/4 13/2
edges 7: 17/1 19/4 13/2
edges 8: 10/1 17/4 12/2
edges 9: 10/1 17/4 16/2
)";

TEST(FrontEndPinned, HierarchicalOta) {
  for (const bool preprocess_pass : {false, true}) {
    SCOPED_TRACE(preprocess_pass ? "preprocessed" : "flattened only");
    const auto run = run_front_end(kOta, preprocess_pass);
    EXPECT_EQ(write_netlist(run.flat), kOtaFlat);
    expect_same_report(run.report, PreprocessReport{});
    EXPECT_EQ(graph_listing(run.graph), kOtaGraph);
  }
}

TEST(FrontEndPinned, PreprocessMerges) {
  const auto run = run_front_end(kMergeable, /*preprocess_pass=*/true);
  EXPECT_EQ(write_netlist(run.flat), R"(* gana netlist
m1 out in gnd! gnd! nmos l=5e-06 m=2 w=1e-06
r1 a d 4000 m=2
c1 x y 3e-12 m=2
v1 vdd! gnd! 1.8
.end
)");
  PreprocessReport expected;
  expected.merged_parallel = 3;
  expected.merged_series = 4;
  expected.removed_dummies = 1;
  expected.removed_decaps = 1;
  expected.alias = {{"c2", "c1"}, {"cd", ""},   {"m2", "m1"},
                    {"m3", "m1"}, {"m4", "m1"}, {"md", ""},
                    {"r2", "r1"}, {"r3", "r1"}, {"r4", "r1"}};
  expect_same_report(run.report, expected);
  EXPECT_EQ(graph_listing(run.graph), R"(0 element m1 nmos 1e-06 depth=0 device=0
1 element r1 res 4000 depth=0 device=1
2 element c1 cap 3e-12 depth=0 device=2
3 element v1 vsrc 1.8 depth=0 device=3
4 net out internal
5 net in internal
6 net gnd! ground
7 net a internal
8 net d internal
9 net x internal
10 net y internal
11 net vdd! supply
edges 0: 4/1 5/4 6/2
edges 1: 7/0 8/0
edges 2: 9/0 10/0
edges 3: 11/0 6/0
)");
}

// GoldenFlatten (spice_flatten_test) pins these fixtures' flattened
// bytes; their graphs are pinned here, both through the string overload
// of build_graph and straight from the id-space front end.
TEST(FrontEndPinned, GoldenFixtureGraphs) {
  for (const char* fixture :
       {"two_stage_ota", "nested_buffer", "rc_filter", "lna_portlabels",
        "torture_hierarchy"}) {
    SCOPED_TRACE(fixture);
    const std::string path = fixture_path(std::string(fixture) + ".sp");
    const std::string golden =
        read_file(fixture_path(std::string(fixture) + ".graph.golden"));
    EXPECT_EQ(graph_listing(graph::build_graph(
                  flatten(parse_netlist_file(path)))),
              golden);
    EXPECT_EQ(graph_listing(graph::build_graph(
                  flatten_interned(parse_netlist_file_interned(path)))),
              golden);
  }
}

TEST(FrontEndPinned, ShortFirstLineIsTheTitle) {
  // A first line too short to be its card type is prose, not a card.
  for (const char* title : {"m1 d g s", "r1 a b", "x0 a"}) {
    SCOPED_TRACE(title);
    const auto parsed = parse_netlist(std::string(title) + "\n.end\n");
    EXPECT_EQ(parsed.title, title);
    EXPECT_TRUE(parsed.devices.empty());
    EXPECT_TRUE(parsed.instances.empty());
  }
}

TEST(FrontEndEquivalence, InternMaterializeRoundTrips) {
  const auto parsed = parse_netlist(kOta);
  EXPECT_EQ(write_netlist(materialize_netlist(intern_netlist(parsed))),
            write_netlist(parsed));
}

Diag capture_diag(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const DiagError& e) {
    return e.diag();
  }
  ADD_FAILURE() << "expected a DiagError";
  return {};
}

// --- Pipeline-level determinism: the batch runner's prepared circuits
// at 1/2/8 jobs, sample cache on and off, against direct calls of the
// public flatten, preprocess and build_graph. ----------------------------

TEST(FrontEndDeterminism, BatchBitIdenticalAcrossJobsAndCache) {
  std::vector<Netlist> batch;
  std::vector<std::string> names;
  std::vector<FrontEndRun> ref;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(parse_netlist(i % 2 == 0 ? kOta : kMergeable));
    names.push_back("fe/" + std::to_string(i));
    // One direct, sequential front-end run per circuit, outside any
    // batch, cache or thread pool.
    FrontEndRun r;
    r.flat = flatten(batch.back(), names.back());
    r.report = preprocess(r.flat);
    r.graph = graph::build_graph(r.flat);
    ref.push_back(std::move(r));
  }

  // The sequential uncached run pins the stages after the front end for
  // the other configurations.
  std::vector<core::AnnotateResult> pinned;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    for (const bool cache : {false, true}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " cache=" + (cache ? "on" : "off"));
      core::Annotator annotator(nullptr, {"a", "b"});
      if (cache) {
        annotator.set_sample_cache(std::make_shared<gcn::SamplePrepCache>());
      }
      const core::BatchRunner runner(annotator, {.jobs = jobs});
      auto got = runner.run(batch, names);
      ASSERT_EQ(got.results.size(), batch.size());
      for (std::size_t i = 0; i < got.results.size(); ++i) {
        SCOPED_TRACE("circuit " + std::to_string(i));
        const auto& b = got.results[i];
        EXPECT_EQ(write_netlist(ref[i].flat), write_netlist(b.prepared.flat));
        expect_same_report(ref[i].report, b.prepared.preprocess_report);
        EXPECT_EQ(graph_listing(ref[i].graph),
                  graph_listing(b.prepared.graph));
        if (pinned.empty()) continue;
        EXPECT_EQ(pinned[i].final_class, b.final_class);
        EXPECT_EQ(to_string(pinned[i].hierarchy), to_string(b.hierarchy));
      }
      if (pinned.empty()) pinned = std::move(got.results);
    }
  }
}

// --- SymbolTable properties. ------------------------------------------

std::string random_name(Rng& rng) {
  static const char kAlpha[] = "abcdefghijklmnopqrstuvwxyz0123456789_/!";
  const std::size_t len = 1 + rng.next_u64() % 12;
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += kAlpha[rng.next_u64() % (sizeof(kAlpha) - 1)];
  }
  return out;
}

TEST(SymbolTableProperty, RoundTripDenseStableDeterministic) {
  Rng rng(20260806);
  std::vector<std::string> sequence;
  sequence.reserve(5000);
  for (int i = 0; i < 5000; ++i) sequence.push_back(random_name(rng));

  SymbolTable a;
  SymbolTable b;
  std::vector<SymbolId> first_ids;
  first_ids.reserve(sequence.size());
  for (const auto& name : sequence) {
    const SymbolId id = a.intern(name);
    first_ids.push_back(id);
    // Dense: an id never exceeds the number of distinct symbols seen.
    EXPECT_LT(id, a.size());
    // Two tables fed the same sequence assign identical ids.
    EXPECT_EQ(b.intern(name), id);
  }
  EXPECT_EQ(a.size(), b.size());

  for (std::size_t i = 0; i < sequence.size(); ++i) {
    // Round-trip: every id resolves back to the exact bytes.
    EXPECT_EQ(a.name(first_ids[i]), sequence[i]);
    // Stable: re-interning never mints a new id.
    EXPECT_EQ(a.intern(sequence[i]), first_ids[i]);
    // find() agrees and never mutates.
    EXPECT_EQ(a.find(sequence[i]), first_ids[i]);
  }
  const std::size_t size_before = a.size();
  EXPECT_EQ(a.find("never-interned-name"), kNoSymbol);
  EXPECT_EQ(a.size(), size_before);

  // Ids are dense 0..size-1: every id in range resolves to a name that
  // interns back to itself.
  for (SymbolId id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a.intern(a.name(id)), id);
  }
}

TEST(SymbolTableProperty, ViewsSurviveRehashAndArenaGrowth) {
  SymbolTable t;
  const std::string_view early = t.name(t.intern("anchor"));
  // Force many rehashes and multiple arena chunks.
  for (int i = 0; i < 20000; ++i) {
    t.intern("sym/" + std::to_string(i) + std::string(16, 'x'));
  }
  EXPECT_EQ(early, "anchor");
  EXPECT_EQ(t.find("anchor"), SymbolId{0});
  EXPECT_GT(t.arena_bytes(), std::size_t{1} << 16);
}

TEST(SymbolTableProperty, EmptyNameInternsFirst) {
  // The empty name is legal input (an unnamed device reaches the
  // validator through it) and may be the very first symbol, before the
  // arena has any storage.
  SymbolTable t;
  EXPECT_EQ(t.intern(""), SymbolId{0});
  EXPECT_EQ(t.name(0), "");
  EXPECT_EQ(t.intern("r1"), SymbolId{1});
  EXPECT_EQ(t.intern(""), SymbolId{0});
  EXPECT_EQ(t.find(""), SymbolId{0});
  EXPECT_EQ(t.name(1), "r1");
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.arena_bytes(), 2u);
}

// --- Single-read file loader. -----------------------------------------

class TempFile {
 public:
  explicit TempFile(const std::string& contents) {
    path_ = ::testing::TempDir() + "frontend_test_input.sp";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ReadNetlistText, LoadsWholeFileInOneRead) {
  const std::string text = "r1 a b 1k\n.end\n";
  TempFile file(text);
  EXPECT_EQ(read_netlist_text(file.path()), text);
}

TEST(ReadNetlistText, SizeLimitCheckedUpFront) {
  TempFile file("r1 a b 1k\nr2 b c 1k\nr3 c d 1k\n.end\n");
  ParseLimits limits;
  limits.max_input_bytes = 8;
  const Diag diag =
      capture_diag([&] { (void)read_netlist_text(file.path(), limits); });
  EXPECT_EQ(diag.code, DiagCode::LimitExceeded);
  EXPECT_EQ(diag.loc.file, file.path());
  // The limit fires before any line parsing: the message reports the
  // whole file size, not a line count.
  EXPECT_NE(diag.message.find("limit 8"), std::string::npos);
}

TEST(ReadNetlistText, MissingFileIsAnIoError) {
  const Diag diag = capture_diag(
      [] { (void)read_netlist_text("/nonexistent/gana/input.sp"); });
  EXPECT_EQ(diag.code, DiagCode::IoError);
}

}  // namespace
}  // namespace gana::spice
