// Pins the interned front end's equivalence contract: for every input,
// parse_netlist_interned -> flatten_interned -> preprocess_interned ->
// build_graph(InternedNetlist) must produce bit-identical results to the
// Reference string path (parse_netlist -> flatten -> preprocess ->
// build_graph(Netlist)) -- same flattened netlist bytes, same
// PreprocessReport, same graph vertices/edges -- and must reject bad
// inputs with the same structured Diag. Also covers the SymbolTable
// determinism properties the batch runner's bit-identical guarantee
// rests on, and the single-read file loader's up-front size limit.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
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

struct ReferenceRun {
  Netlist flat;
  PreprocessReport report;
  graph::CircuitGraph graph;
};

struct InternedRun {
  Netlist flat;  ///< materialized at the boundary
  PreprocessReport report;
  graph::CircuitGraph graph;
};

ReferenceRun run_reference(const std::string& text, bool preprocess_pass) {
  ReferenceRun out;
  out.flat = flatten(parse_netlist(text));
  if (preprocess_pass) out.report = preprocess(out.flat);
  out.graph = graph::build_graph(out.flat);
  return out;
}

InternedRun run_interned(const std::string& text, bool preprocess_pass) {
  InternedRun out;
  auto flat = flatten_interned(parse_netlist_interned(text));
  if (preprocess_pass) out.report = preprocess_interned(flat);
  out.graph = graph::build_graph(flat);
  out.flat = materialize_netlist(flat);
  return out;
}

void expect_same_graph(const graph::CircuitGraph& a,
                       const graph::CircuitGraph& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.element_count(), b.element_count());
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    SCOPED_TRACE("vertex " + std::to_string(v));
    const auto& x = a.vertex(v);
    const auto& y = b.vertex(v);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.dtype, y.dtype);
    EXPECT_EQ(x.value, y.value);  // exact doubles, not approximate
    EXPECT_EQ(x.hier_depth, y.hier_depth);
    EXPECT_EQ(x.device_index, y.device_index);
    EXPECT_EQ(x.role, y.role);
  }
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t e = 0; e < a.edge_count(); ++e) {
    SCOPED_TRACE("edge " + std::to_string(e));
    EXPECT_EQ(a.edge(e).element, b.edge(e).element);
    EXPECT_EQ(a.edge(e).net, b.edge(e).net);
    EXPECT_EQ(a.edge(e).label, b.edge(e).label);
  }
}

void expect_same_report(const PreprocessReport& a, const PreprocessReport& b) {
  EXPECT_EQ(a.merged_parallel, b.merged_parallel);
  EXPECT_EQ(a.merged_series, b.merged_series);
  EXPECT_EQ(a.removed_dummies, b.removed_dummies);
  EXPECT_EQ(a.removed_decaps, b.removed_decaps);
  EXPECT_EQ(a.alias, b.alias);
}

void expect_equivalent(const std::string& text, bool preprocess_pass) {
  const auto ref = run_reference(text, preprocess_pass);
  const auto fast = run_interned(text, preprocess_pass);
  // Byte-identical flattened netlist through the writer.
  EXPECT_EQ(write_netlist(ref.flat), write_netlist(fast.flat));
  expect_same_report(ref.report, fast.report);
  expect_same_graph(ref.graph, fast.graph);
}

TEST(FrontEndEquivalence, HierarchicalOta) {
  expect_equivalent(kOta, /*preprocess_pass=*/false);
  expect_equivalent(kOta, /*preprocess_pass=*/true);
}

TEST(FrontEndEquivalence, PreprocessMergesBitIdentical) {
  expect_equivalent(kMergeable, /*preprocess_pass=*/true);
}

TEST(FrontEndEquivalence, GoldenFixturesBitIdentical) {
  for (const char* fixture :
       {"two_stage_ota", "nested_buffer", "rc_filter", "lna_portlabels",
        "torture_hierarchy"}) {
    SCOPED_TRACE(fixture);
    const std::string path = fixture_path(std::string(fixture) + ".sp");
    const auto ref = flatten(parse_netlist_file(path));
    const auto fast = flatten_interned(parse_netlist_file_interned(path));
    EXPECT_EQ(write_netlist(ref), write_netlist(materialize_netlist(fast)));
    expect_same_graph(graph::build_graph(ref), graph::build_graph(fast));
  }
}

TEST(FrontEndEquivalence, InternMaterializeRoundTrips) {
  const auto parsed = parse_netlist(kOta);
  EXPECT_EQ(write_netlist(materialize_netlist(intern_netlist(parsed))),
            write_netlist(parsed));
}

// --- Error paths: both parsers must reject with the same Diag. ---------

Diag capture_diag(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const DiagError& e) {
    return e.diag();
  }
  ADD_FAILURE() << "expected a DiagError";
  return {};
}

void expect_same_rejection(const std::string& text,
                           const ParseOptions& options = {}) {
  SCOPED_TRACE("input: " + text);
  const Diag ref = capture_diag([&] { (void)parse_netlist(text, options); });
  const Diag fast =
      capture_diag([&] { (void)parse_netlist_interned(text, options); });
  EXPECT_EQ(ref.code, fast.code);
  EXPECT_EQ(ref.stage, fast.stage);
  EXPECT_EQ(ref.message, fast.message);
  EXPECT_EQ(ref.loc.file, fast.loc.file);
  EXPECT_EQ(ref.loc.line, fast.loc.line);
  EXPECT_EQ(ref.notes, fast.notes);
}

TEST(FrontEndEquivalence, ParseRejectionsMatchReference) {
  // A title line first: a short card on line 1 would otherwise be taken
  // as the netlist title by both parsers (also equivalent, but no Diag).
  expect_same_rejection("* t\nm1 d g s\n.end\n");        // short MOS card
  expect_same_rejection("r1 a b 1.5kk\n.end\n");         // trailing garbage
  expect_same_rejection("* t\nm1 d g s b\n.end\n");      // missing model
  expect_same_rejection("* t\nr1 a b\n.end\n");          // missing value
  expect_same_rejection("* t\nx0 a\n.end\n");            // short instance
  expect_same_rejection("* t\nv1 p\n.end\n");            // short source card
  expect_same_rejection(".subckt\n.ends\n.end\n");       // unnamed subckt
  expect_same_rejection(".subckt a p\n.subckt b q\n");   // nested .subckt
  expect_same_rejection(".ends\n.end\n");                // stray .ends
  expect_same_rejection(".subckt a p\nr1 p q 1k\n.end\n");  // unterminated
  expect_same_rejection(".bogus x y\n.end\n");           // unknown directive
  expect_same_rejection(".param q\n.end\n");             // malformed .param
  expect_same_rejection("r1 a b 1k\nr1 a b 2k\n.end\n");  // duplicate name
  expect_same_rejection("x0 a b missing\n.end\n");       // undefined subckt
  expect_same_rejection("+ w=1\n.end\n");  // continuation with no card
}

TEST(FrontEndEquivalence, TitleHeuristicMatchesReference) {
  // Short first lines ARE the title (not cards) on both paths.
  for (const char* text :
       {"m1 d g s\n.end\n", "r1 a b\n.end\n", "x0 a\n.end\n"}) {
    SCOPED_TRACE(text);
    const auto ref = parse_netlist(text);
    const auto fast = materialize_netlist(parse_netlist_interned(text));
    EXPECT_EQ(ref.title, fast.title);
    EXPECT_TRUE(ref.devices.empty());
    EXPECT_EQ(write_netlist(ref), write_netlist(fast));
  }
}

TEST(FrontEndEquivalence, LimitRejectionsMatchReference) {
  ParseOptions tight;
  tight.limits.max_lines = 2;
  expect_same_rejection("r1 a b 1k\nr2 b c 1k\nr3 c d 1k\n.end\n", tight);

  ParseOptions narrow;
  narrow.limits.max_line_length = 8;
  expect_same_rejection("r1 a b 1k\nrlonger a b 1k\n.end\n", narrow);

  ParseOptions small;
  small.limits.max_input_bytes = 16;
  expect_same_rejection("r1 a b 1k\nr2 b c 1k\n.end\n", small);
}

TEST(FrontEndEquivalence, FlattenRejectionsMatchReference) {
  const std::string recursive =
      ".subckt a p\nxb p b\n.ends\n.subckt b p\nxa p a\n.ends\nx0 t a\n.end\n";
  const Diag ref =
      capture_diag([&] { (void)flatten(parse_netlist(recursive)); });
  const Diag fast = capture_diag(
      [&] { (void)flatten_interned(parse_netlist_interned(recursive)); });
  EXPECT_EQ(ref.code, fast.code);
  EXPECT_EQ(DiagCode::RecursiveSubckt, fast.code);
  EXPECT_EQ(ref.message, fast.message);
  EXPECT_EQ(ref.notes, fast.notes);

  const std::string mismatch =
      ".subckt cell p q\nr1 p q 1k\n.ends\nx0 a cell\n.end\n";
  const Diag ref2 =
      capture_diag([&] { (void)flatten(parse_netlist(mismatch)); });
  const Diag fast2 = capture_diag(
      [&] { (void)flatten_interned(parse_netlist_interned(mismatch)); });
  EXPECT_EQ(ref2.code, fast2.code);
  EXPECT_EQ(ref2.message, fast2.message);
}

// --- Pipeline-level determinism: the batch runner's prepared circuits
// at 1/2/8 jobs, sample cache on and off, against a direct run of the
// Reference front end. ---------------------------------------------------

TEST(FrontEndDeterminism, BatchBitIdenticalAcrossJobsAndCache) {
  std::vector<Netlist> batch;
  std::vector<std::string> names;
  std::vector<ReferenceRun> ref;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(parse_netlist(i % 2 == 0 ? kOta : kMergeable));
    names.push_back("fe/" + std::to_string(i));
    // The oracle: Reference flatten, preprocess and graph build.
    ReferenceRun r;
    r.flat = flatten(batch.back(), names.back());
    r.report = preprocess(r.flat);
    r.graph = graph::build_graph(r.flat);
    ref.push_back(std::move(r));
  }

  // The stages after the front end have no Reference oracle; the
  // sequential uncached run pins them for the other configurations.
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
        expect_same_graph(ref[i].graph, b.prepared.graph);
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

TEST(ReadNetlistText, FileParsersShareTheLoader) {
  TempFile file(kOta);
  const auto ref = parse_netlist_file(file.path());
  const auto fast = parse_netlist_file_interned(file.path());
  EXPECT_EQ(write_netlist(ref), write_netlist(materialize_netlist(fast)));
}

}  // namespace
}  // namespace gana::spice
