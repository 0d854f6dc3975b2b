// Tests for the accelerated primitive-matching layer: the candidate
// index and its soundness invariants, Indexed-vs-Reference engine
// equivalence, pattern-parallel determinism, annotation-cache
// accounting, the adversarial high-fanout truncation path, and
// golden-file regressions of the accepted primitive sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "isomorph/candidate_index.hpp"
#include "isomorph/vf2.hpp"
#include "primitives/annotation_cache.hpp"
#include "primitives/annotator.hpp"
#include "primitives/constraint.hpp"
#include "primitives/library.hpp"
#include "spice/flatten.hpp"
#include "spice/parser.hpp"
#include "util/thread_pool.hpp"

namespace gana {
namespace {

using graph::CircuitGraph;
using primitives::AnnotateOptions;
using primitives::PrimitiveInstance;

CircuitGraph graph_of(const std::string& text) {
  return graph::build_graph(spice::flatten(spice::parse_netlist(text)));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CircuitGraph high_fanout_graph() {
  return graph_of(
      read_file(std::string(GANA_FUZZ_CORPUS_DIR) + "/high_fanout.sp"));
}

/// A small OTA exercising mirrors, a differential pair, and loads.
const char* kOtaText = R"(
m0 n1 n1 gnd! gnd! nmos
m1 id n1 gnd! gnd! nmos
m2 voutp vinp id gnd! nmos
m3 voutn vinn id gnd! nmos
m4 voutp voutp vdd! vdd! pmos
m5 voutn voutp vdd! vdd! pmos
m6 out voutn gnd! gnd! nmos
m7 out pb vdd! vdd! pmos
m8 pb pb vdd! vdd! pmos
cc voutn out 1p
.end
)";

bool same_instance(const PrimitiveInstance& a, const PrimitiveInstance& b) {
  if (a.type != b.type || a.display_name != b.display_name ||
      a.library_index != b.library_index || a.elements != b.elements ||
      a.net_binding != b.net_binding ||
      a.constraints.size() != b.constraints.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.constraints.size(); ++c) {
    if (a.constraints[c].kind != b.constraints[c].kind ||
        a.constraints[c].members != b.constraints[c].members ||
        a.constraints[c].tag != b.constraints[c].tag) {
      return false;
    }
  }
  return true;
}

bool same_instances(const std::vector<PrimitiveInstance>& a,
                    const std::vector<PrimitiveInstance>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_instance(a[i], b[i])) return false;
  }
  return true;
}

/// Match maps as a sorted set, so engines may enumerate in any order.
std::vector<std::vector<std::size_t>> match_set(
    const std::vector<iso::Match>& matches) {
  std::vector<std::vector<std::size_t>> maps;
  maps.reserve(matches.size());
  for (const auto& m : matches) maps.push_back(m.map);
  std::sort(maps.begin(), maps.end());
  return maps;
}

// --- Candidate index: invariants the engine-level pruning relies on. --

TEST(CandidateIndexTest, CanonicalLabelIsFlipInvariant) {
  for (int l = 0; l < 8; ++l) {
    const auto label = static_cast<std::uint8_t>(l);
    EXPECT_EQ(iso::canonical_label(label),
              iso::canonical_label(iso::swap_source_drain(label)));
    EXPECT_EQ(iso::swap_source_drain(iso::swap_source_drain(label)), label);
  }
  // Gate-only and symmetric labels are their own canonical form.
  EXPECT_EQ(iso::canonical_label(graph::kLabelGate), graph::kLabelGate);
  EXPECT_EQ(iso::canonical_label(7), 7);
  // Source-only and drain-only collapse to one class, as do the two
  // diode orientations.
  EXPECT_EQ(iso::canonical_label(graph::kLabelSource),
            iso::canonical_label(graph::kLabelDrain));
  EXPECT_EQ(iso::canonical_label(graph::kLabelGate | graph::kLabelDrain),
            iso::canonical_label(graph::kLabelGate | graph::kLabelSource));
}

TEST(CandidateIndexTest, BucketsSignaturesAndProfile) {
  const auto g = graph_of(kOtaText);
  const iso::CandidateIndex index(g);
  EXPECT_EQ(index.elements_of(spice::DeviceType::Nmos).size(), 5u);
  EXPECT_EQ(index.elements_of(spice::DeviceType::Pmos).size(), 4u);
  EXPECT_EQ(index.elements_of(spice::DeviceType::Capacitor).size(), 1u);
  EXPECT_TRUE(index.elements_of(spice::DeviceType::Resistor).empty());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(index.signature(v), iso::label_signature(g, v));
    // Containment is reflexive and monotone in the zero signature.
    EXPECT_TRUE(iso::signature_contains(index.signature(v),
                                        index.signature(v)));
    EXPECT_TRUE(iso::signature_contains(index.signature(v), 0));
  }
  // The circuit admits each library pattern's profile only if counts
  // suffice; a pattern with a resistor must be rejected here.
  const auto lib = primitives::PrimitiveLibrary::standard();
  const auto circuit_profile = index.profile();
  bool rejected_resistor_pattern = false;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const auto p = iso::count_profile(lib.spec(i).graph);
    if (p.device_types[static_cast<std::size_t>(
            spice::DeviceType::Resistor)] > 0) {
      EXPECT_FALSE(circuit_profile.admits(p)) << lib.spec(i).name;
      rejected_resistor_pattern = true;
    }
  }
  EXPECT_TRUE(rejected_resistor_pattern);
}

TEST(CandidateIndexTest, CountingFilterNeverRejectsAnEmbeddablePattern) {
  // Soundness spot check: every pattern that produces at least one match
  // must pass the circuit-level counting filter.
  const auto g = graph_of(kOtaText);
  const iso::CandidateIndex index(g);
  const auto lib = primitives::PrimitiveLibrary::standard();
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const auto& spec = lib.spec(i);
    if (!iso::find_subgraph_matches(spec.pattern(), g).empty()) {
      EXPECT_TRUE(index.profile().admits(iso::count_profile(spec.graph)))
          << spec.name;
    }
  }
}

// --- Engine equivalence: Indexed is pinned against Reference. ---------

TEST(Vf2EngineEquivalence, IdenticalMatchSetsAcrossTheLibrary) {
  const auto lib = primitives::PrimitiveLibrary::standard();
  for (const char* text : {kOtaText, static_cast<const char*>(nullptr)}) {
    const CircuitGraph g =
        text != nullptr ? graph_of(text) : high_fanout_graph();
    const iso::CandidateIndex index(g);
    for (std::size_t i = 0; i < lib.size(); ++i) {
      const auto& spec = lib.spec(i);
      iso::MatchOptions ref_opt;
      ref_opt.engine = iso::MatchEngine::Reference;
      iso::MatchOptions idx_opt;
      idx_opt.engine = iso::MatchEngine::Indexed;
      iso::MatchStats ref_stats, idx_stats;
      const auto ref = iso::find_subgraph_matches(spec.pattern(), g, ref_opt,
                                                  &ref_stats);
      const auto idx = iso::find_subgraph_matches(spec.pattern(), g, idx_opt,
                                                  &idx_stats, &index);
      ASSERT_FALSE(ref_stats.truncated) << spec.name;
      ASSERT_FALSE(idx_stats.truncated) << spec.name;
      EXPECT_EQ(match_set(ref), match_set(idx)) << spec.name;
      EXPECT_EQ(ref_stats.sig_rejections, 0u);
    }
  }
}

TEST(Vf2EngineEquivalence, IndexedBuildsAThrowawayIndexWhenNoneIsPassed) {
  const auto g = graph_of(kOtaText);
  const auto lib = primitives::PrimitiveLibrary::standard();
  const iso::CandidateIndex index(g);
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const auto& spec = lib.spec(i);
    const auto with = iso::find_subgraph_matches(spec.pattern(), g, {},
                                                 nullptr, &index);
    const auto without = iso::find_subgraph_matches(spec.pattern(), g);
    EXPECT_EQ(match_set(with), match_set(without)) << spec.name;
  }
}

TEST(Vf2EngineEquivalence, AnnotationIdenticalAcrossEngines) {
  const auto lib = primitives::PrimitiveLibrary::standard();
  for (const char* text : {kOtaText, static_cast<const char*>(nullptr)}) {
    const CircuitGraph g =
        text != nullptr ? graph_of(text) : high_fanout_graph();
    AnnotateOptions ref_opt;
    ref_opt.match.engine = iso::MatchEngine::Reference;
    const auto ref = primitives::annotate_primitives_guarded(g, lib, ref_opt);
    const auto idx = primitives::annotate_primitives_guarded(g, lib);
    EXPECT_FALSE(ref.truncated);
    EXPECT_FALSE(idx.truncated);
    EXPECT_TRUE(same_instances(ref.primitives, idx.primitives));
    // The indexed sweep can only do less work.
    EXPECT_LE(idx.vf2_states, ref.vf2_states);
    EXPECT_GT(idx.patterns_skipped, 0u);
  }
}

// --- Adversarial high-fanout fixture: truncation through the index. ---

TEST(Vf2HighFanout, AnnotatesCleanlyUnderTheDefaultBudget) {
  const auto g = high_fanout_graph();
  const auto lib = primitives::PrimitiveLibrary::standard();
  const auto out = primitives::annotate_primitives_guarded(g, lib);
  EXPECT_FALSE(out.truncated);
  EXPECT_GT(out.vf2_states, 0u);
}

TEST(Vf2HighFanout, TinyBudgetTruncatesDeterministicallyPerEngine) {
  const auto g = high_fanout_graph();
  const auto lib = primitives::PrimitiveLibrary::standard();
  for (const auto engine :
       {iso::MatchEngine::Indexed, iso::MatchEngine::Reference}) {
    AnnotateOptions opt;
    opt.match.engine = engine;
    opt.match.max_states = 50;
    const auto a = primitives::annotate_primitives_guarded(g, lib, opt);
    const auto b = primitives::annotate_primitives_guarded(g, lib, opt);
    EXPECT_TRUE(a.truncated);
    EXPECT_EQ(a.vf2_states, b.vf2_states);
    EXPECT_TRUE(same_instances(a.primitives, b.primitives));
  }
}

TEST(Vf2HighFanout, StateBudgetBindsThroughTheIndexedSearch) {
  // The per-pattern state budget must hold for the indexed engine too:
  // a two-NMOS shared-tail pattern has O(N^2) candidate pairs here.
  const auto g = high_fanout_graph();
  const auto pat = graph_of(R"(
m0 outp inp tail gnd! nmos
m1 outn inn tail gnd! nmos
.end
)");
  iso::Pattern pattern{&pat, std::vector<bool>(pat.vertex_count(), false), {}};
  iso::MatchOptions opt;
  opt.max_states = 25;
  iso::MatchStats stats;
  iso::find_subgraph_matches(pattern, g, opt, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(stats.states, opt.max_states + 1);
}

// --- Pattern-parallel matching: bit-identical at any thread count. ----

TEST(AnnotatorParallel, IdenticalAcrossThreadCounts) {
  const auto lib = primitives::PrimitiveLibrary::standard();
  for (const char* text : {kOtaText, static_cast<const char*>(nullptr)}) {
    const CircuitGraph g =
        text != nullptr ? graph_of(text) : high_fanout_graph();
    const auto seq = primitives::annotate_primitives_guarded(g, lib);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      ThreadPool pool(threads);
      AnnotateOptions opt;
      opt.pool = &pool;
      const auto par = primitives::annotate_primitives_guarded(g, lib, opt);
      EXPECT_TRUE(same_instances(seq.primitives, par.primitives))
          << threads << " threads";
      EXPECT_EQ(seq.vf2_states, par.vf2_states);
      EXPECT_EQ(seq.sig_rejections, par.sig_rejections);
      EXPECT_EQ(seq.patterns_skipped, par.patterns_skipped);
    }
  }
}

TEST(AnnotatorParallel, AllowOverlapModeIsDeterministicToo) {
  const auto g = graph_of(kOtaText);
  const auto lib = primitives::PrimitiveLibrary::standard();
  AnnotateOptions seq_opt;
  seq_opt.allow_overlap = true;
  const auto seq = primitives::annotate_primitives_guarded(g, lib, seq_opt);
  // Overlap mode accepts at least as many instances as exclusive mode.
  EXPECT_GE(seq.primitives.size(),
            primitives::annotate_primitives(g, lib).size());
  ThreadPool pool(8);
  AnnotateOptions par_opt = seq_opt;
  par_opt.pool = &pool;
  const auto par = primitives::annotate_primitives_guarded(g, lib, par_opt);
  EXPECT_TRUE(same_instances(seq.primitives, par.primitives));
}

TEST(AnnotatorParallel, TruncatedSweepsStayDeterministicInParallel) {
  const auto g = high_fanout_graph();
  const auto lib = primitives::PrimitiveLibrary::standard();
  AnnotateOptions seq_opt;
  seq_opt.match.max_states = 50;
  const auto seq = primitives::annotate_primitives_guarded(g, lib, seq_opt);
  ASSERT_TRUE(seq.truncated);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    AnnotateOptions opt = seq_opt;
    opt.pool = &pool;
    const auto par = primitives::annotate_primitives_guarded(g, lib, opt);
    EXPECT_TRUE(par.truncated);
    EXPECT_EQ(seq.vf2_states, par.vf2_states);
    EXPECT_TRUE(same_instances(seq.primitives, par.primitives));
  }
}

// --- Annotation cache: accounting and bit-identical hits. -------------

TEST(AnnotationCacheAccounting, HitReportsZeroNewStates) {
  const auto g = graph_of(kOtaText);
  const auto lib = primitives::PrimitiveLibrary::standard();
  primitives::AnnotationCache cache;
  AnnotateOptions opt;
  opt.cache = &cache;
  const auto miss = primitives::annotate_primitives_guarded(g, lib, opt);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_GT(miss.vf2_states, 0u);
  const auto hit = primitives::annotate_primitives_guarded(g, lib, opt);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.vf2_states, 0u);
  EXPECT_EQ(hit.sig_rejections, 0u);
  EXPECT_EQ(hit.patterns_skipped, 0u);
  EXPECT_FALSE(hit.truncated);
  EXPECT_TRUE(same_instances(miss.primitives, hit.primitives));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(AnnotationCacheAccounting, TruncatedFlagSurvivesTheCacheButStatesDoNot) {
  const auto g = high_fanout_graph();
  const auto lib = primitives::PrimitiveLibrary::standard();
  primitives::AnnotationCache cache;
  AnnotateOptions opt;
  opt.cache = &cache;
  opt.match.max_states = 50;
  const auto miss = primitives::annotate_primitives_guarded(g, lib, opt);
  ASSERT_TRUE(miss.truncated);
  ASSERT_GT(miss.vf2_states, 0u);
  const auto hit = primitives::annotate_primitives_guarded(g, lib, opt);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.truncated);  // property of the cached annotation
  EXPECT_EQ(hit.vf2_states, 0u);  // no new work this call
  EXPECT_TRUE(same_instances(miss.primitives, hit.primitives));
}

TEST(AnnotationCacheAccounting, StructurallyIdenticalCircuitsShareOneSweep) {
  // Same structure, different names and sizings: one miss, N-1 hits,
  // and every instance re-instantiated against its own circuit's names.
  const auto lib = primitives::PrimitiveLibrary::standard();
  primitives::AnnotationCache cache;
  AnnotateOptions opt;
  opt.cache = &cache;
  const char* variants[] = {
      "ma1 n1 n1 gnd! gnd! nmos w=1u\nma2 o n1 gnd! gnd! nmos w=1u\n.end\n",
      "mb1 x x gnd! gnd! nmos w=9u\nmb2 y x gnd! gnd! nmos w=2u\n.end\n",
      "mc1 p p gnd! gnd! nmos\nmc2 q p gnd! gnd! nmos\n.end\n",
  };
  std::vector<primitives::AnnotateOutcome> outs;
  for (const char* text : variants) {
    outs.push_back(
        primitives::annotate_primitives_guarded(graph_of(text), lib, opt));
  }
  EXPECT_FALSE(outs[0].cache_hit);
  EXPECT_TRUE(outs[1].cache_hit);
  EXPECT_TRUE(outs[2].cache_hit);
  ASSERT_EQ(outs[1].primitives.size(), outs[0].primitives.size());
  ASSERT_FALSE(outs[1].primitives.empty());
  // Bindings transfer as indices; names come from each circuit.
  EXPECT_EQ(outs[0].primitives[0].elements, outs[1].primitives[0].elements);
  EXPECT_EQ(outs[0].primitives[0].type, outs[1].primitives[0].type);
  ASSERT_FALSE(outs[1].primitives[0].constraints.empty());
  EXPECT_NE(outs[0].primitives[0].constraints[0].members,
            outs[1].primitives[0].constraints[0].members);
  EXPECT_EQ(outs[1].primitives[0].constraints[0].members[0].substr(0, 2),
            "mb");
}

TEST(AnnotationCacheAccounting, OptionsThatChangeResultsChangeTheKey) {
  const auto g = graph_of(kOtaText);
  const auto lib = primitives::PrimitiveLibrary::standard();
  const AnnotateOptions base;
  AnnotateOptions overlap = base;
  overlap.allow_overlap = true;
  AnnotateOptions filtered = base;
  filtered.element_filter = {0, 1};
  AnnotateOptions budget = base;
  budget.match.max_states = 50;
  AnnotateOptions reference = base;
  reference.match.engine = iso::MatchEngine::Reference;
  const auto k0 = primitives::annotation_cache_key(g, lib, base);
  EXPECT_NE(k0, primitives::annotation_cache_key(g, lib, overlap));
  EXPECT_NE(k0, primitives::annotation_cache_key(g, lib, filtered));
  EXPECT_NE(k0, primitives::annotation_cache_key(g, lib, budget));
  EXPECT_NE(k0, primitives::annotation_cache_key(g, lib, reference));
  // Thread count is excluded by design: attaching a pool must hit the
  // entry a sequential run inserted.
  ThreadPool pool(4);
  AnnotateOptions pooled = base;
  pooled.pool = &pool;
  EXPECT_EQ(k0, primitives::annotation_cache_key(g, lib, pooled));
}

TEST(AnnotationCacheAccounting, SharedCacheUnderConcurrentAnnotators) {
  // Eight workers annotating the same structure against one shared
  // cache: every result must equal the uncached reference, whichever
  // worker's insert won.
  const auto lib = primitives::PrimitiveLibrary::standard();
  const auto g = graph_of(kOtaText);
  const auto reference = primitives::annotate_primitives_guarded(g, lib);
  primitives::AnnotationCache cache;
  ThreadPool pool(8);
  std::vector<std::future<std::vector<PrimitiveInstance>>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&] {
      AnnotateOptions opt;
      opt.cache = &cache;
      return primitives::annotate_primitives_guarded(g, lib, opt).primitives;
    }));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(same_instances(reference.primitives, pool.wait(f)));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits + stats.misses, 16u);
}

// --- Golden-file regression of accepted primitive sets. ---------------
// Renders the canonical annotation (priority order, element-key order)
// of each example netlist and compares byte-for-byte against the
// checked-in .prims.golden. Set GANA_UPDATE_GOLDEN=1 to regenerate.

std::string fixture_path(const std::string& name) {
  return std::string(GANA_TEST_FIXTURE_DIR) + "/" + name;
}

std::string render_primitives(const CircuitGraph& g,
                              const std::vector<PrimitiveInstance>& prims) {
  std::ostringstream out;
  for (const auto& p : prims) {
    out << p.type << " [" << p.display_name << "]\n";
    out << "  elements:";
    for (std::size_t v : p.elements) out << ' ' << g.vertex(v).name;
    out << '\n';
    out << "  nets:";
    for (const auto& [pattern_net, tv] : p.net_binding) {
      out << ' ' << pattern_net << '=' << g.vertex(tv).name;
    }
    out << '\n';
    for (const auto& c : p.constraints) {
      out << "  constraint: " << constraints::to_string(c) << '\n';
    }
  }
  if (prims.empty()) out << "(no primitives)\n";
  return out.str();
}

std::string line_diff(const std::string& expected, const std::string& actual) {
  std::vector<std::string> want, got;
  {
    std::istringstream in(expected);
    for (std::string l; std::getline(in, l);) want.push_back(l);
  }
  {
    std::istringstream in(actual);
    for (std::string l; std::getline(in, l);) got.push_back(l);
  }
  std::ostringstream out;
  const std::size_t n = std::max(want.size(), got.size());
  std::size_t shown = 0;
  for (std::size_t i = 0; i < n && shown < 10; ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    if (w && g && *w == *g) continue;
    ++shown;
    out << "  line " << (i + 1) << ":\n";
    if (w) out << "    - " << *w << '\n';
    if (g) out << "    + " << *g << '\n';
  }
  if (shown == 10) out << "  ... (more differences truncated)\n";
  return out.str();
}

void check_primitives_golden(const std::string& fixture) {
  const std::string golden = fixture_path(fixture + ".prims.golden");
  const auto g = graph_of(read_file(fixture_path(fixture + ".sp")));
  const auto lib = primitives::PrimitiveLibrary::standard();
  const auto out = primitives::annotate_primitives_guarded(g, lib);
  ASSERT_FALSE(out.truncated);
  const std::string actual = render_primitives(g, out.primitives);

  if (std::getenv("GANA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(golden, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f) << "cannot write " << golden;
    f << actual;
    GTEST_SKIP() << "regenerated " << golden;
  }

  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden
                  << " -- run with GANA_UPDATE_GOLDEN=1 to create it";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (actual != expected) {
    FAIL() << "primitive annotation of " << fixture << ".sp differs from "
           << fixture << ".prims.golden:\n"
           << line_diff(expected, actual)
           << "(if the change is intentional, re-run with "
              "GANA_UPDATE_GOLDEN=1)";
  }
}

TEST(PrimitiveGolden, TwoStageOta) { check_primitives_golden("two_stage_ota"); }
TEST(PrimitiveGolden, NestedBuffer) { check_primitives_golden("nested_buffer"); }
TEST(PrimitiveGolden, RcFilter) { check_primitives_golden("rc_filter"); }
TEST(PrimitiveGolden, LnaPortLabels) {
  check_primitives_golden("lna_portlabels");
}

}  // namespace
}  // namespace gana
