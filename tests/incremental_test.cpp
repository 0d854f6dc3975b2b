// The incremental re-annotation engine (incremental/session.hpp), end
// to end: the bit-identity contract of every reuse path against a cold
// Annotator run at 1/2/8 compute threads, the reuse/invalidation
// accounting (rename-only and reordering edits reuse every region; a
// one-device structural edit invalidates exactly the region containing
// it), the value-patch prepare fast path, and the region/canonical
// building blocks (rail-coupled blocks split into regions, region keys
// invariant under netlist reordering, leaf-budget fallback counted).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "datagen/phased_array.hpp"
#include "datagen/rf_gen.hpp"
#include "gcn/model.hpp"
#include "graph/structural_hash.hpp"
#include "incremental/canonical.hpp"
#include "incremental/region.hpp"
#include "incremental/session.hpp"
#include "spice/parser.hpp"
#include "util/perf.hpp"
#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gana {
namespace {

/// Two analog blocks -- a diff pair with mirror load and a current
/// mirror with resistor loads -- coupled only through the vdd!/gnd!
/// rails, so region decomposition must yield exactly two regions.
const char* kTwoBlockNetlist =
    "* incremental two-block testcase\n"
    "mt1 tail1 vb1 gnd! gnd! nmos w=2u l=100n\n"
    "ma1 x1 inp1 tail1 gnd! nmos w=4u l=100n\n"
    "ma2 y1 inn1 tail1 gnd! nmos w=4u l=100n\n"
    "ma3 x1 x1 vdd! vdd! pmos w=8u l=100n\n"
    "ma4 y1 x1 vdd! vdd! pmos w=8u l=100n\n"
    "mb1 z2 z2 gnd! gnd! nmos w=3u l=100n\n"
    "mb2 out2 z2 gnd! gnd! nmos w=3u l=100n\n"
    "rb1 vdd! z2 10k\n"
    "rb2 vdd! out2 10k\n"
    ".end\n";

spice::Netlist two_block_netlist() {
  return spice::parse_netlist(kTwoBlockNetlist);
}

std::string cold_json(const spice::Netlist& netlist,
                      const std::vector<std::string>& classes = {"ota",
                                                                 "bias"}) {
  // A fresh Annotator: no cache shared with the session under test, so
  // the reference bytes are a genuinely independent cold run.
  const core::Annotator annotator(nullptr, classes);
  const auto r = annotator.try_annotate(netlist, "incr");
  EXPECT_TRUE(r.ok()) << r.diag().message;
  return r.ok() ? core::annotation_to_json(r.value(), classes) : "";
}

std::string session_json(incremental::AnnotationSession& session,
                         const spice::Netlist& netlist) {
  const auto r = session.reannotate(netlist, "incr");
  EXPECT_TRUE(r.ok()) << r.diag().message;
  return r.ok() ? core::annotation_to_json(
                      r.value(), session.annotator().class_names())
                : "";
}

class ThreadCount {
 public:
  explicit ThreadCount(std::size_t jobs) { set_compute_threads(jobs); }
  ~ThreadCount() { set_compute_threads(1); }
};

// --- Property: rename-only edits reuse everything ----------------------

TEST(IncrementalSession, RenameOnlyEditReusesEveryRegionBitIdentically) {
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const ThreadCount threads(jobs);
    const core::Annotator annotator(nullptr, {"ota", "bias"});
    incremental::AnnotationSession session(&annotator);

    const spice::Netlist rev0 = two_block_netlist();
    EXPECT_EQ(session_json(session, rev0), cold_json(rev0))
        << "first revision, jobs=" << jobs;

    // Rename every device; structure (and the whole-graph structural
    // hash) is unchanged, so the stored annotation re-instantiates.
    spice::Netlist rev1 = rev0;
    for (spice::Device& d : rev1.devices) d.name += "_renamed";
    EXPECT_EQ(session_json(session, rev1), cold_json(rev1))
        << "renamed revision, jobs=" << jobs;

    const incremental::SessionStats& stats = session.last_stats();
    EXPECT_FALSE(stats.structure_changed);
    EXPECT_TRUE(stats.annotation_reused);
    EXPECT_FALSE(stats.fallback_cold);
    EXPECT_EQ(stats.regions, 2u);
    EXPECT_EQ(stats.region_reuses, stats.regions) << "jobs=" << jobs;
    EXPECT_EQ(stats.region_recomputes, 0u);
    // The old names are gone, the new ones appeared.
    EXPECT_EQ(stats.devices_added, rev0.devices.size());
    EXPECT_EQ(stats.devices_removed, rev0.devices.size());
  }
}

// --- Property: reordering edits reuse every region ----------------------

TEST(IncrementalSession, ReorderEditReusesEveryRegionBitIdentically) {
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const ThreadCount threads(jobs);
    const core::Annotator annotator(nullptr, {"ota", "bias"});
    incremental::AnnotationSession session(&annotator);

    const spice::Netlist rev0 = two_block_netlist();
    EXPECT_EQ(session_json(session, rev0), cold_json(rev0));

    // Reverse the card order: different vertex numbering, identical
    // structure per region -- the canonical region keys must land on
    // the cached match lists.
    spice::Netlist rev1 = rev0;
    std::reverse(rev1.devices.begin(), rev1.devices.end());
    EXPECT_EQ(session_json(session, rev1), cold_json(rev1))
        << "reordered revision, jobs=" << jobs;

    const incremental::SessionStats& stats = session.last_stats();
    EXPECT_FALSE(stats.fallback_cold);
    EXPECT_EQ(stats.regions, 2u);
    EXPECT_EQ(stats.region_reuses, stats.regions) << "jobs=" << jobs;
    EXPECT_EQ(stats.region_recomputes, 0u);
    EXPECT_EQ(stats.devices_added, 0u);
    EXPECT_EQ(stats.devices_removed, 0u);
    EXPECT_EQ(stats.devices_changed, 0u);
  }
}

// --- Property: a one-device edit invalidates only its region ------------

TEST(IncrementalSession, OneDeviceEditInvalidatesExactlyItsRegion) {
  const core::Annotator annotator(nullptr, {"ota", "bias"});
  incremental::AnnotationSession session(&annotator);

  const spice::Netlist rev0 = two_block_netlist();
  EXPECT_EQ(session_json(session, rev0), cold_json(rev0));

  // Structural edit confined to the mirror block: one load resistor
  // becomes a capacitor. The diff-pair region's subgraph is untouched.
  spice::Netlist rev1 = rev0;
  spice::Device& rb2 = rev1.devices.back();
  ASSERT_EQ(rb2.name, "rb2");
  rb2.name = "cb2";
  rb2.type = spice::DeviceType::Capacitor;
  rb2.value = 1e-12;

  const PerfSnapshot before = perf_snapshot();
  EXPECT_EQ(session_json(session, rev1), cold_json(rev1));
  const PerfSnapshot delta = perf_snapshot() - before;

  const incremental::SessionStats& stats = session.last_stats();
  EXPECT_TRUE(stats.structure_changed);
  EXPECT_FALSE(stats.annotation_reused);
  EXPECT_FALSE(stats.fallback_cold);
  EXPECT_EQ(stats.regions, 2u);
  EXPECT_EQ(stats.region_reuses, 1u) << "diff-pair region must be reused";
  EXPECT_EQ(stats.region_recomputes, 1u) << "only the edited region re-runs";
  EXPECT_EQ(stats.devices_added, 1u);
  EXPECT_EQ(stats.devices_removed, 1u);

  // The same accounting must be visible through the process-wide perf
  // counters (what --perf-json and the serve metrics report).
  EXPECT_EQ(delta.incr_regions, 2u);
  EXPECT_EQ(delta.incr_region_reuses, 1u);
  EXPECT_EQ(delta.incr_region_recomputes, 1u);
}

// --- Property: a one-region design skips the canonical search -----------

TEST(IncrementalSession, SingleRegionStructuralEditSkipsCanonicalSearch) {
  // The phased array is one region (its blocks share signal nets), and
  // canonically labelling it exhausts the leaf budget. A structural edit
  // must match it whole-graph instead: no canonical fallback counted,
  // bytes equal to a cold annotation.
  Rng rng(1);
  const datagen::LabeledCircuit design =
      datagen::generate_phased_array({}, rng);
  const std::vector<std::string>& classes = datagen::rf_class_names();
  const core::Annotator annotator(nullptr, classes);
  incremental::AnnotationSession session(&annotator);
  const auto signal = [](const std::string& net) {
    return !spice::is_supply_net(net) && !spice::is_ground_net(net);
  };

  const spice::Netlist rev0 = design.netlist;
  PerfSnapshot before = perf_snapshot();
  EXPECT_EQ(session_json(session, rev0), cold_json(rev0, classes));
  EXPECT_EQ((perf_snapshot() - before).incr_canon_fallbacks, 0u);
  EXPECT_EQ(session.last_stats().regions, 1u);

  // Rewire one passive between signal nets: move its second pin to
  // another device's signal net.
  spice::Netlist rev1 = rev0;
  spice::Device* passive = nullptr;
  for (spice::Device& d : rev1.devices) {
    if ((d.type == spice::DeviceType::Resistor ||
         d.type == spice::DeviceType::Capacitor) &&
        signal(d.pins[0]) && signal(d.pins[1])) {
      passive = &d;
      break;
    }
  }
  ASSERT_NE(passive, nullptr);
  std::string target;
  for (const spice::Device& d : rev1.devices) {
    const std::string& net = d.pins[0];
    if (signal(net) && net != passive->pins[0] && net != passive->pins[1]) {
      target = net;
      break;
    }
  }
  ASSERT_FALSE(target.empty());
  passive->pins[1] = target;

  before = perf_snapshot();
  EXPECT_EQ(session_json(session, rev1), cold_json(rev1, classes));
  const PerfSnapshot delta = perf_snapshot() - before;
  EXPECT_EQ(delta.incr_canon_fallbacks, 0u);
  const incremental::SessionStats& stats = session.last_stats();
  EXPECT_TRUE(stats.structure_changed);
  EXPECT_FALSE(stats.annotation_reused);
  EXPECT_FALSE(stats.fallback_cold);
  EXPECT_EQ(stats.regions, 1u);
  EXPECT_EQ(stats.region_recomputes, 1u);

  // Reverting hits the whole-structure store.
  EXPECT_EQ(session_json(session, rev0), cold_json(rev0, classes));
  EXPECT_TRUE(session.last_stats().annotation_reused);
}

// --- Property: value-only edits take the patch fast path ----------------

TEST(IncrementalSession, ValueEditPatchesPrepareAndStaysBitIdentical) {
  // A randomly initialized model (no training needed): probabilities
  // now depend on the feature values, so a stale value-bucket hit in
  // the inference cache would change bytes.
  gcn::ModelConfig cfg;
  cfg.in_features = core::kNumFeatures;
  cfg.num_classes = 2;
  cfg.conv_channels = {8, 8};
  cfg.cheb_k = 3;
  cfg.fc_hidden = 16;
  cfg.seed = 11;
  gcn::GcnModel model(cfg);
  const core::Annotator annotator(&model, {"ota", "bias"});
  incremental::AnnotationSession session(&annotator);

  const spice::Netlist rev0 = two_block_netlist();
  const auto r0 = session.reannotate(rev0, "incr");
  ASSERT_TRUE(r0.ok()) << r0.diag().message;

  // Resize two devices; same topology, same names.
  spice::Netlist rev1 = rev0;
  rev1.devices[1].params["w"] = 6e-6;   // ma1
  rev1.devices.back().value = 22e3;     // rb2

  const auto r1 = session.reannotate(rev1, "incr");
  ASSERT_TRUE(r1.ok()) << r1.diag().message;
  const incremental::SessionStats& stats = session.last_stats();
  EXPECT_FALSE(stats.full_prepare) << "value edit must patch, not re-prepare";
  EXPECT_EQ(stats.devices_changed, 2u);
  EXPECT_FALSE(stats.structure_changed);
  EXPECT_TRUE(stats.annotation_reused);

  // Reference bytes from an independent cold Annotator over the same
  // model weights.
  const core::Annotator fresh(&model, {"ota", "bias"});
  const auto cold = fresh.try_annotate(rev1, "incr");
  ASSERT_TRUE(cold.ok()) << cold.diag().message;
  EXPECT_EQ(core::annotation_to_json(r1.value(), {"ota", "bias"}),
            core::annotation_to_json(cold.value(), {"ota", "bias"}));
}

// --- Property: sizing edits re-emit the stored derived result -----------

TEST(IncrementalSession, SizingEditReemitsDerivedResultBitIdentically) {
  const core::Annotator annotator(nullptr, {"ota", "bias"});
  incremental::AnnotationSession session(&annotator);

  const spice::Netlist rev0 = two_block_netlist();
  EXPECT_EQ(session_json(session, rev0), cold_json(rev0));
  EXPECT_FALSE(session.last_stats().result_reused);

  // Without a model the probabilities are feature-independent, so a
  // pure sizing edit must take the re-emit fast path: patch + compare,
  // nothing downstream recomputed.
  spice::Netlist rev1 = rev0;
  rev1.devices[0].params["w"] = 3e-6;  // mt1
  EXPECT_EQ(session_json(session, rev1), cold_json(rev1));
  const incremental::SessionStats& s1 = session.last_stats();
  EXPECT_FALSE(s1.full_prepare);
  EXPECT_TRUE(s1.result_reused);
  EXPECT_TRUE(s1.annotation_reused);
  EXPECT_EQ(s1.devices_changed, 1u);

  // A second sizing edit reuses the same stored result again.
  spice::Netlist rev2 = rev1;
  rev2.devices.back().value = 47e3;  // rb2
  EXPECT_EQ(session_json(session, rev2), cold_json(rev2));
  EXPECT_TRUE(session.last_stats().result_reused);

  // A structural edit invalidates the store; the sizing edit that
  // follows it re-arms the fast path against the new baseline.
  spice::Netlist rev3 = rev2;
  rev3.devices.pop_back();  // drop rb2
  EXPECT_EQ(session_json(session, rev3), cold_json(rev3));
  EXPECT_FALSE(session.last_stats().result_reused);
  spice::Netlist rev4 = rev3;
  rev4.devices[0].params["w"] = 5e-6;
  EXPECT_EQ(session_json(session, rev4), cold_json(rev4));
  EXPECT_TRUE(session.last_stats().result_reused);
}

// --- Failure parity: a session fails exactly like a cold run -----------

void expect_same_diag(const Diag& a, const Diag& b) {
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.loc.line, b.loc.line);
}

TEST(IncrementalSession, FailingRevisionReturnsTheColdDiagAndRecovers) {
  const core::Annotator annotator(nullptr, {"ota", "bias"});
  incremental::AnnotationSession session(&annotator);
  const spice::Netlist rev0 = two_block_netlist();
  EXPECT_EQ(session_json(session, rev0), cold_json(rev0));

  // An instance of an undefined subcircuit fails in flatten (the
  // parser's validation would reject it first, so it is added here).
  spice::Netlist bad = rev0;
  bad.instances.push_back({"x9", "nosuchcell", {"z2", "out2"}, 11});
  const auto failed = session.reannotate(bad, "incr");
  const auto cold = annotator.try_annotate(bad, "incr");
  ASSERT_FALSE(failed.ok());
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(failed.diag().stage, Stage::Flatten);
  expect_same_diag(failed.diag(), cold.diag());

  // The failure left the baseline alone: the next good revision (a
  // sizing edit of rev0) still matches a cold run byte for byte.
  spice::Netlist rev1 = rev0;
  rev1.devices[0].params["w"] = 3e-6;
  EXPECT_EQ(session_json(session, rev1), cold_json(rev1));
  EXPECT_FALSE(session.last_stats().full_prepare);
}

TEST(IncrementalSession, FastPathRevisionFailsLikeTheColdRun) {
  const core::Annotator annotator(nullptr, {"ota", "bias"});
  incremental::AnnotationSession session(&annotator);
  const spice::Netlist rev0 = two_block_netlist();
  EXPECT_EQ(session_json(session, rev0), cold_json(rev0));
  spice::Netlist rev1 = rev0;
  rev1.devices[0].params["w"] = 3e-6;
  EXPECT_EQ(session_json(session, rev1), cold_json(rev1));
  ASSERT_TRUE(session.last_stats().result_reused);

  // A certain fault at the hierarchy stage, inside a request context.
  FaultInjector& injector = FaultInjector::instance();
  FaultPlan certain;
  certain.stage_error = 1.0;
  injector.arm(1);
  injector.set_stage_plan(Stage::Hierarchy, certain);
  spice::Netlist rev2 = rev1;
  rev2.devices.back().value = 47e3;
  Result<core::AnnotateResult> failed = Diag{};
  Result<core::AnnotateResult> cold = Diag{};
  {
    const RequestContext ctx{nullptr, 1};
    const ScopedRequestContext scope(&ctx);
    failed = session.reannotate(rev2, "incr");
    cold = annotator.try_annotate(rev2, "incr");
  }
  injector.disarm();
  ASSERT_FALSE(failed.ok());
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(failed.diag().code, cold.diag().code);
  EXPECT_EQ(failed.diag().stage, Stage::Hierarchy);
  EXPECT_EQ(failed.diag().stage, cold.diag().stage);

  // The revision that failed was a fast-path one: unarmed, the same
  // revision re-emits the stored result.
  EXPECT_EQ(session_json(session, rev2), cold_json(rev2));
  EXPECT_TRUE(session.last_stats().result_reused);
}

// --- Unit: region decomposition -----------------------------------------

TEST(Region, RailCoupledBlocksSplitIntoTwoRegions) {
  const core::Annotator annotator(nullptr, {"ota", "bias"});
  const auto prepared = core::prepare_netlist(
      two_block_netlist(), annotator.class_names(), "incr",
      annotator.prepare_options());
  const incremental::RegionPartition part =
      incremental::partition_regions(prepared.graph);
  ASSERT_EQ(part.elements.size(), 2u)
      << "blocks sharing only vdd!/gnd! must not merge";
  // Every element vertex is assigned to exactly one region.
  std::size_t assigned = 0;
  for (const auto& elems : part.elements) assigned += elems.size();
  EXPECT_EQ(assigned, prepared.graph.element_count());
  for (std::size_t v = 0; v < prepared.graph.vertex_count(); ++v) {
    const bool element =
        prepared.graph.vertex(v).kind == graph::VertexKind::Element;
    EXPECT_EQ(part.region_of[v] >= 0, element);
  }
}

TEST(Region, KeysAreInvariantUnderDeviceReordering) {
  const core::Annotator annotator(nullptr, {"ota", "bias"});
  spice::Netlist reordered = two_block_netlist();
  std::reverse(reordered.devices.begin(), reordered.devices.end());

  std::vector<std::uint64_t> keys[2];
  int which = 0;
  for (const spice::Netlist& netlist : {two_block_netlist(), reordered}) {
    const auto prepared = core::prepare_netlist(
        netlist, annotator.class_names(), "incr", annotator.prepare_options());
    const auto part = incremental::partition_regions(prepared.graph);
    for (const auto& elems : part.elements) {
      const auto sub =
          incremental::build_region_subgraph(prepared.graph, elems);
      EXPECT_FALSE(sub.canon_fallback);
      keys[which].push_back(sub.key);
    }
    std::sort(keys[which].begin(), keys[which].end());
    ++which;
  }
  EXPECT_EQ(keys[0], keys[1]);
}

TEST(Region, ExhaustedLeafBudgetFallsBackAndCounts) {
  // Two indistinguishable parallel resistors: refinement cannot split
  // them, so the labeler must individualize, visiting one discrete leaf
  // per branch. Budget 1 is exhausted by the second leaf; the order must
  // degrade to the sorted-id fallback (still deterministic) and count.
  const core::Annotator annotator(nullptr, {"ota", "bias"});
  const auto prepared = core::prepare_netlist(
      spice::parse_netlist("* symmetric parallel pair\n"
                           "r1 a b 10k\n"
                           "r2 a b 10k\n"
                           ".end\n"),
      annotator.class_names(), "incr", annotator.prepare_options());
  const auto part = incremental::partition_regions(prepared.graph);
  ASSERT_EQ(part.elements.size(), 1u);
  const PerfSnapshot before = perf_snapshot();
  const auto sub = incremental::build_region_subgraph(
      prepared.graph, part.elements[0], /*canon_leaf_budget=*/1);
  const PerfSnapshot delta = perf_snapshot() - before;
  EXPECT_TRUE(sub.canon_fallback);
  EXPECT_GE(delta.incr_canon_fallbacks, 1u);
  // Fallback order = ascending whole-graph ids: elements + adjacent nets.
  EXPECT_TRUE(std::is_sorted(sub.to_whole.begin(), sub.to_whole.end()));
  // The default budget has room to finish the same region canonically.
  const auto ok = incremental::build_region_subgraph(
      prepared.graph, part.elements[0]);
  EXPECT_FALSE(ok.canon_fallback);
}

TEST(Canonical, IsomorphicNumberingsYieldIdenticalCertificates) {
  const core::Annotator annotator(nullptr, {"ota", "bias"});
  const auto a = core::prepare_netlist(two_block_netlist(),
                                       annotator.class_names(), "incr",
                                       annotator.prepare_options());
  spice::Netlist reordered = two_block_netlist();
  std::reverse(reordered.devices.begin(), reordered.devices.end());
  const auto b = core::prepare_netlist(reordered, annotator.class_names(),
                                       "incr", annotator.prepare_options());

  // Canonically order the full vertex set of both numberings; the
  // induced subgraph hash (the cache key everywhere) must agree.
  std::vector<std::size_t> all_a(a.graph.vertex_count());
  std::vector<std::size_t> all_b(b.graph.vertex_count());
  for (std::size_t v = 0; v < all_a.size(); ++v) all_a[v] = v;
  for (std::size_t v = 0; v < all_b.size(); ++v) all_b[v] = v;
  const auto ca = incremental::canonical_order(a.graph, all_a);
  const auto cb = incremental::canonical_order(b.graph, all_b);
  ASSERT_FALSE(ca.fallback);
  ASSERT_FALSE(cb.fallback);
  EXPECT_EQ(graph::subgraph_structural_hash(a.graph, ca.order),
            graph::subgraph_structural_hash(b.graph, cb.order));
}

}  // namespace
}  // namespace gana
