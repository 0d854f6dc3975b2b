// The incremental re-annotation engine (incremental/session.hpp), end
// to end: the bit-identity contract of every reuse path against a cold
// Annotator run at 1/2/8 compute threads, the reuse/invalidation
// accounting (a rename-only edit hits the whole-structure store; a
// reorder or a one-device structural edit misses it, and reverting the
// edit hits it again), the value-patch prepare fast path, and failure
// parity with the cold path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "datagen/phased_array.hpp"
#include "datagen/rf_gen.hpp"
#include "gcn/model.hpp"
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
/// rails.
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

/// The compute-thread counts every property below is checked at.
constexpr std::size_t kJobs[] = {1, 2, 8};

// --- Property: rename-only edits reuse everything ----------------------

TEST(IncrementalSession, RenameOnlyEditReusesEveryRegionBitIdentically) {
  for (const std::size_t jobs : kJobs) {
    const ThreadCount threads(jobs);
    const core::Annotator annotator(nullptr, {"ota", "bias"});
    incremental::AnnotationSession session(&annotator);

    const spice::Netlist rev0 = two_block_netlist();
    EXPECT_EQ(session_json(session, rev0), cold_json(rev0))
        << "first revision, jobs=" << jobs;
    EXPECT_FALSE(session.last_stats().annotation_reused);
    EXPECT_EQ(session.last_stats().region_reuses, 0u);

    // Rename every device; structure (and the whole-graph structural
    // hash) is unchanged, so the stored annotation re-instantiates.
    spice::Netlist rev1 = rev0;
    for (spice::Device& d : rev1.devices) d.name += "_renamed";
    EXPECT_EQ(session_json(session, rev1), cold_json(rev1))
        << "renamed revision, jobs=" << jobs;

    const incremental::SessionStats& stats = session.last_stats();
    EXPECT_FALSE(stats.structure_changed);
    EXPECT_TRUE(stats.annotation_reused) << "jobs=" << jobs;
    EXPECT_FALSE(stats.result_reused);
    // The session matches the whole design as its one region.
    EXPECT_EQ(stats.regions, 1u);
    EXPECT_EQ(stats.region_reuses, 1u);
    EXPECT_FALSE(stats.fallback_cold);
    // The old names are gone, the new ones appeared.
    EXPECT_EQ(stats.devices_added, rev0.devices.size());
    EXPECT_EQ(stats.devices_removed, rev0.devices.size());
  }
}

// --- Property: reordering edits re-match --------------------------------

TEST(IncrementalSession, ReorderEditRematchesBitIdentically) {
  for (const std::size_t jobs : kJobs) {
    const ThreadCount threads(jobs);
    const core::Annotator annotator(nullptr, {"ota", "bias"});
    incremental::AnnotationSession session(&annotator);

    const spice::Netlist rev0 = two_block_netlist();
    EXPECT_EQ(session_json(session, rev0), cold_json(rev0));

    // Reverse the card order: the same devices, numbered differently.
    // The store is keyed by the numbering-sensitive structural hash, so
    // the reordered revision re-matches.
    spice::Netlist rev1 = rev0;
    std::reverse(rev1.devices.begin(), rev1.devices.end());
    EXPECT_EQ(session_json(session, rev1), cold_json(rev1))
        << "reordered revision, jobs=" << jobs;

    const incremental::SessionStats& stats = session.last_stats();
    EXPECT_TRUE(stats.structure_changed);
    EXPECT_FALSE(stats.annotation_reused) << "jobs=" << jobs;
    EXPECT_EQ(stats.region_reuses, 0u);
    EXPECT_EQ(stats.devices_added, 0u);
    EXPECT_EQ(stats.devices_removed, 0u);
    EXPECT_EQ(stats.devices_changed, 0u);

    // Restoring the original order hits the store again.
    EXPECT_EQ(session_json(session, rev0), cold_json(rev0));
    EXPECT_TRUE(session.last_stats().annotation_reused) << "jobs=" << jobs;
    EXPECT_EQ(session.last_stats().region_reuses, 1u);
  }
}

// --- Property: a one-device edit re-matches, its revert reuses ----------

TEST(IncrementalSession, OneDeviceEditInvalidatesExactlyItsRegion) {
  for (const std::size_t jobs : kJobs) {
    const ThreadCount threads(jobs);
    const core::Annotator annotator(nullptr, {"ota", "bias"});
    incremental::AnnotationSession session(&annotator);

    const spice::Netlist rev0 = two_block_netlist();
    EXPECT_EQ(session_json(session, rev0), cold_json(rev0));

    // Structural edit confined to the mirror block: one load resistor
    // becomes a capacitor. The session's one region is the whole
    // design, so the edit misses the whole-structure store.
    spice::Netlist rev1 = rev0;
    spice::Device& rb2 = rev1.devices.back();
    ASSERT_EQ(rb2.name, "rb2");
    rb2.name = "cb2";
    rb2.type = spice::DeviceType::Capacitor;
    rb2.value = 1e-12;

    PerfSnapshot before = perf_snapshot();
    const std::string edited = session_json(session, rev1);
    PerfSnapshot delta = perf_snapshot() - before;
    EXPECT_EQ(edited, cold_json(rev1)) << "edited revision, jobs=" << jobs;

    const incremental::SessionStats& stats = session.last_stats();
    EXPECT_TRUE(stats.structure_changed);
    EXPECT_FALSE(stats.annotation_reused) << "jobs=" << jobs;
    EXPECT_EQ(stats.region_reuses, 0u);
    EXPECT_EQ(stats.devices_added, 1u);
    EXPECT_EQ(stats.devices_removed, 1u);
    // The store is an AnnotationCache, so the process-wide counters
    // (what --perf-json and the serve metrics report) see the miss.
    EXPECT_EQ(delta.annotation_cache_misses, 1u);
    EXPECT_EQ(delta.annotation_cache_hits, 0u);

    // Reverting the edit is a structure the store already holds.
    before = perf_snapshot();
    const std::string reverted = session_json(session, rev0);
    delta = perf_snapshot() - before;
    EXPECT_EQ(reverted, cold_json(rev0)) << "reverted revision, jobs=" << jobs;
    EXPECT_TRUE(session.last_stats().annotation_reused) << "jobs=" << jobs;
    EXPECT_EQ(session.last_stats().region_reuses, 1u);
    EXPECT_EQ(delta.annotation_cache_hits, 1u);
    EXPECT_EQ(delta.annotation_cache_misses, 0u);
    EXPECT_EQ(delta.vf2_states, 0u) << "a store hit runs no VF2";
  }
}

// --- Property: the phased array's structural edits match cold ----------

TEST(IncrementalSession, SingleRegionStructuralEditSkipsCanonicalSearch) {
  // The phased array (540 elements, 876 vertices), the design of
  // bench/e2e's sizing_session. A structural edit re-matches the whole
  // graph, exactly the cold sweep, and reverting it hits the store.
  Rng rng(1);
  const datagen::LabeledCircuit design =
      datagen::generate_phased_array({}, rng);
  const std::vector<std::string>& classes = datagen::rf_class_names();
  const auto signal = [](const std::string& net) {
    return !spice::is_supply_net(net) && !spice::is_ground_net(net);
  };

  // Rewire one passive between signal nets: move its second pin to
  // another device's signal net.
  const spice::Netlist rev0 = design.netlist;
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
  const std::string cold0 = cold_json(rev0, classes);
  const std::string cold1 = cold_json(rev1, classes);

  for (const std::size_t jobs : kJobs) {
    const ThreadCount threads(jobs);
    const core::Annotator annotator(nullptr, classes);
    incremental::AnnotationSession session(&annotator);
    EXPECT_EQ(session_json(session, rev0), cold0) << "jobs=" << jobs;

    EXPECT_EQ(session_json(session, rev1), cold1) << "jobs=" << jobs;
    const incremental::SessionStats& stats = session.last_stats();
    EXPECT_TRUE(stats.structure_changed);
    EXPECT_FALSE(stats.annotation_reused);
    EXPECT_EQ(stats.region_reuses, 0u);

    EXPECT_EQ(session_json(session, rev0), cold0) << "jobs=" << jobs;
    EXPECT_TRUE(session.last_stats().annotation_reused);
    EXPECT_EQ(session.last_stats().region_reuses, 1u);
  }
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
  const gcn::GcnModel model(cfg);

  // Resize two devices; same topology, same names.
  const spice::Netlist rev0 = two_block_netlist();
  spice::Netlist rev1 = rev0;
  rev1.devices[1].params["w"] = 6e-6;   // ma1
  rev1.devices.back().value = 22e3;     // rb2

  for (const std::size_t jobs : kJobs) {
    const ThreadCount threads(jobs);
    const core::Annotator annotator(&model, {"ota", "bias"});
    incremental::AnnotationSession session(&annotator);
    const auto r0 = session.reannotate(rev0, "incr");
    ASSERT_TRUE(r0.ok()) << r0.diag().message;

    const auto r1 = session.reannotate(rev1, "incr");
    ASSERT_TRUE(r1.ok()) << r1.diag().message;
    const incremental::SessionStats& stats = session.last_stats();
    EXPECT_FALSE(stats.full_prepare)
        << "value edit must patch, not re-prepare";
    EXPECT_EQ(stats.devices_changed, 2u);
    EXPECT_FALSE(stats.structure_changed);
    EXPECT_TRUE(stats.annotation_reused);

    // Reference bytes from an independent cold Annotator over the same
    // model weights.
    const core::Annotator fresh(&model, {"ota", "bias"});
    const auto cold = fresh.try_annotate(rev1, "incr");
    ASSERT_TRUE(cold.ok()) << cold.diag().message;
    EXPECT_EQ(core::annotation_to_json(r1.value(), {"ota", "bias"}),
              core::annotation_to_json(cold.value(), {"ota", "bias"}))
        << "jobs=" << jobs;
  }
}

// --- Property: sizing edits re-emit the stored derived result -----------

TEST(IncrementalSession, SizingEditReemitsDerivedResultBitIdentically) {
  for (const std::size_t jobs : kJobs) {
    const ThreadCount threads(jobs);
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
    EXPECT_EQ(session_json(session, rev1), cold_json(rev1)) << "jobs=" << jobs;
    const incremental::SessionStats& s1 = session.last_stats();
    EXPECT_FALSE(s1.full_prepare);
    EXPECT_TRUE(s1.result_reused);
    EXPECT_TRUE(s1.annotation_reused);
    EXPECT_EQ(s1.region_reuses, 1u);
    EXPECT_EQ(s1.devices_changed, 1u);

    // A second sizing edit reuses the same stored result again.
    spice::Netlist rev2 = rev1;
    rev2.devices.back().value = 47e3;  // rb2
    EXPECT_EQ(session_json(session, rev2), cold_json(rev2)) << "jobs=" << jobs;
    EXPECT_TRUE(session.last_stats().result_reused);

    // A structural edit invalidates the store; the sizing edit that
    // follows it re-arms the fast path against the new baseline.
    spice::Netlist rev3 = rev2;
    rev3.devices.pop_back();  // drop rb2
    EXPECT_EQ(session_json(session, rev3), cold_json(rev3)) << "jobs=" << jobs;
    EXPECT_FALSE(session.last_stats().result_reused);
    spice::Netlist rev4 = rev3;
    rev4.devices[0].params["w"] = 5e-6;
    EXPECT_EQ(session_json(session, rev4), cold_json(rev4)) << "jobs=" << jobs;
    EXPECT_TRUE(session.last_stats().result_reused);
  }
}

// --- Failure parity: a session fails exactly like a cold run -----------

void expect_same_diag(const Diag& a, const Diag& b) {
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.loc.line, b.loc.line);
}

TEST(IncrementalSession, FailingRevisionReturnsTheColdDiagAndRecovers) {
  for (const std::size_t jobs : kJobs) {
    const ThreadCount threads(jobs);
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
    EXPECT_EQ(session_json(session, rev1), cold_json(rev1)) << "jobs=" << jobs;
    EXPECT_FALSE(session.last_stats().full_prepare);
  }
}

TEST(IncrementalSession, FastPathRevisionFailsLikeTheColdRun) {
  for (const std::size_t jobs : kJobs) {
    const ThreadCount threads(jobs);
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
    EXPECT_EQ(session_json(session, rev2), cold_json(rev2)) << "jobs=" << jobs;
    EXPECT_TRUE(session.last_stats().result_reused);
  }
}

}  // namespace
}  // namespace gana
