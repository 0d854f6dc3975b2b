// Structural-hash keying and the sample-prep cache: circuits that differ
// only in names/values share a key, circuits that differ structurally
// (topology, terminal labels, net roles) never do, and cached prep is
// bit-identical to freshly computed prep.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "datagen/ota_gen.hpp"
#include "datagen/phased_array.hpp"
#include "gcn/inference_cache.hpp"
#include "gcn/sample.hpp"
#include "gcn/sample_cache.hpp"
#include "graph/builder.hpp"
#include "graph/circuit_graph.hpp"
#include "graph/laplacian.hpp"
#include "graph/structural_hash.hpp"
#include "primitives/annotation_cache.hpp"
#include "util/perf.hpp"
#include "util/rng.hpp"

namespace gana {
namespace {

using graph::CircuitGraph;
using graph::Vertex;
using graph::VertexKind;

/// A two-transistor differential half: m1/m2 share a tail net.
CircuitGraph small_pair(const std::string& suffix, double width,
                        std::uint8_t m1_label,
                        graph::NetRole out_role = graph::NetRole::Output) {
  CircuitGraph g;
  Vertex m;
  m.kind = VertexKind::Element;
  m.dtype = spice::DeviceType::Nmos;
  m.value = width;
  m.name = "m1" + suffix;
  const std::size_t m1 = g.add_element(m);
  m.name = "m2" + suffix;
  const std::size_t m2 = g.add_element(m);

  Vertex n;
  n.kind = VertexKind::Net;
  n.name = "out" + suffix;
  n.role = out_role;
  const std::size_t out = g.add_net(n);
  n.name = "tail" + suffix;
  n.role = graph::NetRole::Internal;
  const std::size_t tail = g.add_net(n);

  g.connect(m1, out, m1_label);
  g.connect(m2, out, graph::kLabelDrain);
  g.connect(m1, tail, graph::kLabelSource);
  g.connect(m2, tail, graph::kLabelSource);
  return g;
}

TEST(StructuralHash, NamesAndValuesDoNotAffectTheKey) {
  const CircuitGraph a = small_pair("_a", 1e-6, graph::kLabelDrain);
  const CircuitGraph b = small_pair("_b_renamed", 42e-6, graph::kLabelDrain);
  EXPECT_EQ(graph::structural_hash(a), graph::structural_hash(b));
}

TEST(StructuralHash, TerminalLabelChangesTheKey) {
  const CircuitGraph a = small_pair("", 1e-6, graph::kLabelDrain);
  const CircuitGraph b = small_pair("", 1e-6, graph::kLabelGate);
  EXPECT_NE(graph::structural_hash(a), graph::structural_hash(b));
}

TEST(StructuralHash, TopologyChangesTheKey) {
  const CircuitGraph a = small_pair("", 1e-6, graph::kLabelDrain);
  CircuitGraph b = small_pair("", 1e-6, graph::kLabelDrain);
  b.connect(0, 3, graph::kLabelGate);  // extra m1 gate-to-tail edge
  EXPECT_NE(graph::structural_hash(a), graph::structural_hash(b));
}

TEST(StructuralHash, NetRoleChangesTheKey) {
  const CircuitGraph a =
      small_pair("", 1e-6, graph::kLabelDrain, graph::NetRole::Output);
  const CircuitGraph b =
      small_pair("", 1e-6, graph::kLabelDrain, graph::NetRole::Input);
  EXPECT_NE(graph::structural_hash(a), graph::structural_hash(b));
}

TEST(StructuralHash, CombineIsOrderSensitive) {
  EXPECT_NE(graph::hash_combine(1, 2), graph::hash_combine(2, 1));
  EXPECT_EQ(graph::hash_combine(7, 9), graph::hash_combine(7, 9));
}

TEST(SamplePrepCache, CountsHitsAndMissesAndFirstInsertWins) {
  gcn::SamplePrepCache cache;
  EXPECT_EQ(cache.find(42), nullptr);

  auto first = std::make_shared<gcn::SamplePrep>();
  auto second = std::make_shared<gcn::SamplePrep>();
  EXPECT_EQ(cache.insert(42, first), first);
  // A racing duplicate insert keeps the existing entry.
  EXPECT_EQ(cache.insert(42, second), first);
  EXPECT_EQ(cache.find(42), first);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.find(42), nullptr);
}

/// The 4-cycle: bipartite, so its normalized Laplacian has λ_max
/// exactly 2.
SparseMatrix four_cycle() {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t j = (i + 1) % 4;
    t.push_back({i, j, 1.0});
    t.push_back({j, i, 1.0});
  }
  return SparseMatrix::from_triplets(4, 4, std::move(t));
}

TEST(ScaledLaplacian, BipartiteSpectrumStrictlyInsideUnitDisc) {
  // v = ±sqrt(d), alternating over the cycle's two sides, has Lv = 2v.
  // L̂ is scaled by λ = 2.02, so it maps v to (2*2/2.02 - 1)v: the top
  // of its spectrum sits strictly below 1, as the Chebyshev recurrence
  // needs. Scaling by λ = 2 would put it at exactly 1.
  const SparseMatrix lhat = gcn::make_scaled_laplacian(four_cycle());
  const double s = std::sqrt(2.0);
  const std::vector<double> v = {s, -s, s, -s};
  const std::vector<double> lv = lhat.multiply(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(lv[i], (2.0 * 2.0 / 2.02 - 1.0) * v[i], 1e-12);
  }
}

TEST(SamplePrep, UnpooledPrepReadsNoRandomness) {
  // Only Graclus draws from the prep stream: without pooling, any two
  // seeds give the same operators bit for bit, and the stream is left
  // untouched.
  Rng gen(9);
  const SparseMatrix adj = graph::adjacency(graph::build_graph(
      datagen::generate_phased_array({}, gen).netlist));
  Rng rng_a(1);
  Rng rng_b(2);
  const gcn::SamplePrep a = gcn::make_sample_prep(adj, 0, rng_a);
  const gcn::SamplePrep b = gcn::make_sample_prep(adj, 0, rng_b);
  ASSERT_EQ(a.lhat.size(), 1u);
  ASSERT_EQ(b.lhat.size(), 1u);
  EXPECT_TRUE(a.lhat[0].values() == b.lhat[0].values());
  EXPECT_TRUE(a.lhat[0].col_idx() == b.lhat[0].col_idx());
  EXPECT_TRUE(a.lhat[0].row_ptr() == b.lhat[0].row_ptr());
  EXPECT_EQ(rng_a.next_u64(), Rng(1).next_u64());
}

TEST(SamplePrep, TrainingSampleGivesTheAnnotatorsProbabilities) {
  // make_gcn_samples draws one Rng stream over the whole dataset, while
  // the Annotator seeds each circuit's prep from its structural hash.
  // Neither stream reaches an unpooled model's L̂, so the model is served
  // at inference the operators it was trained on: inference on the
  // training sample reproduces the Annotator's probabilities bit for bit.
  Rng gen(9);
  const std::vector<datagen::LabeledCircuit> circuits = {
      datagen::generate_ota({}, gen, "ota"),
      datagen::generate_phased_array({}, gen)};
  const std::vector<gcn::GraphSample> samples =
      core::make_gcn_samples(circuits, 0, 11);
  ASSERT_EQ(samples.size(), circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    SCOPED_TRACE(circuits[i].name);
    gcn::ModelConfig cfg;
    cfg.num_classes = circuits[i].class_names.size();
    cfg.conv_channels = {8, 8};
    cfg.fc_hidden = 16;
    const gcn::GcnModel model(cfg);
    const core::Annotator annotator(&model, circuits[i].class_names);
    const Matrix expected = gcn::softmax(model.infer(samples[i]));
    EXPECT_TRUE(annotator.annotate(circuits[i]).probabilities.data() ==
                expected.data());
  }
}

TEST(SamplePrep, FromPrepBitIdenticalToMakeSample) {
  const SparseMatrix adj = four_cycle();
  Rng rng_a(17);
  const gcn::SamplePrep prep = gcn::make_sample_prep(adj, 1, rng_a);

  Rng feat_rng(3);
  const Matrix x = Matrix::randn(4, 2, 1.0, feat_rng);
  const std::vector<int> labels = {0, 1, 0, 1};
  const gcn::GraphSample via_prep =
      gcn::sample_from_prep(prep, x, labels, "c");

  Rng rng_b(17);
  const gcn::GraphSample direct =
      gcn::make_sample(adj, x, labels, 1, rng_b, "c");

  ASSERT_EQ(via_prep.lhat.size(), direct.lhat.size());
  for (std::size_t l = 0; l < direct.lhat.size(); ++l) {
    EXPECT_TRUE(via_prep.lhat[l].values() == direct.lhat[l].values());
    EXPECT_TRUE(via_prep.lhat[l].col_idx() == direct.lhat[l].col_idx());
  }
  EXPECT_EQ(via_prep.cluster_maps, direct.cluster_maps);
  ASSERT_EQ(via_prep.prop.size(), direct.prop.size());
  for (std::size_t l = 0; l < direct.prop.size(); ++l) {
    EXPECT_TRUE(via_prep.prop[l].values() == direct.prop[l].values());
    EXPECT_TRUE(via_prep.prop_t[l].values() == direct.prop_t[l].values());
  }
  EXPECT_TRUE(via_prep.features.data() == direct.features.data());
}

TEST(SamplePrep, ChebyshevOnlyPrepKeepsTheLaplaciansAndClusterMaps) {
  // Skipping the propagation operators draws nothing from the prep
  // stream, so every other operator keeps its bits.
  const SparseMatrix adj = four_cycle();
  Rng rng_all(17);
  const gcn::SamplePrep all = gcn::make_sample_prep(adj, 1, rng_all);
  Rng rng_cheb(17);
  const gcn::SamplePrep cheb =
      gcn::make_sample_prep(adj, 1, rng_cheb, /*propagation=*/false);
  EXPECT_EQ(all.prop.size(), 2u);
  EXPECT_TRUE(cheb.prop.empty());
  EXPECT_TRUE(cheb.prop_t.empty());
  ASSERT_EQ(cheb.lhat.size(), all.lhat.size());
  for (std::size_t l = 0; l < all.lhat.size(); ++l) {
    EXPECT_TRUE(cheb.lhat[l].values() == all.lhat[l].values());
    EXPECT_TRUE(cheb.lhat[l].col_idx() == all.lhat[l].col_idx());
  }
  EXPECT_EQ(cheb.cluster_maps, all.cluster_maps);
  EXPECT_EQ(rng_cheb.next_u64(), rng_all.next_u64());
}

/// Every probability's exact bits, as text.
std::string probability_bits(const Matrix& p) {
  std::string out;
  for (const double v : p.data()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    out += ' ' + std::to_string(bits);
  }
  return out;
}

TEST(SamplePrep, CacheSharedAcrossConvKindsServesEachItsOwnRun) {
  // A Chebyshev model's prep has no propagation operators. One cache
  // shared by a ChebConv and a SageConv annotator must therefore key
  // the two apart, or SageConv would be served the Chebyshev prep.
  Rng rng(5);
  const datagen::LabeledCircuit circuit =
      datagen::generate_ota({}, rng, "ota");
  gcn::ModelConfig cfg;
  cfg.conv_channels = {8, 8};
  cfg.cheb_k = 3;
  cfg.fc_hidden = 16;
  const gcn::GcnModel cheb_model(cfg);
  cfg.conv_kind = gcn::ConvKind::SageMean;
  const gcn::GcnModel sage_model(cfg);
  const std::vector<std::string> classes = {"ota", "bias"};

  const auto run = [&](const core::Annotator& a) {
    const auto r = a.try_annotate(circuit);
    return r.ok() ? core::annotation_to_json(r.value(), classes) +
                        probability_bits(r.value().probabilities)
                  : "failed: " + r.diag().render();
  };
  const core::Annotator cheb_alone(&cheb_model, classes);
  const core::Annotator sage_alone(&sage_model, classes);
  const std::string cheb_expected = run(cheb_alone);
  const std::string sage_expected = run(sage_alone);
  ASSERT_NE(cheb_expected.rfind("failed", 0), 0u) << cheb_expected;
  ASSERT_NE(sage_expected.rfind("failed", 0), 0u) << sage_expected;

  auto shared = std::make_shared<gcn::SamplePrepCache>();
  core::Annotator cheb(&cheb_model, classes);
  core::Annotator sage(&sage_model, classes);
  cheb.set_sample_cache(shared);
  sage.set_sample_cache(shared);
  EXPECT_EQ(run(cheb), cheb_expected);  // inserts a prep without `prop`
  EXPECT_EQ(run(sage), sage_expected);
  EXPECT_EQ(run(cheb), cheb_expected);  // hits
  EXPECT_EQ(run(sage), sage_expected);
  EXPECT_EQ(shared->stats().entries, 2u);
}

// --- The three structural caches: each counts one miss, then one hit,
// into its own perf-counter pair and nowhere else, and holds exactly its
// capacity.

/// Every counter of a snapshot, rendered in the stable perf JSON.
std::string counters_json(const PerfSnapshot& p) {
  core::BatchTimings t;
  t.apply_perf_delta(p);
  return core::batch_timings_to_json(t, 1, 0, 0);
}

template <typename Cache, typename V>
void expect_counts_only_its_pair(std::uint64_t PerfSnapshot::*hits,
                                 std::uint64_t PerfSnapshot::*misses) {
  Cache cache;
  auto value = std::make_shared<const V>();
  const PerfSnapshot before = perf_snapshot();
  EXPECT_EQ(cache.find(7), nullptr);
  cache.insert(7, value);
  EXPECT_EQ(cache.find(7), value);
  const PerfSnapshot delta = perf_snapshot() - before;
  PerfSnapshot expected;
  expected.*hits = 1;
  expected.*misses = 1;
  EXPECT_EQ(counters_json(delta), counters_json(expected));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

template <typename Cache, typename V>
void expect_exact_capacity(std::size_t capacity) {
  SCOPED_TRACE("capacity " + std::to_string(capacity));
  Cache cache(capacity);
  EXPECT_EQ(cache.capacity(), capacity);
  // Multiples of 16 below 2^32: keys that a cache split into 16 lock
  // shards by key bits would crowd into one shard.
  const auto key = [](std::uint64_t i) { return 16 * i; };
  auto value = std::make_shared<const V>();
  for (std::uint64_t i = 0; i < capacity; ++i) cache.insert(key(i), value);
  EXPECT_EQ(cache.stats().entries, capacity);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (std::uint64_t i = 0; i < capacity; ++i) {
    EXPECT_NE(cache.find(key(i)), nullptr) << i;
  }
  // One more insert evicts exactly the oldest.
  cache.insert(key(capacity), value);
  EXPECT_EQ(cache.stats().entries, capacity);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(key(0)), nullptr);
  for (std::uint64_t i = 1; i <= capacity; ++i) {
    EXPECT_NE(cache.find(key(i)), nullptr) << i;
  }
}

TEST(CountedCaches, EachCountsOnlyItsOwnHitMissPair) {
  expect_counts_only_its_pair<gcn::SamplePrepCache, gcn::SamplePrep>(
      &PerfSnapshot::sample_cache_hits, &PerfSnapshot::sample_cache_misses);
  expect_counts_only_its_pair<gcn::InferenceCache, Matrix>(
      &PerfSnapshot::inference_cache_hits,
      &PerfSnapshot::inference_cache_misses);
  expect_counts_only_its_pair<primitives::AnnotationCache,
                              primitives::CachedAnnotation>(
      &PerfSnapshot::annotation_cache_hits,
      &PerfSnapshot::annotation_cache_misses);
}

TEST(CountedCaches, WholeCacheCapacityIsExact) {
  for (const std::size_t capacity : {1u, 16u, 17u, 100u}) {
    expect_exact_capacity<gcn::SamplePrepCache, gcn::SamplePrep>(capacity);
    expect_exact_capacity<gcn::InferenceCache, Matrix>(capacity);
    expect_exact_capacity<primitives::AnnotationCache,
                          primitives::CachedAnnotation>(capacity);
  }
}

}  // namespace
}  // namespace gana
