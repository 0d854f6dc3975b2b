// Card-order invariance of the GCN stage: a circuit's class
// probabilities are a function of its topology, not of the order its
// cards are written in. Each input's device and instance cards, at the
// top level and inside every subckt, are shuffled with their names kept,
// written with spice::write_netlist, re-parsed and annotated by a
// seeded, untrained ChebConv model (K = 8). Every device's
// probabilities, matched by name, must agree to rounding, and so must
// its GCN class.
//
// Final classes and accepted primitives are not compared yet: greedy
// primitive acceptance takes each pattern's matches in vertex-id order,
// so card order can still decide between overlapping candidates. They
// join this test once acceptance follows a canonical order.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "datagen/phased_array.hpp"
#include "datagen/rf_gen.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "util/rng.hpp"

namespace gana {
namespace {

constexpr int kShuffles = 3;

/// `netlist` with its device and instance cards shuffled, at the top
/// level and inside every subckt; names, pins and values are kept.
spice::Netlist shuffled(spice::Netlist netlist, Rng& rng) {
  rng.shuffle(netlist.devices);
  rng.shuffle(netlist.instances);
  for (auto& [name, def] : netlist.subckts) {
    rng.shuffle(def.devices);
    rng.shuffle(def.instances);
  }
  return netlist;
}

/// What the GCN stage said about each device of one annotation.
struct DeviceOutputs {
  std::map<std::string, std::vector<double>> probabilities;
  std::map<std::string, int> gcn_class;
  /// Devices preprocessing removed -> their surviving representative
  /// ("" when deleted). Which card of a parallel pair survives follows
  /// card order, so devices are compared through this map.
  std::map<std::string, std::string> alias;

  [[nodiscard]] std::string surviving(std::string name) const {
    for (auto it = alias.find(name); it != alias.end();
         it = alias.find(name)) {
      name = it->second;
    }
    return name;
  }
};

DeviceOutputs annotate_text(const core::Annotator& annotator,
                            const std::string& text, const std::string& name) {
  const Result<core::AnnotateResult> r =
      annotator.try_annotate(spice::parse_netlist(text), name);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.diag().render());
  DeviceOutputs out;
  if (!r.ok()) return out;
  const core::AnnotateResult& a = r.value();
  const graph::CircuitGraph& g = a.prepared.graph;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    if (g.vertex(v).kind != graph::VertexKind::Element) continue;
    std::vector<double>& row = out.probabilities[g.vertex(v).name];
    for (std::size_t c = 0; c < a.probabilities.cols(); ++c) {
      row.push_back(a.probabilities(v, c));
    }
    out.gcn_class[g.vertex(v).name] = a.gcn_class[v];
  }
  out.alias = a.prepared.preprocess_report.alias;
  return out;
}

void expect_same_gcn_outputs(const DeviceOutputs& want,
                             const DeviceOutputs& got) {
  std::vector<std::string> devices;
  for (const auto& entry : want.probabilities) devices.push_back(entry.first);
  for (const auto& entry : want.alias) devices.push_back(entry.first);
  ASSERT_EQ(got.probabilities.size(), want.probabilities.size());
  for (const std::string& device : devices) {
    SCOPED_TRACE(device);
    const std::string w = want.surviving(device);
    const std::string g = got.surviving(device);
    ASSERT_EQ(w.empty(), g.empty());
    if (w.empty()) continue;
    ASSERT_EQ(got.probabilities.count(g), 1u);
    const std::vector<double>& pw = want.probabilities.at(w);
    const std::vector<double>& pg = got.probabilities.at(g);
    ASSERT_EQ(pg.size(), pw.size());
    for (std::size_t c = 0; c < pw.size(); ++c) {
      EXPECT_NEAR(pg[c], pw[c], 1e-12) << "class " << c;
    }
    EXPECT_EQ(got.gcn_class.at(g), want.gcn_class.at(w));
  }
}

class CardOrder : public ::testing::Test {
 protected:
  CardOrder()
      : model_(config()), annotator_(&model_, datagen::rf_class_names()) {}

  static gcn::ModelConfig config() {
    gcn::ModelConfig cfg;
    cfg.num_classes = datagen::rf_class_names().size();
    cfg.conv_channels = {8, 16};
    cfg.cheb_k = 8;
    cfg.fc_hidden = 32;
    cfg.seed = 7;
    return cfg;
  }

  /// Annotates `netlist` as written and after kShuffles card shuffles.
  void check(const spice::Netlist& netlist, const std::string& name) {
    const DeviceOutputs want =
        annotate_text(annotator_, spice::write_netlist(netlist), name);
    ASSERT_FALSE(want.probabilities.empty());
    Rng rng(11);
    for (int s = 0; s < kShuffles; ++s) {
      SCOPED_TRACE(name + " shuffle " + std::to_string(s));
      const std::string text = spice::write_netlist(shuffled(netlist, rng));
      expect_same_gcn_outputs(want, annotate_text(annotator_, text, name));
    }
  }

  gcn::GcnModel model_;
  core::Annotator annotator_;
};

TEST_F(CardOrder, FixtureGcnProbabilitiesIgnoreCardOrder) {
  std::vector<std::filesystem::path> fixtures;
  for (const auto& entry :
       std::filesystem::directory_iterator(GANA_TEST_FIXTURE_DIR)) {
    if (entry.path().extension() == ".sp") fixtures.push_back(entry.path());
  }
  ASSERT_FALSE(fixtures.empty());
  for (const auto& path : fixtures) {
    check(spice::parse_netlist_file(path.string()), path.filename().string());
  }
}

TEST_F(CardOrder, PhasedArrayGcnProbabilitiesIgnoreCardOrder) {
  Rng gen(1);
  check(datagen::generate_phased_array({}, gen).netlist, "phased_array");
}

}  // namespace
}  // namespace gana
