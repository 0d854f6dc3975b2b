// Phased-array walk-through (paper Fig. 7): builds the channelized
// receiver testcase, runs graph-only annotation, and reports the
// sub-block structure the postprocessing stages recover.
//
//   ./phased_array_demo [--channels 4]
//
// --channels is at least 1; any other value is a usage error (exit 1).
#include <cstdio>
#include <map>

#include "gana.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const gana::Args args(argc, argv);
  gana::datagen::PhasedArrayOptions opt;
  try {
    args.reject_unknown({"channels"});
    opt.channels = static_cast<int>(args.get_count("channels", 4, 1));
  } catch (const gana::ArgError& e) {
    std::fprintf(stderr, "phased_array_demo: %s\n", e.what());
    return 1;
  }

  gana::Rng rng(7);
  const auto circuit = gana::datagen::generate_phased_array(opt, rng);
  std::printf("phased array (%d channels): %zu devices, %zu nets\n",
              opt.channels, circuit.netlist.devices.size(),
              circuit.netlist.nets().size());

  gana::core::Annotator annotator(nullptr, gana::datagen::rf_class_names());
  const auto result = annotator.annotate(circuit);

  // Sub-block census by recovered type.
  std::map<std::string, int> block_count;
  for (const auto& child : result.hierarchy.children) {
    if (child.kind == gana::core::HierarchyNode::Kind::SubBlock) {
      ++block_count[child.type];
    } else if (child.kind == gana::core::HierarchyNode::Kind::Primitive) {
      ++block_count["standalone " + child.type];
    }
  }
  std::printf("\nrecovered structure:\n");
  for (const auto& [type, count] : block_count) {
    std::printf("  %-18s x%d\n", type.c_str(), count);
  }
  std::printf("\nstand-alone primitives separated by Postprocessing I: %zu\n",
              result.post.standalone.size());
  std::printf("pipeline time: GCN %.3fs, postprocessing %.3fs\n",
              result.seconds_gcn, result.seconds_post);
  return 0;
}
