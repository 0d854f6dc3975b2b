// Layout use case (paper Fig. 6): generate the switched-capacitor filter
// testcase, run annotation, and produce a constraint-aware layout as SVG.
//
//   ./layout_flow [--out sc_filter_layout.svg]
#include <cstdio>

#include "gana.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const gana::Args args(argc, argv);
  try {
    args.reject_unknown({"out"});
  } catch (const gana::ArgError& e) {
    std::fprintf(stderr, "layout_flow: %s\n", e.what());
    return 1;
  }
  const std::string out = args.get("out", "sc_filter_layout.svg");

  gana::Rng rng(42);
  const auto circuit = gana::datagen::generate_sc_filter({}, rng);
  std::printf("SC filter: %zu devices, %zu nets\n",
              circuit.netlist.devices.size(), circuit.netlist.nets().size());

  gana::core::Annotator annotator(nullptr, {"ota", "bias"});
  const auto result = annotator.annotate(circuit);

  std::printf("hierarchy:\n%s\n",
              gana::core::to_string(result.hierarchy).c_str());

  const auto placement =
      gana::layout::place_hierarchy(result.hierarchy, result.prepared.flat);
  const auto check =
      gana::layout::check_symmetry(placement, result.hierarchy);
  const double hpwl = gana::layout::half_perimeter_wirelength(
      placement, result.prepared.flat);

  std::printf("placement: %zu tiles, area %.1f um^2, HPWL %.1f um\n",
              placement.tiles.size(), placement.area(), hpwl);
  std::printf("overlaps: %zu, symmetry pairs checked %zu, violations %zu\n",
              placement.overlap_count(), check.checked, check.violations);

  gana::layout::write_svg(placement, out);
  std::printf("layout written to %s\n", out.c_str());
  return placement.overlap_count() == 0 && check.violations == 0 ? 0 : 1;
}
