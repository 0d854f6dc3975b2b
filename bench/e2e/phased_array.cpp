// phased_array: the paper's headline testcase, one large design with
// nothing shared. Caches are off, so neither batching nor memoisation
// can help: this workload is the control for both.
#include <limits>
#include <stdexcept>

#include "core/export.hpp"
#include "e2e.hpp"
#include "inputs.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace gana::e2e {

namespace {

constexpr std::size_t kComputeThreads = 2;
/// Post-PP-II node accuracy the fixed RF model reaches on this design.
constexpr double kAccuracyFloor = 0.95;

/// parse -> annotate -> export, the work behind one user request.
/// Returns the annotation JSON, or "" on a failed annotation.
std::string annotate_text(const core::Annotator& annotator,
                          const TextInput& input) {
  auto parsed = spice::parse_netlist_result(input.text);
  if (!parsed.ok()) return {};
  auto result = annotator.try_annotate(parsed.value(), input.name);
  if (!result.ok()) return {};
  return core::annotation_to_json(result.value(), annotator.class_names());
}

}  // namespace

void run_phased_array(const RunOptions& o, Record& record) {
  const ArtifactPaths art = artifact_paths(o.models_dir);
  const datagen::LabeledCircuit design = phased_array_design(o.seed);
  const TextInput input{design.name, spice::write_netlist(design.netlist)};
  set_compute_threads(kComputeThreads);

  const auto setup = [&] {
    const double start = now_seconds();
    Loaded l = load_artifacts(art.rf_model, art.library);
    const core::Annotator annotator(l.model.get(), rf_classes(),
                                    std::move(l.library));
    if (annotate_text(annotator, input).empty()) {
      throw std::runtime_error("phased array set-up annotation failed");
    }
    return now_seconds() - start;
  };
  setup_metric(record, o, setup);

  Loaded l = load_artifacts(art.rf_model, art.library);
  const core::Annotator annotator(l.model.get(), rf_classes(),
                                  std::move(l.library));
  const std::string expected = annotate_text(annotator, input);
  for (int i = 0; i < 2; ++i) (void)annotate_text(annotator, input);  // warm

  std::vector<double> ms;
  std::size_t failed = 0;
  std::size_t differing = 0;
  const double window_start = now_seconds();
  while (ms.size() < 10 || now_seconds() - window_start < o.seconds) {
    const double start = now_seconds();
    const std::string out = annotate_text(annotator, input);
    const double elapsed = now_seconds() - start;
    if (out.empty()) {
      ++failed;
      ms.push_back(std::numeric_limits<double>::infinity());
    } else {
      ms.push_back(elapsed * 1e3);
      if (out != expected) ++differing;
    }
  }
  const double window = now_seconds() - window_start;
  record.metric("peak_rss_mb", peak_rss_mb(), "MB");
  record.metric("throughput_per_s", static_cast<double>(ms.size()) / window,
                "1/s");
  latency_metrics(record, ms);
  record.add_attempts(ms.size(), failed);

  record.note("output_digest", json::Value(hex64(fnv1a(expected))));
  record.note("weights_fingerprint",
              json::Value(hex64(l.model->weights_fingerprint())));
  record.note("vertices", json::Value(static_cast<std::uint64_t>(
                              design.netlist.devices.size() +
                              design.netlist.nets().size())));
  record.check("phased_array.deterministic", differing == 0 && failed == 0,
               std::to_string(differing) + " differing and " +
                   std::to_string(failed) + " failed of " +
                   std::to_string(ms.size()) + " annotations");

  // Accuracy after PP-II against the generator's labels.
  auto labeled = annotator.try_annotate(design);
  const double accuracy = labeled.ok() ? labeled.value().acc_post2 : 0.0;
  record.note("accuracy", json::Value(accuracy));
  record.check("phased_array.accuracy", o.quick || accuracy >= kAccuracyFloor,
               "node accuracy after PP-II " + std::to_string(accuracy) +
                   (o.quick ? " (quick models: not enforced)"
                            : ", floor " + std::to_string(kAccuracyFloor)));

  if (o.traced()) {
    const std::vector<TextInput> inputs(o.size(20, 2), input);
    traced_pass(*l.model, rf_classes(), load_library(art.library), inputs, o,
                record);
  }
}

}  // namespace gana::e2e
