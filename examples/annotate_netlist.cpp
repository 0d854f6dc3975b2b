// Full annotation CLI: reads a SPICE file, optionally trains a quick GCN
// on the matching synthetic dataset, and prints the hierarchy tree,
// primitives, and constraints.
//
//   ./annotate_netlist circuit.sp [more.sp ...] [--domain ota|rf]
//                      [--train] [--circuits 150] [--epochs 25]
//                      [--jobs N] [--keep-going] [--svg out.svg]
//                      [--session] [--cache-capacity C]
//                      [--timeout-seconds S]
//                      [--perf-json perf.json]
//                      [--save-model m.ckpt] [--load-model m.ckpt]
//
// Without --train the pipeline runs model-free (cluster classes come from
// the uniform vote), which still exercises primitive annotation and
// hierarchy extraction.
//
// --jobs N: with several input files, annotates them in parallel on N
// worker threads (bit-identical to the sequential run); with a single
// file, enables N-way row-parallel sparse products inside the GCN.
//
// --keep-going: process every input even when some fail; each file gets
// an [ OK ]/[FAIL] summary line. Without it the run stops at the first
// failure. Exit codes: 0 all annotated, 1 usage error (an unknown flag,
// or a malformed or out-of-range flag value such as --jobs -2), 2 I/O
// error, 3 parse/validation error, 4 annotation error (first failure in
// input order decides).
//
// Structurally identical inputs share work through three caches, always
// attached: spectral-operator preparation, the GCN class probabilities
// (keyed by the model's weights fingerprint) and the VF2
// primitive-annotation sweep. Outputs are bit-identical to uncached
// runs; the hit counts go to --perf-json.
//
// --cache-capacity C: bound each cache to ~C entries with FIFO eviction
// (0, the default, keeps them unbounded). Eviction costs recompute only;
// outputs stay bit-identical.
//
// --session: treat the input files as successive *revisions* of one
// evolving design and annotate them through an incremental
// AnnotationSession (DESIGN.md §14): the front end is skipped for
// value-only edits, primitive matching is re-run only for the regions an
// edit dirtied, and an unchanged structure reuses the whole cached
// annotation. All revisions are annotated under the session's design
// name (the first file's path), and each output is bit-identical to a
// cold run of that revision under that name. Revisions run sequentially
// (--jobs parallelizes inside the GCN); each gets a "revision" line
// with its reuse report.
//
// --timeout-seconds S: per-netlist wall-clock deadline. A circuit that
// exceeds it fails with DiagCode::DeadlineExceeded, gets a [TIMEOUT]
// summary line, and drives exit code 5; its siblings are unaffected
// (implies --keep-going semantics for the timed-out slot only under
// --keep-going, otherwise the run stops there like any other failure).
//
// --perf-json FILE: write the batch's wall/stage timings and perf
// counters (allocations, spmm/matmul flops, parse/intern stats, cache
// hits) as JSON.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "gana.hpp"
#include "gcn/serialize.hpp"
#include "primitives/library_io.hpp"
#include "util/args.hpp"
#include "util/perf.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitIo = 2;
constexpr int kExitParse = 3;
constexpr int kExitAnnotate = 4;
constexpr int kExitTimeout = 5;

std::unique_ptr<gana::gcn::GcnModel> train_quick_model(
    const std::string& domain, std::size_t circuits, int epochs) {
  gana::datagen::DatasetOptions dopt;
  dopt.circuits = circuits;
  dopt.seed = 1;
  std::vector<gana::datagen::LabeledCircuit> dataset;
  std::size_t classes = 2;
  if (domain == "rf") {
    dataset = gana::datagen::make_rf_dataset(dopt);
    classes = 3;
  } else {
    dataset = gana::datagen::make_ota_dataset(dopt);
  }
  gana::gcn::ModelConfig cfg;
  cfg.in_features = gana::core::kNumFeatures;
  cfg.num_classes = classes;
  cfg.conv_channels = {32, 64};
  cfg.cheb_k = 8;
  cfg.fc_hidden = 512;
  cfg.seed = 7;
  auto model = std::make_unique<gana::gcn::GcnModel>(cfg);

  auto samples = gana::core::make_gcn_samples(dataset, 0, 11);
  auto [train_set, val_set] =
      gana::gcn::split_dataset(std::move(samples), 0.8, 13);
  gana::gcn::TrainConfig tc;
  tc.epochs = epochs;
  tc.patience = 8;
  const auto result = gana::gcn::train(*model, train_set, val_set, tc);
  std::printf("trained %s model: val accuracy %.2f%%\n", domain.c_str(),
              result.best_val_acc * 100.0);
  return model;
}

/// Exit code a parse-step diagnostic maps to (I/O vs parse/validate).
int parse_exit_code(const gana::Diag& d) {
  return d.stage == gana::Stage::Io || d.code == gana::DiagCode::IoError
             ? kExitIo
             : kExitParse;
}

/// One input file's fate: a parse failure, an annotation failure, or an
/// index into the batch outcome vector.
struct FileStatus {
  std::optional<gana::Diag> diag;
  int exit_code = kExitOk;  ///< kExitIo/kExitParse/kExitAnnotate on failure
};

void print_result(const gana::core::AnnotateResult& result) {
  std::printf("\n== %s ==\n", result.prepared.name.c_str());
  std::printf("devices %zu  nets %zu  CCCs %zu  primitives %zu\n",
              result.prepared.flat.devices.size(),
              result.prepared.flat.nets().size(), result.ccc.count,
              result.post.primitives.size());
  std::printf("preprocessing removed %zu cards (parallel %zu, series %zu, "
              "dummies %zu, decaps %zu)\n",
              result.prepared.preprocess_report.total_removed(),
              result.prepared.preprocess_report.merged_parallel,
              result.prepared.preprocess_report.merged_series,
              result.prepared.preprocess_report.removed_dummies,
              result.prepared.preprocess_report.removed_decaps);
  for (const auto& w : result.warnings) {
    std::printf("warning: %s\n", w.render().c_str());
  }
  std::printf("\n%s\n", gana::core::to_string(result.hierarchy).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const gana::Args args(argc, argv, {"train", "keep-going", "session"});
  if (args.positional().empty()) {
    std::printf(
        "usage: annotate_netlist <file.sp> [more.sp ...]\n"
        "                        [--domain ota|rf] [--train]\n"
        "                        [--circuits 150] [--epochs 25]\n"
        "                        [--jobs N] [--keep-going] [--session]\n"
        "                        [--cache-capacity C]\n"
        "                        [--timeout-seconds S]\n"
        "                        [--load-library lib|standard]\n"
        "                        [--perf-json perf.json]\n"
        "                        [--svg layout.svg]\n");
    return kExitUsage;
  }
  const std::vector<std::string> paths = args.positional();
  const std::string domain = args.get("domain", "ota");
  const auto domain_classes = gana::datagen::domain_class_names(domain);
  if (!domain_classes.has_value()) {
    std::fprintf(stderr, "error: unknown --domain '%s' (expected ota or rf)\n",
                 domain.c_str());
    return kExitUsage;
  }
  const std::vector<std::string>& classes = *domain_classes;
  const bool keep_going = args.has("keep-going");
  // Numeric flags are read before any work starts: a malformed or
  // out-of-range value is a usage error, never a silent default.
  std::size_t jobs = 0, circuits = 0, epochs = 0, cache_capacity = 0;
  double timeout_seconds = 0.0;
  try {
    args.reject_unknown({"domain", "jobs", "circuits", "epochs",
                         "cache-capacity", "timeout-seconds", "load-model",
                         "save-model", "load-library", "perf-json", "svg",
                         "json", "dot"});
    jobs = args.get_count("jobs", 1, 0);
    circuits = args.get_count("circuits", 150, 1);
    epochs = args.get_count("epochs", 25, 1);
    cache_capacity = args.get_count("cache-capacity", 0, 0);
    timeout_seconds = args.get_seconds("timeout-seconds", 0.0);
  } catch (const gana::ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  }

  // --- Parse. Each file independently yields a netlist or a located
  // diagnostic; --keep-going pushes past failures instead of stopping.
  // Parsing happens before BatchRunner opens its perf-counter window, so
  // snapshot here and add this window's counters to the batch's below.
  const gana::PerfSnapshot perf_at_parse = gana::perf_snapshot();
  std::vector<FileStatus> status(paths.size());
  std::vector<gana::spice::Netlist> netlists;      // parsed OK, in order
  std::vector<std::string> netlist_names;          // paths of `netlists`
  std::vector<std::size_t> netlist_file(paths.size(), SIZE_MAX);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto parsed = gana::spice::parse_netlist_file_result(paths[i]);
    if (parsed.ok()) {
      netlist_file[i] = netlists.size();
      netlists.push_back(parsed.take());
      netlist_names.push_back(paths[i]);
      continue;
    }
    status[i].exit_code = parse_exit_code(parsed.diag());
    status[i].diag = parsed.diag();
    if (!keep_going) {
      std::fprintf(stderr, "error: %s\n", parsed.diag().render().c_str());
      return status[i].exit_code;
    }
  }
  // Input files only: close the window before the Annotator parses the
  // primitive library's own pattern netlists.
  const gana::PerfSnapshot parse_perf = gana::perf_snapshot() - perf_at_parse;

  std::unique_ptr<gana::gcn::GcnModel> model;
  if (args.has("load-model")) {
    // Text checkpoint or binary artifact, sniffed by magic; the binary
    // path maps the file and borrows the weights zero-copy.
    auto loaded = gana::gcn::load_model_any(args.get("load-model"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.diag().render().c_str());
      return kExitIo;
    }
    model = std::make_unique<gana::gcn::GcnModel>(loaded.take());
    std::printf("loaded model from %s (%zu parameters)\n",
                args.get("load-model").c_str(), model->parameter_count());
  } else if (args.has("train")) {
    model = train_quick_model(domain, circuits, static_cast<int>(epochs));
  }
  if (model && args.has("save-model")) {
    gana::gcn::save_model_file(*model, args.get("save-model"));
    std::printf("model saved to %s\n", args.get("save-model").c_str());
  }

  // --- Annotate. The fault-isolated batch path never throws: every
  // parsed netlist comes back as a result or a staged diagnostic.
  auto library =
      gana::primitives::load_library_any(args.get("load-library", "standard"));
  if (!library.ok()) {
    std::fprintf(stderr, "error: %s\n", library.diag().render().c_str());
    return kExitIo;
  }
  // The Annotator rejects a model whose widths do not fit the feature
  // builder and the --domain's classes.
  std::unique_ptr<gana::core::Annotator> owned_annotator;
  try {
    owned_annotator = std::make_unique<gana::core::Annotator>(
        model.get(), classes, library.take());
  } catch (const gana::DiagError& e) {
    std::fprintf(stderr, "error: %s\n", e.diag().render().c_str());
    return kExitIo;
  }
  gana::core::Annotator& annotator = *owned_annotator;
  // After any --train / --load-model: the inference cache captures the
  // weights fingerprint at this point.
  annotator.attach_caches(cache_capacity);
  gana::core::BatchOptions bopt;
  bopt.policy = keep_going ? gana::core::FailurePolicy::CollectAll
                           : gana::core::FailurePolicy::FailFast;
  bopt.timeout_seconds = timeout_seconds;
  gana::core::BatchOutcome batch;
  if (args.has("session")) {
    // Edit-sequence replay: each input is the next revision of one
    // design, annotated incrementally. Sequential by construction
    // (revision i+1 diffs against i), so --jobs goes inside the GCN and
    // --timeout-seconds is ignored (deadlines would force cold runs).
    gana::incremental::AnnotationSession session(&annotator);
    // One evolving design: every revision keeps the session's design
    // name so value-only edits can take the patched-prepare path (the
    // session keys its previous-revision state on the name).
    const std::string design_name =
        netlist_names.empty() ? std::string() : netlist_names[0];
    gana::set_compute_threads(jobs);
    gana::Timer wall;
    const gana::PerfSnapshot perf_before = gana::perf_snapshot();
    batch.jobs = 1;
    bool aborted = false;
    for (std::size_t i = 0; i < netlists.size(); ++i) {
      if (aborted) {
        batch.outcomes.push_back(gana::make_diag(
            gana::DiagCode::Skipped, gana::Stage::Batch,
            "task " + std::to_string(i) +
                " skipped: fail-fast after an earlier failure"));
        continue;
      }
      auto outcome = session.reannotate(netlists[i], design_name);
      if (outcome.ok()) {
        const auto& st = session.last_stats();
        std::printf(
            "revision %zu: %s, devices +%zu/-%zu/~%zu, regions %zu "
            "(%zu reused, %zu recomputed)%s%s\n",
            i, st.full_prepare ? "full prepare" : "patched prepare",
            st.devices_added, st.devices_removed, st.devices_changed,
            st.regions, st.region_reuses, st.region_recomputes,
            st.annotation_reused ? ", annotation reused" : "",
            st.fallback_cold ? ", cold fallback" : "");
      } else {
        aborted = !keep_going;
      }
      batch.outcomes.push_back(std::move(outcome));
    }
    gana::set_compute_threads(1);
    batch.timings.wall_seconds = wall.seconds();
    batch.timings.apply_perf_delta(gana::perf_snapshot() - perf_before);
    for (const auto& o : batch.outcomes) {
      if (!o.ok()) continue;
      batch.timings.prepare_seconds += o.value().cpu_seconds_prepare;
      batch.timings.gcn_seconds += o.value().cpu_seconds_gcn;
      batch.timings.post_seconds += o.value().cpu_seconds_post;
      batch.timings.prepare_wall_seconds += o.value().seconds_prepare;
      batch.timings.gcn_wall_seconds += o.value().seconds_gcn;
      batch.timings.post_wall_seconds += o.value().seconds_post;
    }
  } else if (netlists.size() <= 1) {
    // One circuit: parallelism goes inside the pipeline (row-parallel
    // sparse products in the Chebyshev convolutions).
    gana::set_compute_threads(jobs);
    batch = gana::core::BatchRunner(annotator, bopt)
                .run_isolated(netlists, netlist_names);
    gana::set_compute_threads(1);
  } else {
    bopt.jobs = jobs;
    batch = gana::core::BatchRunner(annotator, bopt)
                .run_isolated(netlists, netlist_names);
  }
  batch.timings += parse_perf;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::size_t slot = netlist_file[i];
    if (slot == SIZE_MAX) continue;  // parse failure already recorded
    const auto& outcome = batch.outcomes[slot];
    if (outcome.ok()) {
      print_result(outcome.value());
    } else {
      status[i].exit_code =
          outcome.diag().code == gana::DiagCode::DeadlineExceeded
              ? kExitTimeout
              : kExitAnnotate;
      status[i].diag = outcome.diag();
      if (!keep_going) {
        std::fprintf(stderr, "error: %s\n", outcome.diag().render().c_str());
        return status[i].exit_code;
      }
    }
  }

  // --- Per-file summary and exit code (first failure in input order).
  std::size_t failed = 0;
  int exit_code = kExitOk;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (status[i].diag.has_value()) {
      ++failed;
      if (exit_code == kExitOk) exit_code = status[i].exit_code;
      const bool timed_out = status[i].exit_code == kExitTimeout;
      std::printf("%s %s: %s\n", timed_out ? "[TIMEOUT]" : "[FAIL]",
                  paths[i].c_str(), status[i].diag->render().c_str());
    } else {
      std::printf("[ OK ] %s\n", paths[i].c_str());
    }
  }
  std::printf("annotated %zu/%zu circuit%s on %zu worker%s in %.1f ms "
              "(CPU: prepare %.1f, gcn %.1f, post %.1f ms)\n",
              batch.ok_count(), paths.size(), paths.size() == 1 ? "" : "s",
              batch.jobs, batch.jobs == 1 ? "" : "s",
              batch.timings.wall_seconds * 1e3,
              batch.timings.prepare_seconds * 1e3,
              batch.timings.gcn_seconds * 1e3,
              batch.timings.post_seconds * 1e3);
  if (args.has("perf-json")) {
    std::ofstream f(args.get("perf-json"));
    f << gana::core::batch_timings_to_json(batch.timings, batch.jobs,
                                           batch.ok_count(), netlists.size())
      << "\n";
    std::printf("perf JSON written to %s\n", args.get("perf-json").c_str());
  }

  // --- Exports (first successfully annotated file only).
  const gana::core::AnnotateResult* result = nullptr;
  for (const auto& o : batch.outcomes) {
    if (o.ok()) {
      result = &o.value();
      break;
    }
  }
  if (result != nullptr) {
    if (paths.size() > 1 &&
        (args.has("svg") || args.has("json") || args.has("dot"))) {
      std::printf(
          "note: --svg/--json/--dot export the first annotated file only\n");
    }
    if (args.has("svg")) {
      const auto placement = gana::layout::place_hierarchy(
          result->hierarchy, result->prepared.flat);
      gana::layout::write_svg(placement, args.get("svg"));
      std::printf("layout written to %s (area %.1f um^2, HPWL %.1f um)\n",
                  args.get("svg").c_str(), placement.area(),
                  gana::layout::half_perimeter_wirelength(
                      placement, result->prepared.flat));
    }
    if (args.has("json")) {
      std::ofstream f(args.get("json"));
      f << gana::core::annotation_to_json(*result, classes);
      std::printf("annotation JSON written to %s\n", args.get("json").c_str());
    }
    if (args.has("dot")) {
      std::ofstream f(args.get("dot"));
      f << gana::core::graph_to_dot(result->prepared.graph,
                                    result->final_class, classes);
      std::printf("graphviz DOT written to %s\n", args.get("dot").c_str());
    }
  }
  return exit_code;
}
