// bench_e2e: the repository's end-to-end benchmark (see README.md).
//
//   bench_e2e train --out DIR [--quick]
//       Trains the fixed OTA and RF models and writes them, with the
//       standard primitive library, as mmap artifacts into DIR.
//   bench_e2e run --workload W --seed S --seconds T --models DIR
//                 --out W.json [--trace W.trace.json] [--work-dir DIR]
//                 [--bench-json BENCHMARK.json] [--git-rev REV] [--quick]
//       Runs one workload and prints its result as the last stdout line.
//   bench_e2e compare A B [--bench-json BENCHMARK.json]
//       Compares two directories of run records.
//   bench_e2e --worker ...
//       A shard worker process (the corpus workload forks these).
//
// Exit codes: 0 ok, 1 usage or failed check, 2 workload needs more
// threads than this machine has (no record is written).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "datagen/dataset.hpp"
#include "e2e.hpp"
#include "gcn/serialize.hpp"
#include "gcn/trainer.hpp"
#include "primitives/library_io.hpp"
#include "shard/driver.hpp"
#include "util/args.hpp"

namespace {

using namespace gana;
using namespace gana::e2e;

void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  bench_e2e train --out DIR [--quick]\n"
               "  bench_e2e run --workload corpus|phased_array|serve_mixed|"
               "sizing_session\n"
               "                --seed S --seconds T --models DIR --out FILE\n"
               "                [--trace FILE] [--work-dir DIR] "
               "[--bench-json FILE]\n"
               "                [--git-rev REV] [--quick]\n"
               "  bench_e2e compare A_DIR B_DIR [--bench-json FILE]\n");
}

/// The fixed training recipe; --seed never reaches it.
std::unique_ptr<gcn::GcnModel> train_model(
    const std::vector<datagen::LabeledCircuit>& circuits,
    std::size_t num_classes, int epochs, json::Value& info) {
  gcn::ModelConfig cfg;
  cfg.in_features = core::kNumFeatures;
  cfg.num_classes = num_classes;
  cfg.conv_channels = {32, 64};
  cfg.cheb_k = 8;
  cfg.fc_hidden = 512;
  cfg.use_pooling = false;
  cfg.seed = 7;
  auto samples = core::make_gcn_samples(circuits, 0, 7);
  auto [train_set, val_set] = gcn::split_dataset(std::move(samples), 0.8, 8);
  auto model = std::make_unique<gcn::GcnModel>(cfg);
  gcn::TrainConfig tc;
  tc.epochs = epochs;
  const gcn::TrainResult r = gcn::train(*model, train_set, val_set, tc);
  info.set("circuits",
           json::Value(static_cast<std::uint64_t>(circuits.size())));
  info.set("epochs", json::Value(epochs));
  info.set("best_val_acc", json::Value(r.best_val_acc));
  info.set("train_seconds", json::Value(r.train_seconds));
  info.set("weights_fingerprint",
           json::Value(hex64(model->weights_fingerprint())));
  return model;
}

int train_main(const Args& args) {
  namespace fs = std::filesystem;
  const std::string out = args.get("out");
  if (out.empty()) {
    usage();
    return 1;
  }
  const bool quick = args.has("quick");
  const std::string tmp = out + ".tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  const ArtifactPaths paths = artifact_paths(tmp);
  datagen::DatasetOptions data;
  data.circuits = quick ? 30 : 150;
  data.seed = 7;
  const int epochs = quick ? 3 : 25;
  json::Value recipe{std::vector<json::Member>{}};
  const struct {
    const char* name;
    std::vector<datagen::LabeledCircuit> circuits;
    std::size_t classes;
    std::string path;
  } domains[] = {
      {"ota", datagen::make_ota_dataset(data), ota_classes().size(),
       paths.ota_model},
      {"rf", datagen::make_rf_dataset(data), rf_classes().size(),
       paths.rf_model},
  };
  for (const auto& d : domains) {
    json::Value info{std::vector<json::Member>{}};
    const auto model = train_model(d.circuits, d.classes, epochs, info);
    std::fprintf(stderr, "bench_e2e train: %s model %s\n", d.name,
                 json::dump(info).c_str());
    if (auto saved = gcn::save_model_artifact(*model, d.path); !saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.diag().render().c_str());
      return 1;
    }
    recipe.set(d.name, std::move(info));
  }
  if (auto saved = primitives::save_library_artifact(
          primitives::PrimitiveLibrary::standard(), paths.library);
      !saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.diag().render().c_str());
    return 1;
  }
  std::ofstream(tmp + "/recipe.json") << json::dump(recipe) << "\n";
  fs::remove_all(out);
  fs::rename(tmp, out);
  return 0;
}

/// Threads or connections a workload drives at once (including the
/// checks after its window); more than nproc would measure contention.
std::size_t cores_needed(const std::string& workload) {
  if (workload == "corpus" || workload == "serve_mixed") return 4;
  return 3;
}

/// The metric names BENCHMARK.json lists for this kind of run.
std::set<std::string> declared_metrics(const std::string& path, bool traced) {
  const json::Value doc = read_json_file(path);
  std::set<std::string> names;
  const json::Value* list = doc.get(traced ? "per_layer" : "end_to_end");
  if (list != nullptr) {
    for (const json::Value& m : list->as_array()) {
      if (const json::Value* n = m.get("name")) names.insert(n->as_string());
    }
  }
  return names;
}

int run_main(const Args& args) {
  RunOptions o;
  o.workload = args.get("workload");
  o.seed = std::strtoull(args.get("seed", "1").c_str(), nullptr, 10);
  o.seconds = args.get_double("seconds", 20.0);
  o.models_dir = args.get("models");
  o.out_path = args.get("out");
  o.trace_path = args.get("trace");
  o.work_dir = args.get("work-dir", ".");
  o.git_rev = args.get("git-rev", "unknown");
  o.quick = args.has("quick");
  const std::string bench_json = args.get("bench-json");
  using Workload = void (*)(const RunOptions&, Record&);
  Workload workload = nullptr;
  if (o.workload == "corpus") workload = run_corpus;
  if (o.workload == "phased_array") workload = run_phased_array;
  if (o.workload == "serve_mixed") workload = run_serve_mixed;
  if (o.workload == "sizing_session") workload = run_sizing_session;
  if (workload == nullptr || o.models_dir.empty() || o.out_path.empty() ||
      !(o.seconds > 0.0)) {
    usage();
    return 1;
  }
  const std::size_t cores = cores_needed(o.workload);
  if (nproc() < cores) {
    std::fprintf(stderr,
                 "bench_e2e: %s needs %zu cores, this machine has %zu; "
                 "refusing to measure it oversubscribed\n",
                 o.workload.c_str(), cores, nproc());
    return 2;
  }

  Record record;
  try {
    workload(o, record);
  } catch (const std::exception& e) {
    record.check("run.completed", false, e.what());
  }
  if (!bench_json.empty()) {
    try {
      const auto declared = declared_metrics(bench_json, o.traced());
      const auto names = record.metric_names(o.traced());
      const std::set<std::string> emitted(names.begin(), names.end());
      record.check("metrics.match_benchmark_json", emitted == declared,
                   std::to_string(emitted.size()) + " emitted, " +
                       std::to_string(declared.size()) + " declared in " +
                       bench_json);
    } catch (const std::exception& e) {
      record.check("metrics.match_benchmark_json", false, e.what());
    }
  }
  if (record.attempted() == 0) {
    record.check("run.attempted", false, "no work done");
  }

  std::ofstream out(o.out_path, std::ios::binary);
  out << json::dump(record.to_json(o, cores)) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", o.out_path.c_str());
    return 1;
  }
  std::cout << record.result_line(o.traced()) << std::endl;
  return record.valid() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, {"quick"});
  if (args.has("worker")) return shard::worker_main(args);
  const auto& pos = args.positional();
  if (pos.empty()) {
    usage();
    return 1;
  }
  try {
    if (pos[0] == "train") return train_main(args);
    if (pos[0] == "run") return run_main(args);
    if (pos[0] == "compare" && pos.size() == 3) {
      return compare_main(pos[1], pos[2],
                          args.get("bench-json", "BENCHMARK.json"));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  usage();
  return 1;
}
