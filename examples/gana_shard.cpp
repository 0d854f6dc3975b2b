// gana-shard: corpus-scale sharded batch annotation driver.
//
// Three entry modes share one binary:
//
//   gana_shard --datagen --dir corpus [--count N] [--seed S]
//       Generates a seeded netlist corpus plus its manifest
//       (corpus/manifest.txt). Idempotent: re-running with the same
//       parameters only fills in missing files.
//
//   gana_shard --manifest corpus/manifest.txt [--shards N] [--jobs N]
//       Annotates every manifest entry across N worker processes, each
//       pulling index ranges from the parent as it goes idle, and
//       writes merged JSONL records (one per netlist, manifest order)
//       to stdout or --out. The merged bytes are identical for every
//       --shards value; see src/shard/driver.hpp. Every process attaches
//       the three structural caches, each bounded by --cache-capacity.
//
//   gana_shard --worker --manifest M ...
//       Internal: one worker process, spawned by the driver; it reads
//       grants on stdin and streams results to stdout.
//
//   gana_shard --pack-model ckpt.txt --out model.bin
//   gana_shard --pack-library lib.txt|standard --out lib.bin
//       Converts a text checkpoint / primitive-library file into the
//       binary artifact format workers map zero-copy at startup.
//
// Exit codes follow annotate_netlist (0 ok, 1 usage, 2 io, 3 parse,
// 4 annotate, 5 timeout) plus 6 when a worker process crashed or exited
// nonzero; a worker killed at --shard-timeout-seconds (a wall-clock
// budget per worker process, counted from its spawn) yields 5. A
// malformed or out-of-range value (--shards 0, --count -5, an
// --ota-fraction or --rf-fraction outside [0, 1], or the two summing
// past 1) is a usage error.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "datagen/corpus.hpp"
#include "datagen/rf_gen.hpp"
#include "gcn/serialize.hpp"
#include "primitives/library_io.hpp"
#include "shard/driver.hpp"
#include "util/args.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitIo = 2;
constexpr int kExitParse = 3;
constexpr int kExitAnnotate = 4;
constexpr int kExitTimeout = 5;
constexpr int kExitWorker = 6;

void print_usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gana_shard --datagen --dir DIR [--count N] [--seed S]\n"
      "             [--per-dir N] [--ota-fraction F] [--rf-fraction F]\n"
      "  gana_shard --manifest FILE [--out FILE] [--shards N] [--jobs N]\n"
      "             [--domain ota|rf] [--keep-going]\n"
      "             [--shard-timeout-seconds S] [--timeout-seconds S]\n"
      "             [--cache-capacity N]\n"
      "             [--load-model FILE] [--load-library FILE|standard]\n"
      "             [--perf-json FILE] [--worker-exe FILE] [--quiet]\n"
      "  gana_shard --pack-model FILE --out FILE\n"
      "  gana_shard --pack-library FILE|standard --out FILE\n");
}

/// Exit code of the lowest-manifest-index failure.
int failure_exit_code(const gana::Diag& d) {
  switch (d.code) {
    case gana::DiagCode::DeadlineExceeded:
      return kExitTimeout;
    case gana::DiagCode::WorkerFailed:
      return kExitWorker;
    case gana::DiagCode::Skipped:
      // Fail-fast cancellation: the triggering failure decided the run,
      // but when the lowest-index record is the cancellation itself,
      // report the run as worker-level.
      return kExitWorker;
    case gana::DiagCode::IoError:
      return kExitIo;
    default:
      break;
  }
  if (d.stage == gana::Stage::Io) return kExitIo;
  if (d.stage == gana::Stage::Parse || d.stage == gana::Stage::Validate) {
    return kExitParse;
  }
  return kExitAnnotate;
}

int run_datagen(const gana::Args& args) {
  args.reject_unknown({"datagen", "dir", "count", "seed", "per-dir",
                       "ota-fraction", "rf-fraction", "quiet"});
  gana::datagen::CorpusOptions opt;
  opt.dir = args.get("dir");
  if (opt.dir.empty()) {
    std::fprintf(stderr, "gana-shard: --datagen requires --dir\n");
    print_usage();
    return kExitUsage;
  }
  opt.count = args.get_count("count", 100000, 0);
  opt.seed = args.get_u64("seed", opt.seed);
  opt.files_per_subdir = args.get_count("per-dir", 1000, 1);
  opt.ota_fraction = args.get_fraction("ota-fraction", opt.ota_fraction);
  opt.rf_fraction = args.get_fraction("rf-fraction", opt.rf_fraction);
  if (opt.ota_fraction + opt.rf_fraction > 1.0) {
    throw gana::ArgError("--ota-fraction plus --rf-fraction exceeds 1");
  }

  auto stats = gana::datagen::write_corpus(opt);
  if (!stats.ok()) {
    std::fprintf(stderr, "gana-shard: %s\n", stats.diag().render().c_str());
    return kExitIo;
  }
  if (!args.has("quiet")) {
    std::fprintf(stderr,
                 "gana-shard: corpus ready: %zu written, %zu reused, "
                 "manifest %s\n",
                 stats.value().written, stats.value().reused,
                 stats.value().manifest_path.c_str());
  }
  return kExitOk;
}

int run_pack_model(const gana::Args& args) {
  args.reject_unknown({"pack-model", "out", "quiet"});
  const std::string in = args.get("pack-model");
  const std::string out = args.get("out");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "gana-shard: --pack-model requires IN and --out\n");
    print_usage();
    return kExitUsage;
  }
  auto model = gana::gcn::load_model_any(in);
  if (!model.ok()) {
    std::fprintf(stderr, "gana-shard: %s\n", model.diag().render().c_str());
    return model.diag().code == gana::DiagCode::IoError ? kExitIo : kExitParse;
  }
  auto saved = gana::gcn::save_model_artifact(model.value(), out);
  if (!saved.ok()) {
    std::fprintf(stderr, "gana-shard: %s\n", saved.diag().render().c_str());
    return kExitIo;
  }
  if (!args.has("quiet")) {
    std::fprintf(stderr, "gana-shard: packed model %s -> %s (fingerprint %llx)\n",
                 in.c_str(), out.c_str(),
                 static_cast<unsigned long long>(
                     model.value().weights_fingerprint()));
  }
  return kExitOk;
}

int run_pack_library(const gana::Args& args) {
  args.reject_unknown({"pack-library", "out", "quiet"});
  const std::string in = args.get("pack-library");
  const std::string out = args.get("out");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr,
                 "gana-shard: --pack-library requires IN and --out\n");
    print_usage();
    return kExitUsage;
  }
  auto lib = gana::primitives::load_library_any(in);
  if (!lib.ok()) {
    std::fprintf(stderr, "gana-shard: %s\n", lib.diag().render().c_str());
    return lib.diag().code == gana::DiagCode::IoError ? kExitIo : kExitParse;
  }
  auto saved = gana::primitives::save_library_artifact(lib.value(), out);
  if (!saved.ok()) {
    std::fprintf(stderr, "gana-shard: %s\n", saved.diag().render().c_str());
    return kExitIo;
  }
  if (!args.has("quiet")) {
    std::fprintf(stderr,
                 "gana-shard: packed library %s -> %s (%zu primitives, "
                 "fingerprint %llx)\n",
                 in.c_str(), out.c_str(), lib.value().size(),
                 static_cast<unsigned long long>(
                     gana::primitives::library_fingerprint(lib.value())));
  }
  return kExitOk;
}

int run_driver(const gana::Args& args) {
  args.reject_unknown(
      {"manifest", "out", "shards", "jobs", "domain", "keep-going",
       "shard-timeout-seconds", "timeout-seconds", "cache-capacity",
       "load-model", "load-library", "perf-json", "worker-exe", "quiet"});
  const std::string manifest = args.get("manifest");
  if (manifest.empty()) {
    std::fprintf(stderr, "gana-shard: --manifest is required\n");
    print_usage();
    return kExitUsage;
  }

  gana::shard::ShardOptions opt;
  opt.shards = args.get_count("shards", 1, 1);
  opt.keep_going = args.has("keep-going");
  opt.shard_timeout_seconds = args.get_seconds("shard-timeout-seconds", 0.0);
  opt.worker_exe = args.get("worker-exe");
  opt.pipeline.jobs = args.get_count("jobs", 1, 1);
  opt.pipeline.domain = args.get("domain", "ota");
  if (!gana::datagen::domain_class_names(opt.pipeline.domain).has_value()) {
    std::fprintf(stderr, "gana-shard: unknown --domain %s\n",
                 opt.pipeline.domain.c_str());
    return kExitUsage;
  }
  opt.pipeline.cache_capacity = args.get_count("cache-capacity", 0, 0);
  opt.pipeline.timeout_seconds = args.get_seconds("timeout-seconds", 0.0);
  opt.pipeline.load_model = args.get("load-model");
  opt.pipeline.load_library = args.get("load-library");

  std::ofstream out_file;
  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    out_file.open(out_path, std::ios::binary | std::ios::trunc);
    if (!out_file) {
      std::fprintf(stderr, "gana-shard: cannot open --out %s\n",
                   out_path.c_str());
      return kExitIo;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  auto run = gana::shard::run_sharded(manifest, opt, out);
  if (!run.ok()) {
    std::fprintf(stderr, "gana-shard: %s\n", run.diag().render().c_str());
    return run.diag().code == gana::DiagCode::IoError ? kExitIo
                                                      : kExitAnnotate;
  }
  out.flush();
  if (!out) {
    std::fprintf(stderr, "gana-shard: write to %s failed\n",
                 out_path.empty() ? "stdout" : out_path.c_str());
    return kExitIo;
  }
  const gana::shard::ShardRunStats& stats = run.value();

  const std::string perf_path = args.get("perf-json");
  if (!perf_path.empty()) {
    // One object per worker: grant counters from the parent plus the
    // worker's own batch-timings summary (null if it never arrived).
    std::ofstream perf(perf_path, std::ios::binary | std::ios::trunc);
    perf << "[";
    for (std::size_t s = 0; s < stats.shards.size(); ++s) {
      if (s != 0) perf << ",";
      const gana::shard::ShardStatus& st = stats.shards[s];
      perf << "{\"shard\":" << s
           << ",\"startup_seconds\":" << st.startup_seconds
           << ",\"steal_requests\":" << st.steal_requests
           << ",\"chunks_served\":" << st.chunks_served << ",\"perf\":"
           << (st.perf_json.empty() ? "null" : st.perf_json) << "}";
    }
    perf << "]\n";
    perf.close();
    if (!perf) {
      std::fprintf(stderr, "gana-shard: cannot write --perf-json %s\n",
                   perf_path.c_str());
      return kExitIo;
    }
  }

  if (!args.has("quiet")) {
    std::fprintf(stderr,
                 "gana-shard: %zu netlists, %zu ok, %zu failed, %zu shard%s, "
                 "%.3f s\n",
                 stats.total, stats.ok, stats.failed, stats.shards.size(),
                 stats.shards.size() == 1 ? "" : "s", stats.wall_seconds);
  }
  if (stats.first_failure.has_value()) {
    return failure_exit_code(*stats.first_failure);
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const gana::Args args(argc, argv);
  if (args.has("help")) {
    print_usage();
    return kExitOk;
  }
  if (args.has("worker")) return gana::shard::worker_main(args);
  try {
    if (args.has("datagen")) return run_datagen(args);
    if (args.has("pack-model")) return run_pack_model(args);
    if (args.has("pack-library")) return run_pack_library(args);
    return run_driver(args);
  } catch (const gana::ArgError& e) {
    std::fprintf(stderr, "gana-shard: %s\n", e.what());
    print_usage();
    return kExitUsage;
  }
}
