// corpus: thousands of small distinct circuits through the sharded
// batch driver (the gana_shard surface). Each pass forks fresh workers,
// so fan-out and worker start-up are paid every time.
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "core/export.hpp"
#include "e2e.hpp"
#include "gcn/inference_cache.hpp"
#include "gcn/sample_cache.hpp"
#include "primitives/annotation_cache.hpp"
#include "shard/driver.hpp"
#include "shard/manifest.hpp"
#include "spice/parser.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace gana::e2e {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kWorkers = 4;

/// Sink for the merged output: digests every byte and timestamps every
/// record (one per line) as it becomes available to a streaming reader.
class RecordClock : public std::streambuf {
 public:
  explicit RecordClock(double start) : start_(start) {}

  std::vector<double> ms;  ///< per record: availability since pass start
  std::uint64_t digest = kFnvBasis;

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      const char c = traits_type::to_char_type(ch);
      consume(&c, 1);
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    consume(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  void consume(const char* s, std::size_t n) {
    digest = fnv1a(std::string_view(s, n), digest);
    const double t = (now_seconds() - start_) * 1e3;
    for (std::size_t i = 0; i < n; ++i) {
      if (s[i] == '\n') ms.push_back(t);
    }
  }

  double start_;
};

double children_cpu_seconds() {
  rusage u{};
  ::getrusage(RUSAGE_CHILDREN, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

struct Pass {
  double seconds = 0.0;
  double worker_cpu = 0.0;
  std::vector<double> record_ms;
  std::uint64_t digest = 0;
  shard::ShardRunStats stats;
};

Pass run_pass(const std::string& manifest, const shard::ShardOptions& options) {
  Pass p;
  const double cpu = children_cpu_seconds();
  const double start = now_seconds();
  RecordClock clock(start);
  std::ostream out(&clock);
  auto stats = shard::run_sharded(manifest, options, out);
  p.seconds = now_seconds() - start;
  p.worker_cpu = children_cpu_seconds() - cpu;
  if (!stats.ok()) throw std::runtime_error(stats.diag().render());
  p.stats = stats.take();
  p.record_ms = std::move(clock.ms);
  p.digest = clock.digest;
  return p;
}

/// Cache counters of a worker's perf summary (batch_timings_to_json).
constexpr std::pair<const char*, std::uint64_t PerfSnapshot::*>
    kCacheFields[] = {
    {"sample_cache_hits", &PerfSnapshot::sample_cache_hits},
    {"sample_cache_misses", &PerfSnapshot::sample_cache_misses},
    {"inference_cache_hits", &PerfSnapshot::inference_cache_hits},
    {"inference_cache_misses", &PerfSnapshot::inference_cache_misses},
    {"annotation_cache_hits", &PerfSnapshot::annotation_cache_hits},
    {"annotation_cache_misses", &PerfSnapshot::annotation_cache_misses},
    {"cache_evictions", &PerfSnapshot::cache_evictions},
};

}  // namespace

void run_corpus(const RunOptions& o, Record& record) {
  const ArtifactPaths art = artifact_paths(o.models_dir);
  const std::size_t count = o.size(4000, 200);

  // Inputs: the seed picks `count` distinct circuits of the corpus.
  Rng rng(o.seed);
  std::set<std::size_t> used;
  const std::vector<std::size_t> indices = draw_indices(rng, count, used);
  const std::string dir = o.work_dir + "/corpus";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> entries;
  std::vector<TextInput> traced_inputs;
  const std::size_t traced_count = o.size(1000, 50);
  for (const std::size_t index : indices) {
    TextInput in{"c" + std::to_string(index) + ".sp",
                 datagen::corpus_netlist_text(corpus_options(), index)};
    std::ofstream(dir + "/" + in.name, std::ios::binary) << in.text;
    entries.push_back(in.name);
    if (o.traced() && traced_inputs.size() < traced_count) {
      traced_inputs.push_back(std::move(in));
    }
  }
  const std::string manifest = dir + "/manifest.txt";
  std::ofstream(manifest) << shard::write_manifest(
      entries, {"bench_e2e corpus seed=" + std::to_string(o.seed)});

  // Set-up: what one worker pays before its first record.
  const auto setup = [&] {
    const double start = now_seconds();
    Loaded l = load_artifacts(art.ota_model, art.library);
    core::Annotator annotator(l.model.get(), ota_classes(),
                              std::move(l.library));
    annotator.set_sample_cache(std::make_shared<gcn::SamplePrepCache>());
    annotator.set_annotation_cache(
        std::make_shared<primitives::AnnotationCache>());
    annotator.set_inference_cache(std::make_shared<gcn::InferenceCache>());
    auto parsed = spice::parse_netlist_file_result(dir + "/" + entries.front());
    if (!parsed.ok()) throw std::runtime_error(parsed.diag().render());
    auto r = annotator.try_annotate(parsed.value(), entries.front());
    if (!r.ok() || core::annotation_to_json(r.value(), ota_classes()).empty()) {
      throw std::runtime_error("corpus set-up annotation failed");
    }
    return now_seconds() - start;
  };
  setup_metric(record, o, setup);

  shard::ShardOptions options;
  options.shards = kWorkers;
  options.pipeline.domain = "ota";
  options.pipeline.load_model = art.ota_model;
  options.pipeline.load_library = art.library;

  // Warm-up pass (page cache, first exec of the worker binary).
  const Pass warm = run_pass(manifest, options);

  std::vector<Pass> passes;
  const double window_start = now_seconds();
  while (passes.size() < 3 || now_seconds() - window_start < o.seconds) {
    passes.push_back(run_pass(manifest, options));
  }
  record.metric("peak_rss_mb", peak_rss_mb(), "MB");

  std::vector<double> throughput;
  std::vector<double> latency;
  std::vector<double> startup;
  std::vector<double> busy;
  double steal = 0.0;
  double chunks = 0.0;
  PerfSnapshot caches;  // summed over every worker of every timed pass
  std::size_t digest_mismatches = 0;
  for (const Pass& p : passes) {
    throughput.push_back(static_cast<double>(count) / p.seconds);
    latency.insert(latency.end(), p.record_ms.begin(), p.record_ms.end());
    record.add_attempts(count, p.stats.failed);
    if (p.digest != warm.digest) ++digest_mismatches;
    double startup_sum = 0.0;
    for (const shard::ShardStatus& s : p.stats.shards) {
      startup_sum += s.startup_seconds;
      steal += static_cast<double>(s.steal_requests);
      chunks += static_cast<double>(s.chunks_served);
      const auto perf = json::parse(s.perf_json);
      for (const auto& [key, field] : kCacheFields) {
        const json::Value* v = perf.has_value() ? perf->get(key) : nullptr;
        if (v != nullptr) {
          caches.*field += static_cast<std::uint64_t>(v->as_double());
        }
      }
    }
    startup.push_back(startup_sum);
    busy.push_back(p.worker_cpu / (static_cast<double>(kWorkers) * p.seconds));
  }
  record.metric("throughput_per_s", quantile(throughput, 0.5), "1/s");
  latency_metrics(record, latency);
  record.note("passes", json::Value(static_cast<std::uint64_t>(passes.size())));
  record.note("circuits_per_pass",
              json::Value(static_cast<std::uint64_t>(count)));

  const double n = static_cast<double>(passes.size());
  cache_layers(record, caches);
  record.layer("shard.startup_s", quantile(startup, 0.5));
  record.layer("shard.steal_requests", steal / n);
  record.layer("shard.chunks_served", chunks / n);
  record.layer("shard.worker_busy_ratio", quantile(busy, 0.5));

  // Reference: the in-process shards = 1 path over the same manifest.
  shard::ShardOptions reference = options;
  reference.shards = 1;
  reference.pipeline.jobs = kWorkers;
  const Pass ref = run_pass(manifest, reference);
  record.note("output_digest", json::Value(hex64(ref.digest)));
  record.check("corpus.sharded_equals_reference",
               digest_mismatches == 0 && warm.digest == ref.digest,
               std::to_string(passes.size() + 1 - digest_mismatches) + " of " +
                   std::to_string(passes.size() + 1) +
                   " passes match the shards=1 digest " + hex64(ref.digest));

  if (o.traced()) {
    const Loaded l = load_artifacts(art.ota_model, art.library);
    traced_pass(*l.model, ota_classes(), load_library(art.library),
                traced_inputs, o, record);
  }
  fs::remove_all(dir);
}

}  // namespace gana::e2e
