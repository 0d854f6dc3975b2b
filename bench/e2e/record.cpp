#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "datagen/rf_gen.hpp"
#include "e2e.hpp"
#include "gcn/serialize.hpp"
#include "linalg/kernels.hpp"
#include "primitives/library_io.hpp"
#include "trace.hpp"

namespace gana::e2e {

namespace {

/// Patterns of PrimitiveLibrary::standard(), each with its own VF2 row.
constexpr const char* kPatterns[] = {
    "buf",  "ccm_n", "ccm_p", "cm_n3", "cm_p3", "tg",    "inv",     "cp_n",
    "cp_p", "dp_n",  "dp_p",  "cm_n2", "cm_p2", "cc_rc", "lc_tank", "vr_rd",
    "sf_n", "sf_p",  "cg_n",  "cg_p",  "cr_n",  "cr_p",  "cs_n",    "cs_p",
};

/// The per-layer metric table: (name, unit). One entry per standard
/// library pattern follows the stage spans.
const std::vector<std::pair<std::string, std::string>>& layer_table() {
  static const std::vector<std::pair<std::string, std::string>> table = [] {
    std::vector<std::pair<std::string, std::string>> t;
    for (const char* stage : kStageSpans) {
      t.emplace_back(std::string(stage) + "_ms", "ms");
    }
    t.emplace_back("primitives.vf2_ms", "ms");
    for (const char* p : kPatterns) {
      t.emplace_back(std::string("primitives.vf2.") + p + "_ms", "ms");
    }
    t.emplace_back("primitives.vf2.other_ms", "ms");
    for (const auto& [name, unit] :
         std::vector<std::pair<const char*, const char*>>{
             {"primitives.vf2_states", "count"},
             {"primitives.sig_rejections", "count"},
             {"primitives.pattern_skips", "count"},
             {"linalg.matmul_flops", "count"},
             {"linalg.spmm_flops", "count"},
             {"linalg.gflops", "GFLOP/s"},
             {"linalg.matrix_allocs", "count"},
             {"cache.sample_hit_ratio", "ratio"},
             {"cache.inference_hit_ratio", "ratio"},
             {"cache.annotation_hit_ratio", "ratio"},
             {"cache.evictions", "count"},
             {"shard.startup_s", "s"},
             {"shard.steal_requests", "count"},
             {"shard.chunks_served", "count"},
             {"shard.worker_busy_ratio", "ratio"},
             {"serve.generator_lag_ms", "ms"},
             {"serve.max_rate_rps", "1/s"},
             {"serve.overloaded", "count"},
             {"serve.deadline_expired", "count"},
             {"serve.protocol_errors", "count"},
             {"serve.dropped_connections", "count"},
             {"incremental.value_edit_p50_ms", "ms"},
             {"incremental.bucket_edit_p50_ms", "ms"},
             {"incremental.structural_edit_p50_ms", "ms"},
             {"incremental.result_reused_ratio", "ratio"},
             {"incremental.region_reuse_ratio", "ratio"},
             {"incremental.patch_ratio", "ratio"},
             {"incremental.fallback_cold", "count"},
             {"trace.coverage", "ratio"},
             {"trace.overhead_ratio", "ratio"},
         }) {
      t.emplace_back(name, unit);
    }
    return t;
  }();
  return table;
}

json::Value metric_json(double value, const std::string& unit) {
  json::Value v{std::vector<json::Member>{}};
  v.set("value", json::Value(value));
  v.set("unit", json::Value(unit));
  return v;
}

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (values[hi] == values[lo]) return values[lo];  // also inf == inf
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

json::Value read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  std::string error = "cannot open";
  auto doc = in ? json::parse(text.str(), &error) : std::nullopt;
  if (!doc.has_value()) {
    throw std::runtime_error("cannot read " + path + ": " + error);
  }
  return std::move(*doc);
}

ArtifactPaths artifact_paths(const std::string& dir) {
  return {dir + "/ota.model.bin", dir + "/rf.model.bin", dir + "/library.bin"};
}

Loaded load_artifacts(const std::string& model_path,
                      const std::string& library_path) {
  auto model = gcn::load_model_any(model_path);
  if (!model.ok()) throw std::runtime_error(model.diag().render());
  return {std::make_unique<gcn::GcnModel>(model.take()),
          load_library(library_path)};
}

primitives::PrimitiveLibrary load_library(const std::string& library_path) {
  auto library = primitives::load_library_any(library_path);
  if (!library.ok()) throw std::runtime_error(library.diag().render());
  return library.take();
}

std::vector<std::string> ota_classes() { return {"ota", "bias"}; }
std::vector<std::string> rf_classes() { return datagen::rf_class_names(); }

std::string vf2_metric(const std::string& pattern) {
  for (const char* p : kPatterns) {
    if (pattern == p) return "primitives.vf2." + pattern + "_ms";
  }
  return "primitives.vf2.other_ms";
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void latency_metrics(Record& record, const std::vector<double>& ms) {
  // JSON has no infinity: a percentile that lands on a failure reads 1e9.
  record.metric("latency_p50_ms", std::min(quantile(ms, 0.5), 1e9), "ms");
  record.metric("latency_p99_ms", std::min(quantile(ms, 0.99), 1e9), "ms");
  record.note("latency_samples",
              json::Value(static_cast<std::uint64_t>(ms.size())));
}

std::size_t count_failures(std::size_t n, std::size_t threads,
                           const std::function<bool(std::size_t)>& check) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        bool ok = false;
        try {
          ok = check(i);
        } catch (const std::exception&) {
          ok = false;
        }
        if (!ok) ++failures;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return failures;
}

void cache_layers(Record& record, const PerfSnapshot& window) {
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
  };
  record.layer("cache.sample_hit_ratio",
               ratio(window.sample_cache_hits, window.sample_cache_misses));
  record.layer("cache.inference_hit_ratio",
               ratio(window.inference_cache_hits,
                     window.inference_cache_misses));
  record.layer("cache.annotation_hit_ratio",
               ratio(window.annotation_cache_hits,
                     window.annotation_cache_misses));
  record.layer("cache.evictions", static_cast<double>(window.cache_evictions));
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

Record::Record() {
  for (const auto& [name, unit] : layer_table()) {
    layers_.push_back(Metric{name, 0.0, unit});
  }
}

void Record::metric(const std::string& name, double value,
                    const std::string& unit) {
  end_to_end_.push_back(Metric{name, value, unit});
}

void Record::layer(const std::string& name, double value) {
  for (Metric& m : layers_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("per-layer metric not in the table: " + name);
}

void Record::check(const std::string& name, bool ok,
                   const std::string& detail) {
  json::Value v{std::vector<json::Member>{}};
  v.set("ok", json::Value(ok));
  v.set("detail", json::Value(detail));
  checks_.set(name, std::move(v));
  if (!ok) {
    valid_ = false;
    std::fprintf(stderr, "bench_e2e: check %s FAILED: %s\n", name.c_str(),
                 detail.c_str());
  }
}

void Record::note(const std::string& key, json::Value value) {
  notes_.set(key, std::move(value));
}

void Record::add_attempts(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

json::Value Record::to_json(const RunOptions& options,
                            std::size_t cores_used) const {
  json::Value v{std::vector<json::Member>{}};
  v.set("workload", json::Value(options.workload));
  v.set("seed", json::Value(options.seed));
  v.set("traced", json::Value(options.traced()));
  v.set("valid", json::Value(valid_));
  v.set("attempted", json::Value(static_cast<std::uint64_t>(attempted_)));
  v.set("failed", json::Value(static_cast<std::uint64_t>(failed_)));
  v.set("failed_ratio",
        json::Value(attempted_ == 0 ? 0.0
                                    : static_cast<double>(failed_) /
                                          static_cast<double>(attempted_)));
  json::Value metrics{std::vector<json::Member>{}};
  for (const Metric& m : end_to_end_) {
    metrics.set(m.name, metric_json(m.value, m.unit));
  }
  v.set("metrics", std::move(metrics));
  if (options.traced()) {
    json::Value layers{std::vector<json::Member>{}};
    for (const Metric& m : layers_) {
      layers.set(m.name, metric_json(m.value, m.unit));
    }
    v.set("layers", std::move(layers));
  }
  v.set("checks", checks_);
  v.set("notes", notes_);
  json::Value env{std::vector<json::Member>{}};
  env.set("nproc", json::Value(static_cast<std::uint64_t>(nproc())));
  env.set("cores_used", json::Value(static_cast<std::uint64_t>(cores_used)));
  env.set("simd_isa", json::Value(simd_isa_name()));
  env.set("build_type", json::Value(GANA_E2E_BUILD_TYPE));
  env.set("git_rev", json::Value(options.git_rev));
  env.set("seed", json::Value(options.seed));
  env.set("seconds", json::Value(options.seconds));
  env.set("quick", json::Value(options.quick));
  v.set("environment", std::move(env));
  return v;
}

std::vector<std::string> Record::metric_names(bool traced) const {
  std::vector<std::string> names;
  for (const Metric& m : traced ? layers_ : end_to_end_) {
    names.push_back(m.name);
  }
  return names;
}

std::string Record::result_line(bool traced) const {
  json::Value metrics{std::vector<json::Member>{}};
  for (const Metric& m : traced ? layers_ : end_to_end_) {
    metrics.set(m.name, metric_json(m.value, m.unit));
  }
  json::Value v{std::vector<json::Member>{}};
  v.set("correct", json::Value(valid_));
  v.set("attempted", json::Value(static_cast<std::uint64_t>(attempted_)));
  v.set("failed", json::Value(static_cast<std::uint64_t>(failed_)));
  v.set("metrics", std::move(metrics));
  return json::dump(v);
}

}  // namespace gana::e2e
