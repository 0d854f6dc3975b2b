// Shared declarations of the end-to-end benchmark (bench/e2e).
//
// Every number the benchmark reports is taken from outside the library:
// it times its own calls into public functions and reads the counters
// the library already exposes (perf_snapshot deltas, ShardStatus,
// ServerStats, SessionStats). See README.md for the workloads, metrics
// and bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "gcn/model.hpp"
#include "primitives/library.hpp"
#include "util/json.hpp"
#include "util/perf.hpp"

namespace gana::e2e {

/// Monotonic clock, seconds.
[[nodiscard]] double now_seconds();

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// FNV-1a 64 over bytes, continuing from `h` (digests of outputs).
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = kFnvBasis);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Parses a JSON file; throws std::runtime_error when it cannot.
[[nodiscard]] json::Value read_json_file(const std::string& path);

/// Paths of the artifacts `bench_e2e train` writes into a directory.
struct ArtifactPaths {
  std::string ota_model;
  std::string rf_model;
  std::string library;
};
[[nodiscard]] ArtifactPaths artifact_paths(const std::string& dir);

/// A model and the primitive library loaded fresh from their artifacts:
/// the load every set-up pays. Throws std::runtime_error on a bad file.
struct Loaded {
  std::unique_ptr<gcn::GcnModel> model;
  primitives::PrimitiveLibrary library;
};
[[nodiscard]] Loaded load_artifacts(const std::string& model_path,
                                    const std::string& library_path);
/// The library alone (it is move-only: each Annotator loads its own).
[[nodiscard]] primitives::PrimitiveLibrary load_library(
    const std::string& library_path);

/// Class vocabulary of each model.
[[nodiscard]] std::vector<std::string> ota_classes();
[[nodiscard]] std::vector<std::string> rf_classes();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;       ///< length of the timed window
  std::string models_dir;      ///< output of `bench_e2e train`
  std::string out_path;        ///< the run record (W.json)
  std::string trace_path;      ///< trace-event file; "" = untraced run
  std::string work_dir;        ///< scratch: corpus files, server socket
  std::string git_rev = "unknown";
  bool quick = false;          ///< smoke-test sizes (run.sh --quick)

  [[nodiscard]] bool traced() const { return !trace_path.empty(); }
  /// `full` in a normal run, `small` under --quick.
  [[nodiscard]] std::size_t size(std::size_t full, std::size_t small) const {
    return quick ? small : full;
  }
};

/// Everything one run reports. End-to-end metrics are what a user of
/// the workload sees; per-layer metrics come from a fixed table (every
/// workload reports every entry, 0 where its layer is not exercised).
class Record {
 public:
  Record();

  void metric(const std::string& name, double value, const std::string& unit);
  /// Sets a per-layer metric; the name must be in the layer table.
  void layer(const std::string& name, double value);
  /// An output check. A failed check makes the run invalid.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Free-form context written to the record (sample counts, digests).
  void note(const std::string& key, json::Value value);
  void add_attempts(std::size_t attempted, std::size_t failed);

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  /// Names of the metrics result_line(traced) prints.
  [[nodiscard]] std::vector<std::string> metric_names(bool traced) const;

  /// The run record written to RunOptions::out_path.
  [[nodiscard]] json::Value to_json(const RunOptions& options,
                                    std::size_t cores_used) const;
  /// The one-line result printed last on stdout: end-to-end metrics for
  /// an untraced run, per-layer metrics for a traced one.
  [[nodiscard]] std::string result_line(bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  json::Value checks_{std::vector<json::Member>{}};
  json::Value notes_{std::vector<json::Member>{}};
  bool valid_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Metric name of a pattern's VF2 self time ("primitives.vf2.<name>_ms";
/// patterns outside the standard library share "primitives.vf2.other_ms").
[[nodiscard]] std::string vf2_metric(const std::string& pattern);

/// Peak resident set of this process and its waited-for children, MB.
[[nodiscard]] double peak_rss_mb();

/// CPUs this process may run on (the affinity mask, as nproc reports).
[[nodiscard]] std::size_t nproc();

/// setup_s: the median of fresh set-ups timed back to back before the
/// window. At least 11 are timed, and cheap ones are repeated for a
/// second (up to 101) so their median is stable. `setup` returns the
/// seconds one set-up took.
void setup_metric(Record& record, const RunOptions& options,
                  const auto& setup) {
  std::vector<double> samples;
  const double start = now_seconds();
  while (samples.size() < options.size(11, 3) ||
         (!options.quick && samples.size() < 101 &&
          now_seconds() - start < 1.0)) {
    samples.push_back(setup());
  }
  record.metric("setup_s", quantile(samples, 0.5), "s");
  record.note("setup_samples",
              json::Value(static_cast<std::uint64_t>(samples.size())));
}

/// latency_p50_ms and latency_p99_ms of a sample (a failed operation is
/// +infinity: it misses any latency limit), with the sample count noted.
void latency_metrics(Record& record, const std::vector<double>& ms);

/// Runs `check(i)` for every i in [0, n) on `threads` threads and
/// returns how many returned false or threw (output checks run after
/// the window, so they may use every core the workload was granted).
[[nodiscard]] std::size_t count_failures(
    std::size_t n, std::size_t threads,
    const std::function<bool(std::size_t)>& check);

/// cache.* hit ratios and evictions from a counter delta over the window.
void cache_layers(Record& record, const PerfSnapshot& window);

// Workloads: each fills `record`.
void run_corpus(const RunOptions& options, Record& record);
void run_phased_array(const RunOptions& options, Record& record);
void run_serve_mixed(const RunOptions& options, Record& record);
void run_sizing_session(const RunOptions& options, Record& record);

/// `bench_e2e compare A B`: prints, per workload and end-to-end metric,
/// each set's median and quartiles and a verdict under the bounds of
/// `bench_json`. Returns the exit code: 1 when any metric got worse.
int compare_main(const std::string& a_dir, const std::string& b_dir,
                 const std::string& bench_json);

}  // namespace gana::e2e
