// Parallel batched annotation runtime.
//
// Fans a batch of netlists out across a work-stealing thread pool; each
// worker runs the full pipeline (flatten -> preprocess -> graph ->
// features -> GCN inference -> VF2 primitives -> postprocessing ->
// hierarchy) independently against a shared read-only Annotator (model
// weights + primitive library).
//
// Determinism guarantee: results are bit-identical to the sequential
// path regardless of thread count --
//   * every circuit is a self-contained task writing only results[i];
//   * each task's sample Rng stream is derived from (kDefaultSampleSeed,
//     structural hash of the circuit graph) inside the Annotator --
//     never from scheduling order, and not from the slot index either,
//     so structurally identical circuits share one stream and the
//     sample-prep cache can serve them bit-identically;
//   * shared state (model, library, prep cache) is read-only or
//     internally synchronized with order-independent semantics;
//   * the row-partitioned spmm keeps per-row accumulation order fixed.
//
// Fault isolation: `run_isolated` never throws on bad input. Each task
// yields either an AnnotateResult or a structured Diag (code, stage,
// source location); one malformed circuit cannot abort its siblings.
// Under FailurePolicy::CollectAll the outcome vector is fully
// deterministic at any thread count. FailFast stops scheduling after the
// first observed failure -- tasks that never ran come back as
// DiagCode::Skipped -- trading determinism of *which* later slots are
// skipped (scheduling-dependent when parallel) for latency.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "util/perf.hpp"

namespace gana {
class ThreadPool;
}

namespace gana::core {

/// What to do when a task in the batch fails.
enum class FailurePolicy {
  /// Stop scheduling new tasks after the first failure; unstarted tasks
  /// yield DiagCode::Skipped. `run` throws the failure.
  FailFast,
  /// Annotate every circuit regardless of sibling failures; the outcome
  /// vector is deterministic at any thread count.
  CollectAll,
};

struct BatchOptions {
  /// Worker threads; 1 runs inline on the calling thread, 0 means
  /// std::thread::hardware_concurrency().
  std::size_t jobs = 1;
  /// Failure handling for `run_isolated` (and how eagerly `run` aborts).
  FailurePolicy policy = FailurePolicy::FailFast;
  /// Per-task wall-clock budget in seconds; 0 disables. Each task gets
  /// its own util::Deadline starting when the task starts executing; a
  /// task past its budget aborts at the next pipeline checkpoint with a
  /// DiagCode::DeadlineExceeded outcome (its siblings are unaffected,
  /// and tasks that finish in budget are bit-identical to an untimed
  /// run). Wall-clock based, hence NOT deterministic near the boundary;
  /// use a budget comfortably above (or below) the expected task time.
  double timeout_seconds = 0.0;
};

/// Wall-clock and summed per-stage timings of one batch run, plus the
/// process-wide perf-counter deltas (util/perf.hpp) observed across it.
///
/// Each stage is recorded on two clocks so contention is diagnosable
/// instead of guesswork:
///   * `*_seconds` sums per-task *thread-CPU* time (ThreadCpuTimer):
///     executing time only, comparable across job counts -- at J jobs it
///     should stay within a small factor of the 1-job figure, and the
///     batch-scaling regression test pins that bound;
///   * `*_wall_seconds` sums per-task wall time: it additionally counts
///     every stall (descheduling under oversubscription, allocator or
///     lock waits), so `*_wall_seconds >> *_seconds` is the contention
///     signal.
/// Failed tasks contribute nothing to stage sums. The counter deltas
/// include any concurrent linalg activity in the process -- in the
/// usual one-batch-at-a-time setup they are exact.
struct BatchTimings : PerfSnapshot {
  double wall_seconds = 0.0;     ///< whole-batch wall clock
  double prepare_seconds = 0.0;  ///< CPU sum: flatten + preprocess + graph
  double gcn_seconds = 0.0;      ///< CPU sum: features + sample + inference
  double post_seconds = 0.0;     ///< CPU sum: CCC + VF2 + postprocess + tree
  double prepare_wall_seconds = 0.0;  ///< wall sum of the prepare stage
  double gcn_wall_seconds = 0.0;      ///< wall sum of the GCN stage
  double post_wall_seconds = 0.0;     ///< wall sum of the post stage

  /// Copies the perf-counter fields of a counter-window delta into this
  /// record (timing fields are untouched). BatchRunner uses it for every
  /// batch; session-mode drivers use it to report the same JSON schema.
  void apply_perf_delta(const PerfSnapshot& delta) {
    static_cast<PerfSnapshot&>(*this) = delta;
  }

  /// Field-wise accumulation, for callers that run a corpus as a
  /// sequence of batches (the shard worker's chunked streaming loop)
  /// and report one summed record. Every field adds -- including
  /// wall_seconds, which therefore means "summed batch wall clock", not
  /// end-to-end elapsed time, once more than one batch contributed.
  BatchTimings& operator+=(const BatchTimings& o);
  /// Adds a counter-window delta from outside the batch (the input
  /// parse that precedes it); timing fields are untouched.
  using PerfSnapshot::operator+=;
};

struct BatchResult {
  /// One entry per input, in input order (independent of scheduling).
  std::vector<AnnotateResult> results;
  BatchTimings timings;
  std::size_t jobs = 1;  ///< worker count actually used

  /// Node-weighted mean accuracy over circuits with ground truth, per
  /// stage (gcn / post1 / post2); 0 when no labels were present.
  [[nodiscard]] double mean_acc_gcn() const;
  [[nodiscard]] double mean_acc_post1() const;
  [[nodiscard]] double mean_acc_post2() const;
};

/// Result of a fault-isolated batch run: one Ok/Diag outcome per input,
/// in input order.
struct BatchOutcome {
  std::vector<Result<AnnotateResult>> outcomes;
  BatchTimings timings;
  std::size_t jobs = 1;

  [[nodiscard]] std::size_t ok_count() const;
  [[nodiscard]] std::size_t failure_count() const;
  /// Lowest-index failure that is not a fail-fast Skipped marker (falls
  /// back to the first Skipped slot); nullptr when every task succeeded.
  [[nodiscard]] const Diag* first_failure() const;
};

/// Runs batches of circuits through a shared Annotator in parallel.
///
/// The worker pool is created lazily on the first parallel run and then
/// reused for the runner's lifetime: repeated batches pay no thread
/// spawn/join, and worker thread_locals (the per-thread GCN inference
/// workspace) stay warm across runs. Noncopyable because of that owned
/// pool; construct one runner per (annotator, options) pair and reuse it.
class BatchRunner {
 public:
  explicit BatchRunner(const Annotator& annotator, BatchOptions options = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Annotates every circuit; ground truth only feeds accuracy fields.
  /// Throws (the first failure's NetlistError) if any circuit fails.
  [[nodiscard]] BatchResult run(
      const std::vector<datagen::LabeledCircuit>& batch) const;

  /// Annotates bare netlists; `names[i]` labels netlists[i] (names may be
  /// empty or shorter than the batch -- missing names become "batch/i").
  [[nodiscard]] BatchResult run(
      const std::vector<spice::Netlist>& netlists,
      const std::vector<std::string>& names = {}) const;

  /// Fault-isolated variants: never throw on malformed circuits. Healthy
  /// slots are bit-identical to the sequential/throwing path.
  [[nodiscard]] BatchOutcome run_isolated(
      const std::vector<datagen::LabeledCircuit>& batch) const;
  [[nodiscard]] BatchOutcome run_isolated(
      const std::vector<spice::Netlist>& netlists,
      const std::vector<std::string>& names = {}) const;

  /// The dispatch under both variants above: runs `task(i)` for every
  /// i in [0, count) with the batch's jobs, failure policy, per-task
  /// deadline and timing sums. A task returns its outcome; an exception
  /// escaping it becomes that slot's Diag. Callers whose tasks are not
  /// one try_annotate each (an incremental session's revisions, at
  /// jobs 1 so they run in order) get the same batch semantics.
  [[nodiscard]] BatchOutcome run_isolated(
      std::size_t count,
      const std::function<Result<AnnotateResult>(std::size_t)>& task) const;

  [[nodiscard]] const BatchOptions& options() const { return options_; }
  [[nodiscard]] std::size_t resolved_jobs() const;

 private:
  BatchResult unwrap(BatchOutcome outcome) const;

  /// Returns the persistent worker pool, creating it (with resolved_jobs()
  /// threads) on first use. Only called when a parallel run is requested.
  ThreadPool& pool() const;

  const Annotator* annotator_;  ///< not owned; must outlive the runner
  BatchOptions options_;
  mutable std::mutex pool_mutex_;           ///< guards lazy pool creation
  mutable std::unique_ptr<ThreadPool> pool_;  ///< persistent across runs
};

}  // namespace gana::core
