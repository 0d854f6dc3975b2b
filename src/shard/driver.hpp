// Corpus-scale sharded batch driver (gana-shard).
//
// Annotates a manifest of netlists across worker *processes*:
//
//   manifest -> fork/exec N workers -> each worker asks the parent for
//   work ("need-work"), annotates the granted index range, and asks
//   again until the parent answers "done" -> every result and a final
//   perf summary stream back over a pipe (the serve/protocol
//   length-prefixed JSON framing) -> the parent merges records in
//   manifest order.
//
// The parent owns the queue: a cursor over manifest slots, handed out
// in manifest order as grants of clamp(remaining / (2 * workers), 1,
// 1024) slots, so a skewed corpus cannot strand the fan-out behind one
// unlucky worker. A granted slot has exactly one owner for all time (it
// is never re-granted), which is what makes failure accounting exact.
//
// Determinism contract: the merged per-netlist output is byte-identical
// at every worker count, including the in-process shards=1 path, because
//   * every path formats records through the same record_line();
//   * per-circuit sample streams derive from (core::kDefaultSampleSeed,
//     structural hash) -- never from slot index, worker, or grant
//     order -- so process boundaries cannot shift any result;
//   * caches only memoize pure functions of structure, so per-process
//     cache instances cannot diverge from a single shared one;
//   * the per-netlist timeout reaches workers in shortest round-trip
//     form, so every process enforces the same budget.
// The shard determinism tests pin this byte-for-byte.
//
// Failure semantics (keep-going): a worker that crashes, exits nonzero,
// or outlives its deadline never wedges the merge. Its granted but
// unrecorded netlists surface as structured Diags (DiagCode::WorkerFailed
// or DeadlineExceeded) in the merged output, and healthy workers are
// unaffected. Slots never granted because every worker is gone get
// DeadlineExceeded when a deadline killed a worker (that worker was
// alive, so the deadline cut the queue) and WorkerFailed otherwise.
// Without keep-going the driver kills the remaining workers after the
// first failed record and marks unprocessed slots DiagCode::Skipped,
// mirroring BatchRunner's FailFast policy (which later slots are
// skipped is scheduling-dependent, exactly as there).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "shard/manifest.hpp"
#include "util/args.hpp"

namespace gana::shard {

/// Half-open slice [begin, end) of the manifest: one grant.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Annotation settings shared by every worker (and the in-process
/// path); all of it is forwarded on the worker command line, so a shard
/// worker reconstructs the exact same pipeline the parent would run.
/// Every path attaches the three caches (Annotator::attach_caches).
struct PipelineOptions {
  std::size_t jobs = 1;   ///< BatchRunner threads inside one worker
  std::string domain = "ota";     ///< class vocabulary: "ota" or "rf"
  std::size_t cache_capacity = 0; ///< per-cache entry bound (0 unbounded)
  double timeout_seconds = 0.0;   ///< per-netlist deadline (0 disables)
  /// Optional model path: text checkpoint or binary artifact (sniffed).
  std::string load_model;
  /// Optional primitive-library path (text or binary artifact, sniffed;
  /// "" or "standard" = the built-in library).
  std::string load_library;
};

struct ShardOptions {
  /// Worker processes, clamped to the manifest size. 1 annotates
  /// in-process with no fork (the baseline the byte-identity guard
  /// compares against); >= 2 fork/exec that many workers.
  std::size_t shards = 1;
  PipelineOptions pipeline;
  /// Wall-clock budget of each worker process, counted from its spawn
  /// and enforced by the parent (fork mode only): a worker still
  /// running past it is killed and its missing netlists get
  /// DeadlineExceeded diags. 0 disables.
  double shard_timeout_seconds = 0.0;
  /// false = fail fast: kill remaining workers after the first failed
  /// record; unprocessed slots come back DiagCode::Skipped.
  bool keep_going = false;
  /// Binary to exec with --worker; "" uses /proc/self/exe. Test and
  /// bench drivers point this at the gana_shard binary.
  std::string worker_exe;
  /// Extra flags appended to every worker command line (test hooks such
  /// as --crash-after).
  std::vector<std::string> extra_worker_args;
};

/// One merged per-netlist outcome: the annotation JSON (double-encoded,
/// exactly core::annotation_to_json's bytes) or a structured Diag.
struct NetlistRecord {
  bool ok = false;
  std::string payload;       ///< annotation JSON document (ok only)
  std::optional<Diag> diag;  ///< present iff !ok
};

/// The merged output line for one manifest slot, newline-terminated.
/// Single formatting point for every execution path -- the whole
/// byte-identity guarantee funnels through here.
[[nodiscard]] std::string record_line(std::size_t index,
                                      const ManifestEntry& entry,
                                      const NetlistRecord& record);

/// Post-mortem of one worker (or of the in-process path).
struct ShardStatus {
  int pid = -1;               ///< worker pid (-1 for the in-process path)
  int wait_status = 0;        ///< raw waitpid status (0 = clean exit)
  bool deadline_expired = false;  ///< parent killed it past the deadline
  bool killed_by_driver = false;  ///< fail-fast kill (not a worker fault)
  std::size_t results = 0;    ///< per-netlist frames received
  std::string perf_json;      ///< worker batch_timings_to_json summary
  /// Worker-reported artifact/model/library load time (seconds spent
  /// before the first netlist), from the summary frame. The bench sums
  /// this across workers to attribute fan-out loss to cold starts.
  double startup_seconds = 0.0;
  std::size_t steal_requests = 0;  ///< need-work frames received
  std::size_t chunks_served = 0;   ///< grants this worker received
};

struct ShardRunStats {
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  double wall_seconds = 0.0;
  std::vector<ShardStatus> shards;
  /// Lowest-manifest-index failure (nullopt when every netlist
  /// annotated); drives the CLI exit code.
  std::optional<std::size_t> first_failure_index;
  std::optional<Diag> first_failure;
};

/// Runs the whole corpus, writing merged records to `out` in manifest
/// order (streamed: a record is written as soon as every earlier slot
/// has one). Returns a Diag only for driver-level faults (unreadable
/// manifest, fork/pipe failure); per-netlist and per-worker failures
/// are reported inside the stats and the merged records.
[[nodiscard]] Result<ShardRunStats> run_sharded(const std::string& manifest,
                                                const ShardOptions& options,
                                                std::ostream& out);

/// Outcome summary of one SliceRunner::run call.
struct SliceResult {
  std::size_t ok = 0;
  std::size_t failed = 0;
  core::BatchTimings timings;  ///< summed over the slice's chunks
};

/// The shared per-netlist machinery behind every execution path: one
/// warm Annotator (model, library, caches, BatchRunner) constructed
/// once, then `run` parses and annotates any number of manifest ranges
/// through it. A worker runs one range per grant; the in-process path
/// runs the whole manifest.
/// Splitting construction from execution is what lets the perf summary
/// attribute startup (artifact load) separately from annotation work.
class SliceRunner {
 public:
  SliceRunner();
  SliceRunner(const SliceRunner&) = delete;
  SliceRunner& operator=(const SliceRunner&) = delete;
  ~SliceRunner();

  /// Loads the model/library and builds the annotator stack. Returns a
  /// Diag on unloadable artifacts or an unknown domain (BadValue). Must
  /// be called (successfully) before run(); the load time is reported
  /// by startup_seconds().
  [[nodiscard]] Result<bool> init(const PipelineOptions& options);

  [[nodiscard]] double startup_seconds() const { return startup_seconds_; }

  /// Annotates entries[range) in chunks, invoking `emit` once per slot
  /// in slice order. `emit` returning false aborts the slice (broken
  /// output pipe). Reusable: each call is independent, sharing the warm
  /// annotator and caches. The returned SliceResult covers this call
  /// only.
  [[nodiscard]] Result<SliceResult> run(
      const std::vector<ManifestEntry>& entries, ShardRange range,
      const std::function<bool(std::size_t, const NetlistRecord&)>& emit);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  double startup_seconds_ = 0.0;
};

/// Worker-process entry (`gana_shard --worker ...`): pulls grants from
/// the parent over stdin until it answers "done", streaming framed
/// results and a final perf summary to stdout. Returns the process exit
/// code (0 = every grant completed; per-netlist failures are reported
/// in-band as records, not through the exit code).
[[nodiscard]] int worker_main(const Args& args);

}  // namespace gana::shard
