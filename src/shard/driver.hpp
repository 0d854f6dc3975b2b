// Corpus-scale sharded batch driver (gana-shard).
//
// Annotates a manifest of netlists across worker *processes*:
//
//   manifest -> deterministic contiguous shards -> fork/exec one worker
//   per shard -> each worker streams per-netlist results and its perf
//   summary back over a pipe (the serve/protocol length-prefixed JSON
//   framing) -> the parent merges records in manifest order.
//
// Partitioning is a pure function of (entry count, shard count):
// contiguous ranges whose sizes differ by at most one, earlier shards
// taking the remainder. Contiguity keeps the merge a streaming
// in-order flush (shard k's records are a gap-free slice of the
// manifest) and makes "which worker owns netlist i" reproducible from
// the command line alone.
//
// Determinism contract: the merged per-netlist output is byte-identical
// at every shard count, including the in-process shards=1 path, because
//   * every path formats records through the same record_line();
//   * per-circuit sample streams derive from (root seed, structural
//     hash) -- never from slot index, shard index, or scheduling
//     (core::kDefaultSampleSeed invariant), so process boundaries
//     cannot shift any result;
//   * caches only memoize pure functions of structure, so per-process
//     cache instances cannot diverge from a single shared one.
// The sharding bench (bench/sharding.cpp) and the shard determinism
// tests pin this byte-for-byte.
//
// Failure semantics (keep-going): a worker that crashes, exits nonzero,
// or outlives its per-shard deadline never wedges the merge. Its
// missing netlists surface as structured Diags (DiagCode::WorkerFailed
// or DeadlineExceeded) in the merged output, and healthy shards are
// unaffected. Without keep-going the driver kills the remaining workers
// after the first failed record and marks unprocessed slots
// DiagCode::Skipped, mirroring BatchRunner's FailFast policy (which
// later slots are skipped is scheduling-dependent, exactly as there).
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

/// Half-open slice [begin, end) of the manifest owned by one worker.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Deterministic contiguous partition: ranges cover [0, count) exactly,
/// sizes differ by at most one (earlier shards take the remainder), and
/// the result depends only on (count, shards). `shards` is clamped to
/// [1, count]; count == 0 yields no shards.
[[nodiscard]] std::vector<ShardRange> shard_partition(std::size_t count,
                                                      std::size_t shards);

/// Annotation settings shared by every worker (and the in-process
/// path); all of it is forwarded on the worker command line, so a shard
/// worker reconstructs the exact same pipeline the parent would run.
struct PipelineOptions {
  std::size_t jobs = 1;   ///< BatchRunner threads inside one worker
  std::uint64_t seed = core::kDefaultSampleSeed;
  std::string domain = "ota";     ///< class vocabulary: "ota" or "rf"
  bool caches = true;             ///< sample/annotation/inference caches
  std::size_t cache_capacity = 0; ///< per-cache entry bound (0 unbounded)
  double timeout_seconds = 0.0;   ///< per-netlist deadline (0 disables)
  /// Optional model path: text checkpoint or binary artifact (sniffed).
  std::string load_model;
  /// Optional primitive-library path (text or binary artifact, sniffed;
  /// "" or "standard" = the built-in library).
  std::string load_library;
};

/// How manifest slots are assigned to workers (fork mode only).
enum class Scheduler {
  /// PR 8 behavior: one contiguous shard_partition range per worker,
  /// fixed up front. Predictable ownership, but a skewed corpus leaves
  /// workers idle while the unlucky one drains its giant netlists.
  Static,
  /// Workers pull bounded index ranges from the parent on demand
  /// ("need-work" -> "grant" frames over the worker's stdin). Chunk
  /// size decays near the tail so stragglers stay balanced. Merged
  /// output is byte-identical to Static at every worker count (results
  /// are pure functions of the netlist, and the Merger emits manifest
  /// order regardless of which worker ran what).
  Stealing,
};

struct ShardOptions {
  /// Worker processes. 1 annotates in-process with no fork (the
  /// baseline the byte-identity guard compares against); >= 2 fork/exec
  /// one worker per shard.
  std::size_t shards = 1;
  PipelineOptions pipeline;
  /// Per-shard wall-clock deadline enforced by the parent (fork mode
  /// only): a worker still running past it is killed and its missing
  /// netlists get DeadlineExceeded diags. 0 disables.
  double shard_timeout_seconds = 0.0;
  /// false = fail fast: kill remaining workers after the first failed
  /// record; unprocessed slots come back DiagCode::Skipped.
  bool keep_going = false;
  /// Slot assignment policy for fork mode. Stealing is the default;
  /// Static keeps the PR 8 contiguous partition (bench baseline, and
  /// the predictable-ownership failure-semantics tests).
  Scheduler scheduler = Scheduler::Stealing;
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

/// Post-mortem of one shard.
struct ShardStatus {
  /// Static scheduler: the contiguous slice this worker owned.
  /// Stealing: {0,0} (ownership is the granted-chunk history instead).
  ShardRange range;
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
  std::size_t steal_requests = 0;  ///< need-work frames (stealing only)
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

/// Per-slice outcome summary of annotate_slice.
struct SliceResult {
  std::size_t ok = 0;
  std::size_t failed = 0;
  core::BatchTimings timings;  ///< summed over the slice's chunks
  /// Model/library load + annotator construction time, paid once per
  /// SliceRunner (== once per worker process).
  double startup_seconds = 0.0;
};

/// The shared per-netlist machinery behind every execution path: one
/// warm Annotator (model, library, caches, BatchRunner) constructed
/// once, then `run` parses and annotates any number of manifest ranges
/// through it. The static worker runs one range; a stealing worker runs
/// one range per grant; the in-process path runs the whole manifest.
/// Splitting construction from execution is what lets the perf summary
/// attribute startup (artifact load) separately from annotation work.
class SliceRunner {
 public:
  SliceRunner();
  SliceRunner(const SliceRunner&) = delete;
  SliceRunner& operator=(const SliceRunner&) = delete;
  ~SliceRunner();

  /// Loads the model/library and builds the annotator stack. Returns a
  /// Diag on unloadable artifacts. Must be called (successfully) before
  /// run(); the load time is reported by startup_seconds().
  [[nodiscard]] Result<bool> init(const PipelineOptions& options);

  [[nodiscard]] double startup_seconds() const { return startup_seconds_; }

  /// Annotates entries[range) in chunks, invoking `emit` once per slot
  /// in slice order. `emit` returning false aborts the slice (broken
  /// output pipe). Reusable: each call is independent, sharing the warm
  /// annotator and caches. The returned SliceResult covers this call
  /// only (startup_seconds is 0; read it from startup_seconds()).
  [[nodiscard]] Result<SliceResult> run(
      const std::vector<ManifestEntry>& entries, ShardRange range,
      const std::function<bool(std::size_t, const NetlistRecord&)>& emit);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  double startup_seconds_ = 0.0;
};

/// One-shot wrapper: init + run, returning the slice result with
/// startup_seconds filled in. Kept as the simple entry point for the
/// in-process path and existing callers.
[[nodiscard]] Result<SliceResult> annotate_slice(
    const std::vector<ManifestEntry>& entries, ShardRange range,
    const PipelineOptions& options,
    const std::function<bool(std::size_t, const NetlistRecord&)>& emit);

/// Worker-process entry (`gana_shard --worker ...`): annotates its
/// manifest slice and streams framed results to stdout. Returns the
/// process exit code (0 = slice completed; per-netlist failures are
/// reported in-band as records, not through the exit code).
[[nodiscard]] int worker_main(const Args& args);

}  // namespace gana::shard
