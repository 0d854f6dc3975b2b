#include "shard/driver.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/export.hpp"
#include "datagen/rf_gen.hpp"
#include "gcn/serialize.hpp"
#include "primitives/library_io.hpp"
#include "serve/protocol.hpp"
#include "spice/parser.hpp"
#include "util/json.hpp"
#include "util/perf.hpp"
#include "util/timer.hpp"

namespace gana::shard {

namespace {

/// Netlists per BatchRunner run inside a worker: large enough that the
/// pool amortizes dispatch, small enough that results stream back (and
/// worker memory stays bounded) on a 100k-netlist shard.
constexpr std::size_t kWorkerChunk = 256;

/// Largest index range one steal grant hands out. Grants are
/// remaining/(2*workers), so chunks decay toward 1 near the tail; the
/// cap bounds how much work a crashing worker can take down with it.
constexpr std::size_t kMaxStealChunk = 1024;

/// Reserved "index" value of the worker's trailing summary frame.
constexpr std::uint64_t kSummaryIndex = ~std::uint64_t{0} >> 11;  // 2^53-1

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Human-readable waitpid status ("exited with status 2", "killed by
/// signal 9 (Killed)").
std::string describe_wait_status(int status) {
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "killed by signal " + std::to_string(sig) +
           (name != nullptr ? " (" + std::string(name) + ")" : "");
  }
  return "stopped with wait status " + std::to_string(status);
}

/// Streams records out in manifest order: a record is flushed the
/// moment every earlier slot has one, so parent memory is bounded by
/// how far workers run apart, not corpus size.
class Merger {
 public:
  Merger(std::ostream& out, const std::vector<ManifestEntry>& entries)
      : out_(&out),
        entries_(&entries),
        pending_(entries.size()),
        recorded_(entries.size(), false) {}

  /// False when `index` is out of range or already recorded (a worker
  /// protocol violation).
  bool add(std::size_t index, NetlistRecord record) {
    if (index >= recorded_.size() || recorded_[index]) return false;
    recorded_[index] = true;
    if (record.ok) {
      ++ok_;
    } else {
      ++failed_;
      if (!first_failure_index_.has_value() || index < *first_failure_index_) {
        first_failure_index_ = index;
        first_failure_ = record.diag;
      }
    }
    pending_[index] =
        std::make_unique<NetlistRecord>(std::move(record));
    while (next_ < pending_.size() && pending_[next_] != nullptr) {
      *out_ << record_line(next_, (*entries_)[next_], *pending_[next_]);
      pending_[next_].reset();
      ++next_;
    }
    return true;
  }

  [[nodiscard]] bool has_record(std::size_t index) const {
    return index < recorded_.size() && recorded_[index];
  }
  [[nodiscard]] std::size_t ok_count() const { return ok_; }
  [[nodiscard]] std::size_t failed_count() const { return failed_; }
  [[nodiscard]] const std::optional<std::size_t>& first_failure_index() const {
    return first_failure_index_;
  }
  [[nodiscard]] const std::optional<Diag>& first_failure() const {
    return first_failure_;
  }

 private:
  std::ostream* out_;
  const std::vector<ManifestEntry>* entries_;
  std::vector<std::unique_ptr<NetlistRecord>> pending_;
  std::vector<bool> recorded_;
  std::size_t next_ = 0;
  std::size_t ok_ = 0;
  std::size_t failed_ = 0;
  std::optional<std::size_t> first_failure_index_;
  std::optional<Diag> first_failure_;
};

/// Payload of one worker->parent result frame.
std::string encode_result_payload(std::size_t index,
                                  const NetlistRecord& record) {
  json::Value v{std::vector<json::Member>{}};
  v.set("kind", json::Value("result"));
  v.set("index", json::Value(static_cast<std::uint64_t>(index)));
  v.set("ok", json::Value(record.ok));
  if (record.ok) {
    v.set("payload", json::Value(record.payload));
  } else if (record.diag.has_value()) {
    v.set("diag", serve::diag_to_json(*record.diag));
  }
  return json::dump(v);
}

std::string encode_summary_payload(const SliceResult& r,
                                   double startup_seconds, std::size_t jobs) {
  json::Value v{std::vector<json::Member>{}};
  v.set("kind", json::Value("summary"));
  v.set("index", json::Value(kSummaryIndex));
  v.set("ok", json::Value(static_cast<std::uint64_t>(r.ok)));
  v.set("failed", json::Value(static_cast<std::uint64_t>(r.failed)));
  v.set("startup_seconds", json::Value(startup_seconds));
  v.set("perf", json::Value(core::batch_timings_to_json(r.timings, jobs, r.ok,
                                                        r.ok + r.failed)));
  return json::dump(v);
}

// Steal-protocol frames. Worker -> parent "need-work" rides the result
// pipe; parent -> worker "grant"/"done" comes back over the worker's
// stdin. Strict request-response with one outstanding request per
// worker, so neither side can fill a pipe while the other waits.
std::string encode_need_work_payload() {
  json::Value v{std::vector<json::Member>{}};
  v.set("kind", json::Value("need-work"));
  return json::dump(v);
}

std::string encode_grant_payload(std::size_t begin, std::size_t end) {
  json::Value v{std::vector<json::Member>{}};
  v.set("kind", json::Value("grant"));
  v.set("begin", json::Value(static_cast<std::uint64_t>(begin)));
  v.set("end", json::Value(static_cast<std::uint64_t>(end)));
  return json::dump(v);
}

std::string encode_done_payload() {
  json::Value v{std::vector<json::Member>{}};
  v.set("kind", json::Value("done"));
  return json::dump(v);
}

std::optional<std::uint64_t> read_u53(const json::Value& obj,
                                      std::string_view key) {
  const json::Value* v = obj.get(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double d = v->as_double();
  if (!(d >= 0.0) || d > 9.007199254740992e15 ||
      d != static_cast<double>(static_cast<std::uint64_t>(d))) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(d);
}

}  // namespace

std::string record_line(std::size_t index, const ManifestEntry& entry,
                        const NetlistRecord& record) {
  json::Value v{std::vector<json::Member>{}};
  v.set("index", json::Value(static_cast<std::uint64_t>(index)));
  v.set("path", json::Value(entry.name));
  v.set("ok", json::Value(record.ok));
  if (record.ok) {
    v.set("annotation", json::Value(record.payload));
  } else if (record.diag.has_value()) {
    v.set("diag", serve::diag_to_json(*record.diag));
  }
  return json::dump(v) + "\n";
}

struct SliceRunner::Impl {
  std::unique_ptr<gcn::GcnModel> model;
  std::unique_ptr<core::Annotator> annotator;
  std::unique_ptr<core::BatchRunner> runner;
};

SliceRunner::SliceRunner() = default;
SliceRunner::~SliceRunner() = default;

Result<bool> SliceRunner::init(const PipelineOptions& options) {
  const double start = now_seconds();
  auto class_names = datagen::domain_class_names(options.domain);
  if (!class_names.has_value()) {
    return make_diag(DiagCode::BadValue, Stage::Batch,
                     "unknown domain '" + options.domain +
                         "' (expected ota or rf)");
  }
  auto impl = std::make_unique<Impl>();
  if (!options.load_model.empty()) {
    auto model = gcn::load_model_any(options.load_model);
    if (!model.ok()) return model.diag();
    impl->model = std::make_unique<gcn::GcnModel>(model.take());
  }
  primitives::PrimitiveLibrary library;
  if (options.load_library.empty() || options.load_library == "standard") {
    library = primitives::PrimitiveLibrary::standard();
  } else {
    auto lib = primitives::load_library_any(options.load_library);
    if (!lib.ok()) return lib.diag();
    library = lib.take();
  }
  try {
    impl->annotator = std::make_unique<core::Annotator>(
        impl->model.get(), std::move(*class_names), std::move(library));
  } catch (const DiagError& e) {
    return e.diag();  // the model does not fit the domain's annotator
  }
  // After the model load: the inference cache captures the weights
  // fingerprint at attach time.
  impl->annotator->attach_caches(options.cache_capacity);
  core::BatchOptions bopt;
  bopt.jobs = options.jobs;
  bopt.policy = core::FailurePolicy::CollectAll;
  bopt.timeout_seconds = options.timeout_seconds;
  impl->runner = std::make_unique<core::BatchRunner>(*impl->annotator, bopt);
  impl_ = std::move(impl);
  startup_seconds_ = now_seconds() - start;
  return true;
}

Result<SliceResult> SliceRunner::run(
    const std::vector<ManifestEntry>& entries, ShardRange range,
    const std::function<bool(std::size_t, const NetlistRecord&)>& emit) {
  if (impl_ == nullptr) {
    return make_diag(DiagCode::Internal, Stage::Batch,
                     "SliceRunner::run before a successful init");
  }
  range.begin = std::min(range.begin, entries.size());
  range.end = std::clamp(range.end, range.begin, entries.size());
  core::Annotator& annotator = *impl_->annotator;
  core::BatchRunner& runner = *impl_->runner;

  SliceResult slice;
  for (std::size_t chunk = range.begin; chunk < range.end;
       chunk += kWorkerChunk) {
    const std::size_t chunk_end = std::min(chunk + kWorkerChunk, range.end);
    // Parse the chunk's files. Parsing happens before the runner's
    // perf-counter window opens, so add the parse window's counters
    // (bytes, interning, front-end allocations) to the batch's (same
    // accounting as annotate_netlist).
    const PerfSnapshot perf_at_parse = perf_snapshot();
    std::vector<NetlistRecord> records(chunk_end - chunk);
    std::vector<spice::Netlist> netlists;
    std::vector<std::string> names;
    std::vector<std::size_t> slot(chunk_end - chunk, SIZE_MAX);
    for (std::size_t i = chunk; i < chunk_end; ++i) {
      auto parsed = spice::parse_netlist_file_result(entries[i].resolved);
      if (parsed.ok()) {
        slot[i - chunk] = netlists.size();
        netlists.push_back(parsed.take());
        names.push_back(entries[i].name);
      } else {
        records[i - chunk].ok = false;
        records[i - chunk].diag = parsed.diag();
      }
    }
    const PerfSnapshot parse_perf = perf_snapshot() - perf_at_parse;

    core::BatchOutcome outcome = runner.run_isolated(netlists, names);
    outcome.timings += parse_perf;
    slice.timings += outcome.timings;
    for (std::size_t i = chunk; i < chunk_end; ++i) {
      NetlistRecord& rec = records[i - chunk];
      const std::size_t s = slot[i - chunk];
      if (s != SIZE_MAX) {
        const auto& r = outcome.outcomes[s];
        if (r.ok()) {
          rec.ok = true;
          rec.payload =
              core::annotation_to_json(r.value(), annotator.class_names());
        } else {
          rec.ok = false;
          rec.diag = r.diag();
        }
      }
      rec.ok ? ++slice.ok : ++slice.failed;
      if (!emit(i, rec)) {
        return make_diag(DiagCode::IoError, Stage::Batch,
                         "result sink rejected record " + std::to_string(i) +
                             " (broken pipe to the driver?)");
      }
    }
  }
  return slice;
}

int worker_main(const Args& args) {
  const std::string manifest = args.get("manifest");
  if (manifest.empty()) {
    std::fprintf(stderr, "gana-shard worker: --manifest is required\n");
    return 2;
  }
  // Numeric flags first: a malformed value is a usage error (status 1)
  // before the manifest is read.
  PipelineOptions pipeline;
  // Deterministic fault injection for the worker-failure tests: after
  // emitting N result frames, --crash-after dies exactly as a crashing
  // worker would and --stall-after hangs until the driver's deadline
  // kills the process. Only result frames count, so the hooks fire
  // mid-grant.
  int crash_after = -1, stall_after = -1;
  try {
    // Every flag worker_argv emits, plus the two test hooks.
    args.reject_unknown({"worker", "manifest", "jobs", "domain",
                         "cache-capacity", "timeout-seconds", "load-model",
                         "load-library", "crash-after", "stall-after"});
    pipeline.jobs = args.get_count("jobs", 1, 1);
    pipeline.cache_capacity = args.get_count("cache-capacity", 0, 0);
    pipeline.timeout_seconds = args.get_seconds("timeout-seconds", 0.0);
    crash_after = args.get_int("crash-after", -1);
    stall_after = args.get_int("stall-after", -1);
  } catch (const ArgError& e) {
    std::fprintf(stderr, "gana-shard worker: %s\n", e.what());
    return 1;
  }
  auto entries = read_manifest(manifest);
  if (!entries.ok()) {
    std::fprintf(stderr, "gana-shard worker: %s\n",
                 entries.diag().render().c_str());
    return 2;
  }
  pipeline.domain = args.get("domain", "ota");
  pipeline.load_model = args.get("load-model");
  pipeline.load_library = args.get("load-library");

  const int out_fd = STDOUT_FILENO;
  std::size_t emitted = 0;
  const auto emit = [&](std::size_t index, const NetlistRecord& rec) {
    if (crash_after >= 0 && emitted == static_cast<std::size_t>(crash_after)) {
      ::raise(SIGKILL);
    }
    if (stall_after >= 0 && emitted == static_cast<std::size_t>(stall_after)) {
      for (;;) ::pause();
    }
    const auto frame =
        serve::encode_frame(encode_result_payload(index, rec));
    if (!frame.has_value()) return false;
    ++emitted;
    return write_all(out_fd, frame->data(), frame->size());
  };

  SliceRunner runner;
  auto init = runner.init(pipeline);
  if (!init.ok()) {
    std::fprintf(stderr, "gana-shard worker: %s\n",
                 init.diag().render().c_str());
    return 3;
  }

  // Pull loop: request a range, run it, repeat until the parent says
  // done (or closes our stdin, which means the same thing).
  serve::FrameDecoder grants;
  std::vector<char> gbuf(4096);
  const auto next_grant = [&]() -> std::optional<std::string> {
    for (;;) {
      if (auto payload = grants.next()) return payload;
      if (grants.error()) return std::nullopt;
      const ssize_t n = ::read(STDIN_FILENO, gbuf.data(), gbuf.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if (n == 0) return std::nullopt;
      grants.feed(gbuf.data(), static_cast<std::size_t>(n));
    }
  };
  SliceResult total;
  for (;;) {
    const auto request = serve::encode_frame(encode_need_work_payload());
    if (!request.has_value() ||
        !write_all(out_fd, request->data(), request->size())) {
      std::fprintf(stderr,
                   "gana-shard worker: cannot write need-work frame\n");
      return 3;
    }
    const auto payload = next_grant();
    if (!payload.has_value()) break;  // parent gone: nothing left to pull
    std::string error;
    const auto doc = json::parse(*payload, &error);
    const json::Value* kind = doc.has_value() ? doc->get("kind") : nullptr;
    if (kind == nullptr) {
      std::fprintf(stderr, "gana-shard worker: malformed grant frame\n");
      return 3;
    }
    if (kind->as_string() == "done") break;
    const auto begin = read_u53(*doc, "begin");
    const auto end = read_u53(*doc, "end");
    if (kind->as_string() != "grant" || !begin.has_value() ||
        !end.has_value()) {
      std::fprintf(stderr, "gana-shard worker: malformed grant frame\n");
      return 3;
    }
    ShardRange granted{static_cast<std::size_t>(*begin),
                       static_cast<std::size_t>(*end)};
    auto slice = runner.run(entries.value(), granted, emit);
    if (!slice.ok()) {
      std::fprintf(stderr, "gana-shard worker: %s\n",
                   slice.diag().render().c_str());
      return 3;
    }
    total.ok += slice.value().ok;
    total.failed += slice.value().failed;
    total.timings += slice.value().timings;
  }

  const auto summary = serve::encode_frame(
      encode_summary_payload(total, runner.startup_seconds(), pipeline.jobs));
  if (!summary.has_value() ||
      !write_all(out_fd, summary->data(), summary->size())) {
    std::fprintf(stderr, "gana-shard worker: cannot write summary frame\n");
    return 3;
  }
  return 0;
}

namespace {

/// Parent-side view of one live worker.
struct Worker {
  ShardStatus status;
  int pipe_fd = -1;   ///< read end of the worker's result stream
  int stdin_fd = -1;  ///< write end of the worker's grant channel
  serve::FrameDecoder decoder;
  bool eof = false;  ///< result stream closed and the process reaped
  /// Every range granted to this worker, in grant order. Post-loop,
  /// granted slots without records become this worker's failure diags
  /// -- a granted range is never re-granted, so no slot is ever
  /// annotated twice (the Merger rejects duplicates as violations).
  std::vector<ShardRange> granted;
};

/// Grant writes hit the stdin pipe of workers that may have just died;
/// without this, the resulting SIGPIPE would kill the driver instead of
/// surfacing as a write error we can turn into worker-failure records.
struct SigpipeGuard {
  void (*old_handler)(int);
  SigpipeGuard() : old_handler(::signal(SIGPIPE, SIG_IGN)) {}
  ~SigpipeGuard() { ::signal(SIGPIPE, old_handler); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;
};

std::string worker_exe_path(const ShardOptions& options) {
  if (!options.worker_exe.empty()) return options.worker_exe;
  return "/proc/self/exe";
}

std::vector<std::string> worker_argv(const ShardOptions& options,
                                     const std::string& manifest) {
  const PipelineOptions& p = options.pipeline;
  std::vector<std::string> argv;
  argv.push_back(worker_exe_path(options));
  argv.push_back("--worker");
  argv.push_back("--manifest");
  argv.push_back(manifest);
  argv.push_back("--jobs");
  argv.push_back(std::to_string(p.jobs));
  argv.push_back("--domain");
  argv.push_back(p.domain);
  if (p.cache_capacity != 0) {
    argv.push_back("--cache-capacity");
    argv.push_back(std::to_string(p.cache_capacity));
  }
  if (p.timeout_seconds > 0.0) {
    // Shortest round-trip form: std::to_string's six fixed decimals
    // would turn a sub-microsecond budget into 0 (no deadline).
    char buf[32];
    const auto end =
        std::to_chars(buf, buf + sizeof(buf), p.timeout_seconds).ptr;
    argv.push_back("--timeout-seconds");
    argv.push_back(std::string(buf, end));
  }
  if (!p.load_model.empty()) {
    argv.push_back("--load-model");
    argv.push_back(p.load_model);
  }
  if (!p.load_library.empty()) {
    argv.push_back("--load-library");
    argv.push_back(p.load_library);
  }
  for (const std::string& a : options.extra_worker_args) argv.push_back(a);
  return argv;
}

/// fork/execs one worker with its stdout routed into a fresh pipe and
/// a second pipe as its stdin (the grant channel), whose write end lands
/// in *stdin_out. Returns the result-pipe read end, or a Diag.
Result<int> spawn_worker(const std::vector<std::string>& argv, int* pid_out,
                         int* stdin_out) {
  int pfd[2];
  if (::pipe2(pfd, O_CLOEXEC) != 0) {
    return make_diag(DiagCode::Internal, Stage::Batch,
                     "pipe2 failed: " + std::string(strerror(errno)));
  }
  int sfd[2];
  if (::pipe2(sfd, O_CLOEXEC) != 0) {
    ::close(pfd[0]);
    ::close(pfd[1]);
    return make_diag(DiagCode::Internal, Stage::Batch,
                     "pipe2 failed: " + std::string(strerror(errno)));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {pfd[0], pfd[1], sfd[0], sfd[1]}) ::close(fd);
    return make_diag(DiagCode::Internal, Stage::Batch,
                     "fork failed: " + std::string(strerror(errno)));
  }
  if (pid == 0) {
    // Child: frames go to stdout; stderr stays shared for diagnostics.
    // dup2 clears CLOEXEC on the dup'd copies; the original pipe fds
    // (and every sibling's ends, grant pipes included) close across
    // exec, so a dead sibling cannot hold a grant channel open.
    ::dup2(pfd[1], STDOUT_FILENO);
    ::dup2(sfd[0], STDIN_FILENO);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    std::fprintf(stderr, "gana-shard: cannot exec %s: %s\n", cargv[0],
                 strerror(errno));
    ::_exit(127);
  }
  ::close(pfd[1]);
  ::close(sfd[0]);
  *stdin_out = sfd[1];
  *pid_out = static_cast<int>(pid);
  return pfd[0];
}

Diag missing_record_diag(const Worker& w, std::size_t shard_index,
                         const ManifestEntry& entry,
                         double shard_timeout_seconds) {
  if (w.status.deadline_expired) {
    return make_diag(
        DiagCode::DeadlineExceeded, Stage::Batch,
        "shard " + std::to_string(shard_index) + " exceeded its " +
            std::to_string(shard_timeout_seconds) +
            "-second deadline before annotating this netlist",
        SourceLoc{entry.name, 0});
  }
  if (w.status.killed_by_driver) {
    return make_diag(DiagCode::Skipped, Stage::Batch,
                     "skipped: fail-fast after an earlier failure",
                     SourceLoc{entry.name, 0});
  }
  return make_diag(
      DiagCode::WorkerFailed, Stage::Batch,
      "shard worker " + std::to_string(shard_index) + " " +
          describe_wait_status(w.status.wait_status) +
          " before annotating this netlist",
      SourceLoc{entry.name, 0});
}

}  // namespace

Result<ShardRunStats> run_sharded(const std::string& manifest,
                                  const ShardOptions& options,
                                  std::ostream& out) {
  auto manifest_entries = read_manifest(manifest);
  if (!manifest_entries.ok()) return manifest_entries.diag();
  const std::vector<ManifestEntry>& entries = manifest_entries.value();

  Timer wall;
  ShardRunStats stats;
  stats.total = entries.size();
  Merger merger(out, entries);

  const std::size_t worker_count =
      std::min(std::max<std::size_t>(options.shards, 1), entries.size());

  if (worker_count <= 1) {
    // In-process baseline: no fork, same per-netlist machinery. This is
    // the path the byte-identity guard measures fan-out against.
    ShardStatus status;
    if (!entries.empty()) {
      SliceRunner runner;
      auto init = runner.init(options.pipeline);
      if (!init.ok()) return init.diag();
      bool failed_fast = false;
      const auto emit = [&](std::size_t index, const NetlistRecord& rec) {
        if (failed_fast) {
          NetlistRecord skipped;
          skipped.ok = false;
          skipped.diag = make_diag(DiagCode::Skipped, Stage::Batch,
                                   "skipped: fail-fast after an earlier "
                                   "failure",
                                   SourceLoc{entries[index].name, 0});
          merger.add(index, skipped);
          return true;
        }
        ++status.results;
        merger.add(index, rec);
        if (!rec.ok && !options.keep_going) failed_fast = true;
        return true;
      };
      auto slice = runner.run(entries, ShardRange{0, entries.size()}, emit);
      if (!slice.ok()) return slice.diag();
      status.startup_seconds = runner.startup_seconds();
      status.perf_json = core::batch_timings_to_json(
          slice.value().timings, options.pipeline.jobs, slice.value().ok,
          entries.size());
    }
    stats.shards.push_back(std::move(status));
  } else {
    SigpipeGuard sigpipe_guard;
    std::vector<Worker> workers(worker_count);
    const std::vector<std::string> argv = worker_argv(options, manifest);
    // Every worker's wall-clock budget counts from the spawn.
    const double deadline = options.shard_timeout_seconds > 0.0
                                ? now_seconds() + options.shard_timeout_seconds
                                : 0.0;
    for (Worker& w : workers) {
      auto fd = spawn_worker(argv, &w.status.pid, &w.stdin_fd);
      if (!fd.ok()) {
        // Abort cleanly: kill and reap what already started.
        for (Worker& prev : workers) {
          if (prev.status.pid > 0) {
            ::kill(prev.status.pid, SIGKILL);
            ::waitpid(prev.status.pid, nullptr, 0);
            ::close(prev.pipe_fd);
            ::close(prev.stdin_fd);
          }
        }
        return fd.diag();
      }
      w.pipe_fd = fd.value();
    }

    auto kill_worker = [](Worker& w) {
      if (!w.eof) ::kill(w.status.pid, SIGKILL);
    };
    bool fail_fast_triggered = false;

    // Head of the undispatched-slot queue. Slots are granted in manifest
    // order, so [0, next_slot) is exactly the union of all granted
    // ranges and [next_slot, size) was never handed out.
    std::size_t next_slot = 0;
    const auto serve_grant = [&](Worker& w) {
      if (w.eof || w.status.deadline_expired || w.status.killed_by_driver) {
        return;
      }
      const bool grant = next_slot < entries.size() && !fail_fast_triggered;
      std::size_t end = next_slot;
      std::string payload;
      if (grant) {
        const std::size_t remaining = entries.size() - next_slot;
        const std::size_t chunk = std::clamp<std::size_t>(
            remaining / (2 * workers.size()), std::size_t{1}, kMaxStealChunk);
        end = next_slot + std::min(chunk, remaining);
        payload = encode_grant_payload(next_slot, end);
      } else {
        payload = encode_done_payload();
      }
      const auto frame = serve::encode_frame(payload);
      // A failed write means the worker died with a request in flight;
      // the slots were NOT consumed (next_slot is advanced only after a
      // successful write), so a live worker picks them up instead.
      if (!frame.has_value() ||
          !write_all(w.stdin_fd, frame->data(), frame->size())) {
        kill_worker(w);
        return;
      }
      if (grant) {
        w.granted.push_back(ShardRange{next_slot, end});
        ++w.status.chunks_served;
        next_slot = end;
      }
    };

    std::size_t live = workers.size();
    std::vector<char> buf(64 << 10);
    while (live > 0) {
      std::vector<pollfd> fds;
      std::vector<std::size_t> fd_shard;
      for (std::size_t s = 0; s < workers.size(); ++s) {
        if (!workers[s].eof) {
          fds.push_back(pollfd{workers[s].pipe_fd, POLLIN, 0});
          fd_shard.push_back(s);
        }
      }
      // Poll timeout: the time left to the deadline (if any).
      int timeout_ms = -1;
      if (deadline > 0.0) {
        const double left = std::max(0.0, deadline - now_seconds());
        timeout_ms = static_cast<int>(left * 1000.0) + 1;
      }
      const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
      if (ready < 0 && errno != EINTR) {
        return make_diag(DiagCode::Internal, Stage::Batch,
                         "poll failed: " + std::string(strerror(errno)));
      }
      if (deadline > 0.0 && now_seconds() >= deadline) {
        for (Worker& w : workers) {
          if (!w.eof && !w.status.deadline_expired) {
            w.status.deadline_expired = true;
            kill_worker(w);
          }
        }
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Worker& w = workers[fd_shard[i]];
        const ssize_t n = ::read(w.pipe_fd, buf.data(), buf.size());
        if (n < 0) {
          if (errno == EINTR || errno == EAGAIN) continue;
        }
        if (n > 0) {
          w.decoder.feed(buf.data(), static_cast<std::size_t>(n));
          while (auto payload = w.decoder.next()) {
            std::string error;
            const auto doc = json::parse(*payload, &error);
            const json::Value* kind =
                doc.has_value() ? doc->get("kind") : nullptr;
            if (kind != nullptr && kind->as_string() == "need-work") {
              ++w.status.steal_requests;
              serve_grant(w);
              continue;
            }
            const auto index =
                doc.has_value() ? read_u53(*doc, "index") : std::nullopt;
            if (!doc.has_value() || !index.has_value()) {
              // Protocol violation: treat the stream as dead; the
              // worker's remaining slots become WorkerFailed records.
              kill_worker(w);
              break;
            }
            if (*index == kSummaryIndex) {
              const json::Value* perf = doc->get("perf");
              if (perf != nullptr) w.status.perf_json = perf->as_string();
              const json::Value* st = doc->get("startup_seconds");
              if (st != nullptr) w.status.startup_seconds = st->as_double();
              continue;
            }
            NetlistRecord rec;
            rec.ok = doc->get("ok") != nullptr && doc->get("ok")->as_bool();
            if (rec.ok) {
              const json::Value* p = doc->get("payload");
              rec.payload = p != nullptr ? p->as_string() : "";
            } else {
              const json::Value* d = doc->get("diag");
              if (d != nullptr) rec.diag = serve::diag_from_json(*d);
              if (!rec.diag.has_value()) {
                rec.diag = make_diag(DiagCode::WorkerFailed, Stage::Batch,
                                     "worker reported an unreadable "
                                     "failure record");
              }
            }
            if (merger.add(*index, std::move(rec))) ++w.status.results;
            if (!options.keep_going && merger.failed_count() > 0 &&
                !fail_fast_triggered) {
              fail_fast_triggered = true;
              // Cancel every still-running worker (including this one);
              // slots without records come back Skipped.
              for (Worker& other : workers) {
                if (!other.eof && !other.status.deadline_expired) {
                  other.status.killed_by_driver = true;
                  kill_worker(other);
                }
              }
            }
          }
          if (w.decoder.error()) kill_worker(w);
        } else if (n == 0) {
          w.eof = true;
          ::close(w.pipe_fd);
          ::close(w.stdin_fd);
          int status = 0;
          while (::waitpid(w.status.pid, &status, 0) < 0 && errno == EINTR) {
          }
          w.status.wait_status = status;
          --live;
        }
      }
    }

    bool deadline_cut_queue = false;
    for (std::size_t s = 0; s < workers.size(); ++s) {
      const Worker& w = workers[s];
      deadline_cut_queue = deadline_cut_queue || w.status.deadline_expired;
      // A worker that exited (or was killed) with granted-but-unrecorded
      // slots is a worker failure for exactly those slots. A slot is
      // granted to at most one worker, so nothing is lost or
      // double-reported.
      for (const ShardRange& g : w.granted) {
        for (std::size_t i = g.begin; i < g.end; ++i) {
          if (merger.has_record(i)) continue;
          NetlistRecord rec;
          rec.ok = false;
          rec.diag = missing_record_diag(w, s, entries[i],
                                         options.shard_timeout_seconds);
          merger.add(i, std::move(rec));
        }
      }
      stats.shards.push_back(w.status);
    }
    // Slots never granted still need records: fail-fast cancelled the
    // queue, or a deadline cut it (the worker it killed was alive and
    // would have pulled them), or every worker died first.
    for (std::size_t i = next_slot; i < entries.size(); ++i) {
      if (merger.has_record(i)) continue;
      const SourceLoc loc{entries[i].name, 0};
      NetlistRecord rec;
      rec.ok = false;
      if (fail_fast_triggered) {
        rec.diag = make_diag(DiagCode::Skipped, Stage::Batch,
                             "skipped: fail-fast after an earlier failure",
                             loc);
      } else if (deadline_cut_queue) {
        rec.diag = make_diag(
            DiagCode::DeadlineExceeded, Stage::Batch,
            "the " + std::to_string(options.shard_timeout_seconds) +
                "-second shard deadline passed before this netlist was "
                "granted",
            loc);
      } else {
        rec.diag = make_diag(DiagCode::WorkerFailed, Stage::Batch,
                             "every shard worker exited before this netlist "
                             "was granted",
                             loc);
      }
      merger.add(i, std::move(rec));
    }
  }

  stats.ok = merger.ok_count();
  stats.failed = merger.failed_count();
  stats.first_failure_index = merger.first_failure_index();
  stats.first_failure = merger.first_failure();
  stats.wall_seconds = wall.seconds();
  return stats;
}

}  // namespace gana::shard
