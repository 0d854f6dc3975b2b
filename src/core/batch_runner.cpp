#include "core/batch_runner.hpp"

#include <atomic>
#include <optional>
#include <thread>
#include <utility>

#include "util/deadline.hpp"
#include "util/perf.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gana::core {

namespace {

double stage_weighted_acc(const std::vector<AnnotateResult>& results,
                          double AnnotateResult::*acc) {
  double correct = 0.0;
  double counted = 0.0;
  for (const auto& r : results) {
    std::size_t with_truth = 0;
    for (int l : r.prepared.labels) {
      if (l >= 0) ++with_truth;
    }
    correct += r.*acc * static_cast<double>(with_truth);
    counted += static_cast<double>(with_truth);
  }
  return counted > 0.0 ? correct / counted : 0.0;
}

Diag skipped_diag(std::size_t index) {
  return make_diag(DiagCode::Skipped, Stage::Batch,
                   "task " + std::to_string(index) +
                       " skipped: fail-fast after an earlier failure");
}

/// How many chunks per worker the parallel dispatch overpartitions into.
/// One task per circuit (the old scheme) maximizes scheduling overhead on
/// small circuits; one chunk per worker loses load balancing when circuit
/// costs vary. A small constant factor keeps both in check while leaving
/// chunk boundaries a pure function of (count, jobs) -- never of timing.
constexpr std::size_t kBatchOverpartition = 4;

}  // namespace

BatchTimings& BatchTimings::operator+=(const BatchTimings& o) {
  PerfSnapshot::operator+=(o);
  wall_seconds += o.wall_seconds;
  prepare_seconds += o.prepare_seconds;
  gcn_seconds += o.gcn_seconds;
  post_seconds += o.post_seconds;
  prepare_wall_seconds += o.prepare_wall_seconds;
  gcn_wall_seconds += o.gcn_wall_seconds;
  post_wall_seconds += o.post_wall_seconds;
  return *this;
}

double BatchResult::mean_acc_gcn() const {
  return stage_weighted_acc(results, &AnnotateResult::acc_gcn);
}
double BatchResult::mean_acc_post1() const {
  return stage_weighted_acc(results, &AnnotateResult::acc_post1);
}
double BatchResult::mean_acc_post2() const {
  return stage_weighted_acc(results, &AnnotateResult::acc_post2);
}

std::size_t BatchOutcome::ok_count() const {
  std::size_t n = 0;
  for (const auto& o : outcomes) {
    if (o.ok()) ++n;
  }
  return n;
}

std::size_t BatchOutcome::failure_count() const {
  return outcomes.size() - ok_count();
}

const Diag* BatchOutcome::first_failure() const {
  const Diag* skipped = nullptr;
  for (const auto& o : outcomes) {
    if (o.ok()) continue;
    if (o.diag().code != DiagCode::Skipped) return &o.diag();
    if (skipped == nullptr) skipped = &o.diag();
  }
  return skipped;
}

BatchRunner::BatchRunner(const Annotator& annotator, BatchOptions options)
    : annotator_(&annotator), options_(options) {}

BatchRunner::~BatchRunner() = default;

std::size_t BatchRunner::resolved_jobs() const {
  if (options_.jobs != 0) return options_.jobs;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& BatchRunner::pool() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (!pool_) pool_ = std::make_unique<ThreadPool>(resolved_jobs());
  return *pool_;
}

BatchOutcome BatchRunner::run_isolated(
    std::size_t count,
    const std::function<Result<AnnotateResult>(std::size_t)>& task) const {
  BatchOutcome out;
  out.jobs = resolved_jobs();
  const bool fail_fast = options_.policy == FailurePolicy::FailFast;

  const double timeout = options_.timeout_seconds;
  auto guarded = [&task, timeout](std::size_t i) -> Result<AnnotateResult> {
    try {
      if (timeout > 0.0) {
        // Per-task deadline: installed for this task only, keyed by the
        // slot index so an armed FaultInjector makes per-slot decisions.
        const Deadline deadline = Deadline::after_seconds(timeout);
        const RequestContext ctx{&deadline, i};
        ScopedRequestContext scope(&ctx);
        return task(i);
      }
      return task(i);
    } catch (const DiagError& e) {
      return e.diag();
    } catch (const std::exception& e) {
      return make_diag(DiagCode::Internal, Stage::Batch,
                       "task " + std::to_string(i) + ": " + e.what());
    }
  };

  Timer wall;
  const PerfSnapshot perf_before = perf_snapshot();
  if (out.jobs <= 1 || count <= 1) {
    out.outcomes.reserve(count);
    bool aborted = false;
    for (std::size_t i = 0; i < count; ++i) {
      if (aborted) {
        out.outcomes.push_back(skipped_diag(i));
        continue;
      }
      out.outcomes.push_back(guarded(i));
      aborted = fail_fast && !out.outcomes.back().ok();
    }
  } else {
    // Chunked dispatch over the persistent pool: count circuits become at
    // most jobs * kBatchOverpartition contiguous-range tasks, so per-task
    // scheduling overhead (queue locking, future machinery) is paid per
    // chunk instead of per circuit. Each index still writes only its own
    // slot, so completion order is irrelevant to the result; the abort
    // flag is the only cross-task state, checked per index so fail-fast
    // stops mid-chunk, and only fail-fast reads it.
    std::vector<std::optional<Result<AnnotateResult>>> slots(count);
    std::atomic<bool> abort{false};
    ThreadPool& workers = pool();
    const std::size_t chunks =
        std::min(count, out.jobs * kBatchOverpartition);
    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * count / chunks;
      const std::size_t end = (c + 1) * count / chunks;
      futures.push_back(workers.submit(
          [&slots, &guarded, &abort, fail_fast, begin, end]() {
            for (std::size_t i = begin; i < end; ++i) {
              if (fail_fast && abort.load(std::memory_order_relaxed)) {
                slots[i] = skipped_diag(i);
                continue;
              }
              slots[i] = guarded(i);
              if (fail_fast && !slots[i]->ok()) {
                abort.store(true, std::memory_order_relaxed);
              }
            }
          }));
    }
    for (auto& f : futures) {
      try {
        workers.wait(f);
      } catch (...) {
        // The task body never throws; this would be an allocation failure
        // inside the slot write. The slot stays empty and is filled below.
      }
    }
    out.outcomes.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (!slots[i].has_value()) {
        slots[i] = make_diag(DiagCode::Internal, Stage::Batch,
                             "task " + std::to_string(i) +
                                 " produced no outcome");
      }
      out.outcomes.push_back(std::move(*slots[i]));
    }
  }
  out.timings.wall_seconds = wall.seconds();
  out.timings.apply_perf_delta(perf_snapshot() - perf_before);
  for (const auto& o : out.outcomes) {
    if (!o.ok()) continue;
    out.timings.prepare_seconds += o.value().cpu_seconds_prepare;
    out.timings.gcn_seconds += o.value().cpu_seconds_gcn;
    out.timings.post_seconds += o.value().cpu_seconds_post;
    out.timings.prepare_wall_seconds += o.value().seconds_prepare;
    out.timings.gcn_wall_seconds += o.value().seconds_gcn;
    out.timings.post_wall_seconds += o.value().seconds_post;
  }
  return out;
}

BatchResult BatchRunner::unwrap(BatchOutcome outcome) const {
  if (const Diag* failure = outcome.first_failure()) {
    throw spice::NetlistError(*failure);
  }
  BatchResult out;
  out.jobs = outcome.jobs;
  out.timings = outcome.timings;
  out.results.reserve(outcome.outcomes.size());
  for (auto& o : outcome.outcomes) {
    out.results.push_back(o.take());
  }
  return out;
}

BatchOutcome BatchRunner::run_isolated(
    const std::vector<datagen::LabeledCircuit>& batch) const {
  const Annotator& annotator = *annotator_;
  return run_isolated(batch.size(), [&annotator, &batch](std::size_t i) {
    return annotator.try_annotate(batch[i]);
  });
}

BatchOutcome BatchRunner::run_isolated(
    const std::vector<spice::Netlist>& netlists,
    const std::vector<std::string>& names) const {
  const Annotator& annotator = *annotator_;
  return run_isolated(
      netlists.size(), [&annotator, &netlists, &names](std::size_t i) {
        const std::string name =
            i < names.size() ? names[i] : "batch/" + std::to_string(i);
        return annotator.try_annotate(netlists[i], name);
      });
}

BatchResult BatchRunner::run(
    const std::vector<datagen::LabeledCircuit>& batch) const {
  return unwrap(run_isolated(batch));
}

BatchResult BatchRunner::run(const std::vector<spice::Netlist>& netlists,
                             const std::vector<std::string>& names) const {
  return unwrap(run_isolated(netlists, names));
}

}  // namespace gana::core
