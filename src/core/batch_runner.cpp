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

}  // namespace

void BatchTimings::add_stage_seconds(const AnnotateResult& r) {
  prepare_seconds += r.cpu_seconds_prepare;
  gcn_seconds += r.cpu_seconds_gcn;
  post_seconds += r.cpu_seconds_post;
  prepare_wall_seconds += r.seconds_prepare;
  gcn_wall_seconds += r.seconds_gcn;
  post_wall_seconds += r.seconds_post;
}

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
    : annotator_(&annotator), options_(options) {
  const std::size_t jobs = resolved_jobs();
  if (jobs > 1) pool_ = std::make_unique<ThreadPool>(jobs);
}

BatchRunner::~BatchRunner() = default;

std::size_t BatchRunner::resolved_jobs() const {
  if (options_.jobs != 0) return options_.jobs;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
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
  // One slot per claim. Each slot writes only its own outcome, so
  // completion order is irrelevant to the result; the abort flag is the
  // only cross-slot state, and only fail-fast reads it. Without a pool
  // the loop runs in slot order on this thread.
  std::vector<std::optional<Result<AnnotateResult>>> slots(count);
  std::atomic<bool> abort{false};
  parallel_for(pool_.get(), count, 1,
               [&slots, &guarded, &abort, fail_fast](std::size_t begin,
                                                     std::size_t end) {
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
               });
  out.outcomes.reserve(count);
  for (auto& slot : slots) out.outcomes.push_back(std::move(*slot));
  out.timings.wall_seconds = wall.seconds();
  out.timings.apply_perf_delta(perf_snapshot() - perf_before);
  for (const auto& o : out.outcomes) {
    if (o.ok()) out.timings.add_stage_seconds(o.value());
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
