#include "core/pipeline.hpp"

#include <cmath>
#include <future>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "gcn/trainer.hpp"
#include "graph/builder.hpp"
#include "graph/laplacian.hpp"
#include "graph/structural_hash.hpp"
#include "spice/interned.hpp"
#include "util/deadline.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gana::core {

namespace {

/// Marks the stage currently executing when the caller asked for one,
/// and runs the per-stage checkpoint: an expired request deadline (or an
/// armed fault-injection site) aborts the request here with a DiagError
/// the fault-isolation guards convert to a per-request Diag. Pure
/// control flow -- a request that passes every checkpoint is
/// bit-identical to one annotated with no deadline installed.
inline void mark(Stage* stage, Stage s) {
  if (stage != nullptr) *stage = s;
  checkpoint(s);
}

/// The front end behind prepare_circuit and prepare_netlist: flatten,
/// preprocess and graph build on the interned path (intern once, work on
/// SymbolIds, materialize names into `out.flat` at the boundary).
/// `device_labels` are transferred across preprocessing: removed devices
/// alias to their surviving representative, which keeps its own label.
PreparedCircuit prepare(const spice::Netlist& netlist, const std::string& name,
                        std::vector<std::string> class_names,
                        std::map<std::string, int> device_labels,
                        const PrepareOptions& options, Stage* stage) {
  PreparedCircuit out;
  out.name = name;
  out.class_names = std::move(class_names);
  mark(stage, Stage::Flatten);
  spice::InternedNetlist flat =
      spice::flatten_interned(spice::intern_netlist(netlist, name), name);
  if (options.preprocess) {
    mark(stage, Stage::Preprocess);
    out.preprocess_report =
        spice::preprocess_interned(flat, options.preprocess_options);
    for (const auto& alias : out.preprocess_report.alias) {
      device_labels.erase(alias.first);
    }
  }
  mark(stage, Stage::GraphBuild);
  out.graph = graph::build_graph(flat);
  out.flat = spice::materialize_netlist(flat);
  out.labels = vertex_labels(out.graph, device_labels);
  return out;
}

/// Rethrows a failed annotation as the NetlistError carrying its Diag.
AnnotateResult value_or_throw(Result<AnnotateResult> result) {
  if (!result.ok()) throw spice::NetlistError(result.diag());
  return result.take();
}

/// Rejects Inf/NaN before they reach the solver: a single bad weight
/// poisons every activation and the argmax silently returns garbage.
void require_finite(const Matrix& m, Stage stage, const std::string& name,
                    const std::string& what) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m(i, j))) {
        throw spice::NetlistError(make_diag(
            DiagCode::NonFinite, stage,
            "non-finite " + what + " at (" + std::to_string(i) + ", " +
                std::to_string(j) + ") of circuit " + name));
      }
    }
  }
}

/// CCC and primitive extraction as one compute-pool task beside the GCN
/// branch of Annotator::run: both read only the circuit graph until
/// Postprocessing I. The task installs the caller's request context and
/// runs the Primitives checkpoint itself, then fans the library patterns
/// out on the same pool, so a matching-heavy circuit still matches
/// pattern-parallel. The destructor drains a task nobody took, because
/// the task reads the graph, and drops its outcome.
class PrimitiveBranch {
 public:
  struct Output {
    graph::CccResult ccc;
    primitives::AnnotateOutcome outcome;
    double cpu_seconds = 0.0;  ///< the task's own thread CPU
    std::thread::id thread;    ///< the thread that ran the task
  };

  PrimitiveBranch(ThreadPool& pool, const graph::CircuitGraph& g,
                  const primitives::PrimitiveLibrary& library,
                  primitives::AnnotationCache* cache)
      : pool_(pool) {
    const RequestContext* ctx = current_request_context();
    future_ = pool.submit([&pool, &g, &library, cache, ctx] {
      ScopedRequestContext scope(ctx);
      ThreadCpuTimer cpu;
      checkpoint(Stage::Primitives);
      Output out;
      out.ccc = graph::channel_connected_components(g);
      primitives::AnnotateOptions options;
      options.pool = &pool;
      options.cache = cache;
      out.outcome = primitives::annotate_primitives_guarded(g, library, options);
      out.cpu_seconds = cpu.seconds();
      out.thread = std::this_thread::get_id();
      return out;
    });
  }

  ~PrimitiveBranch() {
    if (!future_.valid()) return;
    try {
      pool_.wait(future_);
    } catch (...) {
      // An untaken task means a GCN-branch exception is unwinding run();
      // its Diag takes precedence, as in the sequential order.
    }
  }

  PrimitiveBranch(const PrimitiveBranch&) = delete;
  PrimitiveBranch& operator=(const PrimitiveBranch&) = delete;

  /// Waits for the task, helping with queued pool work, and rethrows
  /// its exception.
  Output take() { return pool_.wait(future_); }

 private:
  ThreadPool& pool_;
  std::future<Output> future_;
};

}  // namespace

PreparedCircuit prepare_circuit(const datagen::LabeledCircuit& input,
                                const PrepareOptions& options, Stage* stage) {
  return prepare(input.netlist, input.name, input.class_names,
                 input.device_labels, options, stage);
}

PreparedCircuit prepare_netlist(const spice::Netlist& netlist,
                                std::vector<std::string> class_names,
                                const std::string& name,
                                const PrepareOptions& options, Stage* stage) {
  return prepare(netlist, name, std::move(class_names), {}, options, stage);
}

std::vector<gcn::GraphSample> make_gcn_samples(
    const std::vector<datagen::LabeledCircuit>& circuits, int pool_levels,
    std::uint64_t seed, const PrepareOptions& options) {
  Rng rng(seed);
  std::vector<gcn::GraphSample> out;
  out.reserve(circuits.size());
  for (const auto& c : circuits) {
    PreparedCircuit p = prepare_circuit(c, options);
    out.push_back(gcn::make_sample(graph::adjacency(p.graph),
                                   build_features(p.graph),
                                   std::move(p.labels), pool_levels, rng,
                                   std::move(p.name)));
  }
  return out;
}

Annotator::Annotator(const gcn::GcnModel* model,
                     std::vector<std::string> class_names,
                     primitives::PrimitiveLibrary library,
                     PrepareOptions prepare)
    : model_(model),
      class_names_(std::move(class_names)),
      library_(std::move(library)),
      prepare_(prepare) {
  if (model_ == nullptr) return;
  const gcn::ModelConfig& cfg = model_->config();
  if (cfg.in_features != kNumFeatures) {
    throw DiagError(make_diag(
        DiagCode::ModelMismatch, Stage::Gcn,
        "model expects " + std::to_string(cfg.in_features) +
            " input features; the annotator builds " +
            std::to_string(kNumFeatures)));
  }
  if (cfg.num_classes > class_names_.size()) {
    throw DiagError(make_diag(
        DiagCode::ModelMismatch, Stage::Gcn,
        "model outputs " + std::to_string(cfg.num_classes) +
            " classes; the annotator names " +
            std::to_string(class_names_.size())));
  }
}

AnnotateResult Annotator::annotate(const datagen::LabeledCircuit& input) const {
  return value_or_throw(try_annotate(input));
}

AnnotateResult Annotator::annotate(const spice::Netlist& netlist,
                                   const std::string& name) const {
  return value_or_throw(try_annotate(netlist, name));
}

AnnotateResult Annotator::annotate_oracle(
    const datagen::LabeledCircuit& input, std::size_t oracle_classes) const {
  StageHooks hooks;
  hooks.probabilities = [oracle_classes](const PreparedCircuit& prepared) {
    const std::size_t n = prepared.graph.vertex_count();
    Matrix probs(n, oracle_classes, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      const int t = prepared.labels[v];
      if (t >= 0 && t < static_cast<int>(oracle_classes)) {
        probs(v, static_cast<std::size_t>(t)) = 1.0;
      } else {
        for (std::size_t k = 0; k < oracle_classes; ++k) {
          probs(v, k) = 1.0 / static_cast<double>(oracle_classes);
        }
      }
    }
    return probs;
  };
  return value_or_throw(run(
      input.name,
      [&](Stage* stage) { return prepare_circuit(input, prepare_, stage); },
      hooks));
}

Result<AnnotateResult> Annotator::try_annotate(
    const datagen::LabeledCircuit& input) const {
  return run(input.name, [&](Stage* stage) {
    return prepare_circuit(input, prepare_, stage);
  });
}

Result<AnnotateResult> Annotator::try_annotate(const spice::Netlist& netlist,
                                               const std::string& name) const {
  return run(name, [&](Stage* stage) {
    return prepare_netlist(netlist, class_names_, name, prepare_, stage);
  });
}

void Annotator::attach_caches(std::size_t capacity) {
  set_sample_cache(std::make_shared<gcn::SamplePrepCache>(capacity));
  set_annotation_cache(
      std::make_shared<primitives::AnnotationCache>(capacity));
  set_inference_cache(std::make_shared<gcn::InferenceCache>(capacity));
}

Matrix Annotator::compute_probabilities(const PreparedCircuit& prepared,
                                        Stage* stage) const {
  const std::size_t n = prepared.graph.vertex_count();
  if (model_ == nullptr) {
    // No model: uniform probabilities over the first class only, so the
    // graph-based stages can still be exercised in isolation.
    const std::size_t k = std::max<std::size_t>(1, class_names_.size());
    return Matrix(n, k, 1.0 / static_cast<double>(k));
  }
  mark(stage, Stage::Features);
  // Seed the prep stream, which only Graclus reads, from the circuit's
  // structure, not its batch slot: structurally identical circuits then
  // get bit-identical cluster maps whether or not the SamplePrepCache is
  // attached.
  // Only SageConv reads the propagation operators, so a Chebyshev
  // model's prep skips them; the key carries that bit, or a cache shared
  // by both kinds could serve SageConv a prep without them.
  const int pool_levels = model_->config().required_pool_levels();
  const bool propagation =
      model_->config().conv_kind == gcn::ConvKind::SageMean;
  const std::uint64_t prep_seed = graph::hash_combine(
      kDefaultSampleSeed, graph::structural_hash(prepared.graph));
  const std::uint64_t sample_key = graph::hash_combine(
      graph::hash_combine(prep_seed, static_cast<std::uint64_t>(pool_levels)),
      propagation ? 1 : 0);
  Matrix features = build_features(prepared.graph);
  // Inference memoization: the probabilities are a pure function of the
  // sample bits and the model weights. The key folds the structural
  // sample key, the weights fingerprint, and a fingerprint of the
  // feature values -- the structural hash alone would alias two sizings
  // of one topology whose values fall in different feature buckets.
  std::shared_ptr<const Matrix> cached_probs;
  std::uint64_t infer_key = 0;
  if (inference_cache_ != nullptr) {
    infer_key =
        graph::hash_combine(graph::hash_combine(sample_key, model_fingerprint_),
                            features_fingerprint(features));
    cached_probs = inference_cache_->find(infer_key);
  }
  if (cached_probs != nullptr) {
    mark(stage, Stage::Gcn);
    return *cached_probs;
  }
  gcn::GraphSample sample;
  if (sample_cache_ != nullptr) {
    std::shared_ptr<const gcn::SamplePrep> prep = sample_cache_->find(sample_key);
    if (prep == nullptr) {
      Rng rng(prep_seed);
      prep = sample_cache_->insert(
          sample_key,
          std::make_shared<gcn::SamplePrep>(
              gcn::make_sample_prep(graph::adjacency(prepared.graph),
                                    pool_levels, rng, propagation)));
    }
    sample = gcn::sample_from_prep(*prep, std::move(features), prepared.labels,
                                   prepared.name);
  } else {
    Rng rng(prep_seed);
    sample = gcn::make_sample(graph::adjacency(prepared.graph),
                              std::move(features), prepared.labels, pool_levels,
                              rng, prepared.name, propagation);
  }
  require_finite(sample.features, Stage::Features, prepared.name,
                 "feature value");
  mark(stage, Stage::Gcn);
  // One workspace per worker thread: steady-state inference reuses its
  // buffers and performs zero heap allocations inside the model.
  thread_local gcn::InferWorkspace ws;
  Matrix probs = gcn::softmax(model_->infer(sample, ws));
  require_finite(probs, Stage::Gcn, prepared.name, "class probability");
  if (inference_cache_ != nullptr) {
    inference_cache_->insert(infer_key, std::make_shared<Matrix>(probs));
  }
  return probs;
}

Result<AnnotateResult> Annotator::run(const std::string& name,
                                      const PrepareFn& prepare,
                                      const StageHooks& hooks) const {
  Stage stage = Stage::Flatten;
  try {
    AnnotateResult r;
    Timer prepare_timer;
    ThreadCpuTimer prepare_cpu;
    r.prepared = prepare(&stage);
    r.seconds_prepare = prepare_timer.seconds();
    r.cpu_seconds_prepare = prepare_cpu.seconds();
    const graph::CircuitGraph& g = r.prepared.graph;

    // With a compute pool, CCC and primitive matching run beside the
    // GCN branch (unless a session hook replaces extraction or may reuse
    // a stored result, or this call already runs on a pool worker).
    // Declared after `r`, so on every path out the task is drained
    // before the graph it reads is destroyed.
    ThreadPool* pool = compute_pool();
    std::optional<PrimitiveBranch> branch;
    if (pool != nullptr && !ThreadPool::inside_worker() && !hooks.reuse &&
        !hooks.extract) {
      branch.emplace(*pool, g, library_, annotation_cache_.get());
    }

    // --- GCN classification.
    Timer gcn_timer;
    ThreadCpuTimer gcn_cpu;
    if (hooks.probabilities) {
      mark(&stage, Stage::Gcn);
      r.probabilities = hooks.probabilities(r.prepared);
    } else {
      r.probabilities = compute_probabilities(r.prepared, &stage);
    }
    const std::size_t n = g.vertex_count();
    r.gcn_class.assign(n, -1);
    for (std::size_t v = 0; v < n; ++v) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < r.probabilities.cols(); ++c) {
        if (r.probabilities(v, c) > r.probabilities(v, best)) best = c;
      }
      r.gcn_class[v] = static_cast<int>(best);
    }
    const AnnotateResult* stored =
        hooks.reuse ? hooks.reuse(r.probabilities) : nullptr;
    r.seconds_gcn = gcn_timer.seconds();
    r.cpu_seconds_gcn = gcn_cpu.seconds();

    // --- Postprocessing I.
    Timer post_timer;
    ThreadCpuTimer post_cpu;
    double branch_cpu = 0.0;
    if (branch) {
      // The task ran the Primitives checkpoint. Its failure surfaces in
      // take(), after any failure of the GCN branch: the sequential order.
      stage = Stage::Primitives;
    } else {
      mark(&stage, Stage::Primitives);
    }
    if (stored == nullptr) {
      primitives::AnnotateOutcome outcome;
      if (branch) {
        PrimitiveBranch::Output out = branch->take();
        r.ccc = std::move(out.ccc);
        outcome = std::move(out.outcome);
        // The task's CPU counts as post. The GCN branch's loops never run
        // queued tasks, so this thread can only have run it inside
        // take(), where post_cpu holds it already.
        if (out.thread != std::this_thread::get_id()) {
          branch_cpu = out.cpu_seconds;
        }
      } else {
        r.ccc = graph::channel_connected_components(g);
        if (hooks.extract) {
          outcome = hooks.extract(g);
        } else {
          primitives::AnnotateOptions annotate_options;
          annotate_options.cache = annotation_cache_.get();
          outcome = primitives::annotate_primitives_guarded(g, library_,
                                                            annotate_options);
        }
      }
      r.post = postprocess_stage1_with_annotation(
          g, r.ccc, r.probabilities, class_names_, std::move(outcome));
      if (r.post.primitives_truncated) {
        r.warnings.push_back(make_diag(
            DiagCode::Truncated, Stage::Primitives,
            "VF2 budget exhausted after " + std::to_string(r.post.vf2_states) +
                " states; primitive annotation of circuit " + r.prepared.name +
                " is partial"));
      }
    }
    mark(&stage, Stage::Postprocess);
    if (stored == nullptr) {
      r.post1_class = vertex_classes(g, r.ccc, r.post.cluster_class);
      // --- Postprocessing II.
      postprocess_stage2(g, r.ccc, class_names_, r.post);
      r.final_class = vertex_classes(g, r.ccc, r.post.cluster_class);
    }

    // --- Hierarchy + constraints.
    mark(&stage, Stage::Hierarchy);
    if (stored == nullptr) {
      r.hierarchy =
          build_hierarchy(g, r.ccc, r.post, class_names_, r.prepared.name);
    } else {
      r.ccc = stored->ccc;
      r.post = stored->post;
      r.post1_class = stored->post1_class;
      r.final_class = stored->final_class;
      r.hierarchy = stored->hierarchy;
      r.warnings = stored->warnings;
    }
    r.seconds_post = post_timer.seconds();
    r.cpu_seconds_post = post_cpu.seconds() + branch_cpu;

    // --- Accuracy vs. ground truth (when present).
    r.acc_gcn = accuracy(r.gcn_class, r.prepared.labels);
    r.acc_post1 = accuracy(r.post1_class, r.prepared.labels);
    r.acc_post2 = accuracy(r.final_class, r.prepared.labels);
    return r;
  } catch (const DiagError& e) {
    // Structured failures (NetlistError and every other DiagError
    // subclass, e.g. sparse-assembly validation) keep their Diag.
    return e.diag();
  } catch (const std::bad_alloc&) {
    return make_diag(DiagCode::BudgetExhausted, stage,
                     "out of memory annotating circuit " + name);
  } catch (const std::exception& e) {
    return make_diag(DiagCode::Internal, stage,
                     std::string("unexpected error annotating circuit ") +
                         name + ": " + e.what());
  }
}

}  // namespace gana::core
