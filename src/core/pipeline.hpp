// The end-to-end GANA pipeline (paper §II-B):
//   SPICE netlist -> flatten -> preprocess -> bipartite graph ->
//   18 features -> GCN classification -> Postprocessing I (CCC majority,
//   primitive extraction, stand-alone separation) -> Postprocessing II
//   (port knowledge) -> hierarchy tree + constraints.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/hierarchy.hpp"
#include "core/postprocess.hpp"
#include "datagen/sizing.hpp"
#include "gcn/model.hpp"
#include "gcn/sample.hpp"
#include "gcn/inference_cache.hpp"
#include "gcn/sample_cache.hpp"
#include "graph/ccc.hpp"
#include "primitives/annotator.hpp"
#include "primitives/library.hpp"
#include "spice/preprocess.hpp"

namespace gana::core {

/// A circuit after the front end: flat, preprocessed, graphed, featurized,
/// with ground-truth labels transferred when available.
struct PreparedCircuit {
  std::string name;
  spice::Netlist flat;
  spice::PreprocessReport preprocess_report;
  graph::CircuitGraph graph;
  std::vector<int> labels;  ///< truth per vertex, -1 unknown
  std::vector<std::string> class_names;
};

struct PrepareOptions {
  bool preprocess = true;
  spice::PreprocessOptions preprocess_options;
};

/// Front end on a labeled circuit (labels survive preprocessing through
/// the alias map). When `stage` is non-null it tracks the stage currently
/// executing, so a caller catching an exception knows where the pipeline
/// stopped.
PreparedCircuit prepare_circuit(const datagen::LabeledCircuit& input,
                                const PrepareOptions& options = {},
                                Stage* stage = nullptr);

/// Front end on a bare netlist (no ground truth).
PreparedCircuit prepare_netlist(const spice::Netlist& netlist,
                                std::vector<std::string> class_names,
                                const std::string& name,
                                const PrepareOptions& options = {},
                                Stage* stage = nullptr);

/// Batch conversion of labeled circuits into GCN samples. `seed` starts
/// one Rng stream over the batch, which only Graclus reads: samples of
/// unpooled models carry the L̂ the Annotator builds for the circuit.
std::vector<gcn::GraphSample> make_gcn_samples(
    const std::vector<datagen::LabeledCircuit>& circuits, int pool_levels,
    std::uint64_t seed, const PrepareOptions& options = {});

/// Root seed of the per-circuit sample Rng, which only Graclus
/// tie-breaking reads (pooled models); a constant, so the annotation is
/// a function of the circuit alone. The effective prep stream is seeded
/// by hash_combine(root, structural hash of the circuit graph), so
/// structurally identical circuits get identical prep no matter which
/// batch slot, process or binary they appear in -- the invariant that
/// makes SamplePrepCache hits bit-identical to cache-off runs.
inline constexpr std::uint64_t kDefaultSampleSeed = 0xc0ffee;

/// Full annotation result with per-stage classifications and accuracies.
struct AnnotateResult {
  PreparedCircuit prepared;
  Matrix probabilities;             ///< per-vertex GCN class probabilities
  graph::CccResult ccc;
  std::vector<int> gcn_class;       ///< raw GCN argmax per vertex
  std::vector<int> post1_class;     ///< after Postprocessing I
  std::vector<int> final_class;     ///< after Postprocessing II
  PostprocessResult post;           ///< final cluster classes + primitives
  HierarchyNode hierarchy;
  double acc_gcn = 0.0;    ///< vs. truth, when labels are present
  double acc_post1 = 0.0;
  double acc_post2 = 0.0;
  /// Per-stage wall seconds of this task (includes any time the worker
  /// was descheduled -- inflates when workers oversubscribe the cores).
  double seconds_prepare = 0.0;  ///< flatten + preprocess + graph build
  double seconds_gcn = 0.0;
  double seconds_post = 0.0;
  /// Per-stage thread-CPU seconds of this task (executing time only;
  /// comparable across job counts -- see ThreadCpuTimer).
  double cpu_seconds_prepare = 0.0;
  double cpu_seconds_gcn = 0.0;
  double cpu_seconds_post = 0.0;
  /// Non-fatal diagnostics (e.g. DiagCode::Truncated when the VF2 budget
  /// cut primitive extraction short). The annotation itself is complete
  /// and deterministic; warnings flag reduced fidelity.
  std::vector<Diag> warnings;
};

/// Builds the prepared circuit of one annotation. `stage` tracks the
/// stage executing (prepare_circuit and prepare_netlist take it as their
/// last argument).
using PrepareFn = std::function<PreparedCircuit(Stage* stage)>;

/// Optional replacements for stages of Annotator::run. An empty member
/// runs the standard stage. Every hook must keep run's output equal to
/// what the standard stage would produce for the same input -- the
/// incremental session (incremental/session.hpp) fills `reuse` and
/// `extract` to skip work, never to change the answer.
struct StageHooks {
  /// Replaces the GCN stage (features, sample prep, inference,
  /// softmax): per-vertex class probabilities of the prepared circuit.
  std::function<Matrix(const PreparedCircuit&)> probabilities;
  /// Receives the probabilities before the post stages. A non-null
  /// return is a stored result whose CCC, primitives, classes,
  /// hierarchy and warnings are re-emitted instead of recomputed; the
  /// stage marks still fire.
  std::function<const AnnotateResult*(const Matrix& probabilities)> reuse;
  /// Replaces whole-graph primitive extraction.
  std::function<primitives::AnnotateOutcome(const graph::CircuitGraph&)>
      extract;
};

/// Ties a trained model, its class vocabulary, and the primitive library
/// into a reusable annotator.
///
/// Every annotate* method is const and touches no mutable state (model
/// inference goes through GcnModel::infer), so one Annotator may serve
/// many worker threads concurrently -- see core::BatchRunner.
class Annotator {
 public:
  /// Throws DiagError (ModelMismatch, stage gcn) when `model` does not
  /// fit: its input width must be the kNumFeatures columns
  /// build_features emits, and each class it outputs must have a name
  /// (fewer classes than names is fine: it predicts a prefix of the
  /// vocabulary). The layers check shapes only with asserts, compiled
  /// out of release builds, where a wider model would read past every
  /// feature row and an extra class would export as null. Checking
  /// here means no CLI, server, shard worker or session built on an
  /// Annotator ever runs a mismatched model.
  Annotator(const gcn::GcnModel* model, std::vector<std::string> class_names,
            primitives::PrimitiveLibrary library =
                primitives::PrimitiveLibrary::standard(),
            PrepareOptions prepare = {});

  /// Runs the full pipeline. Ground-truth labels in `input` are used only
  /// to fill the accuracy fields. Throws spice::NetlistError carrying
  /// the Diag try_annotate would return.
  AnnotateResult annotate(const datagen::LabeledCircuit& input) const;

  /// Pipeline on an unlabeled netlist.
  AnnotateResult annotate(const spice::Netlist& netlist,
                          const std::string& name) const;

  /// Runs the pipeline with an ORACLE classifier: probabilities are
  /// one-hot on the ground-truth labels (uniform for labels outside the
  /// first `oracle_classes` entries). Isolates the graph-based stages
  /// from GCN quality -- used by tests and postprocessing audits.
  AnnotateResult annotate_oracle(const datagen::LabeledCircuit& input,
                                 std::size_t oracle_classes) const;

  /// Fault-isolated annotation: never throws on malformed or adversarial
  /// input. Any exception escaping a pipeline stage -- structured
  /// NetlistError or otherwise -- comes back as a Diag stamped with the
  /// stage that was executing.
  [[nodiscard]] Result<AnnotateResult> try_annotate(
      const datagen::LabeledCircuit& input) const;
  [[nodiscard]] Result<AnnotateResult> try_annotate(
      const spice::Netlist& netlist, const std::string& name) const;

  /// The one annotation path every entry point above (and the
  /// incremental session) runs: `prepare`, then the GCN stage and
  /// argmax, CCC, primitive extraction and Postprocessing I,
  /// Postprocessing II, the hierarchy and the accuracies, each under the
  /// stage marks (deadline and fault-injection checkpoints). Never
  /// throws: any exception escaping a stage comes back as a Diag stamped
  /// with the stage that was executing, labelled with `name`. With a
  /// compute pool, no hook set and the caller not a pool worker, CCC and
  /// primitive extraction run as one pool task beside the GCN stage;
  /// the result, and the Diag of a failure, are the sequential order's.
  [[nodiscard]] Result<AnnotateResult> run(const std::string& name,
                                           const PrepareFn& prepare,
                                           const StageHooks& hooks = {}) const;

  /// Attaches all three caches below (sample prep, GCN inference, VF2
  /// annotation), each bounded to ~`capacity` entries with FIFO eviction
  /// (0 = unbounded): the cache policy of every binary. Call it after the
  /// model's weights are final -- the inference cache keys on their
  /// fingerprint. Cached and uncached runs are bit-identical.
  void attach_caches(std::size_t capacity);

  /// Attaches a sample-prep cache shared by all annotate calls (and all
  /// threads -- the cache is internally synchronized). Pass nullptr to
  /// detach. Cached and uncached runs produce bit-identical results;
  /// the cache only skips recomputing spectral operators for circuits
  /// whose structural hash was already seen.
  void set_sample_cache(std::shared_ptr<gcn::SamplePrepCache> cache) {
    sample_cache_ = std::move(cache);
  }
  [[nodiscard]] const std::shared_ptr<gcn::SamplePrepCache>& sample_cache()
      const {
    return sample_cache_;
  }

  /// Attaches a GCN inference-result cache shared by all annotate calls
  /// (internally synchronized, like the sample cache). Structurally
  /// identical circuits then pay for a single GCN forward pass; cached
  /// and uncached runs produce bit-identical probabilities because every
  /// kernel is bit-deterministic. Entries are keyed by sample key x
  /// GcnModel::weights_fingerprint(), captured at attach time -- attach
  /// (or re-attach) AFTER training or loading weights. Pass nullptr to
  /// detach.
  void set_inference_cache(std::shared_ptr<gcn::InferenceCache> cache) {
    inference_cache_ = std::move(cache);
    model_fingerprint_ = (inference_cache_ != nullptr && model_ != nullptr)
                             ? model_->weights_fingerprint()
                             : 0;
  }
  [[nodiscard]] const std::shared_ptr<gcn::InferenceCache>& inference_cache()
      const {
    return inference_cache_;
  }

  /// Attaches a primitive-annotation cache shared by all annotate calls
  /// (internally synchronized, like the sample cache). Structurally
  /// identical circuits then pay for a single VF2 sweep; cached and
  /// uncached runs produce bit-identical primitive sets. Pass nullptr to
  /// detach.
  void set_annotation_cache(
      std::shared_ptr<primitives::AnnotationCache> cache) {
    annotation_cache_ = std::move(cache);
  }
  [[nodiscard]] const std::shared_ptr<primitives::AnnotationCache>&
  annotation_cache() const {
    return annotation_cache_;
  }

  [[nodiscard]] const std::vector<std::string>& class_names() const {
    return class_names_;
  }
  [[nodiscard]] const PrepareOptions& prepare_options() const {
    return prepare_;
  }
  [[nodiscard]] const primitives::PrimitiveLibrary& library() const {
    return library_;
  }
  [[nodiscard]] const gcn::GcnModel* model() const { return model_; }

 private:
  /// GCN class probabilities for a prepared circuit: features, (cached)
  /// spectral prep, inference, softmax -- the GCN stage of run().
  /// Honors the attached sample and inference caches; with no model it
  /// returns the uniform fallback distribution. The inference-cache key
  /// folds in a fingerprint of the feature *values*, so circuits that
  /// share a structure but differ in sizing buckets never alias.
  [[nodiscard]] Matrix compute_probabilities(const PreparedCircuit& prepared,
                                             Stage* stage) const;

  const gcn::GcnModel* model_;  ///< not owned; may be null (uniform probabilities)
  std::vector<std::string> class_names_;
  primitives::PrimitiveLibrary library_;
  PrepareOptions prepare_;
  std::shared_ptr<gcn::SamplePrepCache> sample_cache_;           ///< optional
  std::shared_ptr<gcn::InferenceCache> inference_cache_;         ///< optional
  /// weights_fingerprint() of model_, captured when inference_cache_ was
  /// attached; 0 when no inference cache (or no model) is present.
  std::uint64_t model_fingerprint_ = 0;
  std::shared_ptr<primitives::AnnotationCache> annotation_cache_;  ///< optional
};

}  // namespace gana::core
