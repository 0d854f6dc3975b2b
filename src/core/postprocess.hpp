// Postprocessing of GCN classifications (paper §V-A).
//
// Postprocessing I (graph heuristics, design-independent):
//   * every vertex of a channel-connected component takes the CCC's
//     probability-weighted majority class;
//   * CCCs made entirely of inverter primitives are separated into
//     stand-alone units: a cyclic inverter chain is a ring oscillator, a
//     linear chain is a buffer (BUF), an inverter with a feedback
//     resistor is an inverter amplifier (INV);
//   * an oscillator-classified CCC with a cross-coupled pair plus
//     injection transistors (externally driven gates) is a BPF.
//
// Postprocessing II (class-specific port knowledge):
//   * a block touching an antenna-labeled net is the LNA;
//   * a block *driving* (source/drain) an oscillating-input net is an
//     oscillator; a block *gated* by one is a mixer.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "graph/ccc.hpp"
#include "graph/circuit_graph.hpp"
#include "linalg/dense.hpp"
#include "primitives/annotator.hpp"
#include "primitives/library.hpp"

namespace gana::core {

struct PostprocessResult {
  /// Final class per CCC (ids index the full class-name list, which may
  /// be longer than the GCN's output classes, e.g. bpf/buf/invamp).
  std::vector<int> cluster_class;
  /// All primitive instances found in the graph.
  std::vector<primitives::PrimitiveInstance> primitives;
  /// Indices into `primitives` of stand-alone units (buffers and
  /// inverter amps separated from sub-blocks).
  std::vector<std::size_t> standalone;
  /// CCC ids whose class was decided *structurally* by Postprocessing I
  /// (inverter chains/rings, LC oscillators, BPFs, inherited bias
  /// branches). Postprocessing II's port rules never override these.
  std::set<std::size_t> structural;
  /// True when the VF2 budget truncated primitive extraction; the
  /// primitive list is then a deterministic partial annotation.
  bool primitives_truncated = false;
  /// VF2 states explored across all library patterns.
  std::size_t vf2_states = 0;
};

/// Looks up a class name, returning its id or nullopt.
std::optional<int> class_id(const std::vector<std::string>& class_names,
                            const std::string& name);

/// Postprocessing I. `probs` holds the GCN's per-vertex class
/// probabilities (columns = the first probs.cols() entries of
/// `class_names`). `annotate_options` tunes primitive extraction (VF2
/// budgets, pattern-parallel pool, annotation cache); the default runs
/// sequential and uncached. Options never change the accepted primitive
/// set -- only how fast it is found.
PostprocessResult postprocess_stage1(
    const graph::CircuitGraph& g, const graph::CccResult& ccc,
    const Matrix& probs, const std::vector<std::string>& class_names,
    const primitives::PrimitiveLibrary& library,
    const primitives::AnnotateOptions& annotate_options = {});

/// Postprocessing I on a *precomputed* primitive annotation: what
/// core::Annotator::run calls after extraction, whether the sweep ran
/// beside the GCN, through a cache, or through a session's
/// whole-structure store -- everything after extraction (CCC vote,
/// stand-alone separation, LC/BPF rules, bias inheritance) is cheap
/// and global. Bit-identical to
/// postprocess_stage1 when `annotation` equals
/// annotate_primitives_guarded(g, library, options).
PostprocessResult postprocess_stage1_with_annotation(
    const graph::CircuitGraph& g, const graph::CccResult& ccc,
    const Matrix& probs, const std::vector<std::string>& class_names,
    primitives::AnnotateOutcome annotation);

/// Postprocessing II; updates `result.cluster_class` in place. No-op for
/// class vocabularies without RF classes.
void postprocess_stage2(const graph::CircuitGraph& g,
                        const graph::CccResult& ccc,
                        const std::vector<std::string>& class_names,
                        PostprocessResult& result);

/// Re-assigns pure bias-branch CCCs (diode references + sources) to the
/// class of the block they bias. Called by both stages; exposed for
/// custom flows. No-op for vocabularies with a dedicated "bias" class.
void inherit_bias_branches(const graph::CircuitGraph& g,
                           const graph::CccResult& ccc,
                           const std::vector<std::string>& class_names,
                           PostprocessResult& result);

/// Per-vertex classes from cluster classes: elements take their CCC's
/// class, nets the majority of adjacent elements, rails -1.
std::vector<int> vertex_classes(const graph::CircuitGraph& g,
                                const graph::CccResult& ccc,
                                const std::vector<int>& cluster_class);

/// Fraction of vertices (with truth >= 0 and prediction >= 0 semantics:
/// truth >= 0 counts) where prediction equals truth.
double accuracy(const std::vector<int>& prediction,
                const std::vector<int>& truth);

}  // namespace gana::core
