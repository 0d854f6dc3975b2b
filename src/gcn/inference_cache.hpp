// GCN inference-result cache keyed by sample key x weights fingerprint.
//
// The sample-prep cache (sample_cache.hpp) already exploits the fact
// that batch workloads are dominated by structurally identical circuits;
// this cache completes the idea. Inference is a pure function of the
// sample bits and the model weights -- every kernel is bit-deterministic
// at any thread count (tests/kernel_equivalence_test.cpp) -- so two
// circuits with the same sample key and the same weights fingerprint
// have bitwise-equal class probabilities. The first slot to need a
// structure runs the GCN; every other slot reuses its probabilities,
// skipping the ~1.4 MFLOP forward pass entirely. Cache hits can never
// change an output (pinned by the BatchScaling cache-on/off tests).
//
// Keys MUST mix in GcnModel::weights_fingerprint(): the sample key alone
// identifies the input, not the weights, and a cache outliving a
// training step would otherwise serve stale probabilities. The Annotator
// does this automatically; direct users compose the key themselves.
//
// Thread-safe like the other structural caches (util/bounded_cache.hpp);
// two workers racing on the same miss both infer identical probabilities
// and first-insert wins.
#pragma once

#include <cstdint>
#include <memory>

#include "linalg/dense.hpp"
#include "util/bounded_cache.hpp"

namespace gana::gcn {

/// Per-vertex class probabilities per inference key; counts into
/// inference_cache_hits / inference_cache_misses.
using InferenceCache =
    CountedCache<Matrix, perf::detail::inference_cache_hits,
                 perf::detail::inference_cache_misses>;

}  // namespace gana::gcn
