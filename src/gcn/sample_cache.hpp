// Sample-preparation cache keyed by a canonical structural hash.
//
// Batch workloads (datagen sweeps, fuzz corpora, phased arrays of one
// cell) are dominated by structurally identical circuits; their scaled
// Laplacians and propagation operators are functions of the structure,
// and their Graclus cluster maps are identical too, because the Rng
// that breaks Graclus ties is seeded from the structure hash -- never
// from the batch slot. The first slot to need a given structure
// computes its SamplePrep; every other slot reuses it bit-identically,
// so cache hits can never change an output (pinned by the
// batch_determinism cache-on/off tests).
//
// Thread-safe and lock-sharded (util/sharded_cache.hpp): a probe locks
// only the shard its key hashes to, so parallel workers stop convoying
// on one cache-wide mutex. Prep computation happens outside any lock;
// two workers racing on the same miss both compute identical preps and
// first-insert wins -- duplicated work, never divergent results.
#pragma once

#include <cstdint>
#include <memory>

#include "gcn/sample.hpp"
#include "util/sharded_cache.hpp"

namespace gana::gcn {

/// Spectral sample prep per sample key; counts into
/// sample_cache_hits / sample_cache_misses.
using SamplePrepCache =
    CountedCache<SamplePrep, perf::detail::sample_cache_hits,
                 perf::detail::sample_cache_misses>;

}  // namespace gana::gcn
