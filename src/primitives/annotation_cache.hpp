// Primitive-annotation cache keyed by a canonical structural hash.
//
// A 64-copy batch of one OTA cell runs 64 identical VF2 sweeps without
// this cache: the accepted primitive set is a function of the circuit
// *structure* (vertex kinds, device types, net roles, labeled edges),
// the library, and the annotation options -- never of device names or
// sizings. Equal `graph::structural_hash` values imply identically
// *indexed* structure (same vertex order), so a cached record of vertex
// indices transfers verbatim between the copies; only the name-bearing
// parts of a PrimitiveInstance (constraint members, tags) are
// re-instantiated against each circuit's own names.
//
// The cached record is therefore binding-level: per accepted instance,
// the library index, the covered element vertices, and the pattern
// net/device name -> target vertex maps. Instantiation from the record
// is pure and cheap (string assembly only).
//
// Same discipline as gcn::SamplePrepCache: lock-sharded probes
// (util/sharded_cache.hpp) so parallel workers only contend when their
// keys land on the same shard, computation happens outside any lock, and
// when two workers race on one miss the first insert wins -- both
// computed identical records, so duplicated work never means divergent
// results. Cache hits can never change an output (pinned by the
// cache-on/off determinism tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sharded_cache.hpp"

namespace gana::primitives {

/// One accepted primitive occurrence, reduced to what survives across
/// structurally identical circuits: indices and pattern-local names.
struct CachedInstance {
  std::size_t library_index = 0;
  /// Covered target element vertex ids, sorted.
  std::vector<std::size_t> elements;
  /// Pattern net name -> target net vertex id.
  std::vector<std::pair<std::string, std::size_t>> net_binding;
  /// Pattern device name -> target element vertex id.
  std::vector<std::pair<std::string, std::size_t>> device_binding;
};

/// The full (possibly truncated) annotation of one structure.
struct CachedAnnotation {
  std::vector<CachedInstance> instances;
  /// Whether the VF2 sweep that produced this record hit a budget; a
  /// property of the annotation itself, so it is reported on every hit
  /// (unlike the work counters, which are zero on a hit).
  bool truncated = false;
};

/// Binding-level annotation per structure key; counts into
/// annotation_cache_hits / annotation_cache_misses.
using AnnotationCache =
    CountedCache<CachedAnnotation, perf::detail::annotation_cache_hits,
                 perf::detail::annotation_cache_misses>;

}  // namespace gana::primitives
