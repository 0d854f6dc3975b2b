// Lightweight performance counters for the inference fast path.
//
// Process-wide relaxed atomics, incremented once per kernel call (never
// per element), so they are cheap enough to stay on in production. The
// batch runtime snapshots them around a run and reports the deltas in
// BatchTimings; InferWorkspace.SteadyStateZeroAllocations uses them to
// prove the workspace path performs zero steady-state heap allocations.
//
// Counters are global, not per-thread: concurrent *independent* batch
// runs in one process would mix their deltas. Within one BatchRunner run
// (the supported concurrency model) sums across workers are exactly what
// the observability layer wants.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gana {

/// The counter table. Every per-counter listing -- the PerfSnapshot
/// fields, the atomics, perf_snapshot(), the snapshot difference and
/// sum, and the counter keys of core::batch_timings_to_json -- expands
/// this one list, in this order. Adding a counter means adding its line
/// here and its increment helper below.
#define GANA_PERF_COUNTERS(X)                                              \
  X(matrix_allocs)           /* dense buffers that hit the heap */         \
  X(matrix_alloc_bytes)      /* bytes requested by those allocs */         \
  X(spmm_calls)              /* sparse*dense products */                   \
  X(spmm_flops)              /* 2*nnz*cols per product */                  \
  X(matmul_calls)            /* dense*dense products */                    \
  X(matmul_flops)            /* 2*m*n*k per product */                     \
  X(sample_cache_hits)       /* SamplePrepCache lookups served */          \
  X(sample_cache_misses)     /* lookups that had to compute */             \
  X(inference_cache_hits)    /* InferenceCache lookups served */           \
  X(inference_cache_misses)  /* lookups that ran the GCN */                \
  X(vf2_states)              /* VF2 search states explored */              \
  X(vf2_sig_rejections)      /* candidates cut by signature lookahead */   \
  X(vf2_pattern_skips)       /* patterns cut by the counting filter */     \
  X(annotation_cache_hits)   /* AnnotationCache lookups served */          \
  X(annotation_cache_misses) /* lookups that ran the matcher */            \
  X(cache_evictions)         /* entries dropped by capacity-bounded        \
                                sharded caches (any cache) */              \
  X(parse_bytes)             /* netlist text bytes fed to a parser */      \
  X(intern_hits)             /* SymbolTable lookups of known names */      \
  X(intern_misses)           /* SymbolTable first-time interns */          \
  X(frontend_allocs)         /* interned front-end heap allocations        \
                                (arena chunks, table rehashes,             \
                                whole-file buffers) */

/// Point-in-time copy of every counter; subtract two snapshots to get
/// the activity of a region.
struct PerfSnapshot {
#define GANA_PERF_FIELD(name) std::uint64_t name = 0;
  GANA_PERF_COUNTERS(GANA_PERF_FIELD)
#undef GANA_PERF_FIELD

  /// Counterwise difference (this - since).
  [[nodiscard]] PerfSnapshot operator-(const PerfSnapshot& since) const;
  /// Counterwise sum.
  PerfSnapshot& operator+=(const PerfSnapshot& o);
};

/// Reads every counter (relaxed; exact when no kernel is concurrently
/// running, a consistent-enough view otherwise).
[[nodiscard]] PerfSnapshot perf_snapshot();

namespace perf {

namespace detail {
#define GANA_PERF_ATOMIC(name) extern std::atomic<std::uint64_t> name;
GANA_PERF_COUNTERS(GANA_PERF_ATOMIC)
#undef GANA_PERF_ATOMIC
}  // namespace detail

inline void count_matrix_alloc(std::size_t bytes) {
  detail::matrix_allocs.fetch_add(1, std::memory_order_relaxed);
  detail::matrix_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

inline void count_spmm(std::uint64_t flops) {
  detail::spmm_calls.fetch_add(1, std::memory_order_relaxed);
  detail::spmm_flops.fetch_add(flops, std::memory_order_relaxed);
}

inline void count_matmul(std::uint64_t flops) {
  detail::matmul_calls.fetch_add(1, std::memory_order_relaxed);
  detail::matmul_flops.fetch_add(flops, std::memory_order_relaxed);
}

/// Flushed once per find_subgraph_matches call with locally accumulated
/// totals (never per search state).
inline void count_vf2(std::uint64_t states, std::uint64_t sig_rejections) {
  detail::vf2_states.fetch_add(states, std::memory_order_relaxed);
  detail::vf2_sig_rejections.fetch_add(sig_rejections,
                                       std::memory_order_relaxed);
}

inline void count_vf2_pattern_skips(std::uint64_t n) {
  detail::vf2_pattern_skips.fetch_add(n, std::memory_order_relaxed);
}

inline void count_cache_eviction() {
  detail::cache_evictions.fetch_add(1, std::memory_order_relaxed);
}

inline void count_parse_bytes(std::uint64_t bytes) {
  detail::parse_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// Flushed once per intern-heavy region (a parse, a flatten) with locally
/// accumulated totals -- never per lookup.
inline void count_intern(std::uint64_t hits, std::uint64_t misses) {
  detail::intern_hits.fetch_add(hits, std::memory_order_relaxed);
  detail::intern_misses.fetch_add(misses, std::memory_order_relaxed);
}

inline void count_frontend_alloc(std::uint64_t n = 1) {
  detail::frontend_allocs.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace perf
}  // namespace gana
