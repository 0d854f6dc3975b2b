// Reusable buffers for the zero-allocation inference fast path.
//
// GcnModel::infer(sample, ws) runs the network as segments (DESIGN.md
// §7): a step over the whole graph, then a row-local tail evaluated
// per block of rows. Every buffer either kind of step writes lives
// here, and its heap storage persists across calls (Matrix::resize
// reuses capacity). After a warm-up pass that grows the buffers to the
// largest shapes the model produces, steady-state inference performs
// zero heap allocations -- pinned by InferWorkspace tests against the
// perf counters (util/perf.hpp).
//
// A workspace is single-threaded mutable state: one per worker thread
// (the batch runtime keeps a thread_local one). Sharing a workspace
// between concurrent infer calls is a data race.
#pragma once

#include <vector>

#include "gcn/row_tail.hpp"
#include "linalg/dense.hpp"

namespace gana::gcn {

struct InferWorkspace {
  /// Whole-graph activations between segments, ping-ponged by
  /// GcnModel::infer: a step always reads one and writes the other.
  Matrix act_a, act_b;
  /// The convolution basis: the Chebyshev stack [T_0 x | ... | T_{K-1}
  /// x], each T_k written in place into its column slice, or SageConv's
  /// [x | Px]. Shared by all convolution layers, which run in turn.
  Matrix z;
  /// Per-cluster member counts for mean Graclus pooling.
  std::vector<double> scratch;
  /// The current segment's tail: packed weights, batch-norm scales and
  /// the calling thread's block scratch (pool threads keep their own).
  RowTail tail;
};

}  // namespace gana::gcn
