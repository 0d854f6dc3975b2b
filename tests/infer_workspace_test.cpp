// The zero-allocation inference fast path: GcnModel::infer(sample, ws)
// runs the network as segments (a whole-graph step, then a row-local
// tail per 32-row block, fanned out over the compute pool). It must be
// bit-identical to the allocating infer() and to evaluation-mode
// forward() for every topology, block remainder and pool width, and
// once the workspace is warm it must never touch the heap (pinned
// against the process-wide perf counters).
#include <gtest/gtest.h>

#include <string>

#include "core/export.hpp"
#include "core/features.hpp"
#include "core/pipeline.hpp"
#include "datagen/phased_array.hpp"
#include "datagen/rf_gen.hpp"
#include "gcn/layers.hpp"
#include "gcn/model.hpp"
#include "gcn/workspace.hpp"
#include "linalg/sparse.hpp"
#include "util/perf.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gana::gcn {
namespace {

/// A ring with a few seeded chords and random features. n = 1 has no
/// edges at all (an isolated vertex).
GraphSample ring_sample(std::size_t n, std::size_t d, int pool_levels,
                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  const auto edge = [&t](std::size_t i, std::size_t j) {
    t.push_back({i, j, 1.0});
    t.push_back({j, i, 1.0});
  };
  for (std::size_t i = 0; n > 2 && i < n; ++i) edge(i, (i + 1) % n);
  if (n == 2) edge(0, 1);
  for (std::size_t c = 0; n > 3 && c < n / 4; ++c) {
    const std::size_t i = rng.index(n);
    const std::size_t j = (i + 2 + rng.index(n - 3)) % n;
    edge(i, j);
  }
  auto adj = SparseMatrix::from_triplets(n, n, std::move(t));
  Matrix x = Matrix::randn(n, d, 1.0, rng);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 2);
  return make_sample(adj, std::move(x), std::move(labels), pool_levels, rng,
                     "ring");
}

ModelConfig small_config(std::size_t d, ConvKind kind, bool pooling) {
  ModelConfig cfg;
  cfg.in_features = d;
  cfg.num_classes = 3;
  cfg.conv_kind = kind;
  cfg.conv_channels = {6, 8};
  cfg.cheb_k = 4;
  cfg.fc_hidden = 16;
  cfg.use_pooling = pooling;
  cfg.seed = 11;
  return cfg;
}

void expect_bitwise(const Matrix& a, const Matrix& b, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_TRUE(a.data() == b.data()) << "values differ bitwise";
}

/// Sets the compute-pool width for one scope, restoring it on exit.
class ComputeThreads {
 public:
  explicit ComputeThreads(std::size_t n) : saved_(compute_threads()) {
    set_compute_threads(n);
  }
  ~ComputeThreads() { set_compute_threads(saved_); }
  ComputeThreads(const ComputeThreads&) = delete;
  ComputeThreads& operator=(const ComputeThreads&) = delete;

 private:
  std::size_t saved_;
};

/// Restores the process-global kernel selections on scope exit.
class KernelGuard {
 public:
  KernelGuard() : matmul_(matmul_kernel()), spmm_(spmm_kernel()) {}
  ~KernelGuard() {
    set_matmul_kernel(matmul_);
    set_spmm_kernel(spmm_);
  }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  MatmulKernel matmul_;
  SpmmKernel spmm_;
};

/// Gives the batch-norm layers running statistics of their own, so the
/// evaluation-mode affine map is not the identity.
void randomize_buffers(GcnModel& model, Rng& rng) {
  for (Matrix* b : model.buffers()) {
    for (double& v : b->data()) v = rng.uniform(0.2, 1.5);
  }
}

TEST(InferWorkspace, BitIdenticalToAllocatingInferAndForward) {
  struct Topology {
    ConvKind kind;
    bool pooling;
    GraclusPool::Mode mode;
    const char* name;
  };
  const Topology topologies[] = {
      {ConvKind::Chebyshev, false, GraclusPool::Mode::Max, "cheb"},
      {ConvKind::Chebyshev, true, GraclusPool::Mode::Max, "cheb+pool max"},
      {ConvKind::Chebyshev, true, GraclusPool::Mode::Mean, "cheb+pool mean"},
      {ConvKind::SageMean, false, GraclusPool::Mode::Max, "sage"}};
  const std::vector<std::size_t> stage_sets[] = {{6}, {6, 8}, {5, 7, 9}};
  // Block remainders around the 32-row block: one row, one short of a
  // block, exactly one, one past, one past two, and four blocks plus.
  const std::size_t sizes[] = {1, 31, 32, 33, 65, 130};
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const ComputeThreads pool(threads);
    for (const Topology& t : topologies) {
      for (const bool batch_norm : {true, false}) {
        for (const double dropout : {0.0, 0.5}) {
          for (const auto& stages : stage_sets) {
            ModelConfig cfg = small_config(12, t.kind, t.pooling);
            cfg.pool_mode = t.mode;
            cfg.batch_norm = batch_norm;
            cfg.dropout = dropout;
            cfg.conv_channels = stages;
            GcnModel model(cfg);
            Rng rng(cfg.seed);
            randomize_buffers(model, rng);
            InferWorkspace ws;  // reused across sizes, large after small
            for (const std::size_t n : sizes) {
              SCOPED_TRACE(std::string(t.name) + " bn=" +
                           std::to_string(batch_norm) + " dropout=" +
                           std::to_string(dropout) + " stages=" +
                           std::to_string(stages.size()) + " n=" +
                           std::to_string(n) + " threads=" +
                           std::to_string(threads));
              const auto s = ring_sample(n, 12, cfg.required_pool_levels(),
                                         7 + n);
              const Matrix ref = model.forward(s, /*training=*/false);
              const Matrix alloc = model.infer(s);
              const Matrix& fast = model.infer(s, ws);
              expect_bitwise(ref, alloc, "forward vs allocating infer");
              expect_bitwise(ref, fast, "forward vs workspace infer");
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(InferWorkspace, ParallelStepsMatchSequentialOnLargeGraph) {
  // Large enough that every Chebyshev step splits its rows over the
  // pool too (nnz x width past the spmm threshold), not only the tails.
  const ModelConfig cfg = small_config(24, ConvKind::Chebyshev, false);
  GcnModel model(cfg);
  const auto s = ring_sample(1500, 24, 0, 21);
  const Matrix ref = model.forward(s, /*training=*/false);
  for (const std::size_t threads : {2u, 4u}) {
    const ComputeThreads pool(threads);
    InferWorkspace ws;
    expect_bitwise(ref, model.infer(s, ws), "pooled workspace infer");
  }
}

TEST(InferWorkspace, FlopCountersMatchTheProducts) {
  // Exactly one matmul count per layer product, 2 * n * k * m, and one
  // spmm count per Chebyshev step, 2 * nnz * in -- whatever the blocks.
  for (const ConvKind kind : {ConvKind::Chebyshev, ConvKind::SageMean}) {
    SCOPED_TRACE(kind == ConvKind::Chebyshev ? "cheb" : "sage");
    const ModelConfig cfg = small_config(5, kind, false);
    const std::size_t n = 70;
    const auto s = ring_sample(n, 5, 0, 12);
    GcnModel model(cfg);
    InferWorkspace ws;
    (void)model.infer(s, ws);

    const std::uint64_t k =
        kind == ConvKind::Chebyshev ? static_cast<std::uint64_t>(cfg.cheb_k)
                                    : 2;
    const std::uint64_t steps = kind == ConvKind::Chebyshev ? k - 1 : 1;
    const std::uint64_t nnz =
        kind == ConvKind::Chebyshev ? s.lhat[0].nnz() : s.prop[0].nnz();
    std::uint64_t matmul = 0, spmm = 0;
    std::uint64_t in = cfg.in_features;
    for (const std::size_t out : cfg.conv_channels) {
      matmul += 2 * n * (k * in) * out;
      spmm += steps * 2 * nnz * in;
      in = out;
    }
    matmul += 2 * n * in * cfg.fc_hidden;
    matmul += 2 * n * cfg.fc_hidden * cfg.num_classes;

    const PerfSnapshot before = perf_snapshot();
    (void)model.infer(s, ws);
    const PerfSnapshot d = perf_snapshot() - before;
    EXPECT_EQ(d.matmul_flops, matmul);
    EXPECT_EQ(d.matmul_calls, cfg.conv_channels.size() + 2);
    EXPECT_EQ(d.spmm_flops, spmm);
    EXPECT_EQ(d.spmm_calls, steps * cfg.conv_channels.size());
  }
}

TEST(InferWorkspace, ReferenceAndSimdKernelsAnnotateIdentically) {
  // The paper's topology end to end through the Annotator, under each
  // kernel and pool width: byte-identical exports and probabilities.
  ModelConfig cfg;
  cfg.in_features = core::kNumFeatures;
  cfg.num_classes = 3;
  const GcnModel model(cfg);
  Rng rng(5);
  datagen::PhasedArrayOptions opt;
  opt.channels = 2;
  const auto circuit = datagen::generate_phased_array(opt, rng);
  const core::Annotator annotator(&model, datagen::rf_class_names());

  const KernelGuard guard;
  std::string first_json;
  Matrix first_probs;
  for (const bool reference : {true, false}) {
    set_matmul_kernel(reference ? MatmulKernel::Reference
                                : MatmulKernel::Simd);
    set_spmm_kernel(reference ? SpmmKernel::Reference : SpmmKernel::Simd);
    for (const std::size_t threads : {1u, 2u}) {
      SCOPED_TRACE(std::string(reference ? "reference" : "simd") +
                   " threads=" + std::to_string(threads));
      const ComputeThreads pool(threads);
      const auto r = annotator.annotate(circuit);
      const std::string json =
          core::annotation_to_json(r, datagen::rf_class_names());
      if (first_json.empty()) {
        ASSERT_GT(r.probabilities.rows(), 64u) << "want several row blocks";
        first_json = json;
        first_probs = r.probabilities;
        continue;
      }
      EXPECT_EQ(json, first_json);
      expect_bitwise(r.probabilities, first_probs, "probabilities");
    }
  }
}

TEST(InferWorkspace, SteadyStateZeroAllocations) {
  const ModelConfig cfg =
      small_config(5, ConvKind::Chebyshev, /*pooling=*/true);
  const auto s = ring_sample(16, 5, cfg.required_pool_levels(), 8);
  GcnModel model(cfg);

  InferWorkspace ws;
  const Matrix warm = model.infer(s, ws);  // grows every buffer once

  const PerfSnapshot before = perf_snapshot();
  for (int i = 0; i < 5; ++i) {
    const Matrix& y = model.infer(s, ws);
    ASSERT_EQ(y.rows(), s.nodes());
  }
  const PerfSnapshot d = perf_snapshot() - before;
  EXPECT_EQ(d.matrix_allocs, 0u) << "steady-state inference allocated";
  EXPECT_EQ(d.matrix_alloc_bytes, 0u);
  // The counters did observe the work itself.
  EXPECT_GT(d.spmm_calls, 0u);
  EXPECT_GT(d.matmul_calls, 0u);
  EXPECT_GT(d.spmm_flops, 0u);
  EXPECT_GT(d.matmul_flops, 0u);

  const Matrix& again = model.infer(s, ws);
  expect_bitwise(warm, again, "warm vs steady-state output");
}

TEST(InferWorkspace, ReusedAcrossDifferentSampleShapes) {
  // A workspace warmed on a large sample must still produce bit-exact
  // results on a smaller one (capacity reuse, logical-shape reset).
  const ModelConfig cfg =
      small_config(4, ConvKind::Chebyshev, /*pooling=*/false);
  const auto big = ring_sample(20, 4, 0, 9);
  const auto small = ring_sample(6, 4, 0, 10);
  GcnModel model(cfg);

  InferWorkspace ws;
  (void)model.infer(big, ws);
  const Matrix& got = model.infer(small, ws);
  const Matrix ref = model.infer(small);
  expect_bitwise(ref, got, "small sample after large warm-up");

  const PerfSnapshot before = perf_snapshot();
  (void)model.infer(small, ws);
  const PerfSnapshot d = perf_snapshot() - before;
  EXPECT_EQ(d.matrix_allocs, 0u)
      << "shrinking shapes must reuse capacity, not reallocate";
}

TEST(InferWorkspace, IntoVariantsMatchAllocatingWrappers) {
  Rng rng(3);
  const Matrix a = Matrix::randn(7, 5, 1.0, rng);
  const Matrix b = Matrix::randn(5, 4, 1.0, rng);
  const Matrix ref_mm = matmul(a, b);
  Matrix c = Matrix::randn(11, 9, 1.0, rng);  // dirty, larger buffer
  matmul_into(a, b, c);
  expect_bitwise(ref_mm, c, "matmul_into vs matmul");

  const auto m = SparseMatrix::from_triplets(
      7, 7, {{0, 1, 2.0}, {1, 0, 2.0}, {3, 4, -1.5}, {6, 6, 0.5}});
  const Matrix ref_sp = m.multiply(a);
  Matrix y = Matrix::randn(2, 2, 1.0, rng);  // dirty, smaller buffer
  m.multiply_into(a, y);
  expect_bitwise(ref_sp, y, "multiply_into vs multiply");
}

TEST(InferWorkspace, PerfCountersTrackFlops) {
  Rng rng(4);
  const Matrix a = Matrix::randn(8, 6, 1.0, rng);
  const Matrix b = Matrix::randn(6, 3, 1.0, rng);
  const PerfSnapshot before = perf_snapshot();
  const Matrix c = matmul(a, b);
  const PerfSnapshot d = perf_snapshot() - before;
  EXPECT_EQ(d.matmul_calls, 1u);
  EXPECT_EQ(d.matmul_flops, 2ull * 8 * 6 * 3);
  EXPECT_GE(d.matrix_allocs, 1u);  // the result buffer
}

}  // namespace
}  // namespace gana::gcn
