#include "trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/export.hpp"
#include "core/features.hpp"
#include "core/hierarchy.hpp"
#include "core/postprocess.hpp"
#include "gcn/layers.hpp"
#include "gcn/workspace.hpp"
#include "graph/builder.hpp"
#include "graph/ccc.hpp"
#include "graph/laplacian.hpp"
#include "graph/structural_hash.hpp"
#include "isomorph/candidate_index.hpp"
#include "primitives/annotator.hpp"
#include "spice/interned.hpp"
#include "spice/parser.hpp"
#include "util/perf.hpp"
#include "util/thread_pool.hpp"

namespace gana::e2e {

Tracer::Tracer() : origin_(now_seconds()) {}

std::string_view Tracer::intern(std::string name) {
  names_.push_back(std::move(name));
  return names_.back();
}

void Tracer::enter(std::string_view name) {
  open_.push_back(Open{name, now_seconds(), 0.0});
}

void Tracer::leave() {
  const double end = now_seconds();
  const Open span = open_.back();
  open_.pop_back();
  const double duration = end - span.start;
  self_[span.name] += duration - span.children;
  total_[span.name] += duration;
  if (!open_.empty()) open_.back().children += duration;
  events_.push_back(Event{span.name, span.start - origin_, duration, input_});
}

double Tracer::total(std::string_view name) const {
  const auto it = total_.find(name);
  return it == total_.end() ? 0.0 : it->second;
}

std::string Tracer::to_json() const {
  const auto pid = static_cast<std::int64_t>(::getpid());
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    json::Value args{std::vector<json::Member>{}};
    args.set("input", json::Value(e.input));
    json::Value v{std::vector<json::Member>{}};
    v.set("name", json::Value(std::string(e.name)));
    v.set("ph", json::Value("X"));
    v.set("ts", json::Value(e.start * 1e6));
    v.set("dur", json::Value(e.duration * 1e6));
    v.set("pid", json::Value(pid));
    v.set("tid", json::Value(1));
    v.set("args", std::move(args));
    if (i > 0) out += ',';
    out += json::dump(v);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

namespace {

/// Counters read around single stages of the traced run.
struct StageCounters {
  double infer_seconds = 0.0;
  std::uint64_t matmul_flops = 0;
  std::uint64_t spmm_flops = 0;
  std::uint64_t matrix_allocs = 0;
  std::uint64_t vf2_states = 0;
  std::uint64_t sig_rejections = 0;
  std::uint64_t pattern_skips = 0;
};

/// Annotator::try_annotate + annotation_to_json on a bare netlist text,
/// composed stage by stage (core/pipeline.cpp is the reference this
/// must reproduce byte for byte: no caches, default sample seed).
class ComposedPipeline {
 public:
  ComposedPipeline(const core::Annotator& annotator, Tracer& tracer)
      : a_(annotator),
        t_(tracer),
        order_(annotator.library().priority_order()) {
    for (std::size_t li : order_) {
      pattern_spans_.push_back(
          t_.intern("primitives.vf2." + annotator.library().spec(li).name));
    }
  }

  std::string annotate(const TextInput& input, StageCounters& c) {
    const PerfSnapshot start = perf_snapshot();
    std::string out = t_.span("annotate", [&] { return run(input, c); });
    c.matrix_allocs += (perf_snapshot() - start).matrix_allocs;
    return out;
  }

 private:
  std::string run(const TextInput& input, StageCounters& c) {
    const std::string& name = input.name;
    const std::vector<std::string>& classes = a_.class_names();
    spice::ParseOptions popt;
    popt.source = name;
    Result<spice::Netlist> parsed = t_.span("spice.parse", [&] {
      return spice::parse_netlist_result(input.text, popt);
    });
    if (!parsed.ok()) {
      throw std::runtime_error("traced input " + name +
                               " does not parse: " + parsed.diag().render());
    }

    // --- Front end (core::prepare_circuit, interned path).
    core::AnnotateResult r;
    r.prepared.name = name;
    r.prepared.class_names = classes;
    spice::InternedNetlist interned = t_.span(
        "spice.intern", [&] { return spice::intern_netlist(parsed.value()); });
    spice::InternedNetlist flat = t_.span("spice.flatten", [&] {
      return spice::flatten_interned(std::move(interned), name);
    });
    const core::PrepareOptions& prep = a_.prepare_options();
    if (prep.preprocess) {
      r.prepared.preprocess_report = t_.span("spice.preprocess", [&] {
        return spice::preprocess_interned(flat, prep.preprocess_options);
      });
    }
    r.prepared.graph =
        t_.span("graph.build", [&] { return graph::build_graph(flat); });
    r.prepared.flat = t_.span("spice.materialize",
                              [&] { return spice::materialize_netlist(flat); });
    const graph::CircuitGraph& g = r.prepared.graph;
    r.prepared.labels =
        t_.span("core.labels", [&] { return core::vertex_labels(g, {}); });

    // --- GCN (Annotator::compute_probabilities without caches).
    const gcn::GcnModel& model = *a_.model();
    const std::uint64_t hash =
        t_.span("graph.hash", [&] { return graph::structural_hash(g); });
    Matrix features =
        t_.span("core.features", [&] { return core::build_features(g); });
    SparseMatrix adjacency =
        t_.span("graph.adjacency", [&] { return graph::adjacency(g); });
    gcn::GraphSample sample = t_.span("gcn.sample_prep", [&] {
      Rng rng(graph::hash_combine(core::kDefaultSampleSeed, hash));
      return gcn::make_sample(adjacency, std::move(features), r.prepared.labels,
                              model.config().required_pool_levels(), rng, name);
    });
    const PerfSnapshot before = perf_snapshot();
    const double infer_start = now_seconds();
    const Matrix& logits = t_.span("gcn.infer", [&]() -> const Matrix& {
      return model.infer(sample, ws_);
    });
    c.infer_seconds += now_seconds() - infer_start;
    const PerfSnapshot infer = perf_snapshot() - before;
    c.matmul_flops += infer.matmul_flops;
    c.spmm_flops += infer.spmm_flops;
    t_.span("gcn.softmax", [&] {
      r.probabilities = gcn::softmax(logits);
      const Matrix& p = r.probabilities;
      r.gcn_class.assign(p.rows(), -1);
      for (std::size_t v = 0; v < p.rows(); ++v) {
        std::size_t best = 0;
        for (std::size_t k = 1; k < p.cols(); ++k) {
          if (p(v, k) > p(v, best)) best = k;
        }
        r.gcn_class[v] = static_cast<int>(best);
      }
    });

    // --- Primitives (annotate_primitives_guarded without a cache).
    r.ccc = t_.span("graph.ccc",
                    [&] { return graph::channel_connected_components(g); });
    const primitives::PrimitiveLibrary& library = a_.library();
    const primitives::AnnotateOptions options{};
    std::optional<iso::CandidateIndex> index;
    t_.span("primitives.index", [&] { index.emplace(g); });
    std::vector<primitives::PatternMatchList> lists(order_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      lists[i] = t_.span(pattern_spans_[i], [&] {
        return primitives::match_library_pattern(library.spec(order_[i]), g,
                                                 *index, options.match);
      });
    }
    primitives::AnnotateOutcome outcome;
    t_.span("primitives.accept", [&] {
      const primitives::CachedAnnotation ann =
          primitives::accept_pattern_matches(g, library, order_, lists, options,
                                             outcome);
      primitives::instantiate_annotation(g, library, ann, outcome.primitives);
    });
    c.vf2_states += outcome.vf2_states;
    c.sig_rejections += outcome.sig_rejections;
    c.pattern_skips += outcome.patterns_skipped;

    // --- Postprocessing, hierarchy, export (Annotator::run).
    t_.span("core.pp1", [&] {
      r.post = core::postprocess_stage1_with_annotation(
          g, r.ccc, r.probabilities, classes, std::move(outcome));
      r.post1_class = core::vertex_classes(g, r.ccc, r.post.cluster_class);
    });
    t_.span("core.pp2", [&] {
      core::postprocess_stage2(g, r.ccc, classes, r.post);
      r.final_class = core::vertex_classes(g, r.ccc, r.post.cluster_class);
    });
    t_.span("core.hierarchy", [&] {
      r.hierarchy = core::build_hierarchy(g, r.ccc, r.post, classes, name);
      r.acc_gcn = core::accuracy(r.gcn_class, r.prepared.labels);
      r.acc_post1 = core::accuracy(r.post1_class, r.prepared.labels);
      r.acc_post2 = core::accuracy(r.final_class, r.prepared.labels);
    });
    return t_.span("core.export",
                   [&] { return core::annotation_to_json(r, classes); });
  }

  const core::Annotator& a_;
  Tracer& t_;
  std::vector<std::size_t> order_;
  std::vector<std::string_view> pattern_spans_;
  gcn::InferWorkspace ws_;
};

/// The production path the composition is checked against.
std::string untraced_annotate(const core::Annotator& annotator,
                              const TextInput& input) {
  spice::ParseOptions popt;
  popt.source = input.name;
  auto parsed = spice::parse_netlist_result(input.text, popt);
  if (!parsed.ok()) {
    throw std::runtime_error("input " + input.name +
                             " does not parse: " + parsed.diag().render());
  }
  auto result = annotator.try_annotate(parsed.value(), input.name);
  if (!result.ok()) {
    throw std::runtime_error("input " + input.name +
                             " failed: " + result.diag().render());
  }
  return core::annotation_to_json(result.value(), annotator.class_names());
}


}  // namespace

void traced_pass(const gcn::GcnModel& model,
                 const std::vector<std::string>& class_names,
                 primitives::PrimitiveLibrary library,
                 const std::vector<TextInput>& inputs,
                 const RunOptions& options, Record& record) {
  set_compute_threads(1);
  const core::Annotator annotator(&model, class_names, std::move(library));
  Tracer tracer;
  ComposedPipeline composed(annotator, tracer);
  StageCounters counters;
  double untraced_seconds = 0.0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    tracer.set_input(i);
    std::string reference;
    std::string traced;
    const auto run_untraced = [&] {
      const double start = now_seconds();
      reference = untraced_annotate(annotator, inputs[i]);
      untraced_seconds += now_seconds() - start;
    };
    // Alternate the order so neither side always runs on warm caches.
    if (i % 2 == 0) run_untraced();
    traced = composed.annotate(inputs[i], counters);
    if (i % 2 == 1) run_untraced();
    if (traced != reference) {
      if (mismatches++ == 0) first_mismatch = inputs[i].name;
    }
  }
  record.check("trace.composed_identical", mismatches == 0,
               mismatches == 0
                   ? std::to_string(inputs.size()) + " inputs byte-identical"
                   : std::to_string(mismatches) + " of " +
                         std::to_string(inputs.size()) +
                         " differ, first: " + first_mismatch);

  const double n = static_cast<double>(std::max<std::size_t>(inputs.size(), 1));
  double stage_self = 0.0;
  for (const char* stage : kStageSpans) {
    const auto it = tracer.self().find(stage);
    const double s = it == tracer.self().end() ? 0.0 : it->second;
    stage_self += s;
    record.layer(std::string(stage) + "_ms", s / n * 1e3);
  }
  double vf2 = 0.0;
  std::unordered_map<std::string, double> per_pattern;
  for (std::size_t li : annotator.library().priority_order()) {
    const std::string& pattern = annotator.library().spec(li).name;
    const double s = tracer.total("primitives.vf2." + pattern);
    vf2 += s;
    per_pattern[vf2_metric(pattern)] += s;
  }
  stage_self += vf2;
  for (const auto& [metric, s] : per_pattern) record.layer(metric, s / n * 1e3);
  record.layer("primitives.vf2_ms", vf2 / n * 1e3);

  const double infer = std::max(counters.infer_seconds, 1e-12);
  record.layer("linalg.matmul_flops",
               static_cast<double>(counters.matmul_flops) / n);
  record.layer("linalg.spmm_flops",
               static_cast<double>(counters.spmm_flops) / n);
  record.layer("linalg.gflops", static_cast<double>(counters.matmul_flops +
                                                    counters.spmm_flops) /
                                    infer * 1e-9);
  record.layer("linalg.matrix_allocs",
               static_cast<double>(counters.matrix_allocs) / n);
  record.layer("primitives.vf2_states",
               static_cast<double>(counters.vf2_states) / n);
  record.layer("primitives.sig_rejections",
               static_cast<double>(counters.sig_rejections) / n);
  record.layer("primitives.pattern_skips",
               static_cast<double>(counters.pattern_skips) / n);

  const double traced_wall = std::max(tracer.total("annotate"), 1e-12);
  record.layer("trace.coverage", stage_self / traced_wall);
  record.layer("trace.overhead_ratio",
               traced_wall / std::max(untraced_seconds, 1e-12));
  record.note("trace_inputs",
              json::Value(static_cast<std::uint64_t>(inputs.size())));

  const std::string text = tracer.to_json();
  std::string error;
  const auto parsed = json::parse(text, &error);
  const bool round_trip = parsed.has_value() && json::dump(*parsed) == text;
  record.check("trace.round_trip", round_trip,
               round_trip ? std::to_string(text.size()) + " bytes"
                          : "trace JSON does not round-trip: " + error);
  std::ofstream file(options.trace_path, std::ios::binary);
  file << text;
  file.close();
  record.check("trace.written", static_cast<bool>(file), options.trace_path);
}

}  // namespace gana::e2e
