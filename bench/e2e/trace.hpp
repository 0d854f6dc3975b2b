// The traced run: the annotation pipeline composed from the library's
// public stage functions, each call wrapped in a span recorded by the
// benchmark (nothing inside the library is instrumented).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "e2e.hpp"
#include "inputs.hpp"

namespace gana::e2e {

/// The composed pipeline's stage spans, in call order. Each reports its
/// self time per input as the per-layer metric "<name>_ms"; the VF2
/// spans ("primitives.vf2.<pattern>") are reported separately.
inline constexpr const char* kStageSpans[] = {
    "spice.parse",      "spice.intern",      "spice.flatten",
    "spice.preprocess", "graph.build",       "spice.materialize",
    "core.labels",      "graph.hash",        "core.features",
    "graph.adjacency",  "gcn.sample_prep",   "gcn.infer",
    "gcn.softmax",      "graph.ccc",         "primitives.index",
    "primitives.accept", "core.pp1",         "core.pp2",
    "core.hierarchy",   "core.export",
};

/// In-memory span recorder. Spans nest; a span's self time is its
/// duration minus the time its child spans cover.
class Tracer {
 public:
  Tracer();

  /// Runs `body` inside a span named `name` (which must outlive the
  /// tracer: a literal or a view from intern()).
  template <typename F>
  decltype(auto) span(std::string_view name, F&& body) {
    enter(name);
    const Leave leave(this);
    return body();
  }

  /// Tags the spans that follow with an input id (args.input).
  void set_input(std::uint64_t input) { input_ = input; }
  /// Stable storage for a computed span name.
  [[nodiscard]] std::string_view intern(std::string name);

  /// Summed self seconds per span name.
  [[nodiscard]] const std::unordered_map<std::string_view, double>& self()
      const {
    return self_;
  }
  /// Summed duration of every span with this name.
  [[nodiscard]] double total(std::string_view name) const;

  /// Trace-event JSON ("X" events: name, ts, dur, pid, tid,
  /// args.input), microseconds since the tracer was created.
  [[nodiscard]] std::string to_json() const;

 private:
  class Leave {
   public:
    explicit Leave(Tracer* tracer) : tracer_(tracer) {}
    ~Leave() { tracer_->leave(); }
    Leave(const Leave&) = delete;
    Leave& operator=(const Leave&) = delete;

   private:
    Tracer* tracer_;
  };
  struct Open {
    std::string_view name;
    double start = 0.0;
    double children = 0.0;
  };
  struct Event {
    std::string_view name;
    double start = 0.0;
    double duration = 0.0;
    std::uint64_t input = 0;
  };

  void enter(std::string_view name);
  void leave();

  double origin_;
  std::uint64_t input_ = 0;
  std::vector<Open> open_;
  std::vector<Event> events_;
  std::unordered_map<std::string_view, double> self_;
  std::unordered_map<std::string_view, double> total_;
  std::deque<std::string> names_;
};

/// Cold compute of `inputs` on one thread with every cache off, traced
/// and untraced, alternating which goes first. Checks that each composed
/// output is byte-identical to Annotator::try_annotate +
/// annotation_to_json, fills the stage metrics (self ms per input), the
/// linalg and primitives counters, trace.coverage and
/// trace.overhead_ratio, and writes the trace file, checking that it
/// round-trips through util/json.
void traced_pass(const gcn::GcnModel& model,
                 const std::vector<std::string>& class_names,
                 primitives::PrimitiveLibrary library,
                 const std::vector<TextInput>& inputs,
                 const RunOptions& options, Record& record);

}  // namespace gana::e2e
