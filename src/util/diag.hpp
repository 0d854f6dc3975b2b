// Structured diagnostics for the annotation pipeline.
//
// Every rejection anywhere between ingest and hierarchy extraction is
// described by a `Diag`: a machine-readable error code, the pipeline
// stage that rejected the input, a human-readable message, the netlist
// source location when one is known, and optional notes (e.g. the
// instantiation chain of a recursive subcircuit). `Result<T>` carries
// either a value or a Diag across stage boundaries, so batch callers can
// isolate per-circuit failures without exceptions crossing threads.
//
// The exception-based API (`spice::NetlistError` and friends) remains:
// exceptions thrown by the pipeline carry a Diag payload, and the
// Result-returning entry points (`parse_netlist_result`,
// `flatten_result`, `Annotator::try_annotate`, `BatchRunner::run_isolated`)
// catch them at the stage boundary.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gana {

/// Pipeline stage that produced a diagnostic (paper §II-B order).
enum class Stage {
  Io,           ///< reading the netlist from disk
  Parse,        ///< SPICE text -> object model
  Validate,     ///< object-model invariants (pin counts, name uniqueness)
  Flatten,      ///< hierarchy expansion
  Preprocess,   ///< parallel/series merge, dummy/decap removal
  GraphBuild,   ///< bipartite graph abstraction
  Features,     ///< 18-dim vertex features
  Gcn,          ///< GCN inference
  Primitives,   ///< VF2 primitive annotation
  Postprocess,  ///< Postprocessing I/II
  Hierarchy,    ///< hierarchy tree + constraints
  Batch,        ///< batch runtime (scheduling, cancellation)
  Serve,        ///< annotation service (framing, admission, transport)
};

/// What went wrong, independent of the free-form message.
enum class DiagCode {
  // Parse-time rejections.
  SyntaxError,       ///< malformed card or directive
  BadValue,          ///< unparsable or non-numeric value token
  UnknownDirective,  ///< unsupported dot-directive
  LimitExceeded,     ///< input-size / line-length / line-count guard hit
  // Object-model rejections (parser or validate).
  DuplicateName,    ///< device/instance/subckt name collision in a scope
  UndefinedSubckt,  ///< instance references a subckt with no definition
  PortMismatch,     ///< instance net count != definition port count
  BadPinCount,      ///< device has the wrong number of pins
  EmptyName,        ///< unnamed device or empty net name
  // Structural hazards.
  RecursiveSubckt,  ///< cyclic .subckt instantiation
  DepthExceeded,    ///< hierarchy nesting beyond the flatten budget
  NotFlat,          ///< a stage requiring a flat netlist saw instances
  // Numeric / resource guards.
  NonFinite,        ///< Inf/NaN device value, parameter, or feature
  BudgetExhausted,  ///< a deterministic resource budget was exhausted
  Truncated,        ///< partial result after a budget hit (warning-level)
  DeadlineExceeded, ///< per-request wall-clock budget expired (or cancelled)
  Overloaded,       ///< admission control shed the request (retryable)
  // Everything else.
  IoError,       ///< file missing/unreadable/unwritable
  FormatError,   ///< binary artifact malformed (magic/version/checksum)
  Skipped,       ///< batch task cancelled by fail-fast before it ran
  WorkerFailed,  ///< shard worker process crashed or exited nonzero
  ModelMismatch, ///< model's input/output width does not fit the annotator
  Internal,      ///< unexpected exception escaping a pipeline stage
};

[[nodiscard]] const char* to_string(Stage s);
[[nodiscard]] const char* to_string(DiagCode c);

/// Inverse of to_string; nullopt for unknown names. The wire protocol
/// (serve/protocol) ships Diags as JSON, so both enums must parse back
/// losslessly -- pinned by the diag_json round-trip test.
[[nodiscard]] std::optional<Stage> stage_from_string(std::string_view name);
[[nodiscard]] std::optional<DiagCode> diag_code_from_string(
    std::string_view name);

/// Every enumerator, in declaration order. Lets the round-trip tests (and
/// the wire protocol's exhaustiveness checks) enumerate without hardcoding
/// the last member.
[[nodiscard]] const std::vector<Stage>& all_stages();
[[nodiscard]] const std::vector<DiagCode>& all_diag_codes();

/// Position in the netlist source text. `line` is 1-based; 0 means the
/// diagnostic is not tied to a specific line (e.g. whole-file limits).
struct SourceLoc {
  std::string file;      ///< source name ("<input>" for in-memory text)
  std::size_t line = 0;  ///< 1-based physical line, 0 = unknown

  [[nodiscard]] bool known() const { return !file.empty() || line != 0; }
  [[nodiscard]] std::string to_string() const;
};

/// One structured diagnostic.
struct Diag {
  DiagCode code = DiagCode::Internal;
  Stage stage = Stage::Parse;
  std::string message;             ///< human-readable, no location prefix
  SourceLoc loc;                   ///< where in the netlist source
  std::vector<std::string> notes;  ///< extra context, one line each

  /// "file:line: [stage/code] message" plus one indented line per note.
  [[nodiscard]] std::string render() const;
};

/// Builds a Diag in one expression.
[[nodiscard]] Diag make_diag(DiagCode code, Stage stage, std::string message,
                             SourceLoc loc = {},
                             std::vector<std::string> notes = {});

/// Exception carrying a structured Diag. The layer-neutral base of
/// `spice::NetlistError`: low-level modules (linalg, graph) that must
/// reject bad input throw this directly, and every pipeline guard that
/// catches `DiagError` therefore recovers the full diagnostic no matter
/// which layer rejected the input.
class DiagError : public std::runtime_error {
 public:
  explicit DiagError(Diag diag)
      : std::runtime_error(diag.render()), diag_(std::move(diag)) {}

  [[nodiscard]] const Diag& diag() const { return diag_; }

 private:
  Diag diag_;
};

/// Either a value or a Diag. Intentionally minimal: no monadic chaining,
/// just checked access, so call sites stay explicit about failure paths.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Diag diag) : diag_(std::move(diag)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] T& value() {
    assert(ok());
    return *value_;
  }
  [[nodiscard]] const T& value() const {
    assert(ok());
    return *value_;
  }
  [[nodiscard]] T take() {
    assert(ok());
    return std::move(*value_);
  }

  [[nodiscard]] const Diag& diag() const {
    assert(!ok());
    return *diag_;
  }

 private:
  std::optional<T> value_;
  std::optional<Diag> diag_;
};

}  // namespace gana
