#include "util/diag.hpp"

namespace gana {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::Io: return "io";
    case Stage::Parse: return "parse";
    case Stage::Validate: return "validate";
    case Stage::Flatten: return "flatten";
    case Stage::Preprocess: return "preprocess";
    case Stage::GraphBuild: return "graph";
    case Stage::Features: return "features";
    case Stage::Gcn: return "gcn";
    case Stage::Primitives: return "primitives";
    case Stage::Postprocess: return "postprocess";
    case Stage::Hierarchy: return "hierarchy";
    case Stage::Batch: return "batch";
    case Stage::Serve: return "serve";
  }
  return "?";
}

const char* to_string(DiagCode c) {
  switch (c) {
    case DiagCode::SyntaxError: return "syntax-error";
    case DiagCode::BadValue: return "bad-value";
    case DiagCode::UnknownDirective: return "unknown-directive";
    case DiagCode::LimitExceeded: return "limit-exceeded";
    case DiagCode::DuplicateName: return "duplicate-name";
    case DiagCode::UndefinedSubckt: return "undefined-subckt";
    case DiagCode::PortMismatch: return "port-mismatch";
    case DiagCode::BadPinCount: return "bad-pin-count";
    case DiagCode::EmptyName: return "empty-name";
    case DiagCode::RecursiveSubckt: return "recursive-subckt";
    case DiagCode::DepthExceeded: return "depth-exceeded";
    case DiagCode::NotFlat: return "not-flat";
    case DiagCode::NonFinite: return "non-finite";
    case DiagCode::BudgetExhausted: return "budget-exhausted";
    case DiagCode::Truncated: return "truncated";
    case DiagCode::DeadlineExceeded: return "deadline-exceeded";
    case DiagCode::Overloaded: return "overloaded";
    case DiagCode::IoError: return "io-error";
    case DiagCode::FormatError: return "format-error";
    case DiagCode::Skipped: return "skipped";
    case DiagCode::WorkerFailed: return "worker-failed";
    case DiagCode::ModelMismatch: return "model-mismatch";
    case DiagCode::Internal: return "internal";
  }
  return "?";
}

const std::vector<Stage>& all_stages() {
  static const std::vector<Stage> stages = {
      Stage::Io,         Stage::Parse,    Stage::Validate,
      Stage::Flatten,    Stage::Preprocess, Stage::GraphBuild,
      Stage::Features,   Stage::Gcn,      Stage::Primitives,
      Stage::Postprocess, Stage::Hierarchy, Stage::Batch,
      Stage::Serve,
  };
  return stages;
}

const std::vector<DiagCode>& all_diag_codes() {
  static const std::vector<DiagCode> codes = {
      DiagCode::SyntaxError,     DiagCode::BadValue,
      DiagCode::UnknownDirective, DiagCode::LimitExceeded,
      DiagCode::DuplicateName,   DiagCode::UndefinedSubckt,
      DiagCode::PortMismatch,    DiagCode::BadPinCount,
      DiagCode::EmptyName,       DiagCode::RecursiveSubckt,
      DiagCode::DepthExceeded,   DiagCode::NotFlat,
      DiagCode::NonFinite,       DiagCode::BudgetExhausted,
      DiagCode::Truncated,       DiagCode::DeadlineExceeded,
      DiagCode::Overloaded,      DiagCode::IoError,
      DiagCode::FormatError,     DiagCode::Skipped,
      DiagCode::WorkerFailed,    DiagCode::ModelMismatch,
      DiagCode::Internal,
  };
  return codes;
}

std::optional<Stage> stage_from_string(std::string_view name) {
  for (Stage s : all_stages()) {
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

std::optional<DiagCode> diag_code_from_string(std::string_view name) {
  for (DiagCode c : all_diag_codes()) {
    if (name == to_string(c)) return c;
  }
  return std::nullopt;
}

std::string SourceLoc::to_string() const {
  if (!known()) return {};
  std::string out = file.empty() ? std::string("<input>") : file;
  if (line != 0) {
    out += ":";
    out += std::to_string(line);
  }
  return out;
}

std::string Diag::render() const {
  std::string out;
  if (loc.known()) {
    out += loc.to_string();
    out += ": ";
  }
  out += "[";
  out += to_string(stage);
  out += "/";
  out += to_string(code);
  out += "] ";
  out += message;
  for (const auto& note : notes) {
    out += "\n  note: ";
    out += note;
  }
  return out;
}

Diag make_diag(DiagCode code, Stage stage, std::string message, SourceLoc loc,
               std::vector<std::string> notes) {
  Diag d;
  d.code = code;
  d.stage = stage;
  d.message = std::move(message);
  d.loc = std::move(loc);
  d.notes = std::move(notes);
  return d;
}

}  // namespace gana
