// Model checkpointing: save/load a trained GcnModel.
//
// Two on-disk formats:
//  - the portable text checkpoint ("gana-gcn-v1": config header +
//    parameter tensors at full double precision);
//  - the binary model artifact (util/artifact container, kind Model),
//    whose "weights" section is 64-byte aligned so `load_model_artifact`
//    maps the file and borrows the tensors in place -- zero parse, zero
//    copy, one shared page-cache image across shard workers.
//
// Both loaders produce bitwise-identical models: the text format writes
// doubles at setprecision(17) (exact round trip) and the artifact
// stores raw IEEE-754 bits, so `weights_fingerprint()` agrees across
// formats -- pinned by artifact_test.
#pragma once

#include <iosfwd>
#include <string>

#include "gcn/model.hpp"
#include "util/diag.hpp"

namespace gana::gcn {

/// Writes the model config and all parameter tensors (text format).
void save_model(const GcnModel& model, std::ostream& out);
void save_model_file(const GcnModel& model, const std::string& path);

/// Reads a text checkpoint. Config keys may appear in any order;
/// duplicate keys are rejected (DuplicateName) instead of
/// last-write-wins, and so are unknown `conv_kind` and `pool_mode`
/// values (BadValue) instead of defaulted, so text -> binary packing is
/// unambiguous. A missing key keeps its ModelConfig default. `name`
/// labels diagnostics.
[[nodiscard]] Result<GcnModel> load_model_result(
    std::istream& in, const std::string& name = "<stream>");
[[nodiscard]] Result<GcnModel> load_model_file_result(
    const std::string& path);

/// Exception wrappers kept for existing call sites; throw DiagError
/// (a std::runtime_error) on malformed input.
GcnModel load_model(std::istream& in);
GcnModel load_model_file(const std::string& path);

/// Writes the binary model artifact (`gana_shard --pack-model`).
[[nodiscard]] Result<bool> save_model_artifact(const GcnModel& model,
                                               const std::string& path);

/// Maps a binary model artifact and loads it zero-copy: parameter and
/// buffer matrices borrow the mapping's "weights" section, and the
/// model retains the mapping so the borrows cannot dangle. Rejects
/// corrupt, truncated, wrong-kind, or fingerprint-mismatched files with
/// structured IoError/FormatError Diags.
[[nodiscard]] Result<GcnModel> load_model_artifact(const std::string& path);

/// Loads either format, sniffing the artifact magic -- the single entry
/// point behind every `--load-model` flag.
[[nodiscard]] Result<GcnModel> load_model_any(const std::string& path);

}  // namespace gana::gcn
