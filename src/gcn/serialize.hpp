// Model checkpointing: save/load a trained GcnModel as one binary model
// artifact (util/artifact container, kind Model). The artifact stores
// raw IEEE-754 weight bits in a 64-byte aligned "weights" section, so
// `load_model_any` maps the file and borrows the tensors in place --
// zero parse, zero copy, one shared page-cache image across shard
// workers -- and the loaded model's `weights_fingerprint()` equals the
// saved one's.
#pragma once

#include <string>

#include "gcn/model.hpp"
#include "util/diag.hpp"

namespace gana::gcn {

/// Writes the model artifact (`annotate_netlist --save-model`).
[[nodiscard]] Result<bool> save_model_artifact(const GcnModel& model,
                                               const std::string& path);

/// Maps a model artifact and loads it zero-copy: parameter and buffer
/// matrices borrow the mapping's "weights" section, and the model
/// retains the mapping so the borrows cannot dangle. Rejects missing
/// files with an IoError Diag, and corrupt, truncated, wrong-kind or
/// fingerprint-mismatched files (a text file among them) with a
/// FormatError or BadValue Diag. The loader behind every `--load-model`
/// flag.
[[nodiscard]] Result<GcnModel> load_model_any(const std::string& path);

}  // namespace gana::gcn
