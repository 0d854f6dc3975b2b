// Corpus-scale netlist generation for the sharded batch driver.
//
// Emits a parameterized, seeded corpus of netlist files (OTA / RF
// receiver / switched-capacitor filter mix) plus a manifest listing
// them, so bench/e2e and gana-shard runs are self-contained: no
// checked-in 100k-file tree, just `gana_shard --datagen` with a seed.
//
// Every circuit is a pure function of (seed, index): generation seeds a
// fresh Rng per index, so circuit i's bytes do not depend on how many
// circuits precede it, which subdirectory it lands in, or whether the
// corpus is written by one process or many. The manifest's '#' headers
// record seed and count, letting a re-run detect a stale corpus without
// opening any netlist.
#pragma once

#include <cstdint>
#include <string>

#include "util/diag.hpp"

namespace gana::datagen {

struct CorpusOptions {
  std::size_t count = 100000;   ///< circuits to emit
  std::uint64_t seed = 1;       ///< root seed; circuit i uses f(seed, i)
  std::string dir;              ///< output directory (created if absent)
  /// Netlists per subdirectory (dir/NNN/cNNNNNNN.sp); bounds directory
  /// fan-out so a 100k corpus does not melt readdir.
  std::size_t files_per_subdir = 1000;
  double ota_fraction = 0.6;    ///< OTA-family share of the mix
  double rf_fraction = 0.3;     ///< RF receiver share (SC filter takes
                                ///< the remainder)
};

/// Manifest-relative path of circuit `index` (e.g. "012/c0012345.sp").
[[nodiscard]] std::string corpus_entry_name(const CorpusOptions& options,
                                            std::size_t index);

/// Netlist text of circuit `index`: deterministic in (options.seed,
/// index) alone.
[[nodiscard]] std::string corpus_netlist_text(const CorpusOptions& options,
                                              std::size_t index);

struct CorpusStats {
  std::size_t written = 0;    ///< netlist files written this run
  std::size_t reused = 0;     ///< circuits already on disk (fresh corpus)
  std::string manifest_path;  ///< options.dir + "/manifest.txt"
};

/// Writes the corpus under options.dir and its manifest to
/// options.dir + "/manifest.txt". Idempotent and resumable: when the
/// existing manifest's headers already record the same seed/count/mix,
/// only missing netlist files are rewritten; any mismatch regenerates
/// everything.
[[nodiscard]] Result<CorpusStats> write_corpus(const CorpusOptions& options);

}  // namespace gana::datagen
