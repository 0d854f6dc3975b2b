// Seeded inputs of the end-to-end benchmark. The workload seed picks
// the inputs; the library only ever sees the generated netlists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "datagen/corpus.hpp"
#include "datagen/sizing.hpp"
#include "spice/netlist.hpp"
#include "util/rng.hpp"

namespace gana::e2e {

/// The fixed 100k-circuit corpus every corpus and serve draw comes from.
[[nodiscard]] datagen::CorpusOptions corpus_options();

/// `count` distinct corpus indices, none of them in `used` (which gains
/// the drawn ones).
[[nodiscard]] std::vector<std::size_t> draw_indices(
    Rng& rng, std::size_t count, std::set<std::size_t>& used);

/// The phased-array design of a seed (default options).
[[nodiscard]] datagen::LabeledCircuit phased_array_design(std::uint64_t seed);

/// One named netlist text.
struct TextInput {
  std::string name;
  std::string text;
};

/// One request of the serve_mixed stream, small enough to precompute
/// for a whole run; its text is materialized just before it is sent.
struct ServeRequest {
  enum class Kind { Fresh, Hot, Renamed };
  Kind kind = Kind::Hot;
  std::size_t index = 0;     ///< corpus index (Fresh) or hot-set slot
  std::uint64_t serial = 0;  ///< position in the stream
};

/// The serve_mixed request stream: 40% fresh corpus circuits (each sent
/// once), 30% verbatim repeats from a 32-circuit hot set, 30% hot-set
/// copies whose devices and non-rail nets are renamed and whose cards
/// are shuffled. The copies carry the same topology under a different
/// presentation, so a cache keyed on vertex order misses them.
class ServeMix {
 public:
  ServeMix(std::uint64_t seed, std::size_t hot_count);

  [[nodiscard]] const std::vector<TextInput>& hot_set() const { return hot_; }
  [[nodiscard]] ServeRequest next();
  /// The request's netlist; a pure function of the request (thread-safe).
  [[nodiscard]] TextInput text(const ServeRequest& request) const;

 private:
  std::uint64_t seed_;
  Rng rng_;
  std::set<std::size_t> used_;
  std::vector<TextInput> hot_;
  std::vector<spice::Netlist> hot_parsed_;
  std::uint64_t serial_ = 0;
};

/// A copy of `netlist` with every device and non-rail net renamed and
/// the device cards shuffled.
[[nodiscard]] spice::Netlist renamed_copy(const spice::Netlist& netlist,
                                          Rng& rng);

enum class EditKind {
  Value,       ///< one device sized by up to +-1%
  Bucket,      ///< one MOS width moved into another feature bucket
  Structural,  ///< rewire, add or remove one device; undone by the next
};

[[nodiscard]] const char* to_string(EditKind kind);

/// The sizing_session edit stream over one design: 80% value edits, 15%
/// bucket edits, 5% structural edits, dealt in shuffled blocks of 20 so
/// every seed runs exactly this mix. Structural edits cycle through
/// rewire, add and remove; each is reverted by the next structural
/// edit, so the design does not drift.
class EditStream {
 public:
  EditStream(spice::Netlist base, std::uint64_t seed);

  /// Applies the next edit to the current revision.
  EditKind advance();
  [[nodiscard]] const spice::Netlist& current() const { return current_; }

 private:
  void value_edit();
  void bucket_edit();
  void structural_edit();

  spice::Netlist current_;
  spice::Netlist saved_;  ///< revision before the pending structural edit
  bool structural_pending_ = false;
  std::size_t applied_ = 0;  ///< structural edits applied (not reverts)
  std::vector<EditKind> block_;  ///< rest of the current block of 20
  Rng rng_;
};

}  // namespace gana::e2e
