// Malformed-netlist corpus harness.
//
// Two layers of defense-in-depth testing over tests/fuzz_corpus/:
//  1. every handcrafted seed is rejected with the *expected* structured
//     diagnostic (code + stage + location), end-to-end through the
//     fault-isolated entry points;
//  2. hundreds of deterministic mutants of the seeds and of the valid
//     fixtures are pushed through parse -> annotate, asserting the
//     pipeline never crashes and never leaks a raw exception -- every
//     rejection is a gana::Diag.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "gcn/serialize.hpp"
#include "serve/protocol.hpp"
#include "spice/parser.hpp"
#include "util/artifact.hpp"
#include "util/rng.hpp"

namespace gana {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string corpus_path(const std::string& name) {
  return std::string(GANA_FUZZ_CORPUS_DIR) + "/" + name;
}

/// Parses `text`, then (model-free) annotates on success. This is the
/// "never crash, always a structured diagnostic" entry point the whole
/// corpus goes through. Returns the first Diag, or nullopt if the input
/// annotated cleanly.
std::optional<Diag> run_pipeline(const std::string& text,
                                 const std::string& source) {
  spice::ParseOptions options;
  options.source = source;
  auto parsed = spice::parse_netlist_result(text, options);
  if (!parsed.ok()) return parsed.diag();
  static const core::Annotator annotator(nullptr, {"ota", "bias"});
  auto annotated = annotator.try_annotate(parsed.take(), source);
  if (!annotated.ok()) return annotated.diag();
  return std::nullopt;
}

// --- Layer 1: handcrafted seeds fail exactly as documented. -----------

struct SeedExpectation {
  const char* file;
  DiagCode code;
  Stage stage;
  bool has_line;  ///< diagnostic cites a specific 1-based line
};

constexpr SeedExpectation kSeeds[] = {
    {"bad_value.sp", DiagCode::BadValue, Stage::Parse, true},
    {"continuation_orphan.sp", DiagCode::SyntaxError, Stage::Parse, true},
    {"cyclic_subckt.sp", DiagCode::RecursiveSubckt, Stage::Flatten, true},
    {"deep_nesting.sp", DiagCode::DepthExceeded, Stage::Flatten, true},
    {"duplicate_names.sp", DiagCode::DuplicateName, Stage::Validate, true},
    {"mos_missing_model.sp", DiagCode::SyntaxError, Stage::Parse, true},
    {"nonfinite_value.sp", DiagCode::NonFinite, Stage::Parse, true},
    {"port_mismatch.sp", DiagCode::PortMismatch, Stage::Validate, true},
    {"prose_garbage.sp", DiagCode::BadValue, Stage::Parse, true},
    {"self_instantiation.sp", DiagCode::RecursiveSubckt, Stage::Flatten, true},
    {"undefined_subckt.sp", DiagCode::UndefinedSubckt, Stage::Validate, true},
    {"unknown_directive.sp", DiagCode::UnknownDirective, Stage::Parse, true},
    {"unterminated_subckt.sp", DiagCode::SyntaxError, Stage::Parse, true},
};

/// Corpus files that are *valid* SPICE: adversarial-but-well-formed
/// inputs (e.g. the high-fanout VF2 stressor) that must annotate
/// cleanly rather than diagnose.
constexpr const char* kAdversarial[] = {
    "high_fanout.sp",
};

TEST(CorpusSeeds, EachSeedYieldsItsDocumentedDiag) {
  for (const auto& seed : kSeeds) {
    SCOPED_TRACE(seed.file);
    const std::string text = read_file(corpus_path(seed.file));
    const auto diag = run_pipeline(text, seed.file);
    ASSERT_TRUE(diag.has_value()) << "seed unexpectedly annotated cleanly";
    EXPECT_EQ(diag->code, seed.code) << diag->render();
    EXPECT_EQ(diag->stage, seed.stage) << diag->render();
    EXPECT_EQ(diag->loc.file, seed.file) << diag->render();
    if (seed.has_line) {
      EXPECT_GT(diag->loc.line, 0u) << diag->render();
    }
  }
}

TEST(CorpusSeeds, EverySeedFileHasAnExpectation) {
  std::set<std::string> expected;
  for (const auto& seed : kSeeds) expected.insert(seed.file);
  for (const char* file : kAdversarial) expected.insert(file);
  std::set<std::string> present;
  for (const auto& entry :
       std::filesystem::directory_iterator(GANA_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".sp") {
      present.insert(entry.path().filename().string());
    }
  }
  EXPECT_EQ(present, expected)
      << "tests/fuzz_corpus/*.sp and kSeeds drifted apart";
}

TEST(CorpusSeeds, AdversarialSeedsAnnotateCleanly) {
  // Well-formed stressors (pathological structure, valid syntax) go all
  // the way through parse -> annotate without a diagnostic; the VF2
  // state budget, not an error path, is what bounds them.
  for (const char* file : kAdversarial) {
    SCOPED_TRACE(file);
    const auto diag = run_pipeline(read_file(corpus_path(file)), file);
    EXPECT_FALSE(diag.has_value()) << diag->render();
  }
}

TEST(CorpusSeeds, RecursiveSeedsReportTheInstantiationChain) {
  const auto diag =
      run_pipeline(read_file(corpus_path("cyclic_subckt.sp")),
                   "cyclic_subckt.sp");
  ASSERT_TRUE(diag.has_value());
  ASSERT_GE(diag->notes.size(), 2u) << diag->render();
  EXPECT_NE(diag->notes.back().find("cycle"), std::string::npos);
}

// --- Layer 2: deterministic mutation fuzzing. -------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// One textual mutation. Seed-driven and branch-free on external state,
/// so mutant k of file f is the same bytes on every run and platform.
std::string mutate(const std::string& text, Rng& rng) {
  auto lines = split_lines(text);
  const int op = rng.range(0, 8);
  switch (op) {
    case 0:  // drop a line
      if (!lines.empty()) lines.erase(lines.begin() + rng.index(lines.size()));
      return join_lines(lines);
    case 1:  // duplicate a line
      if (!lines.empty()) {
        const std::size_t i = rng.index(lines.size());
        lines.insert(lines.begin() + i, lines[i]);
      }
      return join_lines(lines);
    case 2:  // swap two lines
      if (lines.size() >= 2) {
        std::swap(lines[rng.index(lines.size())],
                  lines[rng.index(lines.size())]);
      }
      return join_lines(lines);
    case 3:  // truncate mid-file
      return text.substr(0, rng.index(text.size() + 1));
    case 4: {  // replace a character with a hostile byte
      std::string out = text;
      if (!out.empty()) {
        const char pool[] = {'\0', '+', '.', '=', '*', '(', '9', 'x', ' '};
        out[rng.index(out.size())] = pool[rng.index(sizeof(pool))];
      }
      return out;
    }
    case 5: {  // insert a random token into a line
      if (lines.empty()) return text;
      const char* tokens[] = {"1e999",        "nan",   ".subckt",  ".ends",
                              "w=",           "=",     "xx yy zz", "+",
                              "9999999999999"};
      std::string& l = lines[rng.index(lines.size())];
      l.insert(rng.index(l.size() + 1),
               std::string(" ") + tokens[rng.index(9)] + " ");
      return join_lines(lines);
    }
    case 6:  // blank a line
      if (!lines.empty()) lines[rng.index(lines.size())].clear();
      return join_lines(lines);
    case 7:  // turn a line into a continuation of the previous
      if (!lines.empty()) {
        lines[rng.index(lines.size())].insert(0, "+ ");
      }
      return join_lines(lines);
    default:  // concatenate the file with itself (duplicate names)
      return text + text;
  }
}

/// Base texts mutated by the fuzzer: every corpus seed plus the valid
/// golden fixtures (mutants of *valid* inputs explore the boundary
/// between accepted and rejected far better than garbage does).
std::vector<std::pair<std::string, std::string>> fuzz_bases() {
  std::vector<std::pair<std::string, std::string>> bases;
  for (const auto& seed : kSeeds) {
    bases.emplace_back(seed.file, read_file(corpus_path(seed.file)));
  }
  for (const char* file : kAdversarial) {
    bases.emplace_back(file, read_file(corpus_path(file)));
  }
  for (const char* fixture : {"rc_filter.sp", "two_stage_ota.sp",
                              "nested_buffer.sp", "lna_portlabels.sp"}) {
    bases.emplace_back(
        fixture, read_file(std::string(GANA_TEST_FIXTURE_DIR) + "/" + fixture));
  }
  return bases;
}

TEST(CorpusFuzz, HundredsOfMutantsNeverCrashAndAlwaysDiagnose) {
  const auto bases = fuzz_bases();
  constexpr int kMutantsPerBase = 30;
  std::size_t total = 0;
  std::size_t rejected = 0;
  for (const auto& [name, text] : bases) {
    for (int k = 0; k < kMutantsPerBase; ++k) {
      Rng rng(0x5eedull * 1315423911u + total);
      // Stack up to three mutations for compound malformations.
      std::string mutant = mutate(text, rng);
      const int extra = rng.range(0, 2);
      for (int e = 0; e < extra; ++e) mutant = mutate(mutant, rng);

      SCOPED_TRACE(name + " mutant " + std::to_string(k));
      // The contract: this call returns. No abort, no raw exception --
      // a throw here fails the test via gtest, a crash kills the binary.
      const auto diag = run_pipeline(mutant, name);
      if (diag.has_value()) {
        ++rejected;
        EXPECT_FALSE(diag->message.empty());
        // Structured, not a smuggled unexpected exception: internal
        // errors would indicate a guard missing somewhere upstream.
        EXPECT_NE(diag->code, DiagCode::Internal) << diag->render();
      }
      ++total;
    }
  }
  EXPECT_EQ(total, bases.size() * kMutantsPerBase);
  EXPECT_GE(total, 500u) << "corpus shrank below 'hundreds of mutants'";
  // Sanity on both sides: the fuzzer must produce rejections (it mutates
  // mostly-broken seeds) and survivors (gentle mutations of fixtures).
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, total);
}

TEST(CorpusFuzz, MutantOutcomesAreDeterministic) {
  const auto bases = fuzz_bases();
  for (const auto& [name, text] : bases) {
    Rng rng_a(42);
    Rng rng_b(42);
    const std::string ma = mutate(text, rng_a);
    const std::string mb = mutate(text, rng_b);
    ASSERT_EQ(ma, mb) << "mutation of " << name << " is not seed-stable";
    const auto da = run_pipeline(ma, name);
    const auto db = run_pipeline(mb, name);
    ASSERT_EQ(da.has_value(), db.has_value()) << name;
    if (da.has_value()) {
      EXPECT_EQ(da->render(), db->render()) << name;
    }
  }
}

// --- Layer 3: the serve wire protocol (tests/fuzz_corpus/frames). -----

std::string read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Feeds one hostile byte stream to the frame decoder and pushes every
/// complete payload through decode_request. The contract mirrors
/// run_pipeline's: this function returns -- every outcome is a decoded
/// request, a structured Diag, a still-pending stream, or a latched
/// framing error. Returns the number of payloads that decoded into
/// well-formed requests.
std::size_t run_frames(const std::string& bytes, std::size_t chunk) {
  serve::FrameDecoder decoder;
  std::size_t well_formed = 0;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - off);
    if (!decoder.feed(bytes.data() + off, n)) break;  // latched error
    while (const auto payload = decoder.next()) {
      const auto request = serve::decode_request(*payload);
      if (request.ok()) {
        ++well_formed;
      } else {
        EXPECT_EQ(request.diag().stage, Stage::Serve);
        EXPECT_FALSE(request.diag().message.empty());
      }
    }
  }
  return well_formed;
}

struct FrameSeed {
  const char* file;
  std::size_t min_requests;  ///< well-formed requests the stream contains
  std::size_t max_requests;
  bool framing_error;  ///< decoder must latch its error state
};

constexpr FrameSeed kFrameSeeds[] = {
    {"truncated_header.bin", 0, 0, false},
    {"truncated_payload.bin", 0, 0, false},
    {"oversized_length.bin", 0, 0, true},
    {"over_cap_length.bin", 0, 0, true},
    {"zero_length.bin", 1, 1, false},  // empty frame + valid ping
    {"garbage_json.bin", 0, 0, false},
    {"wrong_shape.bin", 0, 0, false},
    {"midframe_disconnect.bin", 1, 1, false},  // ping, then torn frame
    {"deep_nesting_payload.bin", 0, 0, false},
    {"bad_ids.bin", 0, 0, false},
};

TEST(FrameCorpus, EverySeedIsHandledStructurally) {
  // Whole-stream and byte-by-byte delivery must agree: framing is a pure
  // function of the byte sequence, not of how read() chunked it.
  for (const auto& seed : kFrameSeeds) {
    SCOPED_TRACE(seed.file);
    const std::string bytes =
        read_binary(std::string(GANA_FUZZ_CORPUS_DIR) + "/frames/" +
                    seed.file);
    ASSERT_FALSE(bytes.empty());
    for (const std::size_t chunk : {bytes.size(), std::size_t{1}}) {
      const std::size_t ok = run_frames(bytes, chunk);
      EXPECT_GE(ok, seed.min_requests) << "chunk=" << chunk;
      EXPECT_LE(ok, seed.max_requests) << "chunk=" << chunk;
    }
    serve::FrameDecoder decoder;
    decoder.feed(bytes);
    while (decoder.next().has_value()) {
    }
    EXPECT_EQ(decoder.error(), seed.framing_error);
  }
}

TEST(FrameCorpus, EveryFrameSeedFileHasAnExpectation) {
  std::set<std::string> expected;
  for (const auto& seed : kFrameSeeds) expected.insert(seed.file);
  std::set<std::string> present;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(GANA_FUZZ_CORPUS_DIR) + "/frames")) {
    if (entry.path().extension() == ".bin") {
      present.insert(entry.path().filename().string());
    }
  }
  EXPECT_EQ(present, expected)
      << "tests/fuzz_corpus/frames/*.bin and kFrameSeeds drifted apart";
}

TEST(FrameCorpus, MutatedFramesNeverCrashTheDecoder) {
  // Deterministic byte-level mutants of every frame seed, plus a valid
  // encoded request as the well-formed base.
  std::vector<std::string> bases;
  for (const auto& seed : kFrameSeeds) {
    bases.push_back(read_binary(std::string(GANA_FUZZ_CORPUS_DIR) +
                                "/frames/" + seed.file));
  }
  serve::Request valid;
  valid.id = 3;
  valid.kind = serve::RequestKind::Annotate;
  valid.name = "m";
  valid.netlist = "x\nm1 a b c d nmos w=1u l=1u\n.end\n";
  bases.push_back(serve::encode_frame(serve::encode_request(valid)).value());

  std::size_t total = 0;
  for (const std::string& base : bases) {
    for (int k = 0; k < 40; ++k, ++total) {
      Rng rng(0xf4a3e5ull + total);
      std::string mutant = base;
      switch (rng.range(0, 3)) {
        case 0:  // flip a byte
          if (!mutant.empty()) {
            mutant[rng.index(mutant.size())] =
                static_cast<char>(rng.range(0, 255));
          }
          break;
        case 1:  // truncate
          mutant = mutant.substr(0, rng.index(mutant.size() + 1));
          break;
        case 2:  // duplicate the stream
          mutant += mutant;
          break;
        default:  // splice two seeds
          mutant += bases[rng.index(bases.size())];
          break;
      }
      run_frames(mutant, 1 + rng.index(7));  // returning IS the assertion
    }
  }
  EXPECT_GE(total, 400u);
}

// --- Artifact corpus: binary model/library container seeds. -----------
//
// Same two-layer scheme as the SPICE and frame corpora: handcrafted
// corruptions must fail with their documented structured diagnostic,
// and deterministic byte-level mutants of a *valid* artifact must never
// crash the mapped loader (ASan/UBSan runs include this suite).

struct ArtifactSeed {
  const char* file;
  const char* message_piece;  ///< substring the FormatError must carry
};

constexpr ArtifactSeed kArtifactSeeds[] = {
    {"zero_length.bin", "truncated"},
    {"truncated_header.bin", "truncated"},
    {"wrong_version.bin", "version"},
    {"flipped_checksum.bin", "checksum"},
    {"oversized_section_table.bin", "oversized"},
};

TEST(ArtifactCorpus, EverySeedIsARejectedFormatError) {
  for (const auto& seed : kArtifactSeeds) {
    SCOPED_TRACE(seed.file);
    auto r = util::ArtifactReader::open(
        std::string(GANA_FUZZ_CORPUS_DIR) + "/artifacts/" + seed.file,
        util::ArtifactKind::Model);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::FormatError) << r.diag().render();
    EXPECT_NE(r.diag().message.find(seed.message_piece), std::string::npos)
        << r.diag().message;
  }
}

TEST(ArtifactCorpus, EveryArtifactSeedFileHasAnExpectation) {
  std::set<std::string> expected;
  for (const auto& seed : kArtifactSeeds) expected.insert(seed.file);
  std::set<std::string> present;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(GANA_FUZZ_CORPUS_DIR) + "/artifacts")) {
    if (entry.path().extension() == ".bin") {
      present.insert(entry.path().filename().string());
    }
  }
  EXPECT_EQ(present, expected)
      << "tests/fuzz_corpus/artifacts/*.bin and kArtifactSeeds drifted "
         "apart";
}

TEST(ArtifactCorpus, MutatedModelArtifactsNeverCrashTheLoader) {
  gcn::ModelConfig cfg;
  cfg.in_features = 4;
  cfg.num_classes = 2;
  cfg.conv_channels = {5};
  cfg.cheb_k = 2;
  cfg.fc_hidden = 6;
  cfg.seed = 7;
  const gcn::GcnModel model(cfg);
  const std::string base_path =
      testing::TempDir() + "gana_corpus_model_base.bin";
  ASSERT_TRUE(gcn::save_model_artifact(model, base_path).ok());
  std::string base;
  {
    std::ifstream in(base_path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    base = ss.str();
  }
  ASSERT_FALSE(base.empty());
  // The unmutated base must load; mutants must load or diagnose, never
  // crash or read out of bounds (the ASan/UBSan presets run this test).
  ASSERT_TRUE(gcn::load_model_any(base_path).ok());

  const std::string mutant_path =
      testing::TempDir() + "gana_corpus_model_mutant.bin";
  std::size_t rejected = 0;
  for (std::size_t k = 0; k < 160; ++k) {
    Rng rng(0xa47ull * 2654435761u + k);
    std::string mutant = base;
    switch (rng.range(0, 4)) {
      case 0:  // flip one byte anywhere (header, table, or weights)
        mutant[rng.index(mutant.size())] ^=
            static_cast<char>(1 + rng.range(0, 254));
        break;
      case 1:  // truncate
        mutant = mutant.substr(0, rng.index(mutant.size() + 1));
        break;
      case 2:  // append garbage
        mutant += std::string(1 + rng.index(64), '\x5a');
        break;
      default: {  // zero a run of bytes
        const std::size_t at = rng.index(mutant.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.index(32), mutant.size() - at);
        for (std::size_t i = 0; i < len; ++i) mutant[at + i] = 0;
        break;
      }
    }
    {
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      out << mutant;
    }
    auto r = gcn::load_model_any(mutant_path);
    if (!r.ok()) {
      ++rejected;
      EXPECT_FALSE(r.diag().message.empty());
      EXPECT_NE(r.diag().code, DiagCode::Internal) << r.diag().render();
    }
  }
  // The container checksum makes almost every mutant a rejection; at
  // minimum the fuzz loop must be exercising the failure paths at all.
  EXPECT_GT(rejected, 100u);
}

TEST(CorpusFuzz, TruncationsOfValidFixtureNeverCrash) {
  // Every prefix of a valid netlist (cut at each newline) must parse or
  // diagnose -- the classic torn-file scenario.
  const std::string text =
      read_file(std::string(GANA_TEST_FIXTURE_DIR) + "/two_stage_ota.sp");
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    if (cut != text.size() && text[cut] != '\n') continue;
    const auto diag = run_pipeline(text.substr(0, cut), "two_stage_ota.sp");
    if (diag.has_value()) {
      EXPECT_NE(diag->code, DiagCode::Internal) << diag->render();
    }
  }
}

}  // namespace
}  // namespace gana
