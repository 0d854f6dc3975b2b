// Binary artifact container + zero-copy load paths.
//
// Pins the PR's three trust-chain layers:
//  1. util/artifact: every corruption (truncated, bad magic, wrong
//     version, checksum flip, oversized/duplicate/overlapping section
//     tables) is a structured FormatError, never UB;
//  2. gcn/serialize: text checkpoint and binary artifact load to
//     bitwise-identical models (same weights_fingerprint, same forward
//     bits), the artifact path borrowing its weights from the mapping;
//  3. primitives/library_io: text and binary libraries round-trip with
//     the same library_fingerprint, and duplicate names are rejected
//     with DuplicateName instead of last-write-wins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "gcn/serialize.hpp"
#include "gcn/trainer.hpp"
#include "linalg/dense.hpp"
#include "primitives/library_io.hpp"
#include "util/artifact.hpp"
#include "util/mmap_file.hpp"

namespace gana {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "gana_artifact_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string corpus_path(const std::string& name) {
  return std::string(GANA_FUZZ_CORPUS_DIR) + "/artifacts/" + name;
}

gcn::ModelConfig tiny_config() {
  gcn::ModelConfig cfg;
  cfg.in_features = 4;
  cfg.num_classes = 2;
  cfg.conv_channels = {6, 5};
  cfg.cheb_k = 3;
  cfg.fc_hidden = 7;
  cfg.dropout = 0.25;
  cfg.seed = 99;
  return cfg;
}

gcn::GraphSample tiny_sample(std::uint64_t seed) {
  std::vector<Triplet> t{{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}, {2, 1, 1.0}};
  auto adj = SparseMatrix::from_triplets(3, 3, std::move(t));
  Rng rng(seed);
  Matrix x = Matrix::randn(3, 4, 1.0, rng);
  return gcn::make_sample(adj, std::move(x), {0, 1, 0}, 0, rng, "tiny");
}

// --- util/artifact container --------------------------------------------

TEST(MmapFile, MissingFileIsIoError) {
  auto m = util::MmapFile::open(temp_path("definitely_missing.bin"));
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.diag().code, DiagCode::IoError);
  EXPECT_FALSE(m.diag().loc.file.empty());
}

TEST(MmapFile, MapsExactBytes) {
  const std::string path = temp_path("mmap_bytes.bin");
  const std::string payload("mapped\0payload", 14);
  write_file(path, payload);
  auto m = util::MmapFile::open(path);
  ASSERT_TRUE(m.ok()) << m.diag().render();
  ASSERT_EQ(m.value().size(), payload.size());
  EXPECT_EQ(std::memcmp(m.value().data(), payload.data(), payload.size()), 0);
}

TEST(Artifact, WriterReaderRoundTrip) {
  const std::string path = temp_path("roundtrip.bin");
  const std::string alpha = "hello";
  std::vector<std::uint8_t> beta(100);
  for (std::size_t i = 0; i < beta.size(); ++i) {
    beta[i] = static_cast<std::uint8_t>(i);
  }
  util::ArtifactWriter writer;
  writer.add_section("alpha",
                     std::vector<std::uint8_t>(alpha.begin(), alpha.end()));
  writer.add_section("beta", beta);
  auto written = writer.write(path, util::ArtifactKind::Model, 0xabcdefULL);
  ASSERT_TRUE(written.ok()) << written.diag().render();

  auto reader = util::ArtifactReader::open(path, util::ArtifactKind::Model);
  ASSERT_TRUE(reader.ok()) << reader.diag().render();
  EXPECT_EQ(reader.value().fingerprint(), 0xabcdefULL);
  const util::ArtifactSection* a = reader.value().section("alpha");
  const util::ArtifactSection* b = reader.value().section("beta");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->size, alpha.size());
  EXPECT_EQ(std::memcmp(a->data, alpha.data(), alpha.size()), 0);
  EXPECT_EQ(b->size, beta.size());
  EXPECT_EQ(std::memcmp(b->data, beta.data(), beta.size()), 0);
  // Payloads are 64-byte aligned relative to the mapping base, which is
  // page aligned -- so section pointers are directly usable as typed
  // (e.g. double) arrays.
  const auto base =
      reinterpret_cast<std::uintptr_t>(reader.value().mapping()->data());
  EXPECT_EQ((reinterpret_cast<std::uintptr_t>(a->data) - base) %
                util::kArtifactAlign,
            0u);
  EXPECT_EQ((reinterpret_cast<std::uintptr_t>(b->data) - base) %
                util::kArtifactAlign,
            0u);
  EXPECT_EQ(reader.value().section("gamma"), nullptr);
  EXPECT_FALSE(reader.value().require("gamma").ok());
}

TEST(Artifact, WriterRejectsBadSectionNames) {
  const std::vector<std::uint8_t> byte{0};
  {
    util::ArtifactWriter w;
    w.add_section("dup", byte);
    w.add_section("dup", byte);
    auto r = w.write(temp_path("dup.bin"), util::ArtifactKind::Model, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::FormatError);
  }
  {
    util::ArtifactWriter w;
    w.add_section("", byte);
    auto r = w.write(temp_path("empty.bin"), util::ArtifactKind::Model, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::FormatError);
  }
  {
    util::ArtifactWriter w;
    w.add_section("this-name-is-way-too-long", byte);
    auto r = w.write(temp_path("long.bin"), util::ArtifactKind::Model, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::FormatError);
  }
}

TEST(Artifact, CorruptionSeedsAreStructuredFormatErrors) {
  struct Seed {
    const char* file;
    const char* message_piece;
  };
  const Seed seeds[] = {
      {"zero_length.bin", "truncated"},
      {"truncated_header.bin", "truncated"},
      {"wrong_version.bin", "version"},
      {"flipped_checksum.bin", "checksum"},
      {"oversized_section_table.bin", "oversized"},
  };
  for (const Seed& seed : seeds) {
    SCOPED_TRACE(seed.file);
    auto r = util::ArtifactReader::open(corpus_path(seed.file),
                                        util::ArtifactKind::Model);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::FormatError);
    EXPECT_NE(r.diag().message.find(seed.message_piece), std::string::npos)
        << r.diag().message;
    EXPECT_FALSE(r.diag().loc.file.empty());
  }
}

TEST(Artifact, KindMismatchRejected) {
  const std::string path = temp_path("kind.bin");
  util::ArtifactWriter w;
  w.add_section("only", {7});
  ASSERT_TRUE(w.write(path, util::ArtifactKind::Model, 0).ok());
  auto r =
      util::ArtifactReader::open(path, util::ArtifactKind::PrimitiveLibrary);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::FormatError);
  EXPECT_NE(r.diag().message.find("kind"), std::string::npos);
}

TEST(Artifact, BadMagicRejected) {
  const std::string path = temp_path("magic.bin");
  write_file(path, std::string(128, 'x'));
  auto r = util::ArtifactReader::open(path, util::ArtifactKind::Model);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::FormatError);
}

TEST(Artifact, MissingFileIsIoError) {
  auto r = util::ArtifactReader::open(temp_path("no_such_artifact.bin"),
                                      util::ArtifactKind::Model);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::IoError);
}

// --- model artifact: zero-copy load, bitwise identity -------------------

TEST(ModelArtifact, TextAndBinaryLoadBitwiseIdentical) {
  gcn::GcnModel model(tiny_config());
  // Train briefly so the weights are not just the seeded init.
  std::vector<gcn::GraphSample> data{tiny_sample(2), tiny_sample(3)};
  gcn::TrainConfig tc;
  tc.epochs = 3;
  tc.patience = 0;
  gcn::train(model, data, {}, tc);

  const std::string text_path = temp_path("model.ckpt");
  const std::string bin_path = temp_path("model.bin");
  gcn::save_model_file(model, text_path);
  ASSERT_TRUE(gcn::save_model_artifact(model, bin_path).ok());

  auto from_text = gcn::load_model_any(text_path);
  auto from_bin = gcn::load_model_any(bin_path);
  ASSERT_TRUE(from_text.ok()) << from_text.diag().render();
  ASSERT_TRUE(from_bin.ok()) << from_bin.diag().render();

  EXPECT_EQ(from_text.value().weights_fingerprint(),
            model.weights_fingerprint());
  EXPECT_EQ(from_bin.value().weights_fingerprint(),
            model.weights_fingerprint());

  const auto s = tiny_sample(1);
  const Matrix a = from_text.value().forward(s, false);
  const Matrix b = from_bin.value().forward(s, false);
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "bit drift at " << i;
  }
}

TEST(ModelArtifact, BinaryLoadBorrowsWeightsZeroCopy) {
  gcn::GcnModel model(tiny_config());
  const std::string path = temp_path("borrow.bin");
  ASSERT_TRUE(gcn::save_model_artifact(model, path).ok());
  auto loaded = gcn::load_model_artifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.diag().render();
  for (Matrix* p : loaded.value().params()) {
    EXPECT_TRUE(p->borrowed());
  }
  // First write detaches (copy-on-write); reads stay bit-identical.
  Matrix* first = loaded.value().params().front();
  const double v0 = static_cast<const Matrix&>(*first).data()[0];
  first->data()[0] = v0;  // mutable access forces ownership
  EXPECT_FALSE(first->borrowed());
  EXPECT_EQ(static_cast<const Matrix&>(*first).data()[0], v0);
}

TEST(ModelArtifact, WeightsTamperFailsFingerprintCheck) {
  gcn::GcnModel model(tiny_config());
  const std::string path = temp_path("tamper.bin");
  ASSERT_TRUE(gcn::save_model_artifact(model, path).ok());
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), util::kArtifactHeaderBytes + 8);
  // Flip a bit in the last weight, then re-seal the container checksum
  // so only the header fingerprint can catch the tamper.
  bytes[bytes.size() - 3] ^= 0x10;
  const std::uint64_t checksum = util::artifact_checksum(
      reinterpret_cast<const std::uint8_t*>(bytes.data()) +
          util::kArtifactHeaderBytes,
      bytes.size() - util::kArtifactHeaderBytes);
  for (int i = 0; i < 8; ++i) {
    bytes[32 + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  write_file(path, bytes);
  auto r = gcn::load_model_artifact(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::FormatError);
  EXPECT_NE(r.diag().message.find("fingerprint"), std::string::npos)
      << r.diag().message;
}

/// Saves `model` as an artifact, lets `edit` rewrite the config
/// section's bytes, then re-seals the container checksum so only the
/// config checks can reject the file.
std::string resealed_config_artifact(
    const gcn::GcnModel& model, const std::string& name,
    const std::function<void(char* config)>& edit) {
  const std::string path = temp_path(name);
  EXPECT_TRUE(gcn::save_model_artifact(model, path).ok());
  std::string bytes = read_file(path);
  const auto u64_at = [&bytes](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t(static_cast<std::uint8_t>(bytes[at + i])) << (8 * i);
    }
    return v;
  };
  const std::uint32_t sections = static_cast<std::uint32_t>(u64_at(40));
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::size_t entry =
        util::kArtifactHeaderBytes + s * util::kArtifactSectionEntryBytes;
    if (std::string(bytes.c_str() + entry) == "config") {
      edit(bytes.data() + u64_at(entry + util::kArtifactSectionNameBytes));
    }
  }
  const std::uint64_t checksum = util::artifact_checksum(
      reinterpret_cast<const std::uint8_t*>(bytes.data()) +
          util::kArtifactHeaderBytes,
      bytes.size() - util::kArtifactHeaderBytes);
  for (int i = 0; i < 8; ++i) {
    bytes[32 + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  write_file(path, bytes);
  return path;
}

TEST(ModelArtifact, OutOfRangeConfigIsBadValue) {
  // Config layout: u64 in_features, u64 num_classes, u8 conv_kind,
  // u32 cheb_k, ...
  const gcn::GcnModel model(tiny_config());
  const std::string huge_k = resealed_config_artifact(
      model, "cheb_k_max.bin", [](char* config) {
        std::memset(config + 17, 0xff, 4);  // cheb_k = 0xFFFFFFFF
      });
  const std::string no_classes = resealed_config_artifact(
      model, "no_classes.bin", [](char* config) {
        std::memset(config + 8, 0, 8);  // num_classes = 0
      });
  for (const std::string& path : {huge_k, no_classes}) {
    SCOPED_TRACE(path);
    auto r = gcn::load_model_artifact(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().code, DiagCode::BadValue) << r.diag().render();
  }
}

TEST(ModelArtifact, TextLoaderRejectsDuplicateConfigKey) {
  gcn::GcnModel model(tiny_config());
  std::stringstream buffer;
  gcn::save_model(model, buffer);
  std::string text = buffer.str();
  const std::string line = "cheb_k 3\n";
  const auto pos = text.find(line);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, line);  // same key twice, same value
  std::stringstream dup(text);
  auto r = gcn::load_model_result(dup, "dup.ckpt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::DuplicateName);
}

// --- primitive library: text + binary round trips -----------------------

TEST(LibraryIo, TextRoundTripPreservesFingerprint) {
  const auto lib = primitives::PrimitiveLibrary::standard();
  std::stringstream buffer;
  primitives::save_library_text(lib, buffer);
  auto loaded = primitives::load_library_text(buffer, "standard.lib");
  ASSERT_TRUE(loaded.ok()) << loaded.diag().render();
  EXPECT_EQ(loaded.value().size(), lib.size());
  EXPECT_EQ(primitives::library_fingerprint(loaded.value()),
            primitives::library_fingerprint(lib));
}

TEST(LibraryIo, BinaryRoundTripPreservesFingerprint) {
  const auto lib = primitives::PrimitiveLibrary::standard();
  const std::string path = temp_path("lib.bin");
  ASSERT_TRUE(primitives::save_library_artifact(lib, path).ok());
  auto loaded = primitives::load_library_artifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.diag().render();
  EXPECT_EQ(loaded.value().size(), lib.size());
  EXPECT_EQ(primitives::library_fingerprint(loaded.value()),
            primitives::library_fingerprint(lib));
  // Compiled strictness survives the parse-free decode.
  const auto* dp = loaded.value().find("dp_n");
  ASSERT_NE(dp, nullptr);
  EXPECT_EQ(dp->forbid_rail.size(), dp->graph.vertex_count());
  EXPECT_NE(std::count(dp->forbid_rail.begin(), dp->forbid_rail.end(), true),
            0);
}

TEST(LibraryIo, LoadAnySniffsAllThreeSpellings) {
  const auto lib = primitives::PrimitiveLibrary::standard();
  const std::string text_path = temp_path("lib.txt");
  const std::string bin_path = temp_path("lib_any.bin");
  ASSERT_TRUE(primitives::save_library_text_file(lib, text_path).ok());
  ASSERT_TRUE(primitives::save_library_artifact(lib, bin_path).ok());
  for (const std::string& spec : {std::string("standard"), text_path,
                                  bin_path}) {
    SCOPED_TRACE(spec);
    auto loaded = primitives::load_library_any(spec);
    ASSERT_TRUE(loaded.ok()) << loaded.diag().render();
    EXPECT_EQ(primitives::library_fingerprint(loaded.value()),
              primitives::library_fingerprint(lib));
  }
}

TEST(LibraryIo, TextLoaderRejectsDuplicatePrimitive) {
  const std::string stanza =
      "primitive inv2 INV2 50\n"
      "spice\n"
      ".subckt inv2 in out\n"
      "m0 out in gnd! gnd! nmos\n"
      "m1 out in vdd! vdd! pmos\n"
      ".ends\n"
      "endspice\n";
  std::stringstream in("gana-primlib-v1\n" + stanza + stanza);
  auto r = primitives::load_library_text(in, "dup.lib");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::DuplicateName);
}

TEST(LibraryIo, BinaryRejectsADeviceWithSevenPins) {
  // A real compiled spec with one device widened past any device's pin
  // count, saved through the artifact writer: checksum and fingerprint
  // are valid, so only the loader's netlist check stands in the way.
  const auto standard = primitives::PrimitiveLibrary::standard();
  const auto* inv = standard.find("inv");
  ASSERT_NE(inv, nullptr);
  auto spec = std::make_unique<primitives::PrimitiveSpec>(*inv);
  spice::Device& widened = spec->netlist.devices.front();
  widened.pins = {"a", "b", "c", "d", "e", "f", "g"};
  primitives::PrimitiveLibrary lib;
  lib.add_spec(std::move(spec));
  const std::string path = temp_path("seven_pins.bin");
  ASSERT_TRUE(primitives::save_library_artifact(lib, path).ok());
  auto r = primitives::load_library_artifact(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::BadPinCount) << r.diag().render();
  EXPECT_EQ(r.diag().stage, Stage::Validate);
  EXPECT_EQ(r.diag().message,
            "device " + widened.name + " in top level has 7 pins, expected 4");
}

TEST(LibraryIo, BinaryRejectsWrongKind) {
  gcn::GcnModel model(tiny_config());
  const std::string path = temp_path("model_as_lib.bin");
  ASSERT_TRUE(gcn::save_model_artifact(model, path).ok());
  auto r = primitives::load_library_artifact(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::FormatError);
}

// --- Matrix span/borrow semantics ---------------------------------------

TEST(MatrixBorrow, BorrowReadsWithoutCopy) {
  const double storage[6] = {1, 2, 3, 4, 5, 6};
  Matrix m = Matrix::borrow(storage, 2, 3);
  EXPECT_TRUE(m.borrowed());
  const Matrix& cm = m;
  EXPECT_EQ(cm(0, 0), 1.0);
  EXPECT_EQ(cm(1, 2), 6.0);
  EXPECT_EQ(cm.data().data(), storage);  // genuinely zero-copy
}

TEST(MatrixBorrow, CopyOfBorrowIsBorrow) {
  const double storage[4] = {1, 2, 3, 4};
  Matrix m = Matrix::borrow(storage, 2, 2);
  Matrix copy = m;
  EXPECT_TRUE(copy.borrowed());
  const Matrix& ccopy = copy;
  EXPECT_EQ(ccopy.data().data(), storage);
}

TEST(MatrixBorrow, WriteDetachesAndPreservesBits) {
  const double storage[4] = {1.5, -2.5, 3.25, 0.0};
  Matrix m = Matrix::borrow(storage, 2, 2);
  m(1, 1) = 9.0;  // mutable access: copy-on-write
  EXPECT_FALSE(m.borrowed());
  EXPECT_EQ(m(0, 0), 1.5);
  EXPECT_EQ(m(0, 1), -2.5);
  EXPECT_EQ(m(1, 0), 3.25);
  EXPECT_EQ(m(1, 1), 9.0);
  EXPECT_EQ(storage[3], 0.0);  // source untouched
}

TEST(MatrixBorrow, SpanEqualityMatchesVectorSemantics) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  a.fill(1.0);
  b.fill(1.0);
  EXPECT_TRUE(static_cast<const Matrix&>(a).data() ==
              static_cast<const Matrix&>(b).data());
  b(0, 0) = 2.0;
  EXPECT_TRUE(static_cast<const Matrix&>(a).data() !=
              static_cast<const Matrix&>(b).data());
}

}  // namespace
}  // namespace gana
