// Binary, versioned, checksummed artifact container.
//
// One container format backs both the GCN model artifact and the
// primitive-library artifact (DESIGN.md §15). Layout, all little-endian:
//
//   header (48 bytes):
//     char     magic[8]        "ganabin1"
//     u32      format_version  kArtifactVersion
//     u32      kind            ArtifactKind (model / primitive library)
//     u64      fingerprint     producer-defined content hash
//     u64      file_bytes      total file size, header included
//     u64      checksum        FNV-1a-64 over bytes [48, file_bytes)
//     u32      section_count
//     u32      reserved        0
//   section table (32 bytes per entry):
//     char     name[16]        NUL-padded, unique within the file
//     u64      offset          from file start, 64-byte aligned
//     u64      size            payload bytes (padding excluded)
//   payload sections, each starting on a 64-byte boundary
//
// The 64-byte section alignment means an f64 weight blob inside a
// mapped artifact is directly addressable: `GcnModel` borrows the
// pointer instead of copying (zero-copy load). Every malformed input --
// truncated header, bad magic, wrong version, kind mismatch, oversized
// or out-of-range section table, duplicate section names, checksum
// mismatch -- is rejected with a structured `FormatError` Diag before
// any payload byte is interpreted; a validated reader never faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/diag.hpp"
#include "util/mmap_file.hpp"

namespace gana::util {

inline constexpr char kArtifactMagic[8] = {'g', 'a', 'n', 'a',
                                           'b', 'i', 'n', '1'};
inline constexpr std::uint32_t kArtifactVersion = 1;
inline constexpr std::size_t kArtifactHeaderBytes = 48;
inline constexpr std::size_t kArtifactSectionEntryBytes = 32;
inline constexpr std::size_t kArtifactSectionNameBytes = 16;
inline constexpr std::size_t kArtifactAlign = 64;
/// Section-count guard: a header claiming more sections than this is
/// rejected before the table is walked (oversized-table fuzz seed).
inline constexpr std::uint32_t kArtifactMaxSections = 1024;

/// What the file claims to contain; checked against the loader's
/// expectation so a library artifact can't be fed to the model loader.
enum class ArtifactKind : std::uint32_t {
  Model = 1,
  PrimitiveLibrary = 2,
};

/// FNV-1a-64 over a byte range (the header's checksum function).
[[nodiscard]] std::uint64_t artifact_checksum(const std::uint8_t* data,
                                              std::size_t size);

/// True when the file starts with the artifact magic -- the sniff used
/// by `load_library_any` to pick the text or binary library loader.
[[nodiscard]] bool file_looks_like_artifact(const std::string& path);

/// A named payload slice inside a validated artifact. `data` points
/// into the backing mapping (or buffer); `size` excludes alignment
/// padding. Valid only while the backing storage lives.
struct ArtifactSection {
  std::string name;
  const std::uint8_t* data = nullptr;
  std::uint64_t size = 0;
};

/// Accumulates named sections, then writes the container in one pass.
class ArtifactWriter {
 public:
  /// Names must be unique, non-empty, and < 16 bytes. Violations are
  /// reported from `write` (the single failure point).
  void add_section(std::string name, std::vector<std::uint8_t> bytes);

  /// Serializes header + table + aligned payloads to `path`, replacing
  /// any existing file by rename, so mappings of the old file keep their
  /// bytes. IoError on filesystem failure, FormatError on bad section
  /// names.
  [[nodiscard]] Result<bool> write(const std::string& path, ArtifactKind kind,
                                   std::uint64_t fingerprint) const;

 private:
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

/// Validates a mapped (or in-memory) artifact and exposes its sections.
class ArtifactReader {
 public:
  /// Maps `path` and validates the container. The returned reader
  /// shares ownership of the mapping: keep `mapping()` alive for as
  /// long as zero-copy pointers into the file are used.
  [[nodiscard]] static Result<ArtifactReader> open(const std::string& path,
                                                   ArtifactKind kind);

  /// Validates an in-memory buffer (fuzz harness entry point). The
  /// caller keeps `data` alive; `name` labels diagnostics.
  [[nodiscard]] static Result<ArtifactReader> from_bytes(
      const std::uint8_t* data, std::size_t size, ArtifactKind kind,
      std::string name);

  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// nullptr when absent.
  [[nodiscard]] const ArtifactSection* section(std::string_view name) const;
  /// FormatError Diag when absent.
  [[nodiscard]] Result<ArtifactSection> require(std::string_view name) const;

  /// Keepalive handle for zero-copy borrowers; null for from_bytes.
  [[nodiscard]] std::shared_ptr<const MmapFile> mapping() const {
    return map_;
  }

 private:
  [[nodiscard]] static Result<ArtifactReader> validate(
      const std::uint8_t* data, std::size_t size, ArtifactKind kind,
      std::string name, std::shared_ptr<const MmapFile> map);

  std::shared_ptr<const MmapFile> map_;
  std::string name_;
  std::uint64_t fingerprint_ = 0;
  std::vector<ArtifactSection> sections_;
};

/// Little-endian section-payload encoder. Sections built with this and
/// decoded with ByteReader round-trip exactly; doubles travel as their
/// IEEE-754 bit pattern so a loaded model is bitwise identical to the
/// saved one.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }
  /// Pads with zero bytes until the payload offset is a multiple of
  /// `align` -- used to 8-align f64 runs inside a section.
  void align_to(std::size_t align) {
    while (bytes_.size() % align != 0) bytes_.push_back(0);
  }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder. Reads past the end latch the
/// fail flag and return zeros instead of faulting, so decoding a
/// corrupt-but-checksum-valid section degrades to a FormatError at the
/// caller's `ok()` check, never UB.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit ByteReader(const ArtifactSection& s)
      : ByteReader(s.data, static_cast<std::size_t>(s.size)) {}

  [[nodiscard]] std::uint8_t u8() {
    if (!take(1)) return 0;
    return p_[-1];
  }
  [[nodiscard]] std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p_[i - 4]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p_[i - 8]) << (8 * i);
    return v;
  }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(p_ - n), n);
  }
  void align_to(std::size_t align, const std::uint8_t* base) {
    while (ok() && static_cast<std::size_t>(p_ - base) % align != 0) {
      (void)u8();
    }
  }
  /// Pointer to `n` raw bytes at the cursor (then advances); nullptr
  /// and latched failure when fewer than `n` remain.
  [[nodiscard]] const std::uint8_t* raw(std::size_t n) {
    if (!take(n)) return nullptr;
    return p_ - n;
  }
  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] bool at_end() const { return ok() && p_ == end_; }
  [[nodiscard]] std::size_t remaining() const {
    return failed_ ? 0 : static_cast<std::size_t>(end_ - p_);
  }

 private:
  bool take(std::size_t n) {
    if (failed_ || static_cast<std::size_t>(end_ - p_) < n) {
      failed_ = true;
      return false;
    }
    p_ += n;
    return true;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool failed_ = false;
};

}  // namespace gana::util
