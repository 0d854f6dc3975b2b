// Read-only memory-mapped file with structured error reporting.
//
// The artifact loaders (gcn/serialize, primitives/library_io) map model
// and library files so N shard workers share one page-cache copy of the
// weights instead of each reading its own. The wrapper owns
// the mapping RAII-style; every failure (missing file, permission,
// mmap refusal) comes back as an `IoError` Diag, never UB or errno
// guesswork at the call site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/diag.hpp"

namespace gana::util {

/// An immutable byte view of a whole file, backed by mmap(PROT_READ).
///
/// Move-only; the mapping is released on destruction. Zero-length files
/// map to an empty view (mmap rejects length 0, so no mapping is made).
/// Loaders that hand out pointers into the mapping must keep the
/// MmapFile alive for as long as those pointers are used -- see
/// `GcnModel::retain_storage`.
class MmapFile {
 public:
  MmapFile() = default;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  /// Maps `path` read-only. IoError Diag on open/stat/map failure.
  [[nodiscard]] static Result<MmapFile> open(const std::string& path);

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace gana::util
