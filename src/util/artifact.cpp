#include "util/artifact.hpp"

#include <cstdio>
#include <set>

namespace gana::util {

namespace {

Diag format_diag(const std::string& file, std::string message) {
  Diag d = make_diag(DiagCode::FormatError, Stage::Io, std::move(message));
  d.loc.file = file;
  return d;
}

Diag io_diag(const std::string& file, std::string message) {
  Diag d = make_diag(DiagCode::IoError, Stage::Io, std::move(message));
  d.loc.file = file;
  return d;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

}  // namespace

std::uint64_t artifact_checksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool file_looks_like_artifact(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint8_t head[sizeof kArtifactMagic] = {};
  const std::size_t got = std::fread(head, 1, sizeof head, f);
  std::fclose(f);
  return got == sizeof head &&
         std::memcmp(head, kArtifactMagic, sizeof head) == 0;
}

void ArtifactWriter::add_section(std::string name,
                                 std::vector<std::uint8_t> bytes) {
  sections_.emplace_back(std::move(name), std::move(bytes));
}

Result<bool> ArtifactWriter::write(const std::string& path, ArtifactKind kind,
                                   std::uint64_t fingerprint) const {
  std::set<std::string> seen;
  for (const auto& [name, bytes] : sections_) {
    (void)bytes;
    if (name.empty() || name.size() >= kArtifactSectionNameBytes) {
      return format_diag(path, "bad artifact section name '" + name + "'");
    }
    if (!seen.insert(name).second) {
      return format_diag(path, "duplicate artifact section '" + name + "'");
    }
  }

  // Layout: header, table, then payloads each on a 64-byte boundary.
  const std::size_t table_bytes =
      sections_.size() * kArtifactSectionEntryBytes;
  std::size_t cursor = kArtifactHeaderBytes + table_bytes;
  std::vector<std::size_t> offsets;
  offsets.reserve(sections_.size());
  for (const auto& [name, bytes] : sections_) {
    (void)name;
    cursor = align_up(cursor, kArtifactAlign);
    offsets.push_back(cursor);
    cursor += bytes.size();
  }
  const std::size_t file_bytes = cursor;

  std::vector<std::uint8_t> body;  // everything after the header
  body.reserve(file_bytes - kArtifactHeaderBytes);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    std::uint8_t name_field[kArtifactSectionNameBytes] = {};
    std::memcpy(name_field, sections_[i].first.data(),
                sections_[i].first.size());
    body.insert(body.end(), name_field, name_field + sizeof name_field);
    put_u64(body, offsets[i]);
    put_u64(body, sections_[i].second.size());
  }
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    body.resize(offsets[i] - kArtifactHeaderBytes, 0);
    body.insert(body.end(), sections_[i].second.begin(),
                sections_[i].second.end());
  }

  std::vector<std::uint8_t> header;
  header.reserve(kArtifactHeaderBytes);
  header.insert(header.end(), kArtifactMagic,
                kArtifactMagic + sizeof kArtifactMagic);
  put_u32(header, kArtifactVersion);
  put_u32(header, static_cast<std::uint32_t>(kind));
  put_u64(header, fingerprint);
  put_u64(header, file_bytes);
  put_u64(header, artifact_checksum(body.data(), body.size()));
  put_u32(header, static_cast<std::uint32_t>(sections_.size()));
  put_u32(header, 0);  // reserved

  // Written beside `path`, then renamed over it: a process that maps the
  // old file (a loaded model borrows its weights from the mapping) keeps
  // the old bytes instead of seeing them change or vanish.
  const std::string staged = path + ".tmp";
  std::FILE* f = std::fopen(staged.c_str(), "wb");
  if (f == nullptr) return io_diag(path, "cannot open artifact for write");
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  ok = ok && (body.empty() ||
              std::fwrite(body.data(), 1, body.size(), f) == body.size());
  ok = std::fclose(f) == 0 && ok;
  if (ok && std::rename(staged.c_str(), path.c_str()) == 0) return true;
  std::remove(staged.c_str());
  return io_diag(path, ok ? "cannot replace artifact"
                          : "short write while writing artifact");
}

Result<ArtifactReader> ArtifactReader::open(const std::string& path,
                                            ArtifactKind kind) {
  auto mapped = MmapFile::open(path);
  if (!mapped.ok()) return mapped.diag();
  auto map = std::make_shared<const MmapFile>(mapped.take());
  return validate(map->data(), map->size(), kind, path, map);
}

Result<ArtifactReader> ArtifactReader::from_bytes(const std::uint8_t* data,
                                                  std::size_t size,
                                                  ArtifactKind kind,
                                                  std::string name) {
  return validate(data, size, kind, std::move(name), nullptr);
}

Result<ArtifactReader> ArtifactReader::validate(
    const std::uint8_t* data, std::size_t size, ArtifactKind kind,
    std::string name, std::shared_ptr<const MmapFile> map) {
  if (size < kArtifactHeaderBytes) {
    return format_diag(name, "truncated artifact header (" +
                                 std::to_string(size) + " of " +
                                 std::to_string(kArtifactHeaderBytes) +
                                 " bytes)");
  }
  if (std::memcmp(data, kArtifactMagic, sizeof kArtifactMagic) != 0) {
    return format_diag(name, "not a gana artifact (bad magic)");
  }
  const std::uint32_t version = get_u32(data + 8);
  if (version != kArtifactVersion) {
    return format_diag(name, "unsupported artifact format version " +
                                 std::to_string(version) + " (expected " +
                                 std::to_string(kArtifactVersion) + ")");
  }
  const std::uint32_t file_kind = get_u32(data + 12);
  if (file_kind != static_cast<std::uint32_t>(kind)) {
    return format_diag(
        name, "artifact kind mismatch (file has " +
                  std::to_string(file_kind) + ", loader expected " +
                  std::to_string(static_cast<std::uint32_t>(kind)) + ")");
  }
  const std::uint64_t fingerprint = get_u64(data + 16);
  const std::uint64_t file_bytes = get_u64(data + 24);
  const std::uint64_t checksum = get_u64(data + 32);
  const std::uint32_t section_count = get_u32(data + 40);
  if (file_bytes != size) {
    return format_diag(name, "artifact size mismatch (header claims " +
                                 std::to_string(file_bytes) + " bytes, file has " +
                                 std::to_string(size) + ")");
  }
  if (section_count > kArtifactMaxSections) {
    return format_diag(name, "oversized artifact section table (" +
                                 std::to_string(section_count) + " sections, max " +
                                 std::to_string(kArtifactMaxSections) + ")");
  }
  const std::uint64_t table_end =
      kArtifactHeaderBytes +
      std::uint64_t{section_count} * kArtifactSectionEntryBytes;
  if (table_end > size) {
    return format_diag(name, "artifact section table exceeds file size");
  }
  const std::uint64_t computed = artifact_checksum(
      data + kArtifactHeaderBytes, size - kArtifactHeaderBytes);
  if (computed != checksum) {
    return format_diag(name, "artifact checksum mismatch (corrupt file)");
  }

  ArtifactReader reader;
  reader.map_ = std::move(map);
  reader.name_ = std::move(name);
  reader.fingerprint_ = fingerprint;
  std::set<std::string> seen;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint8_t* entry =
        data + kArtifactHeaderBytes + i * kArtifactSectionEntryBytes;
    const char* raw_name = reinterpret_cast<const char*>(entry);
    std::size_t name_len = 0;
    while (name_len < kArtifactSectionNameBytes && raw_name[name_len] != 0) {
      ++name_len;
    }
    ArtifactSection section;
    section.name.assign(raw_name, name_len);
    const std::uint64_t offset = get_u64(entry + 16);
    section.size = get_u64(entry + 24);
    if (section.name.empty() || name_len >= kArtifactSectionNameBytes) {
      return format_diag(reader.name_,
                         "bad artifact section name in table entry " +
                             std::to_string(i));
    }
    if (!seen.insert(section.name).second) {
      return format_diag(reader.name_, "duplicate artifact section '" +
                                           section.name + "'");
    }
    if (offset < table_end || offset % kArtifactAlign != 0 ||
        offset > size || section.size > size - offset) {
      return format_diag(reader.name_, "artifact section '" + section.name +
                                           "' out of range");
    }
    section.data = data + offset;
    reader.sections_.push_back(std::move(section));
  }
  return reader;
}

const ArtifactSection* ArtifactReader::section(std::string_view name) const {
  for (const auto& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Result<ArtifactSection> ArtifactReader::require(std::string_view name) const {
  const ArtifactSection* s = section(name);
  if (s == nullptr) {
    return format_diag(name_, "artifact missing required section '" +
                                  std::string(name) + "'");
  }
  return *s;
}

}  // namespace gana::util
