#include "spice/symbol_table.hpp"

#include <cstring>

#include "util/perf.hpp"

namespace gana::spice {
namespace {

constexpr std::size_t kInitialBuckets = 256;  // power of two
constexpr std::size_t kChunkBytes = 64u << 10;

/// Word-at-a-time mix (murmur-style finalizer) over the name bytes; the
/// same function everywhere so cached hashes stay comparable across
/// rehashes. The hash only places buckets -- ids are assigned in
/// first-intern order and compared by bytes, so the choice of hash can
/// never change an id assignment.
std::uint64_t hash_name(std::string_view s) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ s.size();
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  if (i < s.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, s.size() - i);
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  return h;
}

}  // namespace

SymbolTable::SymbolTable() : buckets_(kInitialBuckets, kNoSymbol) {
  bucket_hash_.resize(kInitialBuckets, 0);
}

std::string_view SymbolTable::arena_store(std::string_view name) {
  // An empty name needs no bytes -- and may arrive before any chunk
  // exists (an unnamed first device), so never touch chunks_ for it.
  if (name.empty()) return {};
  if (name.size() > chunk_cap_ - chunk_used_) {
    const std::size_t cap = name.size() > kChunkBytes ? name.size()
                                                      : kChunkBytes;
    // for_overwrite: bytes are memcpy'd below before they are ever read,
    // so value-initializing (zeroing) the chunk would be pure overhead.
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(cap));
    chunk_used_ = 0;
    chunk_cap_ = cap;
    perf::count_frontend_alloc();
  }
  char* dst = chunks_.back().get() + chunk_used_;
  std::memcpy(dst, name.data(), name.size());
  chunk_used_ += name.size();
  arena_bytes_ += name.size();
  return {dst, name.size()};
}

void SymbolTable::rehash(std::size_t new_buckets) {
  std::vector<SymbolId> buckets(new_buckets, kNoSymbol);
  std::vector<std::uint64_t> hashes(new_buckets, 0);
  const std::size_t mask = new_buckets - 1;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const SymbolId id = buckets_[b];
    if (id == kNoSymbol) continue;
    std::size_t slot = bucket_hash_[b] & mask;
    while (buckets[slot] != kNoSymbol) slot = (slot + 1) & mask;
    buckets[slot] = id;
    hashes[slot] = bucket_hash_[b];
  }
  buckets_ = std::move(buckets);
  bucket_hash_ = std::move(hashes);
  perf::count_frontend_alloc();
}

SymbolId SymbolTable::intern(std::string_view name) {
  const std::uint64_t h = hash_name(name);
  const std::size_t mask = buckets_.size() - 1;
  std::size_t slot = h & mask;
  while (buckets_[slot] != kNoSymbol) {
    if (bucket_hash_[slot] == h && spans_[buckets_[slot]] == name) {
      ++hits_;
      return buckets_[slot];
    }
    slot = (slot + 1) & mask;
  }
  ++misses_;
  const SymbolId id = static_cast<SymbolId>(spans_.size());
  spans_.push_back(arena_store(name));
  buckets_[slot] = id;
  bucket_hash_[slot] = h;
  // 0.7 load factor: 10 * size > 7 * buckets.
  if (10 * spans_.size() > 7 * buckets_.size()) {
    rehash(buckets_.size() * 2);
  }
  return id;
}

SymbolId SymbolTable::find(std::string_view name) const {
  const std::uint64_t h = hash_name(name);
  const std::size_t mask = buckets_.size() - 1;
  std::size_t slot = h & mask;
  while (buckets_[slot] != kNoSymbol) {
    if (bucket_hash_[slot] == h && spans_[buckets_[slot]] == name) {
      return buckets_[slot];
    }
    slot = (slot + 1) & mask;
  }
  return kNoSymbol;
}

void SymbolTable::flush_stats() {
  perf::count_intern(hits_, misses_);
  hits_ = 0;
  misses_ = 0;
}

}  // namespace gana::spice
