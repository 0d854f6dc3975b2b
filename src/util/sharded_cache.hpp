// Lock-sharded concurrent map for the structural-hash caches.
//
// SamplePrepCache and AnnotationCache used to serialize every worker on
// one mutex; on a hot batch (64 copies of one cell, 8 jobs) that lock is
// taken twice per circuit per cache and every acquisition convoys the
// pool. Sharding by key hash bounds contention at 1/kShardCount of the
// old rate while keeping the exact same semantics: probes and inserts
// for one key always land on one shard, so first-insert-wins and
// hit/miss accounting are untouched. The shard count is a power of two
// and each shard is alignas(64) so neighboring shard locks never share a
// cache line (no false sharing between workers on different shards).
//
// Keys are canonical structural hashes (graph::structural_hash) and thus
// already well mixed; the shard index folds the high half in anyway so a
// hypothetical low-entropy low word cannot collapse every key onto one
// shard.
//
// stats() and clear() lock shards one at a time -- stats() is therefore
// not an atomic snapshot across shards. Callers (benchmarks, tests) read
// it quiescently, and per-shard counts are individually exact.
//
// Capacity bounding (graceful degradation for long-lived processes such
// as gana-serve): a per-shard capacity turns each shard into a FIFO --
// inserting into a full shard evicts that shard's oldest *inserted* key
// first. FIFO rather than LRU keeps probes cheap (no bookkeeping on
// find) and keeps which-key-is-evicted a pure function of insertion
// order, never of probe timing. Eviction changes only *when* a value
// must be recomputed, never what is computed: all cached values here are
// pure functions of their key, so a bounded cache stays bit-identical to
// an unbounded one (pinned by the cache-on/off determinism tests).
// Capacity 0 means unbounded (the historical behavior and the default).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/perf.hpp"

namespace gana {

/// Lock shards per cache. The single source of truth: ShardedCache's
/// shard array, its index mask, and per_shard_capacity_for's capacity
/// split all derive from this constant, so they cannot drift apart.
/// Must be a power of two (the shard index is a mask, not a modulo).
inline constexpr std::size_t kCacheShardCount = 16;
static_assert((kCacheShardCount & (kCacheShardCount - 1)) == 0,
              "shard index uses a power-of-two mask");

template <typename V>
class ShardedCache {
 public:
  static constexpr std::size_t kShardCount = kCacheShardCount;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< entries dropped by capacity bounding
    std::size_t entries = 0;
  };

  /// `per_shard_capacity` caps each shard's entry count (0 = unbounded).
  /// Total cache capacity is kShardCount * per_shard_capacity, reached
  /// exactly only when keys spread evenly across shards.
  explicit ShardedCache(std::size_t per_shard_capacity = 0)
      : per_shard_capacity_(per_shard_capacity) {}

  /// Cached value for `key`, or nullptr; counts a hit/miss on the shard.
  [[nodiscard]] std::shared_ptr<const V> find(std::uint64_t key) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.map.find(key);
    if (it == s.map.end()) {
      ++s.misses;
      return nullptr;
    }
    ++s.hits;
    return it->second;
  }

  /// Inserts `value` for `key`; returns the winning entry (the existing
  /// one if another worker inserted first). When the shard is at
  /// capacity, the shard's oldest-inserted key is evicted to make room.
  std::shared_ptr<const V> insert(std::uint64_t key,
                                  std::shared_ptr<const V> value) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto [it, inserted] = s.map.try_emplace(key, std::move(value));
    if (inserted && per_shard_capacity_ > 0) {
      // Invariant: fifo holds exactly the shard's keys in insert order
      // (every insert pushes, the only erase pops the front), so the
      // front is never the just-inserted key while size > capacity >= 1,
      // and erase never invalidates `it` (it points at a different key).
      s.fifo.push_back(key);
      while (s.map.size() > per_shard_capacity_) {
        const std::uint64_t oldest = s.fifo.front();
        s.fifo.pop_front();
        s.map.erase(oldest);
        ++s.evictions;
        perf::count_cache_eviction();
      }
    }
    return it->second;
  }

  [[nodiscard]] Stats stats() const {
    Stats out;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mutex);
      out.hits += s.hits;
      out.misses += s.misses;
      out.evictions += s.evictions;
      out.entries += s.map.size();
    }
    return out;
  }

  void clear() {
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.map.clear();
      s.fifo.clear();
      s.hits = 0;
      s.misses = 0;
      s.evictions = 0;
    }
  }

  /// Per-shard entry cap this cache was constructed with (0 = unbounded).
  [[nodiscard]] std::size_t per_shard_capacity() const {
    return per_shard_capacity_;
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<const V>> map;
    /// Insert-order queue driving FIFO eviction; empty when unbounded.
    std::deque<std::uint64_t> fifo;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  static std::size_t shard_index(std::uint64_t key) {
    return static_cast<std::size_t>((key ^ (key >> 32)) & (kShardCount - 1));
  }
  Shard& shard(std::uint64_t key) { return shards_[shard_index(key)]; }

  std::array<Shard, kShardCount> shards_;
  std::size_t per_shard_capacity_ = 0;  ///< immutable after construction
};

/// Splits a whole-cache capacity across kCacheShardCount shards,
/// rounding up so a nonzero total never becomes an accidental zero
/// (= unbounded) and the cache can always hold at least `total` entries
/// overall: kCacheShardCount * per_shard_capacity_for(total) >= total
/// for every total > 0 (pinned by the ShardedCache capacity unit test).
inline constexpr std::size_t per_shard_capacity_for(std::size_t total) {
  if (total == 0) return 0;
  return (total + kCacheShardCount - 1) / kCacheShardCount;
}
static_assert(per_shard_capacity_for(0) == 0, "0 stays unbounded");
static_assert(kCacheShardCount * per_shard_capacity_for(1) >= 1 &&
                  per_shard_capacity_for(1) > 0,
              "a nonzero total never rounds down to unbounded");
static_assert(kCacheShardCount * per_shard_capacity_for(kCacheShardCount + 1) >=
                  kCacheShardCount + 1,
              "summed shard capacity covers the requested total");

/// A ShardedCache that counts every find() into a hit/miss pair of the
/// process-wide perf counters (util/perf.hpp) and is sized by a
/// whole-cache capacity. The structural caches are aliases of it:
/// gcn::SamplePrepCache, gcn::InferenceCache and
/// primitives::AnnotationCache.
template <typename V, std::atomic<std::uint64_t>& Hits,
          std::atomic<std::uint64_t>& Misses>
class CountedCache : public ShardedCache<V> {
 public:
  /// Bounds the cache to roughly `capacity` entries total (0 =
  /// unbounded); at capacity each shard FIFO-evicts its oldest entry.
  /// Eviction only costs recomputation -- results stay bit-identical.
  explicit CountedCache(std::size_t capacity = 0)
      : ShardedCache<V>(per_shard_capacity_for(capacity)) {}

  /// Cached value for `key`, or nullptr; counts a hit or a miss both on
  /// the shard and in the perf counters.
  [[nodiscard]] std::shared_ptr<const V> find(std::uint64_t key) {
    std::shared_ptr<const V> value = ShardedCache<V>::find(key);
    (value == nullptr ? Misses : Hits).fetch_add(1, std::memory_order_relaxed);
    return value;
  }
};

}  // namespace gana
