// Bounded concurrent map for the structural-hash caches: one mutex, one
// map and one insertion-order FIFO.
//
// The lock guards one hash probe or one insert; the value itself is
// computed outside it, and two workers racing on one miss both compute
// identical values, so first-insert-wins keeps results independent of
// which worker wins.
//
// Capacity bounding (graceful degradation for long-lived processes such
// as gana-serve): a nonzero capacity bounds the entry count exactly --
// inserting a new key into a full cache evicts the oldest *inserted* key
// first. FIFO rather than LRU keeps probes cheap (no bookkeeping on
// find) and keeps which-key-is-evicted a pure function of insertion
// order, never of probe timing. Eviction changes only *when* a value
// must be recomputed, never what is computed: all cached values here are
// pure functions of their key, so a bounded cache stays bit-identical to
// an unbounded one (pinned by the cache-on/off determinism tests).
// Capacity 0 means unbounded (the default).
#pragma once

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

template <typename V>
class BoundedCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< entries dropped by capacity bounding
    std::size_t entries = 0;
  };

  /// `capacity` caps the entry count (0 = unbounded).
  explicit BoundedCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Cached value for `key`, or nullptr; counts a hit or a miss.
  [[nodiscard]] std::shared_ptr<const V> find(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    return it->second;
  }

  /// Inserts `value` for `key`; returns the winning entry (the existing
  /// one if another worker inserted first). When the cache is full, its
  /// oldest-inserted key is evicted to make room.
  std::shared_ptr<const V> insert(std::uint64_t key,
                                  std::shared_ptr<const V> value) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = map_.try_emplace(key, std::move(value));
    if (inserted && capacity_ > 0) {
      // fifo_ holds exactly the map's keys in insert order, so while the
      // map is over a capacity >= 1 its front is never the new key, and
      // the erase never invalidates `it`.
      fifo_.push_back(key);
      if (map_.size() > capacity_) {
        map_.erase(fifo_.front());
        fifo_.pop_front();
        ++stats_.evictions;
        perf::count_cache_eviction();
      }
    }
    return it->second;
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.entries = map_.size();
    return out;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    fifo_.clear();
    stats_ = Stats{};
  }

  /// Entry cap this cache was constructed with (0 = unbounded).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const V>> map_;
  /// Insert-order queue driving FIFO eviction; empty when unbounded.
  std::deque<std::uint64_t> fifo_;
  Stats stats_;  ///< counters; `entries` is read from the map instead
  const std::size_t capacity_;
};

/// A BoundedCache that counts every find() into a hit/miss pair of the
/// process-wide perf counters (util/perf.hpp). The structural caches are
/// aliases of it: gcn::SamplePrepCache, gcn::InferenceCache and
/// primitives::AnnotationCache.
template <typename V, std::atomic<std::uint64_t>& Hits,
          std::atomic<std::uint64_t>& Misses>
class CountedCache : public BoundedCache<V> {
 public:
  /// Bounds the cache to `capacity` entries (0 = unbounded); at capacity
  /// it FIFO-evicts its oldest entry. Eviction only costs recomputation
  /// -- results stay bit-identical.
  explicit CountedCache(std::size_t capacity = 0)
      : BoundedCache<V>(capacity) {}

  /// Cached value for `key`, or nullptr; counts a hit or a miss both in
  /// the cache's stats and in the perf counters.
  [[nodiscard]] std::shared_ptr<const V> find(std::uint64_t key) {
    std::shared_ptr<const V> value = BoundedCache<V>::find(key);
    (value == nullptr ? Misses : Hits).fetch_add(1, std::memory_order_relaxed);
    return value;
  }
};

}  // namespace gana
