// Simulation-result memoization (SimMode-independent plumbing).
//
// Concurrent partitioning workloads re-simulate the same (configuration,
// input) pairs over and over — the svc scheduler's join jobs in particular
// re-partition identical build sides — so full run results are worth
// memoizing. This header provides the two generic pieces:
//
//  * SimHasher / SimDigest: a 128-bit streaming digest (two independent
//    word-at-a-time FNV-1a lanes, finished with splitmix64) used to key
//    runs by config digest + input digest + simulation mode. 128 bits make
//    accidental collisions across a service lifetime implausible
//    (~2^-64 at a billion distinct runs); the digest is NOT
//    cryptographic and the cache must only be fed trusted inputs.
//
//  * ShardedLruCache<V>: a byte-budgeted LRU of shared_ptr<const V>,
//    sharded 16 ways like the obs metrics registry so concurrent probes
//    from scheduler workers do not serialize on one lock. Values are
//    immutable once inserted; a hit's copy shares the entry's output
//    buffer, and a consumer that writes into it copies on write
//    (datagen/partitioned_output.h), so none can change another's hit.
//
// The typed global cache instance lives in fpga/partitioner.h
// (FpgaPartitioner<T>::ResultCache), because the cached value type
// FpgaRunResult<T> is declared there; hit/miss/eviction/copied-bytes totals
// are exported as the sim.cache.* counters of docs/observability.md.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace fpart {

/// \brief 128-bit content digest (not cryptographic).
struct SimDigest {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const SimDigest& other) const = default;
};

/// \brief Streaming hasher producing a SimDigest.
///
/// Two FNV-1a lanes over 8-byte words with independent basis values, each
/// finished with a splitmix64 avalanche so short inputs still spread over
/// all 128 bits. Word-at-a-time keeps digesting multi-GB inputs at memory
/// speed, which matters because the input digest is on the cache hit path.
class SimHasher {
 public:
  void MixBytes(const void* data, size_t bytes) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (bytes >= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      MixWord(w);
      p += 8;
      bytes -= 8;
    }
    if (bytes > 0) {
      uint64_t w = 0;
      std::memcpy(&w, p, bytes);
      MixWord(w | (uint64_t{bytes} << 56));
    }
  }

  void MixU64(uint64_t v) { MixWord(v); }

  SimDigest Finish() const {
    return SimDigest{SplitMix64(a_), SplitMix64(b_)};
  }

 private:
  static constexpr uint64_t kFnvPrime = 0x100000001b3ull;

  void MixWord(uint64_t w) {
    a_ = (a_ ^ w) * kFnvPrime;
    b_ = (b_ ^ w) * kFnvPrime;
  }

  static uint64_t SplitMix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  // Two distinct FNV-1a offset bases (the second is the standard basis
  // advanced by one prime multiplication) decorrelate the lanes.
  uint64_t a_ = 0xcbf29ce484222325ull;
  uint64_t b_ = 0xcbf29ce484222325ull * kFnvPrime;
};

struct SimCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

/// \brief Byte-budgeted, sharded LRU keyed by SimDigest.
///
/// Thread-safe; one mutex per shard (a lookup touches exactly one shard).
/// Stored values are shared_ptr<const V>: a Lookup returns a reference to
/// the immutable cached instance (no copy), never blocking on its size.
template <typename V>
class ShardedLruCache {
 public:
  static constexpr size_t kNumShards = 16;
  /// Default budget: 1 GiB across all shards — a few hundred service-sized
  /// run results.
  static constexpr size_t kDefaultMaxBytes = size_t{1} << 30;

  explicit ShardedLruCache(size_t max_bytes = kDefaultMaxBytes)
      : shard_budget_(max_bytes / kNumShards) {}

  /// Returns the cached value, promoting the entry to most recently used,
  /// or nullptr on a miss. Counts the probe either way.
  std::shared_ptr<const V> Lookup(const SimDigest& key) {
    Shard& s = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(s.mu);
    auto range = s.index.equal_range(key.lo);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second->key == key) {
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second->value;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  /// Inserts (or refreshes) an entry charged at `bytes`, then evicts from
  /// the shard's cold end until the shard is back under budget. An entry
  /// larger than the whole shard budget is dropped immediately (still
  /// counted as an eviction).
  void Insert(const SimDigest& key, std::shared_ptr<const V> value,
              size_t bytes) {
    Shard& s = shards_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(s.mu);
    auto range = s.index.equal_range(key.lo);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second->key == key) {
        s.bytes -= it->second->bytes;
        s.bytes += bytes;
        it->second->value = std::move(value);
        it->second->bytes = bytes;
        s.lru.splice(s.lru.begin(), s.lru, it->second);
        EvictOver(&s);
        return;
      }
    }
    s.lru.push_front(Entry{key, std::move(value), bytes});
    s.index.emplace(key.lo, s.lru.begin());
    s.bytes += bytes;
    EvictOver(&s);
  }

  SimCacheStats stats() const {
    SimCacheStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      st.entries += s.lru.size();
      st.bytes += s.bytes;
    }
    return st;
  }

  void Clear() {
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.lru.clear();
      s.index.clear();
      s.bytes = 0;
    }
  }

 private:
  struct Entry {
    SimDigest key;
    std::shared_ptr<const V> value;
    size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    // Keyed by the low digest word; full-key equality is re-checked on
    // every probe, so a 64-bit map collision only costs a bucket walk.
    std::unordered_multimap<uint64_t, typename std::list<Entry>::iterator>
        index;
    size_t bytes = 0;
  };

  static size_t ShardOf(const SimDigest& key) {
    return static_cast<size_t>(key.hi) % kNumShards;
  }

  void EvictOver(Shard* s) {
    while (s->bytes > shard_budget_ && !s->lru.empty()) {
      const Entry& victim = s->lru.back();
      auto range = s->index.equal_range(victim.key.lo);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second->key == victim.key) {
          s->index.erase(it);
          break;
        }
      }
      s->bytes -= victim.bytes;
      s->lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const size_t shard_budget_;
  std::array<Shard, kNumShards> shards_{};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace fpart
