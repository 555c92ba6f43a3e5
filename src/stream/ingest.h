// Continuous-ingest partitioned store: the data plane of the streaming
// subsystem (docs/streaming.md).
//
// The paper partitions one batch, once, under one (static) skew. A
// service under continuous traffic sees neither: keys arrive forever and
// the hot set moves. StreamStore keeps the arriving tuples in an
// extendible-hashing layout — a directory of 2^global_depth slots over
// buckets with a local depth — chosen because it composes exactly with
// the repo's partitioner stack: with HashMethod::kMurmur the directory
// index at depth d is the low d bits of Murmur32(key), which is precisely
// the partition index RunPartition computes at fanout 2^d. An ingest
// drain is therefore *one partitioner run* (CPU SIMD path or the
// simulated FPGA circuit) whose output runs append straight into the
// matching buckets; splitting a hot bucket distinguishes one more hash
// bit and merging cold buddies un-distinguishes it.
//
// Concurrency model (three lock tiers, never taken upward):
//   directory shared_mutex  >  per-bucket mutex  >  ingest-buffer mutex
// Reads and drains take the directory lock shared; only an epoch flip
// (StreamStore::Commit) takes it exclusive, and the expensive part of a
// split/merge — snapshotting and scattering the bucket — runs *before*
// the flip under no directory lock at all, so reads keep serving the old
// layout until the flip ("incremental repartitioning"). The flip itself
// only re-scatters the delta appended since the snapshot and swaps
// directory slots: O(delta + directory), not O(bucket).
//
// Determinism: every mutation is driven by the op stream (no wall-clock
// reads), the drain watermark (`drains()`) stamps each flip, and the
// scatter is stable — the post-flip bucket contents are a pure function
// of the pre-flip tuple sequence and the hash, independent of *when* the
// snapshot was taken. bench/ext_stream.cc builds its replayable
// determinism hash on exactly these properties.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "datagen/tuple.h"
#include "hash/hash_function.h"

namespace fpart::stream {

/// \brief Construction knobs of the streaming store.
struct StreamStoreConfig {
  /// log2 of the initial bucket count (clamped into [min_depth, max_depth]).
  uint32_t initial_depth = 4;
  /// Directory ceiling: no bucket exceeds this local depth.
  uint32_t max_depth = 12;
  /// Merge floor: no bucket shrinks below this local depth (>= 1).
  uint32_t min_depth = 2;
  /// Key -> bucket function. Must be a bit-slicing method (kMurmur is the
  /// default everywhere in the repo); kRange is not supported.
  HashMethod hash = HashMethod::kMurmur;
  /// Backend of the ingest drains (the per-batch partitioner run).
  Engine drain_engine = Engine::kCpu;
  /// FPGA drains only: memoize the partitioner runs.
  bool sim_cache = true;
  /// Bounded ingest buffer: Ingest() stages tuples here and drains
  /// synchronously when the bound is reached (backpressure by design —
  /// the caller's thread pays for the drain).
  size_t buffer_tuples = 8192;
};

/// \brief Outcome of a point read.
struct ReadResult {
  /// Tuples whose key matched.
  uint64_t matches = 0;
  /// Tuples scanned (= the bucket's size): the work a read had to do, and
  /// the skew signal the p99 read latencies of bench/ext_stream.cc track.
  uint64_t scanned = 0;
  /// Layout epoch the read was served under.
  uint64_t epoch = 0;
};

/// \brief The continuous-ingest partitioned store.
///
/// Cache-line aligned, so the directory lock and counters written on
/// every op never share a line with a neighbouring object, such as the
/// svc::Scheduler a caller keeps next to the store on its stack.
/// Unaligned, a change that added 8 bytes to the store moved the op p50
/// latency of bench/e2e's stream_drift workload by a third (4-vCPU KVM
/// host, 8 of 8 interleaved pairs). That change also moved the code
/// before Read(), and a move of the same size has since been reproduced
/// from code placement alone (Read's scan loop crossing a 64-byte line;
/// EXPERIMENTS.md, "Deleting the autoscaler"). Which of the two causes
/// this alignment fixed is unverified.
class alignas(64) StreamStore {
 public:
  /// One hash bucket. Exposed (rather than pimpl'd) because Staged
  /// rebuilds reference buckets across Prepare/Commit.
  struct Bucket {
    Bucket(uint64_t p, uint32_t d) : pattern(p), depth(d) {}
    /// Low `depth` bits of the hash all resident keys share.
    const uint64_t pattern;
    const uint32_t depth;
    mutable std::mutex mu;
    std::vector<Tuple8> tuples;      // guarded by mu
    uint64_t appended = 0;           // guarded by mu; Stats() can reset
  };

  /// \brief A prepared (but not yet visible) split or merge: the staged
  /// replacement buckets plus the snapshot watermarks Commit() uses to
  /// re-scatter only the delta. Movable, single-use.
  struct Staged {
    bool split = true;
    /// Split: pattern/depth of the bucket being split. Merge: pattern of
    /// the *parent* (low depth-1 bits) and the children's depth.
    uint64_t pattern = 0;
    uint32_t depth = 0;
    size_t snap_lo = 0;
    size_t snap_hi = 0;
    std::shared_ptr<Bucket> src_lo, src_hi;  // merge uses both
    std::shared_ptr<Bucket> out_lo, out_hi;  // split uses both
    /// Tuples the prepare phase scattered (the rebuild's measured cost).
    uint64_t moved_tuples = 0;
  };

  explicit StreamStore(StreamStoreConfig config);

  /// Stage tuples into the bounded buffer, draining synchronously each
  /// time the bound fills. Keys equal to kDummyKey are rejected (the
  /// partitioner uses them as padding sentinels).
  Status Ingest(const Tuple8* tuples, size_t n);
  /// Drain whatever is buffered (end of stream / before an audit).
  Status Flush();

  /// Point read: count matches of `key` under the current layout.
  ///
  /// Starts on a cache line, so where its bucket-scan loop lands does not
  /// depend on the size of unrelated code linked before it. The scan is
  /// the read's whole cost, and when a size change in unrelated code moved
  /// its 22-byte loop across a 64-byte line, bench/e2e's stream_drift op p50
  /// latency rose by about a third (4-vCPU KVM host, interleaved pairs).
  [[gnu::aligned(64)]] ReadResult Read(uint32_t key) const;

  // -- Rebalance primitives (driven by stream/repartition.h) ------------

  /// Snapshot bucket (pattern, depth) and scatter it into two staged
  /// children at depth+1. Takes no exclusive lock; reads and ingest
  /// continue against the old bucket. Fails if the layout moved on.
  Result<Staged> PrepareSplit(uint64_t pattern, uint32_t depth);
  /// Snapshot the buddy buckets at `child_depth` whose parent is
  /// `parent_pattern` and concatenate them into one staged bucket at
  /// child_depth-1.
  Result<Staged> PrepareMerge(uint64_t parent_pattern, uint32_t child_depth);
  /// The epoch flip: under the exclusive directory lock, re-scatter the
  /// delta appended since the snapshot, swap the directory slots (growing
  /// or shrinking the directory as needed) and bump the epoch. Fails —
  /// and counts `stale` — if the layout changed since Prepare.
  Status Commit(Staged staged);

  // -- Introspection ----------------------------------------------------

  /// Per-bucket size/rate sample for the hot-spot detector.
  struct BucketStat {
    uint64_t pattern = 0;
    uint32_t depth = 0;
    uint64_t tuples = 0;
    /// Tuples appended since the last resetting Stats() call (the rate
    /// signal).
    uint64_t appended = 0;
  };
  std::vector<BucketStat> Stats(bool reset_appended);

  /// One epoch flip, for the replay hash and the audit trail.
  struct FlipLogEntry {
    uint64_t epoch = 0;
    bool split = true;
    uint64_t pattern = 0;
    uint32_t depth = 0;
    /// Ingest-drain watermark at the flip.
    uint64_t watermark = 0;
  };
  std::vector<FlipLogEntry> FlipLog() const;

  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  uint32_t global_depth() const;
  size_t num_buckets() const;
  uint64_t total_tuples() const;
  /// Max distinct-bucket size over mean (1.0 = perfectly balanced).
  double imbalance() const;
  uint64_t ingested_tuples() const {
    return ingested_.load(std::memory_order_relaxed);
  }
  uint64_t drains() const { return drains_.load(std::memory_order_relaxed); }
  uint64_t buffered_tuples() const {
    return buffered_.load(std::memory_order_relaxed);
  }
  uint64_t stale_commits() const {
    return stale_.load(std::memory_order_relaxed);
  }

  /// Order-independent multiset fingerprint of one key's presence; the
  /// sum over all resident tuples is KeyChecksum(). Ingest-side code can
  /// accumulate the same sum to audit zero lost/duplicated keys.
  static uint64_t KeyFingerprint(uint32_t key) {
    return Murmur64(static_cast<uint64_t>(key) ^ 0x517cc1b727220a95ULL);
  }
  /// Full-scan commutative checksum over every resident tuple's key.
  uint64_t KeyChecksum() const;

  const StreamStoreConfig& config() const { return config_; }

 private:
  Status DrainLocked();  // requires buf_mu_
  /// Stable scatter of [t, t+n) into the two children of a bucket at
  /// `parent_depth` (bit `parent_depth` of the hash decides).
  void ScatterSplit(const Tuple8* t, size_t n, uint32_t parent_depth,
                    Bucket* lo, Bucket* hi) const;
  void PublishGauges();  // requires dir_mu_ (any mode)

  StreamStoreConfig config_;

  mutable std::shared_mutex dir_mu_;
  std::vector<std::shared_ptr<Bucket>> dir_;  // guarded by dir_mu_
  uint32_t global_depth_ = 0;                 // guarded by dir_mu_
  std::vector<FlipLogEntry> flip_log_;        // guarded by dir_mu_

  std::mutex buf_mu_;
  std::vector<Tuple8> buffer_;  // guarded by buf_mu_

  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> resident_{0};
  std::atomic<uint64_t> ingested_{0};
  std::atomic<uint64_t> drains_{0};
  std::atomic<uint64_t> buffered_{0};
  std::atomic<uint64_t> stale_{0};
};

/// \brief Strict-order gate for deterministic replays: concurrent client
/// threads Enter(seq) before touching the store and Exit() after, so ops
/// apply in one global order no matter the thread count — the same
/// pattern dist/cluster.h uses for its strict-sequence router, packaged
/// for the stream benches/tests.
class OpSequencer {
 public:
  void Enter(uint64_t seq) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return next_ == seq; });
  }
  void Exit() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++next_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ = 0;
};

}  // namespace fpart::stream
