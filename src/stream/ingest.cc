#include "stream/ingest.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fpart::stream {
namespace {

struct StoreMetrics {
  obs::Counter* ingest_tuples;
  obs::Counter* ingest_batches;
  obs::Histogram* drain_us;
  obs::Gauge* buffered;
  obs::Counter* read_ops;
  obs::Counter* read_scanned;
  obs::Histogram* read_us;
  obs::Gauge* buckets;
  obs::Gauge* depth;
  obs::Gauge* tuples;
  obs::Gauge* epoch;
  obs::Gauge* imbalance;
  obs::Counter* splits;
  obs::Counter* merges;
  obs::Counter* stale;
  obs::Counter* moved_tuples;
  obs::Histogram* build_us;
  obs::Histogram* flip_us;
};

StoreMetrics& Metrics() {
  static StoreMetrics m = [] {
    auto& reg = obs::Registry::Global();
    StoreMetrics x;
    x.ingest_tuples = reg.GetCounter("stream.ingest.tuples", "tuples",
                                     "tuples accepted by Ingest()");
    x.ingest_batches = reg.GetCounter("stream.ingest.batches", "batches",
                                      "ingest-buffer drains (partitioner runs)");
    x.drain_us = reg.GetHistogram("stream.ingest.drain_us", "us",
                                  "wall time of one buffer drain");
    x.buffered = reg.GetGauge("stream.ingest.buffered", "tuples",
                              "tuples staged in the ingest buffer");
    x.read_ops = reg.GetCounter("stream.read.ops", "reads", "point reads");
    x.read_scanned = reg.GetCounter("stream.read.scan_tuples", "tuples",
                                    "tuples scanned by point reads");
    x.read_us = reg.GetHistogram("stream.read.us", "us",
                                 "wall time of one point read");
    x.buckets = reg.GetGauge("stream.store.buckets", "buckets",
                             "distinct hash buckets");
    x.depth = reg.GetGauge("stream.store.depth", "bits",
                           "directory global depth");
    x.tuples = reg.GetGauge("stream.store.tuples", "tuples",
                            "resident tuples");
    x.epoch = reg.GetGauge("stream.store.epoch", "epochs", "layout epoch");
    x.imbalance = reg.GetGauge("stream.store.imbalance", "ratio",
                               "max bucket size / mean bucket size");
    x.splits = reg.GetCounter("stream.rebalance.splits", "flips",
                              "committed bucket splits");
    x.merges = reg.GetCounter("stream.rebalance.merges", "flips",
                              "committed buddy merges");
    x.stale = reg.GetCounter("stream.rebalance.stale", "commits",
                             "prepare/commit attempts beaten by layout churn");
    x.moved_tuples = reg.GetCounter("stream.rebalance.moved_tuples", "tuples",
                                    "tuples scattered by rebuilds");
    x.build_us = reg.GetHistogram("stream.rebalance.build_us", "us",
                                  "prepare phase (snapshot+scatter) wall time");
    x.flip_us = reg.GetHistogram("stream.rebalance.flip_us", "us",
                                 "commit phase (delta+swap) wall time");
    return x;
  }();
  return m;
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StreamStore::StreamStore(StreamStoreConfig config) : config_(config) {
  if (config_.min_depth < 1) config_.min_depth = 1;
  if (config_.max_depth < config_.min_depth) {
    config_.max_depth = config_.min_depth;
  }
  config_.initial_depth = std::clamp(config_.initial_depth, config_.min_depth,
                                     config_.max_depth);
  if (config_.buffer_tuples == 0) config_.buffer_tuples = 1;
  global_depth_ = config_.initial_depth;
  const size_t n = size_t{1} << global_depth_;
  dir_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    dir_[p] = std::make_shared<Bucket>(p, global_depth_);
  }
  PublishGauges();
}

uint32_t StreamStore::global_depth() const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  return global_depth_;
}

size_t StreamStore::num_buckets() const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  std::unordered_set<const Bucket*> distinct;
  for (const auto& b : dir_) distinct.insert(b.get());
  return distinct.size();
}

uint64_t StreamStore::total_tuples() const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  uint64_t n = 0;
  std::unordered_set<const Bucket*> seen;
  for (const auto& b : dir_) {
    if (!seen.insert(b.get()).second) continue;
    std::lock_guard<std::mutex> lk(b->mu);
    n += b->tuples.size();
  }
  return n;
}

double StreamStore::imbalance() const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  uint64_t max = 0, sum = 0, count = 0;
  std::unordered_set<const Bucket*> seen;
  for (const auto& b : dir_) {
    if (!seen.insert(b.get()).second) continue;
    std::lock_guard<std::mutex> lk(b->mu);
    const uint64_t n = b->tuples.size();
    max = std::max(max, n);
    sum += n;
    ++count;
  }
  if (sum == 0 || count == 0) return 1.0;
  return static_cast<double>(max) * static_cast<double>(count) /
         static_cast<double>(sum);
}

uint64_t StreamStore::KeyChecksum() const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  uint64_t sum = 0;
  std::unordered_set<const Bucket*> seen;
  for (const auto& b : dir_) {
    if (!seen.insert(b.get()).second) continue;
    std::lock_guard<std::mutex> lk(b->mu);
    for (const Tuple8& t : b->tuples) sum += KeyFingerprint(t.key);
  }
  return sum;
}

std::vector<StreamStore::FlipLogEntry> StreamStore::FlipLog() const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  return flip_log_;
}

std::vector<StreamStore::BucketStat> StreamStore::Stats(bool reset_appended) {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  std::vector<BucketStat> stats;
  std::unordered_set<const Bucket*> seen;
  for (const auto& b : dir_) {
    if (!seen.insert(b.get()).second) continue;
    std::lock_guard<std::mutex> lk(b->mu);
    BucketStat s;
    s.pattern = b->pattern;
    s.depth = b->depth;
    s.tuples = b->tuples.size();
    s.appended = b->appended;
    if (reset_appended) b->appended = 0;
    stats.push_back(s);
  }
  // Directory order is pointer-dedup order; sort by pattern so ticks see
  // a canonical (replay-stable) ordering.
  std::sort(stats.begin(), stats.end(),
            [](const BucketStat& a, const BucketStat& b) {
              return a.pattern < b.pattern ||
                     (a.pattern == b.pattern && a.depth < b.depth);
            });
  uint64_t max = 0, sum = 0;
  for (const BucketStat& s : stats) {
    max = std::max(max, s.tuples);
    sum += s.tuples;
  }
  if (sum > 0 && !stats.empty()) {
    Metrics().imbalance->Set(static_cast<double>(max) *
                             static_cast<double>(stats.size()) /
                             static_cast<double>(sum));
  }
  return stats;
}

Status StreamStore::Ingest(const Tuple8* tuples, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (IsDummy(tuples[i])) {
      return Status::InvalidArgument(
          "ingest of the dummy-key sentinel is not supported");
    }
  }
  std::unique_lock<std::mutex> lock(buf_mu_);
  size_t off = 0;
  while (off < n) {
    const size_t room = config_.buffer_tuples - buffer_.size();
    const size_t take = std::min(room, n - off);
    buffer_.insert(buffer_.end(), tuples + off, tuples + off + take);
    off += take;
    if (buffer_.size() >= config_.buffer_tuples) {
      FPART_RETURN_NOT_OK(DrainLocked());
    }
  }
  ingested_.fetch_add(n, std::memory_order_relaxed);
  buffered_.store(buffer_.size(), std::memory_order_relaxed);
  Metrics().ingest_tuples->Add(n);
  Metrics().buffered->Set(static_cast<double>(buffer_.size()));
  return Status::OK();
}

Status StreamStore::Flush() {
  std::unique_lock<std::mutex> lock(buf_mu_);
  FPART_RETURN_NOT_OK(DrainLocked());
  buffered_.store(0, std::memory_order_relaxed);
  Metrics().buffered->Set(0.0);
  return Status::OK();
}

Status StreamStore::DrainLocked() {
  if (buffer_.empty()) return Status::OK();
  const uint64_t t0 = NowUs();
  obs::TraceSpan span("stream.drain", "stream");
  std::vector<Tuple8> batch;
  batch.swap(buffer_);

  // The drain *is* a partitioner run at the directory's fanout: with a
  // bit-slicing hash, output partition p lands in directory slot p.
  std::shared_lock<std::shared_mutex> dir_lock(dir_mu_);
  PartitionRequest req;
  req.engine = config_.drain_engine;
  req.fanout = 1u << global_depth_;
  req.hash = config_.hash;
  req.output_mode = OutputMode::kHist;  // exact sizes, no overflow risk
  req.sim_cache = config_.sim_cache;
  auto run = RunPartition(req, batch.data(), batch.size());
  if (!run.ok()) {
    buffer_ = std::move(batch);  // keep the tuples; the caller may retry
    return run.status();
  }
  const auto& out = run.ValueOrDie().output;
  for (size_t p = 0; p < out.num_partitions(); ++p) {
    const uint64_t count = out.part(p).num_tuples;
    if (count == 0) continue;
    Bucket* b = dir_[p].get();
    const Tuple8* data = out.partition_data(p);
    const size_t slots = out.partition_slots(p);
    std::lock_guard<std::mutex> lk(b->mu);
    b->tuples.reserve(b->tuples.size() + count);
    for (size_t s = 0; s < slots; ++s) {
      if (!IsDummy(data[s])) b->tuples.push_back(data[s]);
    }
    b->appended += count;
  }
  drains_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t resident =
      resident_.fetch_add(batch.size(), std::memory_order_relaxed) +
      batch.size();
  Metrics().ingest_batches->Add();
  Metrics().drain_us->Record(NowUs() - t0);
  Metrics().tuples->Set(static_cast<double>(resident));
  return Status::OK();
}

ReadResult StreamStore::Read(uint32_t key) const {
  const uint64_t t0 = NowUs();
  std::shared_ptr<Bucket> b;
  ReadResult r;
  {
    std::shared_lock<std::shared_mutex> lock(dir_mu_);
    const PartitionFn fn(config_.hash, 1u << global_depth_);
    b = dir_[fn(key)];
    r.epoch = epoch_.load(std::memory_order_relaxed);
  }
  // The directory lock is already released: a concurrent flip may retire
  // this bucket mid-scan, in which case the read serves the consistent
  // pre-flip state (the old bucket is immutable once unreferenced).
  std::lock_guard<std::mutex> lk(b->mu);
  r.scanned = b->tuples.size();
  for (const Tuple8& t : b->tuples) {
    if (t.key == key) ++r.matches;
  }
  auto& m = Metrics();
  m.read_ops->Add();
  m.read_scanned->Add(r.scanned);
  m.read_us->Record(NowUs() - t0);
  return r;
}

void StreamStore::ScatterSplit(const Tuple8* t, size_t n,
                               uint32_t parent_depth, Bucket* lo,
                               Bucket* hi) const {
  // Stable: relative order within each child matches the input order, so
  // snapshot-scatter + delta-scatter equals one scatter of the whole
  // sequence — the property that makes the flip timing-independent.
  const PartitionFn fn(config_.hash, 1u << (parent_depth + 1));
  for (size_t i = 0; i < n; ++i) {
    const uint32_t idx = fn(t[i].key);
    ((idx >> parent_depth) & 1u ? hi : lo)->tuples.push_back(t[i]);
  }
}

Result<StreamStore::Staged> StreamStore::PrepareSplit(uint64_t pattern,
                                                      uint32_t depth) {
  const uint64_t t0 = NowUs();
  Staged st;
  st.split = true;
  st.pattern = pattern;
  st.depth = depth;
  {
    std::shared_lock<std::shared_mutex> lock(dir_mu_);
    if (depth >= config_.max_depth) {
      return Status::InvalidArgument("split would exceed max_depth");
    }
    if (pattern >= dir_.size()) {
      stale_.fetch_add(1, std::memory_order_relaxed);
      Metrics().stale->Add();
      return Status::InvalidArgument("stale split: pattern out of range");
    }
    std::shared_ptr<Bucket> b = dir_[pattern];
    if (b->depth != depth || b->pattern != pattern) {
      stale_.fetch_add(1, std::memory_order_relaxed);
      Metrics().stale->Add();
      return Status::InvalidArgument("stale split: layout moved on");
    }
    st.src_lo = std::move(b);
  }
  std::vector<Tuple8> snap;
  {
    std::lock_guard<std::mutex> lk(st.src_lo->mu);
    snap = st.src_lo->tuples;  // short copy; appends resume right after
  }
  st.snap_lo = snap.size();
  st.out_lo = std::make_shared<Bucket>(pattern, depth + 1);
  st.out_hi =
      std::make_shared<Bucket>(pattern | (uint64_t{1} << depth), depth + 1);
  ScatterSplit(snap.data(), snap.size(), depth, st.out_lo.get(),
               st.out_hi.get());
  st.moved_tuples = snap.size();
  Metrics().build_us->Record(NowUs() - t0);
  return st;
}

Result<StreamStore::Staged> StreamStore::PrepareMerge(uint64_t parent_pattern,
                                                      uint32_t child_depth) {
  const uint64_t t0 = NowUs();
  if (child_depth == 0 || child_depth <= config_.min_depth) {
    return Status::InvalidArgument("merge would shrink below min_depth");
  }
  if (parent_pattern >= (uint64_t{1} << (child_depth - 1))) {
    return Status::InvalidArgument("parent pattern wider than child_depth-1");
  }
  Staged st;
  st.split = false;
  st.pattern = parent_pattern;
  st.depth = child_depth;
  const uint64_t hi_pattern =
      parent_pattern | (uint64_t{1} << (child_depth - 1));
  {
    std::shared_lock<std::shared_mutex> lock(dir_mu_);
    if (hi_pattern >= dir_.size()) {
      stale_.fetch_add(1, std::memory_order_relaxed);
      Metrics().stale->Add();
      return Status::InvalidArgument("stale merge: pattern out of range");
    }
    std::shared_ptr<Bucket> lo = dir_[parent_pattern];
    std::shared_ptr<Bucket> hi = dir_[hi_pattern];
    if (lo->depth != child_depth || lo->pattern != parent_pattern ||
        hi->depth != child_depth || hi->pattern != hi_pattern) {
      stale_.fetch_add(1, std::memory_order_relaxed);
      Metrics().stale->Add();
      return Status::InvalidArgument("stale merge: layout moved on");
    }
    st.src_lo = std::move(lo);
    st.src_hi = std::move(hi);
  }
  st.out_lo = std::make_shared<Bucket>(parent_pattern, child_depth - 1);
  {
    std::lock_guard<std::mutex> lk(st.src_lo->mu);
    st.out_lo->tuples = st.src_lo->tuples;
    st.snap_lo = st.src_lo->tuples.size();
  }
  {
    std::lock_guard<std::mutex> lk(st.src_hi->mu);
    st.out_lo->tuples.insert(st.out_lo->tuples.end(),
                             st.src_hi->tuples.begin(),
                             st.src_hi->tuples.end());
    st.snap_hi = st.src_hi->tuples.size();
  }
  st.moved_tuples = st.out_lo->tuples.size();
  Metrics().build_us->Record(NowUs() - t0);
  return st;
}

Status StreamStore::Commit(Staged staged) {
  const uint64_t t0 = NowUs();
  auto& m = Metrics();
  std::unique_lock<std::shared_mutex> lock(dir_mu_);
  const auto stale = [&](const char* what) {
    stale_.fetch_add(1, std::memory_order_relaxed);
    m.stale->Add();
    return Status::InvalidArgument(what);
  };
  if (Failpoint("stream.commit.stale")) {
    // Fault injection: take the stale-commit abort path as if the layout
    // had moved on, regardless of the real directory state.
    return stale("stale commit: failpoint stream.commit.stale");
  }

  if (staged.split) {
    if (staged.pattern >= dir_.size() ||
        dir_[staged.pattern] != staged.src_lo ||
        staged.src_lo->depth != staged.depth) {
      return stale("stale split commit: layout moved on");
    }
    if (staged.depth + 1 > global_depth_) {
      if (global_depth_ >= config_.max_depth) {
        return stale("stale split commit: directory at max_depth");
      }
      const size_t old = dir_.size();
      dir_.resize(old * 2);
      for (size_t j = old; j < dir_.size(); ++j) dir_[j] = dir_[j - old];
      ++global_depth_;
    }
    {
      // Only the delta appended since the snapshot is re-scattered here
      // under the exclusive lock — the incremental part of "incremental
      // repartitioning".
      std::lock_guard<std::mutex> lk(staged.src_lo->mu);
      const auto& src = staged.src_lo->tuples;
      ScatterSplit(src.data() + staged.snap_lo, src.size() - staged.snap_lo,
                   staged.depth, staged.out_lo.get(), staged.out_hi.get());
      staged.moved_tuples += src.size() - staged.snap_lo;
    }
    for (size_t j = 0; j < dir_.size(); ++j) {
      if (dir_[j] == staged.src_lo) {
        dir_[j] = ((j >> staged.depth) & 1u) ? staged.out_hi : staged.out_lo;
      }
    }
    m.splits->Add();
  } else {
    const uint64_t hi_pattern =
        staged.pattern | (uint64_t{1} << (staged.depth - 1));
    if (hi_pattern >= dir_.size() || dir_[staged.pattern] != staged.src_lo ||
        dir_[hi_pattern] != staged.src_hi ||
        staged.src_lo->depth != staged.depth ||
        staged.src_hi->depth != staged.depth) {
      return stale("stale merge commit: layout moved on");
    }
    {
      std::lock_guard<std::mutex> lk(staged.src_lo->mu);
      const auto& src = staged.src_lo->tuples;
      staged.out_lo->tuples.insert(staged.out_lo->tuples.end(),
                                   src.begin() + staged.snap_lo, src.end());
      staged.moved_tuples += src.size() - staged.snap_lo;
    }
    {
      std::lock_guard<std::mutex> lk(staged.src_hi->mu);
      const auto& src = staged.src_hi->tuples;
      staged.out_lo->tuples.insert(staged.out_lo->tuples.end(),
                                   src.begin() + staged.snap_hi, src.end());
      staged.moved_tuples += src.size() - staged.snap_hi;
    }
    for (size_t j = 0; j < dir_.size(); ++j) {
      if (dir_[j] == staged.src_lo || dir_[j] == staged.src_hi) {
        dir_[j] = staged.out_lo;
      }
    }
    // Shrink the directory while every bucket's local depth is below the
    // global depth (each slot then equals its buddy in the upper half).
    while (global_depth_ > config_.min_depth) {
      bool all_below = true;
      for (size_t j = 0; j < dir_.size() && all_below; ++j) {
        all_below = dir_[j]->depth < global_depth_;
      }
      if (!all_below) break;
      dir_.resize(dir_.size() / 2);
      --global_depth_;
    }
    m.merges->Add();
  }

  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  FlipLogEntry entry;
  entry.epoch = epoch;
  entry.split = staged.split;
  entry.pattern = staged.pattern;
  entry.depth = staged.depth;
  entry.watermark = drains_.load(std::memory_order_relaxed);
  flip_log_.push_back(entry);
  m.moved_tuples->Add(staged.moved_tuples);
  m.flip_us->Record(NowUs() - t0);
  PublishGauges();
  return Status::OK();
}

void StreamStore::PublishGauges() {
  auto& m = Metrics();
  std::unordered_set<const Bucket*> distinct;
  for (const auto& b : dir_) distinct.insert(b.get());
  m.buckets->Set(static_cast<double>(distinct.size()));
  m.depth->Set(static_cast<double>(global_depth_));
  m.epoch->Set(static_cast<double>(epoch_.load(std::memory_order_relaxed)));
}

}  // namespace fpart::stream
