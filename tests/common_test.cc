// Unit tests for src/common: Status/Result, AlignedBuffer, Rng,
// ThreadPool, env parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/aligned_buffer.h"
#include "common/failpoint.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/topology.h"

namespace fpart {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad fanout");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad fanout");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad fanout");
}

TEST(StatusTest, PartitionOverflowPredicate) {
  EXPECT_TRUE(Status::PartitionOverflow("p 12").IsPartitionOverflow());
  EXPECT_FALSE(Status::Internal("x").IsPartitionOverflow());
  EXPECT_FALSE(Status::OK().IsPartitionOverflow());
}

TEST(StatusTest, CopyAndMoveSemantics) {
  Status st = Status::IOError("disk");
  Status copy = st;
  EXPECT_EQ(copy.code(), StatusCode::kIOError);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  Status moved = std::move(st);
  EXPECT_EQ(moved.message(), "disk");
  Status assigned;
  assigned = moved;
  EXPECT_EQ(assigned.message(), "disk");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("too big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(std::move(r).ValueOr(-1), -1);
}

TEST(ResultTest, OkStatusIsRejected) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Inner(bool fail) {
  if (fail) return Status::CapacityError("inner");
  return 7;
}

Result<int> Outer(bool fail) {
  FPART_ASSIGN_OR_RETURN(int v, Inner(fail));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = Outer(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 8);
  Result<int> err = Outer(true);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kCapacityError);
}

TEST(AlignedBufferTest, AllocationIsAlignedAndZeroed) {
  auto buf = AlignedBuffer::Allocate(1000);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf->data()) % kCacheLineSize, 0u);
  EXPECT_EQ(buf->size(), 1000u);
  for (size_t i = 0; i < buf->size(); ++i) EXPECT_EQ(buf->data()[i], 0);
}

TEST(AlignedBufferTest, ZeroSize) {
  auto buf = AlignedBuffer::Allocate(0);
  ASSERT_TRUE(buf.ok());
  EXPECT_TRUE(buf->empty());
}

TEST(AlignedBufferTest, RejectsNonPowerOfTwoAlignment) {
  auto buf = AlignedBuffer::Allocate(64, 48);
  EXPECT_FALSE(buf.ok());
  EXPECT_EQ(buf.status().code(), StatusCode::kInvalidArgument);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  auto buf = AlignedBuffer::Allocate(64);
  ASSERT_TRUE(buf.ok());
  uint8_t* ptr = buf->data();
  AlignedBuffer moved = std::move(*buf);
  EXPECT_EQ(moved.data(), ptr);
  EXPECT_EQ(buf->data(), nullptr);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
  EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, ReasonablyUniform32) {
  Rng rng(77);
  int buckets[16] = {0};
  const int kN = 160000;
  for (int i = 0; i < kN; ++i) ++buckets[rng.Next32() >> 28];
  for (int b = 0; b < 16; ++b) {
    EXPECT_NEAR(buckets[b], kN / 16, kN / 16 * 0.1);
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8);
  pool.ParallelFor(8, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSingleRunsInline) {
  ThreadPool pool(2);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.ParallelFor(1, [&](size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
}

TEST(ThreadPoolTest, SubmitExceptionRethrownFromWaitIdle) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(
      {
        try {
          pool.WaitIdle();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task boom");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPoolTest, OnlyFirstExceptionOfBatchPropagates) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&ran] {
      ran.fetch_add(1);
      throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.WaitIdle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8);  // a throwing task never kills its worker
}

TEST(ThreadPoolTest, ParallelForRethrowsWorkerException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(6,
                                [](size_t i) {
                                  if (i == 3) {
                                    throw std::runtime_error("worker boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PoolUsableAfterException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.WaitIdle(), std::runtime_error);
  // The error was consumed; the next batch runs clean.
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 10);
}

#if defined(__linux__)
TEST(ThreadPoolTest, WorkersAreNamed) {
  ThreadPool pool(2, "tp-name-test");
  std::string worker_name;
  pool.ParallelFor(2, [&](size_t i) {
    if (i == 0) return;  // single writer: only index 1 records its name
    char buf[16] = {};
    pthread_getname_np(pthread_self(), buf, sizeof(buf));
    worker_name = buf;
  });
  // "tp-name-test/<i>" clipped to the kernel's 15-char limit.
  EXPECT_EQ(worker_name.substr(0, 12), "tp-name-test");
}
#endif

TEST(ThreadPoolTest, NoneAffinityLeavesWorkersUnpinned) {
  ThreadPool pool(3, "tp-none", AffinityPolicy::kNone);
  EXPECT_EQ(pool.affinity(), AffinityPolicy::kNone);
  EXPECT_EQ(pool.pinned_workers(), 0u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(pool.worker_cpu(i), -1) << "worker " << i;
  }
}

TEST(ThreadPoolTest, PinMaskHonoredWhenSupported) {
  // Per-worker contract: worker_cpu(i) >= 0 only when the kernel accepted
  // the pin, and such a worker must actually run with exactly that
  // single-CPU mask. Rejected pins fall back cleanly to -1/unrestricted
  // (which is all that can be asserted on hosts without affinity support).
  ThreadPool pool(2, "tp-pin", AffinityPolicy::kCompact);
  EXPECT_EQ(pool.affinity(), AffinityPolicy::kCompact);
  EXPECT_LE(pool.pinned_workers(), 2u);
  std::mutex mu;
  bool mask_ok = true;
  pool.ParallelFor(4, [&](size_t) {
    const WorkerContext& ctx = CurrentWorkerContext();
#if defined(__linux__)
    if (ctx.cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      const bool ok = sched_getaffinity(0, sizeof(set), &set) == 0 &&
                      CPU_COUNT(&set) == 1 &&
                      CPU_ISSET(static_cast<unsigned>(ctx.cpu), &set);
      std::lock_guard<std::mutex> lock(mu);
      mask_ok = mask_ok && ok;
    }
#else
    (void)ctx;
#endif
  });
  EXPECT_TRUE(mask_ok);
#if !defined(__linux__)
  EXPECT_EQ(pool.pinned_workers(), 0u);  // clean fallback: nothing pinned
#endif
}

TEST(ThreadPoolTest, WorkersPublishContext) {
  ThreadPool pool(2, "tp-ctx", AffinityPolicy::kCompact);
  std::mutex mu;
  bool ctx_ok = true;
  pool.ParallelFor(8, [&](size_t) {
    const WorkerContext& ctx = CurrentWorkerContext();
    const bool ok = ctx.worker >= 0 && ctx.worker < 2 &&
                    pool.worker_cpu(ctx.worker) == ctx.cpu &&
                    pool.worker_node(ctx.worker) == ctx.node &&
                    ctx.pool != nullptr &&
                    std::string(ctx.pool) == "tp-ctx";
    std::lock_guard<std::mutex> lock(mu);
    ctx_ok = ctx_ok && ok;
  });
  EXPECT_TRUE(ctx_ok);
}

TEST(StatusTest, SloErrorIsTypedAndDistinct) {
  Status slo = Status::SloError("predicted 2 s exceeds budget 1 s");
  EXPECT_FALSE(slo.ok());
  EXPECT_TRUE(slo.IsSloError());
  EXPECT_FALSE(slo.IsCapacityError());
  Status cap = Status::CapacityError("queue full");
  EXPECT_TRUE(cap.IsCapacityError());
  EXPECT_FALSE(cap.IsSloError());
  EXPECT_NE(slo.ToString().find("predicted"), std::string::npos);
}

TEST(FailpointTest, DisarmedRegistryNeverFires) {
  FailpointRegistry::Global().ClearAll();
  EXPECT_EQ(FailpointRegistry::Global().armed(), 0);
  EXPECT_FALSE(Failpoint("common.test.never_armed"));
  EXPECT_EQ(FailpointRegistry::Global().fired("common.test.never_armed"), 0u);
}

TEST(FailpointTest, ArmWithCountFiresExactlyThatManyTimes) {
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();
  reg.Arm("common.test.p", 3);
  EXPECT_EQ(reg.armed(), 1);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(Failpoint("common.test.p"));
  EXPECT_FALSE(Failpoint("common.test.p"));  // budget exhausted
  EXPECT_EQ(reg.fired("common.test.p"), 3u);
  EXPECT_EQ(reg.armed(), 0);
  reg.ClearAll();
}

TEST(FailpointTest, DisarmStopsFiringButKeepsTheTally) {
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();
  reg.Arm("common.test.q");  // unlimited
  EXPECT_TRUE(Failpoint("common.test.q"));
  EXPECT_TRUE(Failpoint("common.test.q"));
  reg.Disarm("common.test.q");
  EXPECT_FALSE(Failpoint("common.test.q"));
  EXPECT_EQ(reg.fired("common.test.q"), 2u);
  reg.ClearAll();
  EXPECT_EQ(reg.fired("common.test.q"), 0u);
}

TEST(FailpointTest, OnlyTheNamedPointFires) {
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();
  reg.Arm("common.test.armed", 1);
  EXPECT_FALSE(Failpoint("common.test.other"));
  EXPECT_TRUE(Failpoint("common.test.armed"));
  EXPECT_EQ(reg.fired("common.test.other"), 0u);
  reg.ClearAll();
}

TEST(FailpointTest, ArmFromSpecParsesNamesAndCounts) {
  auto& reg = FailpointRegistry::Global();
  reg.ClearAll();
  EXPECT_EQ(reg.ArmFromSpec("common.test.a:2,common.test.b"), 2u);
  EXPECT_TRUE(Failpoint("common.test.a"));
  EXPECT_TRUE(Failpoint("common.test.a"));
  EXPECT_FALSE(Failpoint("common.test.a"));  // count 2 consumed
  EXPECT_TRUE(Failpoint("common.test.b"));
  EXPECT_TRUE(Failpoint("common.test.b"));  // unlimited
  // Malformed entries are skipped without arming anything.
  EXPECT_EQ(reg.ArmFromSpec(""), 0u);
  EXPECT_EQ(reg.ArmFromSpec(",,"), 0u);
  reg.ClearAll();
}

TEST(EnvTest, ParsesAndDefaults) {
  ::setenv("FPART_TEST_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("FPART_TEST_D", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(EnvDouble("FPART_TEST_MISSING", 1.5), 1.5);
  ::setenv("FPART_TEST_D", "garbage", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("FPART_TEST_D", 1.0), 1.0);
  ::setenv("FPART_TEST_N", "42", 1);
  EXPECT_EQ(EnvSizeT("FPART_TEST_N", 7), 42u);
  EXPECT_EQ(EnvSizeT("FPART_TEST_MISSING", 7), 7u);
  ::unsetenv("FPART_TEST_D");
  ::unsetenv("FPART_TEST_N");
}

TEST(EnvTest, BenchScaleClamped) {
  ::setenv("FPART_SCALE", "1000", 1);
  EXPECT_LE(BenchScale(), 64.0);
  ::setenv("FPART_SCALE", "0.0001", 1);
  EXPECT_GE(BenchScale(), 1.0 / 64.0);
  ::unsetenv("FPART_SCALE");
  EXPECT_DOUBLE_EQ(BenchScale(), 1.0);
}

}  // namespace
}  // namespace fpart
