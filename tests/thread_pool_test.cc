// Tests for the deterministic parallel runtime (common/thread_pool.h):
// exact index coverage, stable reduction order, pool reuse, the serial
// fast path, the affinity-aware "auto" thread count and the no-nesting
// CHECK.

#include "src/common/thread_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <vector>

namespace seqhide {
namespace {

TEST(ResolveThreadCountTest, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
}

// "Auto" is the CPUs this thread may run on: narrowed to one CPU, it is
// one; restored, it is the mask's count again.
TEST(ResolveThreadCountTest, ZeroHonoursTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && first < 0; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) first = cpu;
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t pinned = ResolveThreadCount(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(ResolveThreadCount(0), static_cast<size_t>(CPU_COUNT(&saved)));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  for (size_t n : {0u, 1u, 2u, 7u, 100u, 1013u}) {
    for (size_t threads : {1u, 2u, 5u, 8u, 64u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, threads, [&](size_t begin, size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, n);
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads
                                     << " index=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, SerialPathSpawnsNoWorkers) {
  ThreadPool pool(4);
  size_t calls = 0;
  pool.ParallelFor(100, 1, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(pool.num_workers(), 0u);
  // n == 1 is also serial regardless of the requested parallelism.
  pool.ParallelFor(1, 16, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(pool.num_workers(), 0u);
}

TEST(ThreadPoolTest, WorkersAreBoundedAndReused) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(64, 16, [](size_t, size_t) {});
    EXPECT_LE(pool.num_workers(), 3u);
  }
}

TEST(ThreadPoolTest, ReduceSumMatchesSerialForEveryThreadCount) {
  ThreadPool pool(8);
  const size_t n = 1234;
  const uint64_t want = n * (n - 1) / 2;
  for (size_t threads : {1u, 2u, 3u, 8u, 32u}) {
    uint64_t got =
        pool.ParallelReduceSum(n, threads, [](size_t begin, size_t end) {
          uint64_t sum = 0;
          for (size_t i = begin; i < end; ++i) sum += i;
          return sum;
        });
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, SlotWritesAreDeterministicAcrossThreadCounts) {
  ThreadPool pool(8);
  const size_t n = 513;
  auto run = [&](size_t threads) {
    std::vector<uint64_t> out(n, 0);
    pool.ParallelFor(n, threads, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) out[i] = i * i + 1;
    });
    return out;
  };
  const std::vector<uint64_t> reference = run(1);
  for (size_t threads : {2u, 4u, 8u, 19u}) {
    EXPECT_EQ(run(threads), reference) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, ManySmallRegionsBackToBack) {
  // Regression guard for region-lifetime bugs: a straggler ticket from
  // region k must not observe region k+1's state.
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int region = 0; region < 200; ++region) {
    pool.ParallelFor(8, 4, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * 8u);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  uint64_t got = a.ParallelReduceSum(100, 4, [](size_t begin, size_t end) {
    return static_cast<uint64_t>(end - begin);
  });
  EXPECT_EQ(got, 100u);
}

// A region body calling into its own pool fails a CHECK, on the inline
// serial path and on the threaded one, for ParallelFor and
// ParallelReduceSum alike.
TEST(ThreadPoolDeathTest, NestedRegionOfTheSamePoolFails) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(4);
        pool.ParallelFor(1, 1, [&](size_t, size_t) {
          pool.ParallelFor(4, 1, [](size_t, size_t) {});
        });
      },
      "nested regions");
  EXPECT_DEATH(
      {
        ThreadPool pool(4);
        pool.ParallelFor(16, 4, [&](size_t, size_t) {
          pool.ParallelReduceSum(4, 2, [](size_t, size_t) -> uint64_t {
            return 0;
          });
        });
      },
      "nested regions");
}

// Another pool may be entered from a region body, and a pool is usable
// again once its region has returned.
TEST(ThreadPoolTest, OtherPoolsMayNestAndRegionsEndCleanly) {
  ThreadPool outer(4);
  ThreadPool inner(4);
  std::atomic<uint64_t> total{0};
  outer.ParallelFor(8, 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      total.fetch_add(
          inner.ParallelReduceSum(10, 2, [](size_t b, size_t e) -> uint64_t {
            return e - b;
          }),
          std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(total.load(), 80u);
  outer.ParallelFor(8, 1, [](size_t, size_t) {});
  EXPECT_EQ(outer.ParallelReduceSum(
                8, 4, [](size_t b, size_t e) -> uint64_t { return e - b; }),
            8u);
}

}  // namespace
}  // namespace seqhide
