// Unit tests for the scalable pool allocator and aligned buffers.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "mem/aligned.hpp"
#include "mem/pool_allocator.hpp"
#include "mem/workspace.hpp"

namespace spgemm::mem {
namespace {

TEST(PoolAllocator, ReturnsAlignedMemory) {
  for (std::size_t bytes : {1u, 63u, 64u, 100u, 4096u, 1u << 20}) {
    void* p = pool_malloc(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << bytes;
    std::memset(p, 0xAB, bytes);  // must be writable end to end
    pool_free(p);
  }
}

TEST(PoolAllocator, NullFreeIsNoop) {
  pool_free(nullptr);  // must not crash
}

TEST(PoolAllocator, ReusesFreedBlock) {
  void* a = pool_malloc(256);
  pool_free(a);
  void* b = pool_malloc(256);
  EXPECT_EQ(a, b);  // LIFO thread cache hands the same block back
  pool_free(b);
}

TEST(PoolAllocator, DistinctLiveBlocks) {
  std::set<void*> live;
  for (int i = 0; i < 100; ++i) {
    void* p = pool_malloc(128);
    EXPECT_TRUE(live.insert(p).second);
  }
  for (void* p : live) pool_free(p);
}

TEST(PoolAllocator, OversizeFallsThrough) {
  pool_stats_reset();
  void* p = pool_malloc(100u << 20);  // 100 MB > largest size class
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 100u << 20);
  pool_free(p);
  EXPECT_GE(pool_stats().oversize, 1u);
}

TEST(PoolAllocator, StatsCountHits) {
  pool_stats_reset();
  void* a = pool_malloc(512);
  pool_free(a);
  void* b = pool_malloc(512);
  pool_free(b);
  const PoolStats s = pool_stats();
  EXPECT_GE(s.allocations, 2u);
  EXPECT_GE(s.cache_hits, 1u);
}

TEST(PoolAllocator, CrossThreadFreeIsSafe) {
  // Allocate on worker threads, free on other workers: the block header
  // routes each block to the correct size class wherever it is freed.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  std::vector<void*> blocks(kThreads * kPerThread, nullptr);
#pragma omp parallel num_threads(kThreads)
  {
    const int tid = omp_get_thread_num();
    for (int i = 0; i < kPerThread; ++i) {
      void* p = pool_malloc(1024);
      std::memset(p, tid, 1024);
      blocks[static_cast<std::size_t>(tid * kPerThread + i)] = p;
    }
  }
#pragma omp parallel num_threads(kThreads)
  {
    const int tid = omp_get_thread_num();
    // Free blocks allocated by the *next* thread.
    const int victim = (tid + 1) % kThreads;
    for (int i = 0; i < kPerThread; ++i) {
      pool_free(blocks[static_cast<std::size_t>(victim * kPerThread + i)]);
    }
  }
}

/// Rounds in which worker thread 1 allocates `count` blocks of `bytes` and
/// the master thread frees them; returns the arena carves made after the
/// first `warmup` rounds.
std::uint64_t carves_after_warmup(std::size_t bytes, int count, int warmup) {
  constexpr int kRounds = 12;
  std::uint64_t carves_before = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (round == warmup) carves_before = pool_stats().carves;
    std::vector<void*> blocks;
#pragma omp parallel num_threads(2)
    {
      if (omp_get_thread_num() == 1) {
        for (int i = 0; i < count; ++i) blocks.push_back(pool_malloc(bytes));
      }
    }
    for (void* p : blocks) pool_free(p);
  }
  return pool_stats().carves - carves_before;
}

TEST(PoolAllocator, WorkerAllocMasterFreeStaysFlat) {
  // A handle destroyed on the master thread frees scratch its OpenMP
  // workers allocated; the workers must get that memory back instead of
  // carving fresh chunks on every call.  A single-block class (a 16 MiB
  // capture buffer) is reusable from the next round on; a many-block
  // class once the master's capped cache has filled.
  EXPECT_EQ(carves_after_warmup(std::size_t{16} << 20, 1, 1), 0u);
  EXPECT_EQ(carves_after_warmup(1024, 4096, 4), 0u);
}

TEST(PoolAllocator, FlushThenRefill) {
  void* a = pool_malloc(2048);
  pool_free(a);
  pool_thread_cache_flush();
  void* b = pool_malloc(2048);  // refills from the arena spill list
  ASSERT_NE(b, nullptr);
  pool_free(b);
}

TEST(PoolAllocator, ManySizesStress) {
  std::vector<void*> live;
  std::uint64_t state = 12345;
  for (int round = 0; round < 2000; ++round) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t bytes = 1 + (state >> 33) % (1u << 16);
    void* p = pool_malloc(bytes);
    std::memset(p, 0x5A, bytes);
    live.push_back(p);
    if (live.size() > 64) {
      pool_free(live.front());
      live.erase(live.begin());
    }
  }
  for (void* p : live) pool_free(p);
}

TEST(PoolStlAllocator, WorksWithVector) {
  std::vector<int, PoolStlAllocator<int>> v;
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(AlignedBuffer, RespectsAlignment) {
  AlignedBuffer<double> buf(100, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  EXPECT_EQ(buf.size(), 100u);
}

TEST(AlignedBuffer, EnsureGrows) {
  AlignedBuffer<int> buf(10);
  int* before = buf.data();
  buf.ensure(5);  // no-op: smaller
  EXPECT_EQ(buf.data(), before);
  buf.ensure(1000);
  EXPECT_GE(buf.size(), 1000u);
  buf[999] = 7;
  EXPECT_EQ(buf[999], 7);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(50);
  a[0] = 42;
  int* data = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b[0], 42);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(ThreadScratch, GrowOnlyReuse) {
  ThreadScratch<int> scratch;
  int* p1 = scratch.ensure(100);
  ASSERT_NE(p1, nullptr);
  int* p2 = scratch.ensure(50);
  EXPECT_EQ(p1, p2);  // no shrink, same buffer
  EXPECT_GE(scratch.capacity(), 100u);
  int* p3 = scratch.ensure(100000);
  ASSERT_NE(p3, nullptr);
  EXPECT_GE(scratch.capacity(), 100000u);
  p3[99999] = 1;
}

}  // namespace
}  // namespace spgemm::mem
