#include "memory/pool_allocator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "containers/spsc_queue.hpp"
#include "memory/system_allocator.hpp"

namespace ats {
namespace {

bool isFundamentallyAligned(void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % Allocator::kAlignment == 0;
}

/// Run `fn` on a brand-new thread so it starts from a thread cache with
/// empty magazines — magazine-geometry assertions need that determinism
/// (the main gtest thread's cache accumulates state across tests).
template <typename Fn>
void onFreshThread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

TEST(SystemAllocatorTest, RoundTripsAndAligns) {
  SystemAllocator& alloc = SystemAllocator::instance();
  for (std::size_t size : {1u, 17u, 256u, 8192u, 100000u}) {
    void* p = alloc.allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(isFundamentallyAligned(p));
    std::memset(p, 0xAB, size);
    alloc.deallocate(p, size);
  }
}

TEST(PoolAllocatorTest, SizeClassTableIsSaneAtBoundaries) {
  std::size_t prev = 0;
  for (std::size_t size = 0; size <= PoolAllocator::kMaxPooledSize;
       ++size) {
    const std::size_t block = PoolAllocator::blockSizeFor(size);
    ASSERT_GE(block, size + PoolAllocator::kHeaderBytes)
        << "class too small for request " << size;
    ASSERT_GE(block, prev) << "class table not monotonic at " << size;
    ASSERT_EQ(block % Allocator::kAlignment, 0u)
        << "class " << block << " would misalign user pointers";
    prev = block;
  }
  // One past the pooled ceiling falls through to operator new.
  EXPECT_EQ(PoolAllocator::blockSizeFor(PoolAllocator::kMaxPooledSize + 1),
            0u);
}

TEST(PoolAllocatorTest, AlignmentAndWritabilityAcrossClassesAndLargePath) {
  PoolAllocator& pool = PoolAllocator::instance();
  // Class boundaries (block-16 and block-16+1 for every class size),
  // plus the operator-new fallthrough sizes.
  std::vector<std::size_t> sizes = {1, 15, 16, 17, 255, 256, 257};
  for (std::size_t s = 32; s <= PoolAllocator::kMaxBlockSize; s *= 2) {
    sizes.push_back(s - PoolAllocator::kHeaderBytes);
    sizes.push_back(s - PoolAllocator::kHeaderBytes + 1);
  }
  sizes.push_back(PoolAllocator::kMaxPooledSize);
  sizes.push_back(PoolAllocator::kMaxPooledSize + 1);
  sizes.push_back(1 << 20);

  for (std::size_t size : sizes) {
    void* p = pool.allocate(size);
    ASSERT_NE(p, nullptr) << "size " << size;
    EXPECT_TRUE(isFundamentallyAligned(p)) << "size " << size;
    std::memset(p, 0xCD, size);  // every byte must be ours
    pool.deallocate(p, size);
  }
}

// A chunk starts on a 128-byte line pair, so every block of a class that
// is a multiple of 128 does too.  2048 live blocks per class cannot fit in
// fewer than four 64 KiB chunks of any of these classes.
TEST(PoolAllocatorTest, LinePairClassesStartEveryBlockOnALinePair) {
  PoolAllocator& pool = PoolAllocator::instance();
  constexpr std::size_t kBlocks = 2048;
  for (const std::size_t block : {128u, 256u, 512u, 768u}) {
    const std::size_t size = block - PoolAllocator::kHeaderBytes;
    ASSERT_EQ(PoolAllocator::blockSizeFor(size), block);
    std::vector<void*> live(kBlocks);
    std::size_t offLine = 0;
    for (void*& p : live) {
      p = pool.allocate(size);
      const auto start =
          reinterpret_cast<std::uintptr_t>(p) - PoolAllocator::kHeaderBytes;
      offLine += start % PoolAllocator::kChunkAlignment != 0;
    }
    EXPECT_EQ(offLine, 0u) << "of " << kBlocks << " blocks of the " << block
                           << "-byte class";
    for (void* p : live) pool.deallocate(p, size);
  }
}

TEST(PoolAllocatorTest, MagazineRefillsInBatchesAndRecyclesLifo) {
  onFreshThread([] {
    PoolAllocator& pool = PoolAllocator::instance();
    // A class the runtime's descriptor/closure churn does not use, so
    // depot/magazine counts are all ours.
    constexpr std::size_t kSize = 6000;

    // First allocation forces a refill of kRefillBatch blocks: one
    // comes back to us, the rest sit in the magazine.
    void* p = pool.allocate(kSize);
    EXPECT_EQ(pool.testLocalMagazineFill(kSize),
              PoolAllocator::kRefillBatch - 1);

    // Same-thread free goes back to the magazine (LIFO), and the next
    // allocation returns exactly that block without any refill.
    pool.deallocate(p, kSize);
    EXPECT_EQ(pool.testLocalMagazineFill(kSize),
              PoolAllocator::kRefillBatch);
    void* q = pool.allocate(kSize);
    EXPECT_EQ(q, p);
    pool.deallocate(q, kSize);
  });
}

TEST(PoolAllocatorTest, MagazineOverflowFlushesBatchToDepot) {
  onFreshThread([] {
    PoolAllocator& pool = PoolAllocator::instance();
    constexpr std::size_t kSize = 6000;

    // Hold enough live blocks to overfill one magazine when freed.
    constexpr std::size_t kLive = PoolAllocator::kMagazineCapacity + 8;
    void* live[kLive];
    for (void*& p : live) p = pool.allocate(kSize);

    const std::size_t depotBefore = pool.testDepotFree(kSize);
    for (void* p : live) pool.deallocate(p, kSize);

    // The magazine capped at kMagazineCapacity; the overflow triggered
    // at least one kFlushBatch spill to the central depot.
    EXPECT_LE(pool.testLocalMagazineFill(kSize),
              PoolAllocator::kMagazineCapacity);
    EXPECT_GE(pool.testDepotFree(kSize),
              depotBefore + PoolAllocator::kFlushBatch);
  });
}

/// A free stashes the block in the FREEING thread's magazine, whichever
/// thread allocated it: the freeing thread's next allocation returns
/// exactly that block without a refill, and the allocating thread's
/// magazine does not move.
TEST(PoolAllocatorTest, CrossThreadFreeLandsInTheFreeingThreadsMagazine) {
  PoolAllocator& pool = PoolAllocator::instance();
  constexpr std::size_t kSize = 6000;

  onFreshThread([&] {
    void* p = pool.allocate(kSize);
    const std::size_t allocatorFill = pool.testLocalMagazineFill(kSize);

    onFreshThread([&] {
      pool.deallocate(p, kSize);
      EXPECT_EQ(pool.testLocalMagazineFill(kSize), 1u);
      void* q = pool.allocate(kSize);
      EXPECT_EQ(q, p);
      EXPECT_EQ(pool.testLocalMagazineFill(kSize), 0u);
      pool.deallocate(q, kSize);
    });

    EXPECT_EQ(pool.testLocalMagazineFill(kSize), allocatorFill);
  });
}

/// A TLS destructor that runs after the thread's cache retired frees
/// straight into the depot: no cache is re-created (ASan/LSan would see
/// it leak) and nothing writes through the retired one.
TEST(PoolAllocatorTest, FreeAfterCacheRetirementGoesToTheDepot) {
  PoolAllocator& pool = PoolAllocator::instance();
  constexpr std::size_t kSize = 6000;
  // A different class for the call that creates the thread's cache, so
  // its exit flush does not move kSize's depot.
  constexpr std::size_t kOtherSize = 3000;

  struct LateFree {
    void* block = nullptr;
    ~LateFree() { PoolAllocator::instance().deallocate(block, kSize); }
  };

  void* p = pool.allocate(kSize);
  const std::size_t depotBefore = pool.testDepotFree(kSize);
  onFreshThread([p] {
    // Built before the thread's first pool call, so destroyed after the
    // pool's own TLS cache owner.
    thread_local LateFree late;
    late.block = p;
    PoolAllocator& local = PoolAllocator::instance();
    local.deallocate(local.allocate(kOtherSize), kOtherSize);
  });
  EXPECT_EQ(pool.testDepotFree(kSize), depotBefore + 1);
}

/// pool_carve in Throw mode: the allocation that must carve throws, the
/// depot and the reserved bytes are exactly as before, and once disarmed
/// the next allocation carves normally.
TEST(PoolAllocatorTest, CarveFailureLeavesTheDepotAsItWas) {
  onFreshThread([] {
    PoolAllocator& pool = PoolAllocator::instance();
    constexpr std::size_t kSize = 6000;

    // Empty this thread's magazine while the depot is too short for a
    // refill, so the next allocation must carve.
    std::vector<void*> live;
    while (pool.testLocalMagazineFill(kSize) != 0 ||
           pool.testDepotFree(kSize) >= PoolAllocator::kRefillBatch)
      live.push_back(pool.allocate(kSize));

    const std::size_t depotBefore = pool.testDepotFree(kSize);
    const std::size_t reservedBefore = pool.reservedBytes();
    Failpoint& site = failpoint(FailpointId::pool_carve);
    ASSERT_TRUE(site.arm(FailpointMode::Throw, 1.0, 1));
    EXPECT_THROW(pool.allocate(kSize), FailpointError);
    site.disarm();
    EXPECT_EQ(pool.testDepotFree(kSize), depotBefore);
    EXPECT_EQ(pool.reservedBytes(), reservedBefore);
    EXPECT_EQ(pool.testLocalMagazineFill(kSize), 0u);

    live.push_back(pool.allocate(kSize));
    EXPECT_GT(pool.reservedBytes(), reservedBefore);
    for (void* p : live) pool.deallocate(p, kSize);
  });
}

TEST(PoolAllocatorTest, ReuseAfterFreeIsPoisoned) {
  PoolAllocator& pool = PoolAllocator::instance();
  const bool wasPoisoning = pool.poisoningEnabled();
  pool.setPoisoning(true);

  constexpr std::size_t kSize = 200;
  unsigned char* p = static_cast<unsigned char*>(pool.allocate(kSize));
  std::memset(p, 0xAB, kSize);
  pool.deallocate(p, kSize);

  // LIFO magazine hands the same block straight back — and every byte
  // of the old payload must be gone.
  unsigned char* q = static_cast<unsigned char*>(pool.allocate(kSize));
  ASSERT_EQ(q, p);
  for (std::size_t i = 0; i < kSize; ++i) {
    ASSERT_EQ(q[i], PoolAllocator::kPoisonByte)
        << "stale byte survived free at offset " << i;
  }
  pool.deallocate(q, kSize);
  pool.setPoisoning(wasPoisoning);
}

/// Four threads churning the same size class through the one depot, each
/// overflowing its magazine every round: TSan co-asserts the depot
/// locking, and blocks must keep round-tripping — recycling must not
/// turn into unbounded slab growth.
TEST(PoolAllocatorTest, CrossDomainChurnConservesBlocksAcrossShards) {
  PoolAllocator& pool = PoolAllocator::instance();
  constexpr std::size_t kSize = 3000;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  constexpr std::size_t kLive = PoolAllocator::kMagazineCapacity + 8;

  const std::size_t reservedBefore = pool.reservedBytes();
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&pool] {
      std::vector<void*> live(kLive);
      for (int round = 0; round < kRounds; ++round) {
        for (void*& p : live) p = pool.allocate(kSize);
        for (void* p : live) pool.deallocate(p, kSize);
      }
    });
  }
  for (std::thread& t : churners) t.join();

  // Each thread held kLive blocks at once; growth must reflect that
  // window times the thread count, not the round count.
  const std::size_t grown = pool.reservedBytes() - reservedBefore;
  EXPECT_LT(grown, 16u * 1024 * 1024)
      << "the depot is hoarding instead of recycling";
}

/// 8-thread cross-thread free stress: T0 allocates task-descriptor-
/// sized blocks and deals them round-robin into one SPSC pipe per
/// consumer; T1..N free whatever they receive into their own magazines.
/// The pipes are lock-free, so the pool takes all the contention.
/// Checks the free-to-local path under real contention (TSan is the
/// co-assertion), and that recycling keeps slab growth bounded — blocks
/// must round-trip through the depot, not accumulate.
TEST(PoolAllocatorTest, CrossThreadFreeStressStaysBounded) {
  PoolAllocator& pool = PoolAllocator::instance();
  constexpr std::size_t kSize = 240;
  constexpr int kRounds = 20000;
  constexpr int kConsumers = 7;

  const std::size_t reservedBefore = pool.reservedBytes();

  std::vector<std::unique_ptr<SpscQueue<void*>>> pipes;
  for (int c = 0; c < kConsumers; ++c)
    pipes.push_back(std::make_unique<SpscQueue<void*>>(128));
  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      SpscQueue<void*>& pipe = *pipes[static_cast<std::size_t>(c)];
      for (;;) {
        const int seen = consumed.load(std::memory_order_relaxed);
        if (seen >= kRounds) break;
        void* p = nullptr;
        if (pipe.pop(p)) {
          pool.deallocate(p, kSize);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  for (int i = 0; i < kRounds; ++i) {
    void* p = pool.allocate(kSize);
    std::memset(p, 0x5A, kSize);
    SpscQueue<void*>& pipe = *pipes[static_cast<std::size_t>(i % kConsumers)];
    while (!pipe.push(p)) std::this_thread::yield();
  }
  for (std::thread& t : consumers) t.join();

  // 20k blocks round-tripped through at most (pipes + magazines) live
  // at once; slab growth must reflect that window, not the total.
  const std::size_t grown = pool.reservedBytes() - reservedBefore;
  EXPECT_LT(grown, 4u * 1024 * 1024)
      << "cross-thread frees are not being recycled";
}

}  // namespace
}  // namespace ats
