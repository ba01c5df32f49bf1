#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "locks/locks.hpp"
#include "memory/allocator.hpp"

namespace ats {

class PoolThreadCache;

/// The §4 thread-caching scalable allocator (the jemalloc role in the
/// paper's ablation), specialized for task-descriptor-sized churn.
///
/// Three tiers, hot to cold:
///
///   * **Magazines** — per-thread, per-size-class LIFO arrays of free
///     blocks.  The hot path (allocate/free on the same thread) is a
///     bump of a thread-local counter: no atomics, no locks, no shared
///     cache lines.
///   * **Remote-free lists** — one Treiber stack per thread cache.  A
///     block freed on a thread other than its allocator goes back to
///     the *owning* thread's remote list with one release-CAS (the
///     producer/consumer `crossFree` shape: a successor's releasing
///     thread frees the predecessor's descriptor).  The owner drains
///     the whole list with a single exchange the next time a magazine
///     runs dry, so cross-thread frees never contend on a global lock.
///   * **Central depot** — per-size-class freelist under a SpinLock,
///     refilled by carving chunked slabs from operator new.  Magazines
///     refill from and overflow to the depot in batches of
///     kRefillBatch/kFlushBatch, so depot lock traffic is 1/batch of
///     the allocation rate.
///
/// Every block carries a 16-byte header (owning thread cache + size
/// class), so `deallocate` finds the owner without any lookup and the
/// user area stays kAlignment-aligned.  Requests too large for the
/// class table fall through to operator new.
///
/// Thread caches are adopted, not destroyed: a cache whose thread exits
/// flushes its magazines to the depot and parks on an inactive list for
/// the next new thread, so its remote-free list keeps accepting frees
/// from surviving threads.  The singleton itself is intentionally
/// leaked — thread-local cache destructors may run arbitrarily late in
/// shutdown and must always find it alive.
///
/// Freed blocks are poisoned with kPoisonByte (default: on in debug
/// builds, off in NDEBUG, toggleable at runtime) so use-after-free of a
/// recycled descriptor surfaces as garbage instead of stale-but-
/// plausible data.
class PoolAllocator final : public Allocator {
 public:
  /// Per-block bookkeeping prefix (owner cache + size class).
  static constexpr std::size_t kHeaderBytes = 16;

  /// Size classes run 32B..8KiB in ~1.5x steps; requests over
  /// kMaxPooledSize fall through to operator new.
  static constexpr std::size_t kNumClasses = 17;
  static constexpr std::size_t kMaxBlockSize = 8192;
  static constexpr std::size_t kMaxPooledSize = kMaxBlockSize - kHeaderBytes;

  /// Magazine geometry: capacity per (thread, class), and the batch
  /// sizes moved per depot interaction.
  static constexpr std::size_t kMagazineCapacity = 64;
  static constexpr std::size_t kRefillBatch = 32;
  static constexpr std::size_t kFlushBatch = 32;

  static constexpr unsigned char kPoisonByte = 0xDE;

  static PoolAllocator& instance();

  void* allocate(std::size_t size) override;
  void deallocate(void* ptr, std::size_t size) override;
  const char* name() const override { return "pool"; }

  /// Block size (header included) serving a `userSize` request, or 0
  /// when the request falls through to operator new.
  static std::size_t blockSizeFor(std::size_t userSize);

  /// Total slab bytes carved from the system so far (never returned —
  /// the depot keeps chunks for reuse).  A bounded workload plateaus.
  std::size_t reservedBytes() const {
    return reservedBytes_.load(std::memory_order_relaxed);
  }

  void setPoisoning(bool on) {
    poison_.store(on, std::memory_order_relaxed);
  }
  bool poisoningEnabled() const {
    return poison_.load(std::memory_order_relaxed);
  }

  /// Test/stats introspection: the calling thread's current magazine
  /// fill for the class serving `userSize`, blocks parked in that
  /// class's central depot, and blocks other threads have pushed to the
  /// calling thread's remote-free list.
  std::size_t testLocalMagazineFill(std::size_t userSize);
  std::size_t testDepotFree(std::size_t userSize);
  std::size_t testRemotePendingOnCaller();

 private:
  friend class PoolThreadCache;

  PoolAllocator();
  ~PoolAllocator() override = default;

  struct alignas(64) Depot {
    SpinLock lock;
    void* freeHead = nullptr;
    std::size_t freeCount = 0;
  };

  PoolThreadCache& localCache();
  void refill(PoolThreadCache& cache, std::size_t cls);
  void drainRemote(PoolThreadCache& cache);
  void stashInMagazine(PoolThreadCache& cache, std::size_t cls,
                       void* block);
  void flushFromMagazine(std::size_t cls, void** blocks, std::size_t count);
  // That class's depot lock must be held by the caller.
  void carveChunk(std::size_t cls);
  void retireCache(PoolThreadCache* cache);

  Depot depots_[kNumClasses];

  SpinLock cacheLock_;
  std::vector<std::unique_ptr<PoolThreadCache>> caches_;
  PoolThreadCache* inactiveHead_ = nullptr;

  SpinLock chunkLock_;
  std::vector<void*> chunks_;
  std::atomic<std::size_t> reservedBytes_{0};

  std::atomic<bool> poison_;
};

}  // namespace ats
