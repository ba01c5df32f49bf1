#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "locks/locks.hpp"
#include "memory/allocator.hpp"

namespace ats {

class PoolThreadCache;

/// The §4 thread-caching scalable allocator (the jemalloc role in the
/// paper's ablation), specialized for task-descriptor-sized churn.
///
/// Two tiers, hot to cold:
///
///   * **Magazines** — per-thread, per-size-class LIFO arrays of free
///     blocks.  Every free stashes the block in the *calling* thread's
///     magazine, whichever thread allocated it (the `crossFree` shape: a
///     successor's releasing thread frees the predecessor's descriptor),
///     so both hot paths are a bump of a thread-local counter: no
///     atomics, no locks, no shared cache lines.
///   * **Central depot** — per-size-class contiguous array of block
///     pointers under a SpinLock, grown by carving chunked slabs from
///     operator new.  Magazines refill from and overflow to the depot by
///     copying kRefillBatch/kFlushBatch pointers, so depot lock traffic
///     is 1/batch of the allocation rate and no block memory is read or
///     written under the lock.
///
/// Every block carries a 16-byte header (size class + canary, padded so
/// the user area stays kAlignment-aligned), stamped once at carve time:
/// `deallocate` learns the class from it, and no allocation writes it.
/// Requests too large for the class table fall through to operator new.
///
/// Chunks are carved kChunkAlignment-aligned, so every block of a class
/// that is a multiple of 128 bytes starts on a 128-byte line pair; a task
/// descriptor's header and two-line head then fill exactly that pair.
/// Each magazine pop prefetches the first two lines of the block
/// kPrefetchAhead pops later for write, so they have arrived by the time
/// the caller gets that block (DESIGN.md, "Two-line descriptors, fetched
/// ahead").
///
/// A thread's cache is created on its first pool call (a free counts)
/// and deleted at thread exit after flushing every magazine to the
/// depots; a free that arrives later on that thread (another TLS
/// destructor) goes straight to the depot.  The singleton itself is
/// intentionally leaked — thread-local cache destructors may run
/// arbitrarily late in shutdown and must always find it alive.
///
/// Freed blocks are poisoned with kPoisonByte (default: on in debug
/// builds, off in NDEBUG, toggleable at runtime) so use-after-free of a
/// recycled descriptor surfaces as garbage instead of stale-but-
/// plausible data.
class PoolAllocator final : public Allocator {
 public:
  /// Per-block bookkeeping prefix (size class + canary + padding).
  static constexpr std::size_t kHeaderBytes = 16;

  /// Every chunk starts on a line pair (two 64-byte lines).
  static constexpr std::size_t kChunkAlignment = 128;

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

  /// How many pops ahead a magazine pop prefetches.  One pop serves one
  /// spawn (60-80 ns on a 4-core Xeon VM), while a line another core
  /// wrote takes 65-100 ns to arrive there, more in some minutes than in
  /// others; one pop ahead hid it only in the fast minutes.
  static constexpr std::size_t kPrefetchAhead = 4;
  static_assert(kPrefetchAhead >= 1 && kPrefetchAhead <= kRefillBatch);

  static constexpr unsigned char kPoisonByte = 0xDE;

  static PoolAllocator& instance();

  void* allocate(std::size_t size) override;
  void deallocate(void* ptr, std::size_t size) override;

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
  /// fill for the class serving `userSize`, and blocks parked in that
  /// class's central depot.
  std::size_t testLocalMagazineFill(std::size_t userSize);
  std::size_t testDepotFree(std::size_t userSize);

 private:
  friend class PoolThreadCache;

  PoolAllocator();
  ~PoolAllocator() override = default;

  /// One size class's free blocks.  `free.capacity()` never falls below
  /// `carved`, the blocks ever carved for the class, so a flush never
  /// allocates.
  struct alignas(64) Depot {
    SpinLock lock;
    std::vector<void*> free;
    std::size_t carved = 0;
  };

  /// The calling thread's cache, created on first use; nullptr once the
  /// thread's cache has retired at exit (or could not be created).
  PoolThreadCache* localCache();
  void takeFromDepot(std::size_t cls, void** out, std::size_t count);
  void flushToDepot(std::size_t cls, void* const* blocks, std::size_t count);
  // The depot's lock must be held by the caller.
  void carveChunk(Depot& depot, std::size_t cls);

  Depot depots_[kNumClasses];

  std::atomic<std::size_t> reservedBytes_{0};

  std::atomic<bool> poison_;
};

}  // namespace ats
