#include "memory/pool_allocator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>

#include "common/failpoint.hpp"
#include "common/prefetch.hpp"

namespace ats {

namespace {

/// Size classes (header included), multiples of 16 so every block — and
/// therefore every user pointer at block+16 — keeps fundamental
/// alignment.  ~1.5x spacing caps internal fragmentation at ~33%.
constexpr std::array<std::size_t, PoolAllocator::kNumClasses> kClassSizes =
    {32,   48,   64,   96,   128,  192,  256,  384,  512,
     768,  1024, 1536, 2048, 3072, 4096, 6144, 8192};

static_assert(kClassSizes.back() == PoolAllocator::kMaxBlockSize);

/// need/16 -> class index, precomputed so the allocation fast path does
/// one table load instead of a class scan.
constexpr auto kClassLut = [] {
  std::array<std::uint8_t, PoolAllocator::kMaxBlockSize / 16 + 1> lut{};
  std::size_t cls = 0;
  for (std::size_t slot = 0; slot < lut.size(); ++slot) {
    const std::size_t need = slot * 16;
    while (kClassSizes[cls] < need) ++cls;
    lut[slot] = static_cast<std::uint8_t>(cls);
  }
  return lut;
}();

/// Starts fetching a block's first 128-byte line pair (header plus a
/// descriptor's head) for the thread that is about to write it.
void prefetchHeadForWrite(void* block) {
  char* head = static_cast<char*>(block);
  prefetchForWrite(head);
  prefetchForWrite(head + 64);
}

std::size_t classIndexFor(std::size_t need) {
  assert(need <= PoolAllocator::kMaxBlockSize);
  return kClassLut[(need + 15) / 16];
}

/// Target slab size; small classes get many blocks per chunk, the
/// largest still gets 8.
constexpr std::size_t kChunkTargetBytes = 64 * 1024;

#ifdef NDEBUG
constexpr bool kDefaultPoison = false;
#else
constexpr bool kDefaultPoison = true;
#endif

}  // namespace

/// Per-block prefix, stamped once at carve time and never written
/// again: a block frees into whichever thread's magazine frees it, so
/// nothing per allocation needs recording.
struct BlockHeader {
  std::uint32_t classIdx;
  std::uint32_t canary;

  static constexpr std::uint32_t kCanary = 0xA75A110C;
};

static_assert(sizeof(BlockHeader) <= PoolAllocator::kHeaderBytes);
static_assert(alignof(BlockHeader) <= PoolAllocator::kHeaderBytes);

class PoolThreadCache {
 public:
  struct Magazine {
    void* slots[PoolAllocator::kMagazineCapacity];
    std::size_t count = 0;
  };

  Magazine mags[PoolAllocator::kNumClasses];

  PoolThreadCache() = default;
  PoolThreadCache(const PoolThreadCache&) = delete;
  PoolThreadCache& operator=(const PoolThreadCache&) = delete;

  /// Thread exit: every parked block goes back to its class's depot.
  ~PoolThreadCache() {
    PoolAllocator& pool = PoolAllocator::instance();
    for (std::size_t cls = 0; cls < PoolAllocator::kNumClasses; ++cls) {
      if (mags[cls].count != 0)
        pool.flushToDepot(cls, mags[cls].slots, mags[cls].count);
    }
  }
};

namespace {

/// The calling thread's cache.  Plain trivially destructible TLS, so the
/// hot paths read it without an init guard, and a TLS destructor that
/// runs after the owner below still reads a live variable.
thread_local PoolThreadCache* tlsCache = nullptr;

/// Set when the owner below has retired this thread's cache.  A pool
/// call after that (from a later TLS destructor) moves its block
/// straight to or from the depot: a cache created now would never be
/// retired.
thread_local bool tlsCacheRetired = false;

/// Constructed with the thread's cache; its destructor retires it at
/// thread exit so parked blocks go back to the depot instead of idling
/// in dead magazines.
thread_local struct TlsCacheOwner {
  PoolThreadCache* cache = nullptr;
  ~TlsCacheOwner() {
    tlsCache = nullptr;
    tlsCacheRetired = true;
    delete cache;
  }
} tlsCacheOwner;

}  // namespace

PoolAllocator::PoolAllocator() : poison_(kDefaultPoison) {}

PoolAllocator& PoolAllocator::instance() {
  // Deliberately leaked: thread-local cache destructors (any thread,
  // any shutdown order) must always find the pool alive.
  static PoolAllocator* inst = new PoolAllocator();
  return *inst;
}

std::size_t PoolAllocator::blockSizeFor(std::size_t userSize) {
  if (userSize > kMaxPooledSize) return 0;
  return kClassSizes[classIndexFor(userSize + kHeaderBytes)];
}

PoolThreadCache* PoolAllocator::localCache() {
  PoolThreadCache* cache = tlsCache;
  if (cache == nullptr && !tlsCacheRetired) [[unlikely]] {
    // nothrow: a thread without a cache still works (one block at a
    // time through the depot), so deallocate never throws.
    cache = new (std::nothrow) PoolThreadCache;
    tlsCacheOwner.cache = cache;
    tlsCache = cache;
  }
  return cache;
}

void* PoolAllocator::allocate(std::size_t size) {
  // Compare before adding the header: size + kHeaderBytes would wrap
  // for requests near SIZE_MAX and route them to a tiny class.
  if (size > kMaxPooledSize) return ::operator new(size);
  const std::size_t cls = classIndexFor(size + kHeaderBytes);

  void* block;
  if (PoolThreadCache* cache = localCache()) [[likely]] {
    auto& mag = cache->mags[cls];
    if (mag.count == 0) {
      takeFromDepot(cls, mag.slots, kRefillBatch);
      mag.count = kRefillBatch;
      // A fresh batch: start the blocks the next pops return, which the
      // steady-state prefetch below has not reached.
      for (std::size_t k = 2; k <= kPrefetchAhead; ++k)
        prefetchHeadForWrite(mag.slots[kRefillBatch - k]);
    }
    block = mag.slots[--mag.count];
    // The block kPrefetchAhead pops from now was last written on
    // whichever core freed it: fetch its header and head lines for write
    // now, so the caller's stores into them do not wait on that core.
    if (mag.count >= kPrefetchAhead)
      prefetchHeadForWrite(mag.slots[mag.count - kPrefetchAhead]);
  } else {
    takeFromDepot(cls, &block, 1);
  }

  [[maybe_unused]] auto* hdr = static_cast<BlockHeader*>(block);
  assert(hdr->canary == BlockHeader::kCanary);
  assert(hdr->classIdx == cls);
  return static_cast<char*>(block) + kHeaderBytes;
}

void PoolAllocator::deallocate(void* ptr, std::size_t size) {
  if (size > kMaxPooledSize) {
    ::operator delete(ptr, size);
    return;
  }

  void* block = static_cast<char*>(ptr) - kHeaderBytes;
  auto* hdr = static_cast<BlockHeader*>(block);
  const std::size_t cls = hdr->classIdx;
  assert(hdr->canary == BlockHeader::kCanary &&
         "deallocate of a pointer the pool never handed out");
  assert(cls == classIndexFor(size + kHeaderBytes) &&
         "deallocate size does not match the allocation request");

  if (poison_.load(std::memory_order_relaxed)) {
    std::memset(ptr, kPoisonByte, kClassSizes[cls] - kHeaderBytes);
  }

  PoolThreadCache* cache = localCache();
  if (cache == nullptr) [[unlikely]] {
    flushToDepot(cls, &block, 1);
    return;
  }
  auto& mag = cache->mags[cls];
  if (mag.count == kMagazineCapacity) {
    flushToDepot(cls, mag.slots, kFlushBatch);
    std::memmove(mag.slots, mag.slots + kFlushBatch,
                 (kMagazineCapacity - kFlushBatch) * sizeof(void*));
    mag.count = kMagazineCapacity - kFlushBatch;
  }
  mag.slots[mag.count++] = block;
}

void PoolAllocator::takeFromDepot(std::size_t cls, void** out,
                                  std::size_t count) {
  Depot& depot = depots_[cls];
  std::lock_guard<SpinLock> guard(depot.lock);
  // Top up before taking: one carve always covers one refill batch.
  if (depot.free.size() < count) carveChunk(depot, cls);
  const auto first = depot.free.end() - static_cast<std::ptrdiff_t>(count);
  std::copy(first, depot.free.end(), out);
  depot.free.erase(first, depot.free.end());
}

void PoolAllocator::flushToDepot(std::size_t cls, void* const* blocks,
                                 std::size_t count) {
  Depot& depot = depots_[cls];
  std::lock_guard<SpinLock> guard(depot.lock);
  // Each block was carved here first, and capacity covers every carved
  // block, so this insert never reallocates.
  assert(depot.free.size() + count <= depot.free.capacity());
  depot.free.insert(depot.free.end(), blocks, blocks + count);
}

void PoolAllocator::carveChunk(Depot& depot, std::size_t cls) {
  // Failpoint: models chunk-reservation failure (the OOM drill).  A
  // throw here, or a bad_alloc below, leaves the depot's blocks as they
  // were; only spawn-path callers (allocateTask, closure spill)
  // translate the throw into a clean spawn failure.
  ATS_FAILPOINT(pool_carve);
  const std::size_t blockSize = kClassSizes[cls];
  // Never carve less than a refill batch, so one carve always satisfies
  // one refill even for the largest classes.
  const std::size_t blocks =
      std::max(kChunkTargetBytes / blockSize, kRefillBatch);
  const std::size_t bytes = blocks * blockSize;

  // Grow the pointer array geometrically BEFORE carving, so capacity
  // covers every block that will exist and a flush never allocates.
  const std::size_t carved = depot.carved + blocks;
  if (carved > depot.free.capacity())
    depot.free.reserve(std::max(carved, 2 * depot.free.capacity()));

  // Chunks start on a 128-byte line pair, so every block of a class that
  // is a multiple of 128 does too: a descriptor's header and head are
  // then exactly two lines.  The class sizes are multiples of 16, so
  // every carved block (and its +16 user pointer) keeps the kAlignment
  // guarantee.  Chunks are never freed, so no aligned delete pairs this.
  char* chunk = static_cast<char*>(
      ::operator new(bytes, std::align_val_t{kChunkAlignment}));
  {
    std::lock_guard<SpinLock> guard(chunkLock_);
    chunks_.push_back(chunk);
  }
  reservedBytes_.fetch_add(bytes, std::memory_order_relaxed);

  depot.carved = carved;
  for (std::size_t i = 0; i < blocks; ++i) {
    auto* hdr = reinterpret_cast<BlockHeader*>(chunk + i * blockSize);
    hdr->classIdx = static_cast<std::uint32_t>(cls);
    hdr->canary = BlockHeader::kCanary;
    depot.free.push_back(hdr);
  }
}

std::size_t PoolAllocator::testLocalMagazineFill(std::size_t userSize) {
  if (userSize > kMaxPooledSize) return 0;
  PoolThreadCache* cache = localCache();
  return cache == nullptr
             ? 0
             : cache->mags[classIndexFor(userSize + kHeaderBytes)].count;
}

std::size_t PoolAllocator::testDepotFree(std::size_t userSize) {
  if (userSize > kMaxPooledSize) return 0;
  Depot& depot = depots_[classIndexFor(userSize + kHeaderBytes)];
  std::lock_guard<SpinLock> guard(depot.lock);
  return depot.free.size();
}

}  // namespace ats
