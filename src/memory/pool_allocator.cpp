#include "memory/pool_allocator.hpp"

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>

#include "common/failpoint.hpp"

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

std::size_t classIndexFor(std::size_t need) {
  assert(need <= PoolAllocator::kMaxBlockSize);
  return kClassLut[(need + 15) / 16];
}

/// Freelist links live in the first user word of a free block (the
/// header stays intact so a drained remote block still knows its
/// class).  memcpy keeps the type-punning defined; it compiles to one
/// mov.
void* readLink(void* block) {
  void* next;
  std::memcpy(&next, static_cast<char*>(block) + PoolAllocator::kHeaderBytes,
              sizeof(void*));
  return next;
}

void writeLink(void* block, void* next) {
  std::memcpy(static_cast<char*>(block) + PoolAllocator::kHeaderBytes, &next,
              sizeof(void*));
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

/// Per-block prefix.  `owner` is (re)stamped at every allocation, so a
/// block always frees back toward the cache that last handed it out;
/// `classIdx` is stamped once at carve time and never changes.
struct BlockHeader {
  PoolThreadCache* owner;
  std::uint32_t classIdx;
  std::uint32_t canary;

  static constexpr std::uint32_t kCanary = 0xA75A110C;
};

static_assert(sizeof(BlockHeader) == PoolAllocator::kHeaderBytes);
static_assert(alignof(BlockHeader) <= PoolAllocator::kHeaderBytes);

class PoolThreadCache {
 public:
  struct Magazine {
    void* slots[PoolAllocator::kMagazineCapacity];
    std::size_t count = 0;
  };

  Magazine mags[PoolAllocator::kNumClasses];

  /// MPSC Treiber stack of blocks freed by other threads: anyone
  /// pushes, only the owning thread drains (single exchange).
  std::atomic<void*> remoteHead{nullptr};

  PoolThreadCache* nextInactive = nullptr;

  /// Thread-exit hook target; lives here because PoolThreadCache is the
  /// pool's named friend and the TLS holder below is not.
  static void retire(PoolThreadCache* cache) {
    PoolAllocator::instance().retireCache(cache);
  }
};

namespace {

/// The calling thread's cache for the (singleton) pool.  The holder's
/// destructor retires the cache at thread exit so its blocks go back to
/// the depot instead of idling in dead magazines.
thread_local struct TlsCacheSlot {
  PoolThreadCache* cache = nullptr;
  ~TlsCacheSlot() {
    if (cache != nullptr) PoolThreadCache::retire(cache);
    // Null the slot: a pool free from a later-running TLS destructor on
    // this thread must take the remote path, not stash into a cache
    // another thread may already have adopted.
    cache = nullptr;
  }
} tlsCacheSlot;

void pushRemote(PoolThreadCache* owner, void* block) {
  void* head = owner->remoteHead.load(std::memory_order_relaxed);
  do {
    writeLink(block, head);
  } while (!owner->remoteHead.compare_exchange_weak(
      head, block, std::memory_order_release, std::memory_order_relaxed));
}

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

PoolThreadCache& PoolAllocator::localCache() {
  PoolThreadCache* cache = tlsCacheSlot.cache;
  if (cache == nullptr) {
    std::lock_guard<SpinLock> guard(cacheLock_);
    if (inactiveHead_ != nullptr) {
      cache = inactiveHead_;
      inactiveHead_ = cache->nextInactive;
      cache->nextInactive = nullptr;
    } else {
      caches_.push_back(std::make_unique<PoolThreadCache>());
      cache = caches_.back().get();
    }
    tlsCacheSlot.cache = cache;
  }
  return *cache;
}

void* PoolAllocator::allocate(std::size_t size) {
  // Compare before adding the header: size + kHeaderBytes would wrap
  // for requests near SIZE_MAX and route them to a tiny class.
  if (size > kMaxPooledSize) return ::operator new(size);
  const std::size_t need = size + kHeaderBytes;

  const std::size_t cls = classIndexFor(need);
  PoolThreadCache& cache = localCache();
  auto& mag = cache.mags[cls];
  if (mag.count == 0) refill(cache, cls);
  void* block = mag.slots[--mag.count];

  auto* hdr = static_cast<BlockHeader*>(block);
  assert(hdr->canary == BlockHeader::kCanary);
  assert(hdr->classIdx == cls);
  hdr->owner = &cache;
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

  // Compare against the existing TLS cache WITHOUT materializing one: a
  // thread that only ever frees (the pure consumer in crossFree) should
  // not take the registry lock and own 17 empty magazines just to learn
  // the block is not its own.
  PoolThreadCache* mine = tlsCacheSlot.cache;
  if (hdr->owner == mine && mine != nullptr) {
    stashInMagazine(*mine, cls, block);
  } else {
    // Cross-thread free: hand the block back to its owner's remote
    // list.  One release-CAS, no shared lock — the crossFree path.
    pushRemote(hdr->owner, block);
  }
}

/// Park a block in the cache's magazine for `cls`, spilling a batch to
/// the depot first when full — the single spill policy shared by local
/// frees and remote drains.
void PoolAllocator::stashInMagazine(PoolThreadCache& cache, std::size_t cls,
                                    void* block) {
  auto& mag = cache.mags[cls];
  if (mag.count == kMagazineCapacity) {
    flushFromMagazine(cls, mag.slots, kFlushBatch);
    std::memmove(mag.slots, mag.slots + kFlushBatch,
                 (kMagazineCapacity - kFlushBatch) * sizeof(void*));
    mag.count = kMagazineCapacity - kFlushBatch;
  }
  mag.slots[mag.count++] = block;
}

void PoolAllocator::refill(PoolThreadCache& cache, std::size_t cls) {
  // Remote blocks first: they are already ours and draining them is a
  // single exchange.  Only when that leaves the magazine still empty do
  // we pay for the depot lock.
  drainRemote(cache);
  auto& mag = cache.mags[cls];
  if (mag.count != 0) return;

  Depot& depot = depots_[cls];
  std::lock_guard<SpinLock> guard(depot.lock);
  // Top up before taking so a refill always moves a full batch — chunk
  // carving guarantees at least kRefillBatch fresh blocks.
  if (depot.freeCount < kRefillBatch) carveChunk(cls);
  std::size_t take = kRefillBatch;
  for (; take > 0; --take) {
    void* block = depot.freeHead;
    depot.freeHead = readLink(block);
    --depot.freeCount;
    mag.slots[mag.count++] = block;
  }
}

void PoolAllocator::drainRemote(PoolThreadCache& cache) {
  void* head = cache.remoteHead.exchange(nullptr, std::memory_order_acquire);
  if (head == nullptr) return;

  while (head != nullptr) {
    void* next = readLink(head);
    stashInMagazine(cache, static_cast<BlockHeader*>(head)->classIdx,
                    head);
    head = next;
  }
}

void PoolAllocator::flushFromMagazine(std::size_t cls, void** blocks,
                                      std::size_t count) {
  Depot& depot = depots_[cls];
  std::lock_guard<SpinLock> guard(depot.lock);
  for (std::size_t i = 0; i < count; ++i) {
    writeLink(blocks[i], depot.freeHead);
    depot.freeHead = blocks[i];
    ++depot.freeCount;
  }
}

void PoolAllocator::carveChunk(std::size_t cls) {
  // Failpoint: models chunk-reservation failure (the OOM drill).  Throw
  // mode is exception-safe HERE — the guards below unwind and nothing
  // is half-linked — but only spawn-path callers (allocateTask, closure
  // spill) translate the throw into a clean spawn failure.
  ATS_FAILPOINT(pool_carve);
  const std::size_t blockSize = kClassSizes[cls];
  std::size_t blocks = kChunkTargetBytes / blockSize;
  // Never carve less than a refill batch, so one carve always satisfies
  // one refill even for the largest classes.
  if (blocks < kRefillBatch) blocks = kRefillBatch;
  const std::size_t bytes = blocks * blockSize;

  // operator new returns max_align_t-aligned storage and the class
  // sizes are multiples of 16, so every carved block (and its +16 user
  // pointer) keeps the kAlignment guarantee.
  char* chunk = static_cast<char*>(::operator new(bytes));
  {
    std::lock_guard<SpinLock> guard(chunkLock_);
    chunks_.push_back(chunk);
  }
  reservedBytes_.fetch_add(bytes, std::memory_order_relaxed);

  Depot& depot = depots_[cls];
  for (std::size_t i = 0; i < blocks; ++i) {
    void* block = chunk + i * blockSize;
    auto* hdr = static_cast<BlockHeader*>(block);
    hdr->owner = nullptr;
    hdr->classIdx = static_cast<std::uint32_t>(cls);
    hdr->canary = BlockHeader::kCanary;
    writeLink(block, depot.freeHead);
    depot.freeHead = block;
    ++depot.freeCount;
  }
}

void PoolAllocator::retireCache(PoolThreadCache* cache) {
  // Whatever the remote list holds right now can go home with the
  // magazines; anything pushed after the exchange waits for the next
  // thread that adopts this cache.
  drainRemote(*cache);
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    auto& mag = cache->mags[cls];
    if (mag.count != 0) {
      flushFromMagazine(cls, mag.slots, mag.count);
      mag.count = 0;
    }
  }
  std::lock_guard<SpinLock> guard(cacheLock_);
  cache->nextInactive = inactiveHead_;
  inactiveHead_ = cache;
}

std::size_t PoolAllocator::testLocalMagazineFill(std::size_t userSize) {
  if (userSize > kMaxPooledSize) return 0;
  return localCache().mags[classIndexFor(userSize + kHeaderBytes)].count;
}

std::size_t PoolAllocator::testDepotFree(std::size_t userSize) {
  if (userSize > kMaxPooledSize) return 0;
  Depot& depot = depots_[classIndexFor(userSize + kHeaderBytes)];
  std::lock_guard<SpinLock> guard(depot.lock);
  return depot.freeCount;
}

std::size_t PoolAllocator::testRemotePendingOnCaller() {
  // Walking the list is safe on the owner's thread: only the owner
  // drains it, and a pusher links its block before the release CAS
  // that publishes it, so every link reached here is final.
  std::size_t pending = 0;
  for (void* block =
           localCache().remoteHead.load(std::memory_order_acquire);
       block != nullptr; block = readLink(block))
    ++pending;
  return pending;
}

}  // namespace ats
