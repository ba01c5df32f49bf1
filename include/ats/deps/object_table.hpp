#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "common/failpoint.hpp"
#include "common/fatal.hpp"
#include "locks/locks.hpp"

namespace ats {

namespace object_table_detail {

/// Epoch values are handed out from one process-wide monotonic source,
/// so an epoch identifies one table uniquely across every table (and
/// table instantiation type) that ever exists in the process.  A TLS
/// cache entry stamped with a dead table's epoch can therefore never be
/// mistaken for a live one, not even after a new table lands on the
/// same heap address.
inline std::atomic<std::uint64_t> gEpochSource{1};

/// Fibonacci multiply-shift over the middle address bits (heap
/// addresses share their low alignment bits and high region bits).
/// Consumers index with the TOP bits of the result — those are the
/// well-mixed ones.  The shift drops only 3 bits: 8 bytes is the
/// smallest dependency object the apps use (adjacent doubles), and
/// dropping a 4th bit would map each such pair to one TLS-cache slot.
inline std::uint64_t mixAddress(std::uintptr_t bits) {
  return (static_cast<std::uint64_t>(bits) >> 3) * 0x9E3779B97F4A7C15ull;
}

inline constexpr std::size_t kCacheSlotsLog2 = 9;
inline constexpr std::size_t kCacheSlots = std::size_t{1} << kCacheSlotsLog2;

struct CacheSlot {
  std::uint64_t epoch = 0;  ///< 0 never matches (epochs start at 1)
  std::uintptr_t key = 0;
  void* entry = nullptr;
};

/// One direct-mapped lookup cache per thread, shared by every table in
/// the process (the epoch stamp disambiguates tables).  Hit/miss
/// counters are per-thread plain increments — effectively free next to
/// the TLS line the lookup already touches — and give tests and debug
/// dumps an exact, race-free view of the calling thread's hit rate.
struct ThreadCache {
  CacheSlot slots[kCacheSlots];
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

inline ThreadCache& threadCache() {
  thread_local ThreadCache cache;
  return cache;
}

}  // namespace object_table_detail

/// The calling thread's TLS-cache counters (aggregated over all tables;
/// see ThreadCache).  Exposed for tests and stats dumps.
struct ObjectTableCacheCounters {
  std::uint64_t hits;
  std::uint64_t misses;
};

inline ObjectTableCacheCounters objectTableThreadCacheCounters() {
  const auto& cache = object_table_detail::threadCache();
  return {cache.hits, cache.misses};
}

/// Address -> per-object dependency state, with LOCK-FREE lookups: the
/// registration path — up to kMaxAccessesPerTask lookups per spawn —
/// was the last lock the spawn hot path paid (the seed design probed a
/// spinlocked unordered_map shard per access).
///
/// Three tiers, fastest first:
///
///   1. TLS entry cache: a per-thread direct-mapped address->Entry*
///      cache, stamped with the table's epoch.  Steady-state
///      re-registration of a known address (the apps layer re-registers
///      the same block addresses every iteration) hits here and touches
///      no shared mutable line at all — the spawn-side analogue of the
///      SPSC cached-index trick.
///   2. Lock-free find: open-addressed segments probed with acquire
///      loads — no RMW, no lock, for any address already in the table.
///   3. Insert under the table's one lock: a missed find takes the
///      SpinLock that guards the node chunks, probes again (a racing
///      insert may have published the address meanwhile), allocates any
///      missing segment, carves an Entry node (one cache line of its
///      own) and publishes it with a release store, so every caller
///      pins exactly one Entry per address.
///
/// Growth appends segments of doubling size instead of rehashing, and
/// nodes live until the table dies, so a published Entry* is STABLE for
/// the table's lifetime.  That is what makes tier 1 sound, across the
/// dependency systems' quiescent resets too (reset() clears entry
/// fields but keeps the entries, so a pre-reset cached pair still names
/// the right one), and FineGrainedLocksDeps stores entry pointers in
/// access nodes.  Probe sequences are deterministic and slot occupancy
/// is monotone (slots fill, never empty), so an empty slot proves the
/// key is not later in that segment's window and a full window proves
/// it can only be in a later segment.
///
/// A workload touching an unbounded stream of fresh addresses still
/// grows the table monotonically.
template <typename Entry>
class ObjectTable {
 public:
  ObjectTable()
      : epoch_(object_table_detail::gEpochSource.fetch_add(
            1, std::memory_order_relaxed)) {
    for (auto& segment : segments_)
      segment.store(nullptr, std::memory_order_relaxed);
    segments_[0].store(new Segment(kFirstSegmentSlots),
                       std::memory_order_release);
  }

  ~ObjectTable() {
    for (auto& slot : segments_) {
      Segment* segment = slot.load(std::memory_order_acquire);
      if (segment == nullptr) continue;
      for (std::size_t i = 0; i <= segment->mask; ++i) {
        Node* node = segment->slots[i].load(std::memory_order_acquire);
        if (node != nullptr) node->~Node();
      }
      delete segment;
    }
    // Node storage goes with chunks_.
  }

  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;

  Entry& lookupOrCreate(void* object) {
    namespace detail = object_table_detail;
    const auto bits = reinterpret_cast<std::uintptr_t>(object);
    const std::uint64_t mixed = detail::mixAddress(bits);
    detail::ThreadCache& cache = detail::threadCache();
    detail::CacheSlot& slot =
        cache.slots[mixed >> (64 - detail::kCacheSlotsLog2)];
    if (slot.epoch == epoch_ && slot.key == bits) {
      // No acquire needed: this thread published or acquire-loaded the
      // entry when it filled the slot, so it already happens-after the
      // entry's construction.
      ++cache.hits;
      return *static_cast<Entry*>(slot.entry);
    }
    ++cache.misses;
    Entry& entry = lookupOrCreateShared(object, mixed);
    slot.epoch = epoch_;
    slot.key = bits;
    slot.entry = &entry;
    return entry;
  }

  /// Visit every entry.  Lock-free acquire scans; only sound at
  /// quiescence (the dependency systems call it from reset(), when no
  /// registration is concurrent), like the mutation contract on the
  /// entries themselves.
  template <typename Fn>
  void forEach(Fn&& fn) {
    for (auto& slot : segments_) {
      Segment* segment = slot.load(std::memory_order_acquire);
      if (segment == nullptr) continue;
      for (std::size_t i = 0; i <= segment->mask; ++i) {
        Node* node = segment->slots[i].load(std::memory_order_acquire);
        if (node != nullptr) fn(node->entry);
      }
    }
  }

  /// Published entries, counted through forEach: for tests, at
  /// quiescence.
  std::size_t entryCount() {
    std::size_t count = 0;
    forEach([&count](Entry&) { ++count; });
    return count;
  }

  /// Allocated probe segments (1 until the first window overflow).
  std::size_t segmentCount() const {
    std::size_t count = 0;
    for (const auto& slot : segments_) {
      if (slot.load(std::memory_order_acquire) != nullptr) ++count;
    }
    return count;
  }

 private:
  /// A line of its own: entries are written by whichever thread
  /// registers or releases on their object, so neighbours must not
  /// share one.
  struct alignas(64) Node {
    explicit Node(void* obj) : object(obj) {}

    void* const object;
    Entry entry;
  };

  struct Segment {
    explicit Segment(std::size_t slotCount)
        : mask(slotCount - 1),
          shift(64 - std::countr_zero(slotCount)),
          slots(std::make_unique<std::atomic<Node*>[]>(slotCount)) {}

    const std::size_t mask;
    const int shift;  ///< mixed >> shift = top log2(slotCount) bits
    const std::unique_ptr<std::atomic<Node*>[]> slots;
  };

  /// Nodes are carved in first-touch order from chunks that live as
  /// long as the table, so objects first registered together get
  /// consecutive lines and the prefetcher brings in the entry the next
  /// spawn touches.  One `new` per node spaced them 192 bytes apart,
  /// and `BM_SchedulerKind` read 10-15% slower on WorkStealing and
  /// SyncDelegation (EXPERIMENTS.md, "micro_ablation").
  struct Chunk {
    static constexpr std::size_t kNodes = 256;
    alignas(Node) std::byte nodes[kNodes][sizeof(Node)];
  };

  static constexpr std::size_t kFirstSegmentSlots = 1024;
  static constexpr std::size_t kMaxSegments = 24;  // 1024 << 23 slots
  static constexpr std::size_t kProbeWindow = 16;

  Entry& lookupOrCreateShared(void* object, std::uint64_t mixed) {
    // Failpoint: every TLS miss lands here, before any table write, so
    // throw mode fails the lookup cleanly.  Delay mode staggers racing
    // first touches, so one thread's find overlaps another's insert.
    ATS_FAILPOINT(table_insert);
    if (Node* node = find(object, mixed)) return node->entry;
    return insert(object, mixed);
  }

  /// The lock-free probe: `object`'s node, or nullptr once an empty slot
  /// or a missing segment ends the search.
  Node* find(const void* object, std::uint64_t mixed) const {
    for (const auto& segmentSlot : segments_) {
      const Segment* segment = segmentSlot.load(std::memory_order_acquire);
      if (segment == nullptr) return nullptr;
      const auto base = static_cast<std::size_t>(mixed >> segment->shift);
      for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
        Node* node = segment->slots[(base + probe) & segment->mask].load(
            std::memory_order_acquire);
        if (node == nullptr) return nullptr;
        if (node->object == object) return node;
      }
      // Window full of other keys in this segment — the key, if
      // present, can only live in a later (larger) segment.
    }
    return nullptr;
  }

  /// First touch, out of line: the find above inlines into every
  /// registration, this cold path does not.  Every table write happens
  /// here, under lock_, so the loads need no ordering of their own: the
  /// lock orders this holder after every earlier insert.
  [[gnu::noinline]] Entry& insert(void* object, std::uint64_t mixed) {
    std::lock_guard<SpinLock> guard(lock_);
    for (std::size_t si = 0; si < kMaxSegments; ++si) {
      Segment* segment = segments_[si].load(std::memory_order_relaxed);
      if (segment == nullptr) {
        segment = new Segment(kFirstSegmentSlots << si);
        segments_[si].store(segment, std::memory_order_release);
      }
      const auto base = static_cast<std::size_t>(mixed >> segment->shift);
      for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
        std::atomic<Node*>& bucket =
            segment->slots[(base + probe) & segment->mask];
        Node* node = bucket.load(std::memory_order_relaxed);
        if (node == nullptr) {
          if (chunkUsed_ == Chunk::kNodes) {
            chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));
            chunkUsed_ = 0;
          }
          node = ::new (chunks_.back()->nodes[chunkUsed_++]) Node(object);
          bucket.store(node, std::memory_order_release);
          return node->entry;
        }
        // A racing insert published it between our find and the lock.
        if (node->object == object) return node->entry;
      }
    }
    fatal("ats::ObjectTable: exhausted %zu doubling segments — "
          "unreachably many distinct dependency objects",
          kMaxSegments);
  }

  SpinLock lock_;  ///< every table write: slots, segments, chunks
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< guarded by lock_
  std::size_t chunkUsed_ = Chunk::kNodes;       ///< guarded by lock_
  /// Set once: an entry lives as long as its table, so a cached pair
  /// stays right across every reset; only another table must not match.
  const std::uint64_t epoch_;
  std::atomic<Segment*> segments_[kMaxSegments];
};

}  // namespace ats
