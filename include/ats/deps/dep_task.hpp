#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace ats {

struct DepTask;

/// The readers between two writes on one object (or before the first
/// write: the object's root group).  The next write "closes" the group
/// by adding `kClosedBias` plus the attached-reader count, and parks
/// itself in `closingWrite`; whoever moves `pending` to exactly
/// `kClosedBias` last-reader-out resolves that write's group
/// precondition.  Embedded in every write access node, so a group lives
/// exactly as long as the task that owns the preceding write.
///
/// Readers contribute to `pending` two ways: one fetch_add at
/// registration when they resolved themselves (no write to attach to, or
/// it already completed), or — for readers attached to the preceding
/// write's list — a plain `attachedRegistrations` increment that the
/// closing write folds into its bias add.  Registration on one object is
/// serialized (the sibling-task rule), so the plain field never races;
/// this is what keeps an attached reader's registration at a single RMW.
/// Every reader fetch_subs 1 at completion, so `pending` may go negative
/// (down to -attachedRegistrations) before the close.
/// NOTE (allocation fast path): ReadGroup and AccessNode declare no
/// default member initializers, and every field is written by the
/// registration path before anything reads it (registerWrite re-arms
/// `succGroup`, readers set their links before attaching, the
/// fine-grained queue links are set under the object lock).  The nodes
/// are NOT raw storage, though: under C++20 `std::atomic`'s default
/// constructor value-initializes (P0883; libstdc++'s `_GLIBCXX20_INIT`),
/// so constructing a descriptor zeroes each node's four atomics.  The
/// Release `Runtime::allocateTask` emits 32 eight-byte zero stores at
/// offsets 0x30-0x3e0 on every spawn, whatever the access count.
/// Removing them is ROADMAP's "stop zeroing the eight unused access
/// nodes on every spawn".  Containers embedding a ReadGroup that is NOT
/// re-armed by a registration (the object table's root group) must
/// initialize it themselves.
struct ReadGroup {
  static constexpr std::int64_t kClosedBias = std::int64_t{1} << 32;

  std::atomic<std::int64_t> pending;
  std::atomic<struct AccessNode*> closingWrite;
  std::int64_t attachedRegistrations;
};

/// One registered access in an object's dependency chain.  The wait-free
/// ASM drives the atomic `state`/`successor` fields; the fine-grained
/// locking fallback uses the `prevQ`/`nextQ` intrusive queue links under
/// its per-object lock.  Both embed their per-access bookkeeping here so
/// release never allocates or looks anything up.
struct AccessNode {
  /// Wait-free ASM packed state word for writes: two low flag bits plus
  /// the head of the pending-reader list in the pointer bits, so one
  /// fetch_or of kCompleted at release atomically (a) marks the write
  /// done, (b) closes and collects the reader list, and (c) reports
  /// whether a successor write is linked.
  static constexpr std::uintptr_t kCompleted = 1;     ///< owner finished
  static constexpr std::uintptr_t kHasSuccessor = 2;  ///< write linked
  static constexpr std::uintptr_t kFlagMask = kCompleted | kHasSuccessor;

  DepTask* task;
  void* object;
  bool read;

  std::atomic<std::uintptr_t> state;

  /// Writes: the single successor write waiting on our completion.
  std::atomic<AccessNode*> successor;

  /// Reads: our link in the predecessor write's packed reader list.
  AccessNode* nextReader;

  /// Reads: the group this access counted itself into at registration.
  ReadGroup* joinedGroup;

  /// Reads: the task owning `joinedGroup` (nullptr for an object's root
  /// group, which lives in the table entry).  The reader holds one
  /// reference on it from registration until its release's fetch_sub,
  /// so the group's storage survives every possible drain order under
  /// eager descriptor reclamation.
  DepTask* groupOwner;

  /// Writes: the group for readers registered after this access.
  ReadGroup succGroup;

  /// Fine-grained-locks implementation: per-object FIFO queue links and
  /// the entry the node was queued in, all guarded by that object's lock.
  AccessNode* prevQ;
  AccessNode* nextQ;
  void* homeEntry;
  bool queueSatisfied;
};

/// Per-task accesses are fixed-capacity so a task descriptor is one flat
/// allocation (the §4 pool-allocator PR depends on that).
inline constexpr std::size_t kMaxAccessesPerTask = 8;

/// The dependency-facing part of a task descriptor.  `runtime/task.hpp`'s
/// Task derives from this; the deps layer only ever sees DepTask*, which
/// keeps it below the runtime layer in the include order.
struct DepTask {
  /// Unresolved preconditions + one creation guard.  Reads contribute one
  /// precondition (their chain edge); writes contribute two (chain edge +
  /// read-group drain).  The task is handed to the ready sink by whoever
  /// moves this to zero.
  std::atomic<std::int32_t> pendingDeps{0};

  /// Eager-reclamation reference count.  The runtime arms it with one
  /// "execution" reference at allocation; the wait-free ASM arms two
  /// more per WRITE access during registration (before the task is
  /// published anywhere, so a plain load+store suffices — references
  /// are never added after publication): a lastWrite reference, dropped
  /// by the superseding write's registration or quiescent reset, and a
  /// group reference for the write's own read group, dropped by exactly
  /// one of {the closing write that finds the group already drained,
  /// the reader landing the drain on kClosedBias, reset}.  Readers take
  /// NO references — an unclosed group's owner is pinned by its
  /// lastWrite reference, a closed one by the group reference.  Whoever
  /// drops the last reference runs `onLastRef`, which the runtime
  /// points at its allocator — so a descriptor is reclaimed the instant
  /// nothing can reach it, without waiting for a taskwait.  With no
  /// hook installed (deps-layer unit tests on stack tasks) reaching
  /// zero is a no-op.
  std::atomic<std::int32_t> refCount{0};
  void (*onLastRef)(DepTask& task) = nullptr;

  /// acq_rel: the releasing thread's writes to the descriptor happen
  /// before whoever reclaims it reuses the storage.  Last-owner
  /// shortcut (the resolveOne idiom): observing exactly our own n means
  /// no other reference exists and none can appear — references are
  /// only ever created on the pre-publication registration path — so
  /// the RMW is skippable.
  void dropRef(std::int32_t n = 1) {
    if (refCount.load(std::memory_order_acquire) == n) {
      refCount.store(0, std::memory_order_relaxed);
      if (onLastRef != nullptr) onLastRef(*this);
      return;
    }
    const std::int32_t before =
        refCount.fetch_sub(n, std::memory_order_acq_rel);
    assert(before >= n && "dropRef without a matching armed reference");
    if (before == n && onLastRef != nullptr) onLastRef(*this);
  }

  std::size_t numAccesses = 0;
  AccessNode accesses[kMaxAccessesPerTask];
};

}  // namespace ats
