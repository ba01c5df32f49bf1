#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace ats {

/// Per-task accesses are fixed-capacity so a task descriptor is one flat
/// allocation (the §4 pool-allocator PR depends on that).
inline constexpr std::size_t kMaxAccessesPerTask = 8;

/// Bytes of one access slot.  Each dependency system defines its own
/// node type, static_asserts that it fits a slot, and constructs it
/// there at registration; sized for the largest, the wait-free ASM's.
inline constexpr std::size_t kAccessNodeBytes = 80;
static_assert(kAccessNodeBytes % alignof(std::max_align_t) == 0,
              "every slot must start max_align-aligned");

/// The dependency-facing part of a task descriptor.  `runtime/task.hpp`'s
/// Task derives from this; the deps layer only ever sees DepTask*, which
/// keeps it below the runtime layer in the include order.
///
/// Task's second base, after the runtime's fields: in a Task the
/// counters below sit at bytes 80-103, inside the descriptor's two-line
/// head, and the access slots start at byte 112.  Keep every field a
/// 0-access task touches ahead of `accessNodes`.
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

  /// Raw node storage, one slot per declared access.  No initializer, so
  /// constructing a descriptor writes none of it: registration
  /// placement-constructs slot i for access i, and release reaches that
  /// node through std::launder.  Nodes are trivially destructible, so
  /// reclaim never runs a destructor on one.
  alignas(std::max_align_t) std::byte
      accessNodes[kMaxAccessesPerTask][kAccessNodeBytes];
};

}  // namespace ats
