#pragma once

#include "deps/dependency_system.hpp"
#include "deps/object_table.hpp"
#include "locks/locks.hpp"

namespace ats {

/// The legacy lock-per-object dependency system the paper's ASM replaced
/// (§2's baseline).  Each object keeps a FIFO queue of its uncompleted
/// accesses behind a spinlock; registration appends and tests
/// eligibility, completion unlinks and rescans the head for newly
/// eligible accesses.  Eligibility is the same semantics the ASM
/// implements: a read runs when no write is queued ahead of it, a write
/// runs when it is alone at the head.
///
/// The comparison against WaitFreeAsmDeps is honest by construction: both
/// keep their nodes in the same descriptor slots, use the same sharded
/// object table, and follow the same pendingDeps/ready-sink protocol —
/// the only thing that differs is lock-and-scan versus wait-free state
/// transitions.
class FineGrainedLocksDeps final : public DependencySystem {
 public:
  explicit FineGrainedLocksDeps(ReadySink sink)
      : DependencySystem(sink) {}

  DepTask* releaseKeepingLast(DepTask* task, std::size_t cpu) override;
  void reset() override;

 private:
  Preconditions registerAccesses(DepTask* task, const Access* accesses,
                                 std::size_t count) override;

  /// One registered access, constructed in its task's access slot at
  /// registration (layout in fine_grained_locks.cpp).
  struct Node;

  struct ObjectLocked {
    SpinLock lock;
    Node* head = nullptr;
    Node* tail = nullptr;
    std::size_t queuedWrites = 0;
  };

  ObjectTable<ObjectLocked> objects_;
};

}  // namespace ats
