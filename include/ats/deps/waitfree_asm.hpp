#pragma once

#include "deps/dependency_system.hpp"
#include "deps/object_table.hpp"

namespace ats {

/// The paper's §2 wait-free Atomic State Machine.  Every transition is a
/// single RMW — no access ever takes a lock or spins on another thread.
///
/// Per object the writes form a registration-order chain; readers hang
/// off the write they follow (or run immediately when no write precedes
/// them).  Each access has up to two preconditions, counted into its
/// task's pendingDeps:
///
///   * write -> write edge: registration parks the new write in the
///     predecessor's `successor` slot and fetch_or's kHasSuccessor into
///     its state; completion fetch_or's kCompleted and checks
///     kHasSuccessor in the returned bits.  The total order on that
///     state word means exactly one side resolves the edge.
///   * write -> readers: a reader CASes itself onto the list packed into
///     the predecessor write's state word; the completion fetch_or of
///     kCompleted atomically closes that list and collects everything
///     attached.  A reader whose CAS observes kCompleted resolves itself
///     — again exactly one side acts per reader.
///   * readers -> write (the read group): readers count themselves into
///     the group of the write they follow; the next write closes the
///     group by fetch_add'ing ReadGroup::kClosedBias.  Either the group
///     was already drained (resolved at close) or the reader whose
///     fetch_sub lands on exactly kClosedBias resolves it.
class WaitFreeAsmDeps final : public DependencySystem {
 public:
  explicit WaitFreeAsmDeps(ReadySink sink) : DependencySystem(sink) {}

  DepTask* releaseKeepingLast(DepTask* task, std::size_t cpu) override;
  void reset() override;

 private:
  Preconditions registerAccesses(DepTask* task, const Access* accesses,
                                 std::size_t count) override;

  /// One registered access, constructed in its task's access slot at
  /// registration (layout in waitfree_asm.cpp).
  struct Node;

  /// The readers between two writes on one object (or before the first
  /// write: the object's root group).  The next write "closes" the group
  /// by adding `kClosedBias` plus the attached-reader count, and parks
  /// itself in `closingWrite`; whoever moves `pending` to exactly
  /// `kClosedBias` last-reader-out resolves that write's group
  /// precondition.  Embedded in every write's node, so a group lives
  /// exactly as long as the task that owns the preceding write.
  ///
  /// Readers contribute to `pending` two ways: one fetch_add at
  /// registration when they resolved themselves (no write to attach to,
  /// or it already completed), or — for readers attached to the
  /// preceding write's list — a plain `attachedRegistrations` increment
  /// that the closing write folds into its bias add.  Registration on
  /// one object is serialized (the sibling-task rule), so the plain
  /// field never races; this is what keeps an attached reader's
  /// registration at a single RMW.  Every reader fetch_subs 1 at
  /// completion, so `pending` may go negative (down to
  /// -attachedRegistrations) before the close.
  struct ReadGroup {
    static constexpr std::int64_t kClosedBias = std::int64_t{1} << 32;

    std::atomic<std::int64_t> pending{0};
    std::atomic<Node*> closingWrite{nullptr};
    std::int64_t attachedRegistrations = 0;
  };

  /// Per-object ASM anchor.  Only touched on the (per object,
  /// serialized) registration path and by the quiescent reset; the
  /// release path works purely through pointers the nodes carry.
  struct ObjectAsm {
    Node* lastWrite = nullptr;
    ReadGroup rootGroup;
  };

  /// Both return how many of the node's preconditions resolved during
  /// registration, for registerAccesses to batch into one guard drop.
  std::int32_t registerRead(ObjectAsm& obj, Node* node);
  std::int32_t registerWrite(ObjectAsm& obj, Node* node);

  ObjectTable<ObjectAsm> objects_;
};

}  // namespace ats
