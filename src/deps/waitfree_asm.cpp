#include "deps/waitfree_asm.hpp"

#include <new>
#include <type_traits>

#include "common/prefetch.hpp"

namespace ats {

/// One registered access.  A write uses the packed `state` word, the
/// `successor` slot and `succGroup`; a read uses the three reader links.
/// Constructing the node sets every field, so a slot's previous tenant
/// never leaks into a new registration.
struct WaitFreeAsmDeps::Node {
  /// A write's packed state word: two low flag bits plus the head of the
  /// pending-reader list in the pointer bits, so one fetch_or of
  /// kCompleted at release atomically (a) marks the write done, (b)
  /// closes and collects the reader list, and (c) reports whether a
  /// successor write is linked.
  static constexpr std::uintptr_t kCompleted = 1;     ///< owner finished
  static constexpr std::uintptr_t kHasSuccessor = 2;  ///< write linked
  static constexpr std::uintptr_t kFlagMask = kCompleted | kHasSuccessor;

  static Node* readerListOf(std::uintptr_t state) {
    return reinterpret_cast<Node*>(state & ~kFlagMask);
  }

  static std::uintptr_t packReader(Node* reader, std::uintptr_t flags) {
    return reinterpret_cast<std::uintptr_t>(reader) | (flags & kFlagMask);
  }

  DepTask* task;
  bool read;

  std::atomic<std::uintptr_t> state{0};

  /// Writes: the single successor write waiting on our completion.
  std::atomic<Node*> successor{nullptr};

  /// Reads: our link in the predecessor write's packed reader list.
  Node* nextReader = nullptr;

  /// Reads: the group this access counted itself into at registration.
  ReadGroup* joinedGroup = nullptr;

  /// Reads: the task owning `joinedGroup` (nullptr for an object's root
  /// group, which lives in the table entry).  The reader holds one
  /// reference on it from registration until its release's fetch_sub,
  /// so the group's storage survives every possible drain order under
  /// eager descriptor reclamation.
  DepTask* groupOwner = nullptr;

  /// Writes: the group for readers registered after this access.
  ReadGroup succGroup{};
};

DependencySystem::Preconditions WaitFreeAsmDeps::registerAccesses(
    DepTask* task, const Access* accesses, std::size_t count) {
  static_assert(sizeof(Node) <= kAccessNodeBytes &&
                alignof(Node) <= alignof(std::max_align_t) &&
                std::is_trivially_destructible_v<Node>,
                "a node must fit its slot and need no destructor");
  // Every lookup first, so one that throws leaves the descriptor
  // untouched.  Every access's RMWs land in its object's last write
  // node, which the worker releasing that write may hold.  Each RMW
  // orders the next, so fetched one by one those misses add up; start
  // them all here.  Only a hint: lastWrite is this (serialized) path's
  // own field, and a prefetch never faults.
  ObjectAsm* objects[kMaxAccessesPerTask];
  std::int32_t writes = 0;
  for (std::size_t i = 0; i < count; ++i) {
    objects[i] = &objects_.lookupOrCreate(accesses[i].object);
    if (const Node* prev = objects[i]->lastWrite) {
      const char* bytes = reinterpret_cast<const char*>(prev);
      prefetchForWrite(bytes);
      prefetchForWrite(bytes + sizeof(Node) - 1);
    }
    if (!accesses[i].isRead()) ++writes;
  }

  // The creation guard, one chain edge per access, and a read-group
  // drain per write.
  const std::int32_t preconditions =
      1 + static_cast<std::int32_t>(count) + writes;
  task->pendingDeps.store(preconditions, std::memory_order_relaxed);

  // Eager-reclamation references, armed before any node is linked:
  // every write access will be published as its object's lastWrite (+1,
  // dropped by the superseding write or quiescent reset) and owns a
  // read group whose storage readers drain (+1, dropped by whoever
  // detects the drain: the closing write when the group is already
  // empty at close, the kClosedBias-landing reader otherwise, or reset
  // when the group never closes).  Readers take NO references — an
  // unclosed group's owner is still pinned by its lastWrite reference,
  // a closed one by the group reference, so the counter they drain
  // cannot die under them.  The load+store is race-free: the task is
  // not published anywhere yet.
  if (writes != 0) {
    task->refCount.store(
        task->refCount.load(std::memory_order_relaxed) + 2 * writes,
        std::memory_order_relaxed);
  }

  // Preconditions that resolve during registration are batched into the
  // guard drop: one fetch_sub instead of one per resolution.
  std::int32_t resolved = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Node* node = ::new (task->accessNodes[i])
        Node{.task = task, .read = accesses[i].isRead()};
    ObjectAsm& obj = *objects[i];
    if (node->read) {
      resolved += registerRead(obj, node);
    } else {
      resolved += registerWrite(obj, node);
    }
  }
  return {preconditions, resolved};
}

std::int32_t WaitFreeAsmDeps::registerRead(ObjectAsm& obj, Node* node) {
  Node* write = obj.lastWrite;
  ReadGroup* group =
      write != nullptr ? &write->succGroup : &obj.rootGroup;
  node->joinedGroup = group;
  node->groupOwner = write != nullptr ? write->task : nullptr;

  if (write != nullptr) {
    // Attach to the predecessor write's packed reader list.  CAS success
    // hands our resolution to the write's completion fetch_or; the
    // group membership rides the plain attached counter, folded in by
    // the closing write.  Observing kCompleted instead means the write
    // already released — resolve ourselves (the acquire is what makes
    // the writer's side effects visible to this reader's body).  The
    // only contender is that single completion RMW, so the loop runs at
    // most twice in practice.
    std::uintptr_t state = write->state.load(std::memory_order_acquire);
    while ((state & Node::kCompleted) == 0) {
      node->nextReader = Node::readerListOf(state);
      if (write->state.compare_exchange_weak(
              state, Node::packReader(node, state), std::memory_order_release,
              std::memory_order_acquire)) {
        ++group->attachedRegistrations;
        return 0;
      }
    }
  }

  // Self-resolved: count ourselves into the group directly.  Relaxed:
  // the increment publishes nothing; the close's fetch_add and the
  // drain's fetch_sub carry the ordering.
  group->pending.fetch_add(1, std::memory_order_relaxed);
  return 1;
}

std::int32_t WaitFreeAsmDeps::registerWrite(ObjectAsm& obj, Node* node) {
  std::int32_t resolved = 0;
  Node* prev = obj.lastWrite;

  // True when this close observed the predecessor's group already fully
  // drained — then no reader will ever land on kClosedBias, so the
  // group reference falls to us instead of a landing reader.
  bool groupDrainedAtClose = false;

  // Read-group precondition.  Group membership is `pending` plus the
  // attached readers only this (serialized) registration path knows
  // about; outstanding readers = pending + attached, so the drained
  // check compares against -attached.
  ReadGroup* group =
      prev != nullptr ? &prev->succGroup : &obj.rootGroup;
  const std::int64_t attached = group->attachedRegistrations;
  if (group->pending.load(std::memory_order_acquire) == -attached) {
    // Every reader that ever joined this group already completed (their
    // memberships are ordered before this serialized registration, and
    // the count only drains from there).  The counter is dead — skip
    // the close entirely.  Acquire: reading the fully-drained value
    // synchronizes with the readers' release fetch_subs, so this
    // write's body is ordered after every reader's body even though no
    // RMW happens on this path.
    ++resolved;
    groupDrainedAtClose = true;
  } else {
    // Close the group, folding the attached readers into the bias.  The
    // park-then-bias order matters: a reader that observes the bias
    // through the counter's RMW chain also sees `closingWrite`.
    group->closingWrite.store(node, std::memory_order_release);
    const std::int64_t beforeClose =
        group->pending.fetch_add(ReadGroup::kClosedBias + attached,
                                 std::memory_order_acq_rel);
    if (beforeClose == -attached) {
      ++resolved;
      groupDrainedAtClose = true;
    }
  }

  // Write-chain precondition.
  if (prev == nullptr) {
    ++resolved;
  } else {
    prev->successor.store(node, std::memory_order_release);
    const std::uintptr_t prevState =
        prev->state.fetch_or(Node::kHasSuccessor, std::memory_order_acq_rel);
    if (prevState & Node::kCompleted) ++resolved;
  }

  // Publish as the object's last write (our lastWrite reference was
  // pre-armed by registerAccesses) and drop the superseded write's
  // references: its lastWrite reference always, its group reference too
  // when the close found the group already drained — strictly after the
  // group close and chain link above, which were the final touches of
  // `prev`'s storage on this path.
  obj.lastWrite = node;
  if (prev != nullptr) prev->task->dropRef(groupDrainedAtClose ? 2 : 1);
  return resolved;
}

DepTask* WaitFreeAsmDeps::releaseKeepingLast(DepTask* task,
                                             std::size_t cpu) {
  DepTask* kept = nullptr;
  for (std::size_t i = 0; i < task->numAccesses; ++i) {
    Node* node = std::launder(reinterpret_cast<Node*>(task->accessNodes[i]));
    if (node->read) {
      // Drain our group so the write that closed it can go.
      ReadGroup* group = node->joinedGroup;
      const std::int64_t remaining =
          group->pending.fetch_sub(1, std::memory_order_acq_rel) - 1;
      if (remaining == ReadGroup::kClosedBias) {
        Node* write = group->closingWrite.load(std::memory_order_acquire);
        resolveOne(write->task, cpu, kept);
        // We landed the drain of a closed group: every other reader's
        // fetch_sub is ordered before ours and none of them touches the
        // group again, so the owner's group reference dies with us.
        // (An unclosed group's owner is still pinned as lastWrite; the
        // root group has no owner.)
        if (node->groupOwner != nullptr) node->groupOwner->dropRef();
      }
    } else {
      // One RMW completes the write: it closes the reader list (any
      // reader CAS from here on sees kCompleted and resolves itself),
      // collects everyone already attached, and reports the successor.
      const std::uintptr_t state =
          node->state.fetch_or(Node::kCompleted, std::memory_order_acq_rel);
      // The CAS chain is LIFO — reverse it so readers go ready in
      // registration order (FIFO fairness, like the locked baseline).
      Node* reader = Node::readerListOf(state);
      Node* ordered = nullptr;
      while (reader != nullptr) {
        Node* next = reader->nextReader;
        reader->nextReader = ordered;
        ordered = reader;
        reader = next;
      }
      // Read each link BEFORE resolving its node: a resolved reader
      // reaches the sink when a later one displaces it, and may then run,
      // complete, and eagerly reclaim its descriptor — and the link lives
      // inside it.
      while (ordered != nullptr) {
        Node* next = ordered->nextReader;
        resolveOne(ordered->task, cpu, kept);
        ordered = next;
      }
      if (state & Node::kHasSuccessor) {
        Node* succ = node->successor.load(std::memory_order_acquire);
        resolveOne(succ->task, cpu, kept);
      }
    }
  }
  return kept;
}

void WaitFreeAsmDeps::reset() {
  objects_.forEach([](ObjectAsm& obj) {
    if (obj.lastWrite != nullptr) {
      // Quiescence: nothing will chase this chain again, so the final
      // write's lastWrite reference can go, and — since its group was
      // never closed (a closing write would have superseded it) — its
      // own group reference with it.
      obj.lastWrite->task->dropRef(2);
      obj.lastWrite = nullptr;
    }
    obj.rootGroup.pending.store(0, std::memory_order_relaxed);
    obj.rootGroup.closingWrite.store(nullptr, std::memory_order_relaxed);
    obj.rootGroup.attachedRegistrations = 0;
  });
}

}  // namespace ats
