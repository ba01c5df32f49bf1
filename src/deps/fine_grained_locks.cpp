#include "deps/fine_grained_locks.hpp"

#include <cassert>
#include <mutex>
#include <new>
#include <type_traits>

namespace ats {

/// One registered access: its place in its object's FIFO queue and
/// whether it is already eligible, all guarded by that object's lock.
struct FineGrainedLocksDeps::Node {
  DepTask* task;
  bool read;
  bool satisfied = false;
  ObjectLocked* home;  ///< the table entry whose queue holds this node
  Node* prev = nullptr;
  Node* next = nullptr;
  /// Link in the one release's chain that makes this access eligible;
  /// null until a later eligible access is chained after it.
  Node* nextEligible = nullptr;
};

DependencySystem::Preconditions FineGrainedLocksDeps::registerAccesses(
    DepTask* task, const Access* accesses, std::size_t count) {
  static_assert(sizeof(Node) <= kAccessNodeBytes &&
                alignof(Node) <= alignof(std::max_align_t) &&
                std::is_trivially_destructible_v<Node>,
                "a node must fit its slot and need no destructor");
  // Every lookup first, so one that throws leaves every queue as it was.
  ObjectLocked* objects[kMaxAccessesPerTask];
  for (std::size_t i = 0; i < count; ++i)
    objects[i] = &objects_.lookupOrCreate(accesses[i].object);

  const auto preconditions = static_cast<std::int32_t>(count) + 1;
  task->pendingDeps.store(preconditions, std::memory_order_relaxed);

  // Accesses eligible at registration are batched into the guard drop,
  // mirroring the wait-free system's bookkeeping.
  std::int32_t resolved = 0;
  for (std::size_t i = 0; i < count; ++i) {
    ObjectLocked& obj = *objects[i];
    Node* node = ::new (task->accessNodes[i])
        Node{.task = task, .read = accesses[i].isRead(), .home = &obj};

    bool eligible;
    {
      std::lock_guard<SpinLock> guard(obj.lock);
      node->prev = obj.tail;
      if (obj.tail != nullptr)
        obj.tail->next = node;
      else
        obj.head = node;
      obj.tail = node;

      eligible = node->read ? obj.queuedWrites == 0 : obj.head == node;
      if (!node->read) ++obj.queuedWrites;
      node->satisfied = eligible;
    }
    if (eligible) ++resolved;
  }
  return {preconditions, resolved};
}

DepTask* FineGrainedLocksDeps::releaseKeepingLast(DepTask* task,
                                                  std::size_t cpu) {
  DepTask* kept = nullptr;
  for (std::size_t i = 0; i < task->numAccesses; ++i) {
    Node* node = std::launder(reinterpret_cast<Node*>(task->accessNodes[i]));
    ObjectLocked& obj = *node->home;

    // Collect newly eligible accesses under the lock (in queue order, so
    // FIFO fairness survives), resolve outside it — the sink may reenter
    // the scheduler.
    Node* eligibleHead = nullptr;
    Node* eligibleTail = nullptr;
    const auto collect = [&](Node* ready) {
      ready->satisfied = true;
      if (eligibleTail != nullptr)
        eligibleTail->nextEligible = ready;
      else
        eligibleHead = ready;
      eligibleTail = ready;
    };
    {
      std::lock_guard<SpinLock> guard(obj.lock);
      if (node->prev != nullptr)
        node->prev->next = node->next;
      else
        obj.head = node->next;
      if (node->next != nullptr)
        node->next->prev = node->prev;
      else
        obj.tail = node->prev;
      if (!node->read) --obj.queuedWrites;

      Node* cursor = obj.head;
      if (cursor != nullptr && !cursor->read) {
        if (!cursor->satisfied) collect(cursor);
      } else {
        for (; cursor != nullptr && cursor->read; cursor = cursor->next) {
          if (!cursor->satisfied) collect(cursor);
        }
      }
    }
    // Read each link before resolving its node: once a later resolution
    // displaces it to the sink, its task may run, complete and reclaim
    // that node's descriptor.
    while (eligibleHead != nullptr) {
      Node* next = eligibleHead->nextEligible;
      resolveOne(eligibleHead->task, cpu, kept);
      eligibleHead = next;
    }
  }
  return kept;
}

void FineGrainedLocksDeps::reset() {
  objects_.forEach([](ObjectLocked& obj) {
    std::lock_guard<SpinLock> guard(obj.lock);
    assert(obj.head == nullptr && "reset with accesses still queued");
    obj.head = nullptr;
    obj.tail = nullptr;
    obj.queuedWrites = 0;
  });
}

}  // namespace ats
