#pragma once

#include <cstddef>
#include <deque>

namespace ats {

struct Task;

/// The global FIFO ready queue held by value in every serialized
/// scheduler design (SyncScheduler, PTLockScheduler,
/// CentralMutexScheduler), so the figures compare synchronization
/// substrates, not queues.  §3.2's point: once the scheduler's lock
/// serializes access, the queue is plain sequential code.  Callers
/// guarantee mutual exclusion.
///
/// `alignas(64)` gives the queue lines of its own inside its scheduler:
/// the deque's start and finish iterators, which every push and pop
/// writes, never share a line with the fields every adder and getter
/// reads (DESIGN.md, "One ready queue").
class alignas(64) ReadyQueue {
 public:
  void push(Task* task) { ready_.push_back(task); }

  /// The oldest task, or nullptr when the queue is empty.
  Task* pop() {
    if (ready_.empty()) return nullptr;
    Task* task = ready_.front();
    ready_.pop_front();
    return task;
  }

  /// Pop up to `n` tasks into `out`, oldest first: the bulk pull a
  /// delegation batch and a holder's own share use.  Returns how many
  /// were delivered (< n means the queue ran dry).  Same order as `n`
  /// repeated pop() calls.
  std::size_t popN(Task** out, std::size_t n) {
    const std::size_t got = n < ready_.size() ? n : ready_.size();
    for (std::size_t i = 0; i < got; ++i) {
      out[i] = ready_.front();
      ready_.pop_front();
    }
    return got;
  }

  /// Tasks queued right now.  The delegation serve sizes each share from
  /// it (see SyncScheduler).
  std::size_t size() const { return ready_.size(); }

 private:
  std::deque<Task*> ready_;
};

}  // namespace ats
