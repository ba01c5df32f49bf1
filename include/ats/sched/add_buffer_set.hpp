#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/topology.hpp"
#include "containers/spsc_queue.hpp"
#include "sched/ready_queue.hpp"

namespace ats {

struct Task;

/// The per-CPU wait-free add-buffer front end (§3.1) shared by every
/// scheduler that decouples adds from the central lock.  CPU i is the
/// single producer of buffer i; whichever thread holds the scheduler's
/// lock is the (serialized) consumer of all of them, and drains them by
/// one rule: at most `kDrainBurst` tasks per drain, every ring only for
/// an overflowing add.  So the dtlock and ptlock designs differ in the
/// lock protocol and SyncScheduler's multi-task shares, not the drain.
class AddBufferSet {
 public:
  /// Most tasks one drain moves.  A drain that moves fewer emptied every
  /// ring; one that moves this many leaves that many queued.  So a hold
  /// still short after its drain missed only adds published during the
  /// hold, and the next hold drains those.
  static constexpr std::size_t kDrainBurst = 16;

  AddBufferSet(const Topology& topo, std::size_t capacity) {
    const std::size_t slots = std::max<std::size_t>(1, topo.slotCount());
    buffers_.reserve(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      buffers_.push_back(std::make_unique<SpscQueue<Task*>>(capacity));
    }
  }

  std::size_t numCpus() const { return buffers_.size(); }

  /// Wait-free; false when cpu's buffer is full (caller runs the
  /// overflow drain protocol under the lock).
  bool tryPush(Task* task, std::size_t cpu) {
    return buffers_[cpu]->push(task);
  }

  /// Move at most `kDrainBurst` published adds into `queue`: rings in
  /// slot order, each drained FIFO with one index update, the rest left
  /// for a later hold.  Caller must hold the scheduler's lock.  Returns
  /// the number of tasks moved (the SchedDrain trace payload).
  std::size_t drainBurstInto(ReadyQueue& queue) {
    return drainUpTo(queue, kDrainBurst);
  }

  /// Move every published add into `queue`.  Only an overflowing add
  /// uses it: the adder's full ring must be empty before its task goes
  /// in behind it, or that producer's adds would reorder.
  std::size_t drainAllInto(ReadyQueue& queue) {
    return drainUpTo(queue, ~std::size_t{0});
  }

 private:
  std::size_t drainUpTo(ReadyQueue& queue, std::size_t maxTasks) {
    std::size_t drained = 0;
    for (const auto& buffer : buffers_) {
      if (drained >= maxTasks) break;
      drained += buffer->consumeN(maxTasks - drained,
                                  [&](Task* task) { queue.push(task); });
    }
    return drained;
  }

  std::vector<std::unique_ptr<SpscQueue<Task*>>> buffers_;
};

}  // namespace ats
