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
/// lock is the (serialized) consumer of all of them, so the dtlock and
/// ptlock designs drain identical structures and their comparison
/// isolates the lock protocol alone.
class AddBufferSet {
 public:
  /// "No cap" sentinel for drainInto's maxTasks.
  static constexpr std::size_t kNoCap = ~std::size_t{0};

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

  /// Move at most `maxTasks` published adds into `queue`: rings in slot
  /// order, each drained FIFO with one index update, and rings past the
  /// cap left untouched.  Caller must hold the scheduler's lock.
  /// Returns the number of tasks moved (the SchedDrain trace payload).
  std::size_t drainInto(ReadyQueue& queue, std::size_t maxTasks = kNoCap) {
    std::size_t drained = 0;
    for (const auto& buffer : buffers_) {
      if (drained >= maxTasks) break;
      drained += buffer->consumeN(maxTasks - drained,
                                  [&](Task* task) { queue.push(task); });
    }
    return drained;
  }

 private:
  std::vector<std::unique_ptr<SpscQueue<Task*>>> buffers_;
};

}  // namespace ats
