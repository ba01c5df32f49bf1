#pragma once

#include "common/topology.hpp"
#include "locks/locks.hpp"
#include "sched/add_buffer_set.hpp"
#include "sched/ready_queue.hpp"
#include "sched/scheduler.hpp"

namespace ats {

/// The paper's "w/o DTLock" ablation point: SyncScheduler's per-CPU
/// SPSC add-buffers, drain rule and FIFO ready queue, but a plain PTLock
/// with no delegation, and one task per get.  A getter that finds the
/// lock busy walks away empty instead of handing its request to the
/// holder; that is what the dtlock-vs-ptlock comparison measures (the
/// paper's 4x), while serial_mutex-vs-ptlock isolates the add-buffers
/// (the 12x).
class PTLockScheduler final : public Scheduler {
 public:
  /// Traced variant emits SchedDrain per non-empty drain and
  /// SchedLockContended once per overflow episode that finds the lock
  /// busy — the "creator core fights for the lock" signal of fig10.
  explicit PTLockScheduler(const Topology& topo,
                           std::size_t spscCapacity = kPerCpuBufferCapacity,
                           Tracer* tracer = nullptr);

  void addReadyTask(Task* task, std::size_t cpu) override;
  Task* getReadyTask(std::size_t cpu) override;

 private:
  PTLock lock_;
  ReadyQueue queue_;
  AddBufferSet addBuffers_;
};

}  // namespace ats
