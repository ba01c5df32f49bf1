#pragma once

#include <mutex>

#include "sched/ready_queue.hpp"
#include "sched/scheduler.hpp"

namespace ats {

/// The paper's "serial insertion" baseline and the architectural stand-in
/// for GOMP-style runtimes: one OS mutex in front of one ready queue.
/// Every add and every get serializes through the kernel futex path.
/// Holds the same ReadyQueue as the other two serialized designs, so
/// benchmarks compare synchronization substrates, not queue
/// implementations.
class CentralMutexScheduler final : public Scheduler {
 public:
  /// Traced variant emits SchedLockContended for every add that found
  /// the mutex held (and then blocked) — serial insertion made visible.
  explicit CentralMutexScheduler(Tracer* tracer = nullptr);

  void addReadyTask(Task* task, std::size_t cpu) override;
  Task* getReadyTask(std::size_t cpu) override;

 private:
  std::mutex mutex_;
  ReadyQueue queue_;
};

}  // namespace ats
