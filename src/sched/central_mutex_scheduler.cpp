#include "sched/central_mutex_scheduler.hpp"

#include "instr/tracer.hpp"

namespace ats {

CentralMutexScheduler::CentralMutexScheduler(Tracer* tracer)
    : Scheduler(tracer) {}

void CentralMutexScheduler::addReadyTask(Task* task, std::size_t cpu) {
  // The contention probe (try first, log, then block) runs ONLY under a
  // live tracer: the untraced baseline must keep the plain blocking
  // lock it has always been measured with — this scheduler IS the
  // serial-insertion curve, so adding even a failed try_lock CAS to its
  // untraced path would shift the figure it anchors.  Adds are bounded
  // by task count, so the traced probe cannot flood the ring.
  if (tracer_ != nullptr) {
    std::unique_lock<std::mutex> guard(mutex_, std::try_to_lock);
    if (!guard.owns_lock()) {
      tracer_->emit(cpu, TraceEvent::SchedLockContended, cpu);
      guard.lock();
    }
    queue_.push(task);
    return;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  queue_.push(task);
}

Task* CentralMutexScheduler::getReadyTask(std::size_t /*cpu*/) {
  // Same non-blocking get contract as every scheduler here: a busy lock
  // reads as "nothing ready yet" and the worker polls again.
  std::unique_lock<std::mutex> guard(mutex_, std::try_to_lock);
  if (!guard.owns_lock()) return nullptr;
  return queue_.pop();
}

}  // namespace ats
