#include "sched/work_stealing_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "instr/tracer.hpp"
#include "runtime/task.hpp"

namespace ats {

WorkStealingScheduler::WorkStealingScheduler(const Topology& topo,
                                             std::size_t dequeCapacity,
                                             Tracer* tracer)
    : Scheduler(tracer) {
  const std::size_t slots = std::max<std::size_t>(1, topo.slotCount());
  deques_.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    deques_.push_back(
        std::make_unique<ChaseLevDeque<Task*>>(dequeCapacity));
  }
}

void WorkStealingScheduler::addReadyTask(Task* task, std::size_t cpu) {
  assert(cpu < deques_.size());
  // Owner-side push: the Scheduler contract makes the caller slot
  // `cpu`'s single thread, which is exactly the deque's owner role.
  deques_[cpu]->push(task);
}

Task* WorkStealingScheduler::getReadyTask(std::size_t cpu) {
  assert(cpu < deques_.size());
  Task* task = nullptr;
  if (deques_[cpu]->pop(task)) return task;

  // One victim ring starting at cpu+1, probed in full on every call, so
  // no victim's work can be stranded.  Starting past ourselves makes
  // any two slots' probe orders rotations of each other, spreading
  // first-probe pressure instead of having every thief hammer slot 0.
  const std::size_t slots = deques_.size();
  std::size_t victim = cpu;
  for (std::size_t i = 1; i < slots; ++i) {
    if (++victim == slots) victim = 0;
    if (stealFrom(victim, cpu, task)) return task;
  }
  return nullptr;
}

bool WorkStealingScheduler::stealFrom(std::size_t victim, std::size_t cpu,
                                      Task*& out) {
  using Steal = ChaseLevDeque<Task*>::StealResult;
  for (;;) {
    switch (deques_[victim]->steal(out)) {
      case Steal::Success:
        if (tracer_ != nullptr)
          tracer_->emit(cpu, TraceEvent::SchedSteal, victim);
        return true;
      case Steal::Empty:
        return false;
      case Steal::Abort:
        // The element went to a competitor; the victim may hold more.
        // Each retry follows somebody's completed removal, so the loop
        // is bounded by the victim's queue length.
        break;
    }
  }
}

}  // namespace ats
