#include "sched/work_stealing_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "instr/tracer.hpp"
#include "runtime/task.hpp"

namespace ats {

WorkStealingScheduler::WorkStealingScheduler(Topology topo,
                                             std::size_t dequeCapacity,
                                             Tracer* tracer)
    : Scheduler(tracer), topo_(std::move(topo)) {
  const std::size_t slots = std::max<std::size_t>(1, topo_.slotCount());
  deques_.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    deques_.push_back(
        std::make_unique<ChaseLevDeque<Task*>>(dequeCapacity));
  }
  cursors_ = std::make_unique<ProbeCursor[]>(slots);

  // Victim orders, fixed at construction: for slot s, walk the slot
  // ring starting at s+1 and split by NUMA domain (Topology::domainOfSlot
  // is the one shared slot→domain rule — reserved slots, i.e. the
  // spawner, fold onto a real CPU's domain, so the spawner's deque is a
  // local victim for domain 0's workers and vice versa).  Ring order
  // keeps any two slots' victim lists rotations of each other, spreading
  // first-probe pressure instead of having every thief hammer slot 0
  // first.
  localVictims_.resize(slots);
  remoteVictims_.resize(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t home = topo_.domainOfSlot(s);
    for (std::size_t i = 1; i < slots; ++i) {
      const std::size_t v = (s + i) % slots;
      auto& list = topo_.domainOfSlot(v) == home ? localVictims_[s]
                                                 : remoteVictims_[s];
      list.push_back(static_cast<std::uint32_t>(v));
    }
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

  // Local domain first — in full, every call: under load this keeps
  // execution where the producer's data lives, and a bounded local
  // probe could strand work a one-domain topology (every test host)
  // would never reach.
  for (const std::uint32_t victim : localVictims_[cpu]) {
    if (stealFrom(victim, cpu, task)) return task;
  }

  // Remote domains: at most kStealProbeLimit probes behind a rotating
  // cursor.  The rotation is what makes the bound safe — every remote
  // victim is reached within ceil(remotes/kStealProbeLimit) calls, so a
  // bounded probe delays remote work instead of stranding it.
  const std::vector<std::uint32_t>& remotes = remoteVictims_[cpu];
  if (remotes.empty()) return nullptr;
  const std::size_t probes = std::min(kStealProbeLimit, remotes.size());
  const std::size_t start = cursors_[cpu].next % remotes.size();
  for (std::size_t i = 0; i < probes; ++i) {
    const std::size_t idx = (start + i) % remotes.size();
    if (stealFrom(remotes[idx], cpu, task)) {
      // Stay on the productive victim: work arrives in bursts, and the
      // next miss should re-probe where work was just found.
      cursors_[cpu].next = idx;
      return task;
    }
  }
  cursors_[cpu].next = (start + probes) % remotes.size();
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
