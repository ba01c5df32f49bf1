#include "sched/sync_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

#include "common/failpoint.hpp"
#include "instr/tracer.hpp"

namespace ats {

SyncScheduler::SyncScheduler(Topology topo,
                             std::unique_ptr<SchedulerPolicy> policy,
                             std::size_t spscCapacity, Tracer* tracer)
    : Scheduler(tracer),
      topo_(std::move(topo)),
      lock_(std::max<std::size_t>(64, topo_.slotCount() * 2),
            std::max<std::size_t>(64, topo_.slotCount())),
      policy_(std::move(policy)),
      addBuffers_(topo_, spscCapacity) {}

void SyncScheduler::addReadyTask(Task* task, std::size_t cpu) {
  assert(cpu < addBuffers_.numCpus());
  if (addBuffers_.tryPush(task, cpu)) return;

  // Overflow protocol: join the FIFO queue and become the server for a
  // moment — drain, then answer queued getReadyTask delegations.  Unlike
  // the PTLock scheduler, queueing a ticket here is safe AND useful:
  // getters that pile up behind a queued adder land in the delegation
  // queue and are retired in one combined burst when the adder enters,
  // instead of each needing its own lock hand-off.
  // Failpoint: delay/abort drills only — no lock is held yet, but a
  // throw here would lose the task (see DESIGN.md "Failure domains").
  ATS_FAILPOINT(addbuf_overflow);
  lock_.lock();
  // Unbounded: the full ring is ours and must be emptied before our
  // task goes in behind it, or this producer's adds would reorder.
  emitDrain(cpu, addBuffers_.drainInto(*policy_));
  policy_->addTask(task);
  serveWaiters(cpu);
  lock_.unlock();
}

Task* SyncScheduler::getReadyTask(std::size_t cpu) {
  assert(cpu < addBuffers_.numCpus());
  std::uintptr_t item = 0;
  if (!lock_.lockOrDelegate(cpu, item)) {
    return reinterpret_cast<Task*>(item);  // served by the lock holder
  }
  // A bounded drain first, so one hold does not turn into a drain loop;
  // only when the policy is dry after that does the unbounded pass run.
  emitDrain(cpu, addBuffers_.drainInto(*policy_, kServeBurst));
  Task* task = policy_->getTask();
  if (task == nullptr) {
    emitDrain(cpu, addBuffers_.drainInto(*policy_));
    task = policy_->getTask();
  }
  serveWaiters(cpu);
  lock_.unlock();
  return task;
}

void SyncScheduler::serveWaiters(std::size_t cpu) {
  // Failpoint: stretches the combining holder's lock hold (delay mode),
  // the latency-injection drill for delegation fairness.  DTLock held —
  // throw mode is off-limits here.
  ATS_FAILPOINT(serve_batch);
  // Each thread has at most one outstanding request, but a served waiter
  // can requeue while we still hold the lock; cap the combining loop so
  // the holder's own latency stays bounded.
  const std::size_t maxServes = 4 * topo_.numCpus + 4;
  std::uint64_t waiterCpus[kServeBurst];
  Task* tasks[kServeBurst];
  std::uintptr_t items[kServeBurst];
  bool refilled = false;
  std::size_t served = 0;
  while (served < maxServes) {
    const std::size_t want = std::min(kServeBurst, maxServes - served);
    const std::size_t n = lock_.popWaiters(waiterCpus, want);
    if (n == 0) break;
    // One bulk pull for the whole batch.  Short: top the policy up with a
    // bounded drain and pull again; still short: one unbounded refill per
    // lock hold.
    std::size_t got = policy_->getTasks(tasks, n);
    if (got < n) {
      emitDrain(cpu, addBuffers_.drainInto(*policy_, kServeBurst));
      got += policy_->getTasks(tasks + got, n - got);
    }
    if (got < n && !refilled) {
      refilled = true;
      emitDrain(cpu, addBuffers_.drainInto(*policy_));
      got += policy_->getTasks(tasks + got, n - got);
    }
    // Waiters past `got` are answered 0 ("nothing ready").  Every answer
    // is published behind ONE release fence (the §8 protocol).
    for (std::size_t i = 0; i < n; ++i) {
      items[i] = i < got ? reinterpret_cast<std::uintptr_t>(tasks[i]) : 0;
    }
    lock_.serveBatch(waiterCpus, items, n);
    // One coalesced SchedServe per batch, payload = tasks handed off —
    // and only when something was actually handed off (idle waiters
    // re-delegate continuously; see the Scheduler contract).
    if (tracer_ != nullptr && got != 0)
      tracer_->emit(cpu, TraceEvent::SchedServe, got);
    served += n;
    if (got < n) break;  // policy dry even after the one refill
  }
}

}  // namespace ats
