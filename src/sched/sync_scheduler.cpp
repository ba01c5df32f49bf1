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
  // The full ring is ours, and so is its whole domain shard: draining it
  // (unbounded) empties our ring without pulling every other domain's
  // cache lines through this core.  Other domains' adds keep riding
  // their rings until a getter goes dry and runs the flat fallback in
  // getReadyTask.
  emitDrain(cpu, addBuffers_.drainDomain(*policy_, topo_.domainOfSlot(cpu)));
  policy_->addTask(task, cpu);
  serveWaiters(cpu);
  lock_.unlock();
}

Task* SyncScheduler::getReadyTask(std::size_t cpu) {
  assert(cpu < addBuffers_.numCpus());
  std::uintptr_t item = 0;
  if (!lock_.lockOrDelegate(cpu, item)) {
    return reinterpret_cast<Task*>(item);  // served by the lock holder
  }
  // Own-domain shard first, bounded: the holder is its own first waiter,
  // and a NUMA-aware policy will hand back what this drain just filed
  // locally.  Only when the policy is dry after that does the flat pass
  // run — the guarantee that a domain with producers but no getters
  // still drains.
  emitDrain(cpu, addBuffers_.drainDomain(*policy_, topo_.domainOfSlot(cpu),
                                         kServeBurst));
  Task* task = policy_->getTask(cpu);
  if (task == nullptr) {
    emitDrain(cpu, addBuffers_.drainInto(*policy_));
    task = policy_->getTask(cpu);
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
  std::uint8_t waiterDomain[kServeBurst];
  std::size_t groupIdx[kServeBurst];
  const std::size_t holderDomain = topo_.domainOfSlot(cpu);
  bool refilled = false;
  std::size_t served = 0;
  while (served < maxServes) {
    const std::size_t want = std::min(kServeBurst, maxServes - served);
    const std::size_t n = lock_.popWaiters(waiterCpus, want);
    if (n == 0) break;
    std::uint64_t localGot = 0;
    std::uint64_t remoteGot = 0;
    std::size_t totalGot = 0;
    // Group the popped batch by NUMA domain and make one bulk pull per
    // group from the GROUP's own view, so a NUMA-aware policy hands each
    // waiter its own domain's tasks.  Answers are assembled into `items`
    // in pop order and still published behind ONE release fence (the
    // single serveBatch below) — the grouping only changes which pull
    // fills which slot, not the §8 publication protocol.
    bool grouped[kServeBurst] = {};
    for (std::size_t i = 0; i < n; ++i) {
      items[i] = 0;
      waiterDomain[i] = static_cast<std::uint8_t>(
          topo_.domainOfSlot(static_cast<std::size_t>(waiterCpus[i])));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (grouped[i]) continue;
      const std::uint8_t domain = waiterDomain[i];
      std::size_t m = 0;
      for (std::size_t j = i; j < n; ++j) {
        if (!grouped[j] && waiterDomain[j] == domain) {
          grouped[j] = true;
          groupIdx[m++] = j;
        }
      }
      const std::size_t waiterView = static_cast<std::size_t>(waiterCpus[i]);
      std::size_t got = policy_->getTasks(tasks, m, waiterView);
      if (got < m) {
        // Short for this group: drain the WAITERS' domain's shard
        // (bounded, so one group cannot turn the hold into a drain loop)
        // and retry before touching any other domain.
        emitDrain(cpu, addBuffers_.drainDomain(*policy_, domain, kServeBurst));
        got += policy_->getTasks(tasks + got, m - got, waiterView);
      }
      for (std::size_t k = 0; k < got; ++k) {
        items[groupIdx[k]] = reinterpret_cast<std::uintptr_t>(tasks[k]);
      }
      localGot += got;  // pulled with the waiters' own locality view
      totalGot += got;
    }
    if (totalGot < n && !refilled) {
      // Some waiters still have no answer and their domains' shards are
      // dry: one flat refill per lock hold, then one holder-view pull for
      // the leftovers.  These are the potentially cross-domain hand-offs
      // the trace payload records.
      refilled = true;
      emitDrain(cpu, addBuffers_.drainInto(*policy_));
      std::size_t unfilled[kServeBurst];
      std::size_t m = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (items[i] == 0) unfilled[m++] = i;
      }
      const std::size_t got = policy_->getTasks(tasks, m, cpu);
      for (std::size_t k = 0; k < got; ++k) {
        const std::size_t i = unfilled[k];
        items[i] = reinterpret_cast<std::uintptr_t>(tasks[k]);
        if (waiterDomain[i] == static_cast<std::uint8_t>(holderDomain)) {
          ++localGot;
        } else {
          ++remoteGot;
        }
      }
      totalGot += got;
    }
    lock_.serveBatch(waiterCpus, items, n);
    // One coalesced SchedServe per batch, the local/remote hand-off
    // split packed as payload — and only when something was actually
    // handed off (idle waiters re-delegate continuously; see the
    // Scheduler contract).
    if (tracer_ != nullptr && totalGot != 0)
      tracer_->emit(cpu, TraceEvent::SchedServe,
                    packServePayload(localGot, remoteGot));
    served += n;
    if (totalGot < n) break;  // policy dry even after the one refill
  }
}

}  // namespace ats
