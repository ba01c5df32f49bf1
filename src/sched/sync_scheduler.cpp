#include "sched/sync_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "common/failpoint.hpp"
#include "instr/tracer.hpp"

namespace ats {

namespace {
/// Tasks one get takes when `ready` are queued across `slots` slots.
std::size_t shareOf(std::size_t ready, std::size_t slots) {
  return std::clamp<std::size_t>(ready / slots, 1,
                                 SyncScheduler::kMaxShare);
}
}  // namespace

SyncScheduler::SyncScheduler(const Topology& topo, std::size_t spscCapacity,
                             Tracer* tracer)
    : Scheduler(tracer),
      lock_(std::max<std::size_t>(64, topo.slotCount() * 2),
            std::max<std::size_t>(64, topo.slotCount())),
      addBuffers_(topo, spscCapacity),
      stashes_(std::make_unique<Stash[]>(addBuffers_.numCpus())) {}

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
  // Every ring: the full one is ours and must be empty before our task
  // goes in behind it.
  emitDrain(cpu, addBuffers_.drainAllInto(queue_));
  queue_.push(task);
  serveWaiters(cpu);
  lock_.unlock();
}

Task* SyncScheduler::getReadyTask(std::size_t cpu) {
  assert(cpu < addBuffers_.numCpus());
  Stash& stash = stashes_[cpu];
  if (stash.head != stash.count) return stash.tasks[stash.head++];
  stash.head = stash.count = 0;

  std::uintptr_t items[kMaxShare];
  std::size_t n = 0;
  if (!lock_.lockOrDelegate(cpu, items, n)) {
    // Served by the lock holder: the answer is ours, its extras are the
    // stash.  Copied out here, before this slot can publish the next
    // request that would let a holder rewrite them.
    if (n == 0) return nullptr;
    for (std::size_t k = 1; k < n; ++k)
      stash.tasks[stash.count++] = reinterpret_cast<Task*>(items[k]);
    return reinterpret_cast<Task*>(items[0]);
  }
  // One burst (AddBufferSet's drain rule): a queue still dry after it
  // means every ring was empty when the drain reached it.
  emitDrain(cpu, addBuffers_.drainBurstInto(queue_));
  // The holder's own share, by the same rule a waiter's is dealt: the
  // first task is returned, the extras go to the stash in one bulk pull.
  // An empty queue gives share 1, so the pull then asks for nothing.
  const std::size_t share = shareOf(queue_.size(), addBuffers_.numCpus());
  Task* task = queue_.pop();
  stash.count =
      static_cast<std::uint8_t>(queue_.popN(stash.tasks, share - 1));
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
  const std::size_t maxServes = 4 * addBuffers_.numCpus();
  std::uint64_t waiterCpus[kServeBurst];
  std::size_t counts[kServeBurst];
  Task* tasks[kServeBurst * kMaxShare];
  std::uintptr_t items[kServeBurst * kMaxShare];
  std::size_t served = 0;
  while (served < maxServes) {
    const std::size_t want = std::min(kServeBurst, maxServes - served);
    const std::size_t n = lock_.popWaiters(waiterCpus, want);
    if (n == 0) break;
    // Fewer tasks than waiters: top the queue up with one burst, which
    // covers the batch unless the rings ran dry.
    if (queue_.size() < n)
      emitDrain(cpu, addBuffers_.drainBurstInto(queue_));
    // One bulk pull for the whole batch, `share` tasks per waiter.
    // Waiters past the pull are answered 0 ("nothing ready").
    const std::size_t share = shareOf(queue_.size(), addBuffers_.numCpus());
    const std::size_t got = queue_.popN(tasks, n * share);
    std::size_t dealt = 0;
    for (std::size_t i = 0; i < n; ++i) {
      counts[i] = std::min(share, got - dealt);
      dealt += counts[i];
    }
    for (std::size_t k = 0; k < got; ++k)
      items[k] = reinterpret_cast<std::uintptr_t>(tasks[k]);
    // Each answer is published with its own release store (the §8
    // protocol), each waiter's extras written before it.
    lock_.serveBatch(waiterCpus, items, counts, n);
    // One coalesced SchedServe per batch, payload = tasks handed off,
    // extras included — and only when something was actually handed off
    // (idle waiters re-delegate continuously; see the Scheduler contract).
    if (tracer_ != nullptr && got != 0)
      tracer_->emit(cpu, TraceEvent::SchedServe, got);
    served += n;
    if (got < n) break;  // the rings ran dry
  }
}

}  // namespace ats
