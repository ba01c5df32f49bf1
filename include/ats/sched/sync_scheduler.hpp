#pragma once

#include <memory>

#include "common/topology.hpp"
#include "locks/locks.hpp"
#include "sched/add_buffer_set.hpp"
#include "sched/scheduler.hpp"

namespace ats {

/// The paper's scheduler (§3): per-CPU wait-free SPSC add-buffers in
/// front of a single policy object, everything serialized by a DTLock.
///
///   * addReadyTask: push into the caller CPU's own SPSC buffer — no
///     shared-lock traffic at all on the common path.  When the buffer is
///     full, the caller takes the DTLock itself, drains the add-buffers
///     into the policy, and serves any queued delegation requests
///     while it is there (the overflow "help-drain" protocol).
///   * getReadyTask: `lockOrDelegate`.  Usually some other thread already
///     holds the lock and simply hands a task back; the waiter never owns
///     the lock, never drains, never touches the policy's cache lines.
///     Whichever thread does hold the lock drains the add-buffers, takes
///     its own task, and serves the delegation queue before releasing.
///
/// Serving is the §8 flat-combining batch: the holder snapshots a run of
/// queued requests with one `popWaiters` pass, pulls the batch's tasks
/// with one `getTasks` call, and publishes every answer behind a single
/// release fence (`serveBatch`).  A short pull tops the policy up with a
/// bounded drain; the unbounded refill runs at most once per lock hold.
class SyncScheduler final : public Scheduler {
 public:
  /// Most waiters a single combining batch answers.  Also bounds the
  /// add-buffer top-up drains, and sizes the serve loop's stack arrays —
  /// more waiters than this simply take another batch within the same
  /// lock hold.
  static constexpr std::size_t kServeBurst = 16;

  /// §3.1: "can be configured from a single one to one per core".  The
  /// paper's Listing 5 hardcodes 100 add-buffer slots; we default to the
  /// next power of two up.  micro_ablation sweeps it.
  ///
  /// Traced variant emits SchedDrain per non-empty add-buffer drain and
  /// one SchedServe per serve batch with the hand-off count as payload.
  SyncScheduler(Topology topo, std::unique_ptr<SchedulerPolicy> policy,
                std::size_t spscCapacity = 256, Tracer* tracer = nullptr);

  void addReadyTask(Task* task, std::size_t cpu) override;
  Task* getReadyTask(std::size_t cpu) override;

  const char* name() const override { return "sync_dtlock"; }

 private:
  /// Answer queued getReadyTask delegations.  Caller must hold lock_;
  /// `cpu` is the holder's slot (trace emissions go into its stream).
  void serveWaiters(std::size_t cpu);

  Topology topo_;
  DTLock lock_;
  std::unique_ptr<SchedulerPolicy> policy_;
  AddBufferSet addBuffers_;
};

}  // namespace ats
