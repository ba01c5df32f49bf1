#pragma once

#include <cstdint>
#include <memory>

#include "common/topology.hpp"
#include "locks/locks.hpp"
#include "sched/add_buffer_set.hpp"
#include "sched/ready_queue.hpp"
#include "sched/scheduler.hpp"

namespace ats {

/// The paper's scheduler (§3): per-CPU wait-free SPSC add-buffers in
/// front of one FIFO ready queue, everything serialized by a DTLock.
///
///   * addReadyTask: push into the caller CPU's own SPSC buffer — no
///     shared-lock traffic at all on the common path.  When the buffer is
///     full, the caller takes the DTLock itself, drains every add-buffer
///     into the queue, and serves any queued delegation requests
///     while it is there (the overflow "help-drain" protocol).
///   * getReadyTask: pop the caller slot's stash; only when it is empty,
///     `lockOrDelegate`.  Usually some other thread already holds the
///     lock and simply hands tasks back; the waiter never owns the lock,
///     never drains, never touches the queue's cache lines.  Whichever
///     thread does hold the lock drains at most `kDrainBurst` tasks
///     from the add-buffers (AddBufferSet), takes its own share, and
///     serves the delegation queue before releasing.
///
/// Serving is the §8 flat-combining batch: the holder snapshots a run of
/// queued requests with one `popWaiters` pass, pulls the batch's tasks
/// with one `popN` call, and publishes each answer with its own release
/// store (`serveBatch`).  A queue that cannot give every waiter one task
/// is topped up with one more burst.  The add-buffers and their drain
/// rule are PTLockScheduler's too: the two designs differ in the lock
/// protocol and in the multi-task shares below.
///
/// Multi-task hand-off: every get, delegated or the holder's own, takes
/// `share = clamp(ready / slots, 1, kMaxShare)` tasks, where `ready` is
/// the queue's depth after the top-up drain.  A waiter's extras ride in
/// its DTLock result line; the first task is returned and the rest go to
/// the slot's stash, which that slot's next gets pop before touching the
/// lock.  Fewer than two queued tasks per slot deals one task per get.
/// A stashed task runs only on its own slot (DESIGN.md, "Multi-task
/// hand-off").  Stashing a task prefetches its kTaskHeadBytes head, so
/// its lines arrive while the returned task runs (DESIGN.md, "Two-line
/// descriptors, fetched ahead").
class SyncScheduler final : public Scheduler {
 public:
  /// Most waiters a single combining batch answers, and the size of the
  /// serve loop's stack arrays — more waiters than this simply take
  /// another batch within the same lock hold.
  static constexpr std::size_t kServeBurst = 16;
  /// So a top-up burst covers a whole batch unless the rings run dry.
  static_assert(kServeBurst <= AddBufferSet::kDrainBurst);

  /// Most tasks one get takes: a DTLock answer plus the extras that fill
  /// the rest of its result line.
  static constexpr std::size_t kMaxShare = DTLock::kMaxItems;
  static_assert(kMaxShare == 8, "one 64-byte result line of task pointers");

  /// §3.1: "can be configured from a single one to one per core".
  /// `spscCapacity` sizes each add-buffer (kPerCpuBufferCapacity).
  ///
  /// Traced variant emits SchedDrain per non-empty add-buffer drain and
  /// one SchedServe per serve batch with the hand-off count as payload.
  explicit SyncScheduler(const Topology& topo,
                         std::size_t spscCapacity = kPerCpuBufferCapacity,
                         Tracer* tracer = nullptr);

  void addReadyTask(Task* task, std::size_t cpu) override;
  Task* getReadyTask(std::size_t cpu) override;

 private:
  /// Tasks a slot's get took beyond the one it returned, popped FIFO by
  /// that slot's next gets.  Only the slot's own thread touches it.
  struct alignas(64) Stash {
    Task* tasks[kMaxShare - 1] = {};
    std::uint8_t head = 0;
    std::uint8_t count = 0;
  };
  static_assert(sizeof(Stash) == 64);

  /// Answer queued getReadyTask delegations.  Caller must hold lock_;
  /// `cpu` is the holder's slot (trace emissions go into its stream).
  void serveWaiters(std::size_t cpu);

  DTLock lock_;
  ReadyQueue queue_;
  AddBufferSet addBuffers_;
  std::unique_ptr<Stash[]> stashes_;
};

}  // namespace ats
