#pragma once

#include <memory>
#include <vector>

#include "common/topology.hpp"
#include "containers/chase_lev_deque.hpp"
#include "sched/scheduler.hpp"

namespace ats {

/// The LLVM-family architectural alternative (fig7-9's "llvm_like"
/// curve), now a real design instead of a relabeled SyncScheduler: one
/// Chase–Lev deque per CPU slot, no central lock, no shared ready
/// queue — the decentralized counterpoint to the paper's centralized
/// delegation.
///
///   * addReadyTask(task, cpu): push onto slot `cpu`'s own deque.  The
///     caller is that slot's single thread (the Scheduler contract), so
///     this is the deque's owner-side push — no shared RMW at all on
///     the common path.  External submission needs no extra lock for
///     the same reason: the spawner has its own reserved slot, its
///     deque is steal-only ingress for the workers.
///   * getReadyTask(cpu): pop slot `cpu`'s deque LIFO (depth-first,
///     cache-warm); on empty, steal FIFO from every other slot in ring
///     order starting at `cpu + 1` before reporting empty.  A steal CAS
///     lost to a competitor retries the same victim: an abort means
///     someone else just removed an element, so the retry loop is
///     progress-bounded by the victim's queue length.
///
/// The other three schedulers serialize one ReadyQueue behind a lock;
/// this one has no point where one thread holds all the tasks, so the
/// per-deque LIFO/steal-FIFO order IS the ready order.
///
/// Traced variant emits one SchedSteal per successful steal (payload =
/// victim slot) into the thief's stream — bounded by tasks executed,
/// per the Scheduler emission contract.  Local pops are deliberately
/// untraced: they are the hot path whose zero-shared-RMW property the
/// design exists to demonstrate.
class WorkStealingScheduler final : public Scheduler {
 public:
  /// `dequeCapacity` is the initial per-slot deque capacity; the deque
  /// grows past it on demand, so unlike the SPSC schedulers there is no
  /// overflow protocol to size against.
  WorkStealingScheduler(const Topology& topo,
                        std::size_t dequeCapacity = kPerCpuBufferCapacity,
                        Tracer* tracer = nullptr);

  void addReadyTask(Task* task, std::size_t cpu) override;
  Task* getReadyTask(std::size_t cpu) override;

 private:
  /// Steal from `victim` into `out`, retrying lost CASes, emitting
  /// SchedSteal into `cpu`'s stream on success.
  bool stealFrom(std::size_t victim, std::size_t cpu, Task*& out);

  std::vector<std::unique_ptr<ChaseLevDeque<Task*>>> deques_;
};

}  // namespace ats
