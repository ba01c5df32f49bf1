#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <stop_token>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "deps/access.hpp"
#include "deps/dependency_system.hpp"
#include "locks/locks.hpp"
#include "memory/allocator.hpp"
#include "runtime/graph_status.hpp"
#include "runtime/runtime_config.hpp"
#include "runtime/scheduler_factory.hpp"
#include "runtime/task.hpp"

namespace ats {

/// The tasking runtime the paper benchmarks: worker threads (one per
/// Topology CPU, pinned when the host has the cores for it) pulling from
/// the configured scheduler, the configured §2 dependency subsystem in
/// front, and `spawn`/`taskwait` on top.
///
///   Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 4)));
///   rt.spawn({inout(x)}, [&x] { ++x; });
///   rt.taskwait();
///
/// Threading contract (the OmpSs model the §2 ASM assumes):
///   * spawn may be called from the owning "spawner" thread and from task
///     bodies; accesses to the SAME object must be registered by one
///     thread at a time (sibling tasks are created in program order).
///   * taskwait is spawner-only (a task body calling it would wait on
///     itself).  While waiting, the spawner helps execute ready tasks
///     through its own reserved CPU slot — the scheduler is built with
///     numCpus + 1 slots so the spawner is a first-class SPSC producer
///     and DTLock delegator without ever colliding with a worker's slot.
///   * when `RuntimeConfig::tracer` is set, workers emit §5 events
///     (TaskStart/End, WorkerIdleBegin/End) into their own per-CPU
///     streams and the scheduler emits its serve/drain/contention
///     events; with the default null tracer every site short-circuits
///     on one branch and the hot paths are byte-for-byte the untraced
///     ones.
///   * descriptors are reclaimed EAGERLY through the §4 allocator
///     (`RuntimeConfig::usePoolAllocator` picks pool vs system): each
///     carries a refcount covering its execution plus every way the
///     dependency chains can still reach its access nodes, and goes
///     back to the allocator the moment the count drains — so long
///     dependency graphs with no taskwait keep live descriptor memory
///     bounded by the in-flight window, not the spawn total.
class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Spawn a task whose body is any callable; captures up to
  /// Task::kInlineClosureBytes live inline in the descriptor, larger ones
  /// on the heap.  Returns as soon as the accesses are registered — the
  /// body runs when its dependencies resolve, on whatever worker gets it.
  ///
  /// Both overloads funnel into registerAndSubmit — one descriptor
  /// set-up and registration path, so invariants (access-count check,
  /// in-flight accounting, completion wiring) live in exactly one place.
  template <typename Fn>
  void spawn(std::initializer_list<Access> accesses, Fn&& fn) {
    spawn(std::span<const Access>(accesses.begin(), accesses.size()),
          std::forward<Fn>(fn));
  }

  /// Span spawn for access lists whose arity is only known at run time —
  /// the apps layer's halo tasks (a boundary block drops a neighbor
  /// access) build a small Access array and pass it here.  Braced lists
  /// still bind to the initializer_list overload above.
  template <typename Fn>
  void spawn(std::span<const Access> accesses, Fn&& fn) {
    Task* task = allocateTask();
    try {
      installClosure(task, std::forward<Fn>(fn));
    } catch (...) {
      // Closure construction/spill failed (copy ctor threw, or the
      // closure_spill failpoint fired): the descriptor was never
      // registered, so dropping its execution reference reclaims it and
      // conservation holds — liveDescriptors() still returns to zero.
      task->dropRef();
      throw;
    }
    registerAndSubmit(task, accesses);
  }

  /// Wait until every spawned task has completed, helping execute ready
  /// tasks meanwhile, then recycle descriptors and dependency chains.
  /// If a task body threw (or cancel() was called), the graph DRAINS —
  /// remaining ready tasks are skipped, not run — and this variant
  /// silently discards the captured error; use taskwaitChecked() to
  /// observe it.
  void taskwait();

  /// taskwait() that rethrows the FIRST exception captured from a task
  /// body after the graph drains to quiescence (descriptors reclaimed,
  /// chains reset — conservation holds before the throw reaches the
  /// caller).  Returns normally when nothing failed, including after a
  /// caller-initiated cancel().  Either way the failure state is
  /// cleared: the next batch starts clean.
  void taskwaitChecked();

  /// Poison the current graph from any thread: ready tasks dequeued
  /// from here on are skipped (dependencies still released, so the
  /// graph drains), and the next taskwait returns once in-flight
  /// bodies finish.  Idempotent; racing a task failure is fine (first
  /// poisoner wins the trace event, the error slot keeps the first
  /// captured exception).
  void cancel();

  const RuntimeConfig& config() const { return config_; }
  Scheduler& scheduler() { return *sched_; }
  DependencySystem& deps() { return *deps_; }
  Allocator& allocator() { return *alloc_; }

  /// Descriptors currently alive (allocated, not yet reclaimed).  With
  /// eager reclamation this tracks the in-flight window; after a
  /// taskwait it returns to zero.  Summed over per-CPU stripes, so a
  /// mid-flight reading is approximate (individual stripes go negative
  /// when one thread allocates what another reclaims); at quiescence it
  /// is exact.
  std::size_t liveDescriptors() const {
    const auto sum =
        static_cast<std::int64_t>(sumSlots(&SlotCounters::descriptors));
    return sum > 0 ? static_cast<std::size_t>(sum) : 0;
  }

  /// Logical CPU slot of the calling thread: a worker's own slot, or the
  /// reserved spawner slot for any non-worker thread.
  std::size_t callerCpu() const;

  /// Lifetime failure counters (they survive taskwait/reset), for
  /// conservation audits: executed + tasksFailed() + tasksSkipped() ==
  /// spawned, across every batch this Runtime ever ran.  Summed over the
  /// per-slot stripes; exact at quiescence.
  std::uint64_t tasksFailed() const { return sumSlots(&SlotCounters::failed); }
  std::uint64_t tasksSkipped() const {
    return sumSlots(&SlotCounters::skipped);
  }

  /// Monotonic count of retired tasks (completed, failed, or skipped) —
  /// the watchdog's progress probe, public so tests can assert on it.
  /// Summed over the per-slot stripes; exact at quiescence.  Acquire
  /// loads: tasksInFlight() builds its quiescence check on this read.
  std::uint64_t tasksRetired() const {
    return sumSlots(&SlotCounters::retired, std::memory_order_acquire);
  }

  /// Lifetime count of immediate successors: tasks a thread ran straight
  /// after the completion that readied them, never entering the
  /// scheduler.  Summed over the per-slot stripes; exact at quiescence.
  std::uint64_t tasksKept() const { return sumSlots(&SlotCounters::kept); }

 private:
  /// The one body thunk: `arg` points at the installed closure.
  template <typename F>
  static void invokeClosure(void* closure) {
    (*static_cast<F*>(closure))();
  }

  template <typename Fn>
  void installClosure(Task* task, Fn&& fn) {
    using F = std::decay_t<Fn>;
    if constexpr (sizeof(F) <= Task::kInlineClosureBytes &&
                  alignof(F) <= alignof(std::max_align_t)) {
      task->arg = ::new (static_cast<void*>(task->closureBuf))
          F(std::forward<Fn>(fn));
      task->closureDestroy = [](Task& t) { static_cast<F*>(t.arg)->~F(); };
    } else {
      // A capture too big for the inline buffer goes to the heap; C++17
      // aligned new covers over-aligned captures too.  No app spills.
      ATS_FAILPOINT(closure_spill);
      task->arg = new F(std::forward<Fn>(fn));
      task->closureDestroy = [](Task& t) { delete static_cast<F*>(t.arg); };
    }
    task->body = &invokeClosure<F>;
  }

  Task* allocateTask();
  void registerAndSubmit(Task* task, std::span<const Access> accesses);
  void workerLoop(std::size_t cpu);
  /// The one place a task's body runs, whether dequeued or kept: skip
  /// check against the graph's cancellation token, TaskStart/End|Failed
  /// tracing, the catch frame that turns a throwing body into a poisoned
  /// graph, and the unconditional complete() that keeps conservation
  /// true on every path (run, fail, skip).  Returns complete()'s kept
  /// successor, which the caller executes next.
  Task* executeTask(Task* task, std::size_t cpu);
  void drainAndHelp();
  /// Retire `task` and release its dependencies.  With
  /// `immediateSuccessor` on, returns the last successor the release
  /// readied (nullptr when none) for the calling thread to run next;
  /// with it off, every successor goes to the scheduler and this returns
  /// nullptr.
  Task* complete(Task* task);
  void quiesce();
  /// Spawned minus retired, summed over the stripes in the order the
  /// quiescence argument needs (see SlotCounters): never a false zero.
  std::uint64_t tasksInFlight() const;
  /// The stall watchdog, on its own thread when `watchdogTimeoutMs` is
  /// set: with tasks in flight and none retired for the timeout, print
  /// watchdogReport() and die through ats::fatal.
  void watchdogLoop(std::stop_token stop);
  std::string watchdogReport() const;

  static void reclaimThunk(DepTask& task);
  static void readyThunk(void* ctx, DepTask* task, std::size_t cpu);

  /// The runtime's per-task bookkeeping, striped per CPU slot: live
  /// descriptors (allocated minus reclaimed), tasks spawned, tasks
  /// retired, successors kept (run next by the slot's thread instead of
  /// going through the scheduler), and tasks failed and skipped (bumped
  /// by the executing thread before complete(), so the `retired` release
  /// store publishes them too).  Each slot has a single writing
  /// thread — workers their own, every non-worker the spawner slot — so
  /// every bump is a plain load+store on a line no other writer touches,
  /// instead of a shared-line RMW per spawn and per completion.
  ///
  /// Quiescence is read from the stripes: tasksInFlight() loads every
  /// `retired` with acquire, THEN every `spawned`, and taskwait stops
  /// when the sums agree.  That cannot be a false zero:
  ///   * a task counted as retired was counted as spawned first, and its
  ///     spawn bump happens-before its retire store (same thread, or the
  ///     deps/scheduler release-acquire hand-off to the executing
  ///     worker), so the later `spawned` reads include it — the spawned
  ///     sum is never below the retired sum;
  ///   * an unfinished task spawned by the spawner is in the spawned sum
  ///     (the reader IS the spawner);
  ///   * an unfinished child of a FINISHED parent is in it too: the
  ///     child's spawn precedes the parent's retire store, which the
  ///     acquire read observed;
  ///   * an unfinished child of an unfinished parent recurses up its
  ///     ancestry to one of the two cases above, and that unfinished
  ///     ancestor keeps the sums apart.
  /// `retired` is stored with release so the acquire read also
  /// publishes every body's side effects (and its descriptor drop) to
  /// the taskwait'er.
  struct alignas(64) SlotCounters {
    std::atomic<std::int64_t> descriptors{0};
    std::atomic<std::int64_t> spawned{0};
    std::atomic<std::int64_t> retired{0};
    std::atomic<std::int64_t> kept{0};
    std::atomic<std::int64_t> failed{0};
    std::atomic<std::int64_t> skipped{0};
  };
  static_assert(sizeof(SlotCounters) == 64, "one line per slot");

  /// Single-writer add on one of the calling thread's own counters.
  static void bumpOwned(std::atomic<std::int64_t>& counter, std::int64_t by,
                        std::memory_order order = std::memory_order_relaxed) {
    counter.store(counter.load(std::memory_order_relaxed) + by, order);
  }

  SlotCounters& callerSlot() { return slots_[callerCpu()]; }

  /// One counter summed over every slot's stripe, modulo 2^64 (a
  /// `descriptors` stripe goes negative when another slot reclaims).
  std::uint64_t sumSlots(
      std::atomic<std::int64_t> SlotCounters::*counter,
      std::memory_order order = std::memory_order_relaxed) const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i <= config_.topo.numCpus; ++i)
      sum += static_cast<std::uint64_t>((slots_[i].*counter).load(order));
    return sum;
  }

  RuntimeConfig config_;
  std::size_t spawnerCpu_;
  Allocator* alloc_;
  std::unique_ptr<DependencySystem> deps_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<SlotCounters[]> slots_;

  // Read-mostly flags on lines of their own: every idle worker poll
  // loads stop_, every dequeued task loads the cancellation token.
  alignas(64) std::atomic<bool> stop_{false};
  alignas(64) GraphStatus graph_;
  std::vector<std::thread> workers_;
  std::jthread watchdog_;  // stopped first: see ~Runtime
};

}  // namespace ats
