#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/failpoint.hpp"
#include "deps/access.hpp"
#include "deps/dep_task.hpp"

namespace ats {

/// Which dependency subsystem the runtime uses (§2).  Declared here (not
/// in runtime_config.hpp) so the deps layer can key its factory off it;
/// the runtime layer re-exports it by including this header.
enum class DepsKind {
  FineGrainedLocks,  ///< the legacy lock-per-object implementation
  WaitFreeAsm,       ///< the paper's wait-free Atomic State Machine
};

/// Stable short name per kind (the watchdog report prints it).
constexpr const char* depsKindName(DepsKind kind) {
  switch (kind) {
    case DepsKind::FineGrainedLocks: return "fine_grained_locks";
    case DepsKind::WaitFreeAsm: return "waitfree_asm";
  }
  return "unknown";
}

/// Where tasks go once their last dependency resolves.  `cpu` is the
/// logical CPU slot of the thread on which the resolution happened, so
/// the runtime can route the task into that CPU's add-buffer.
struct ReadySink {
  void (*fn)(void* ctx, DepTask* task, std::size_t cpu) = nullptr;
  void* ctx = nullptr;

  void ready(DepTask* task, std::size_t cpu) const { fn(ctx, task, cpu); }
};

/// The §2 dependency subsystem contract both implementations meet.
///
/// Concurrency model (the OmpSs sibling-task rule the paper's runtime
/// also relies on): registrations for a given object are serialized —
/// sibling tasks are created in program order by their creator thread —
/// while releases run concurrently with everything, from whichever worker
/// finishes a predecessor.  Register/release races on one object are
/// exactly what the wait-free ASM's transitions arbitrate.
class DependencySystem {
 public:
  explicit DependencySystem(ReadySink sink) : sink_(sink) {}
  virtual ~DependencySystem() = default;

  /// Register `task`'s declared accesses and arm its pendingDeps counter.
  /// Calls the ready sink (possibly before returning, possibly from
  /// another thread's release) exactly once, when the last precondition
  /// resolves.  A task must not declare the same object twice.  Throws
  /// only before anything is written (the failpoint, or a lookup inside
  /// registerAccesses), so the caller can reclaim the descriptor.
  void registerTask(DepTask* task, const Access* accesses, std::size_t count,
                    std::size_t cpu) {
    ATS_FAILPOINT(deps_register);
    assert(count <= kMaxAccessesPerTask);
#ifndef NDEBUG
    for (std::size_t i = 0; i < count; ++i)
      for (std::size_t j = i + 1; j < count; ++j)
        assert(accesses[i].object != accesses[j].object &&
               "a task must not declare the same object twice");
#endif
    const Preconditions preconditions =
        registerAccesses(task, accesses, count);
    task->numAccesses = count;
    finishRegistration(task, preconditions, cpu);
  }

  /// Release every access of a completed task, resolving successor
  /// preconditions, and hand the LAST task this release readied back to
  /// the caller (nullptr when it readied none) instead of to the sink;
  /// every earlier one surfaces through the sink with the caller's
  /// `cpu`, in the order it was readied.  This is the immediate-successor
  /// hand-back: the runtime runs the returned task next on the releasing
  /// worker (DESIGN.md, "Immediate successor").  Called exactly once per
  /// task, after its body RAN, FAILED (threw), or was SKIPPED by a
  /// cancellation drain — an implementation must never assume the body
  /// executed or infer anything from its side effects (failure-domain
  /// audit: both implementations only walk access nodes the
  /// REGISTRATION wrote, so released-but-never-run tasks are
  /// indistinguishable from ran ones here, which is exactly what the
  /// skip-don't-run drain relies on).
  virtual DepTask* releaseKeepingLast(DepTask* task, std::size_t cpu) = 0;

  /// releaseKeepingLast, then the kept task to the sink too: every task
  /// the release readies surfaces through the sink, in readied order.
  /// For callers with nowhere to run a kept task (the suite's replay,
  /// micro_spawn, tests, the runtime with the slot off).
  void release(DepTask* task, std::size_t cpu) {
    if (DepTask* last = releaseKeepingLast(task, cpu)) sink_.ready(last, cpu);
  }

  /// Quiescent-state cleanup: forget all chains so task descriptors can
  /// be recycled.  Caller guarantees no task is in flight and no
  /// registration is concurrent (the runtime calls this from taskwait).
  virtual void reset() = 0;

 protected:
  /// What a registerAccesses armed in pendingDeps, creation guard
  /// included, and how many of those preconditions it resolved itself.
  struct Preconditions {
    std::int32_t armed;
    std::int32_t resolved;
  };

  /// Each system's part of registerTask: look every object up, and only
  /// then arm pendingDeps (and any references of its own) and construct
  /// and link one node per access in the task's slots.
  virtual Preconditions registerAccesses(DepTask* task,
                                         const Access* accesses,
                                         std::size_t count) = 0;

  /// One precondition of `task` resolved by a release; on reaching zero
  /// the task becomes the release's `kept` one, and the task kept before
  /// it goes to the sink (Nanos6's displacement rule: the slot holds the
  /// newest readied task).  pendingDeps counts outstanding
  /// preconditions, one of which is the caller's; observing 1 therefore
  /// means the caller owns the last and nobody else can touch the
  /// counter — skip the RMW.  The acquire syncs with the acq_rel chain
  /// of earlier resolvers, so the readied body still sees every
  /// predecessor's effects.
  void resolveOne(DepTask* task, std::size_t cpu, DepTask*& kept) {
    if (task->pendingDeps.load(std::memory_order_acquire) == 1) {
      task->pendingDeps.store(0, std::memory_order_relaxed);
    } else if (task->pendingDeps.fetch_sub(
                   1, std::memory_order_acq_rel) != 1) {
      return;
    }
    if (kept != nullptr) sink_.ready(kept, cpu);
    kept = task;
  }

 private:
  /// Drop the creation guard plus the preconditions that registration
  /// resolved itself, readying the task if that was everything.  When
  /// registration resolved every precondition, no other thread holds a
  /// reference, so the counter is not touched at all.
  void finishRegistration(DepTask* task, Preconditions preconditions,
                          std::size_t cpu) {
    const std::int32_t drop = 1 + preconditions.resolved;
    if (drop == preconditions.armed) {
      sink_.ready(task, cpu);
    } else if (task->pendingDeps.fetch_sub(
                   drop, std::memory_order_acq_rel) == drop) {
      sink_.ready(task, cpu);
    }
  }

  ReadySink sink_;
};

std::unique_ptr<DependencySystem> makeDependencySystem(DepsKind kind,
                                                       ReadySink sink);

}  // namespace ats
