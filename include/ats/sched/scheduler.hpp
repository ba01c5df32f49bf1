#pragma once

#include <cstddef>

#include "instr/tracer.hpp"

namespace ats {

struct Task;

/// Slots in each per-CPU SPSC add-buffer, and the initial per-CPU deque
/// capacity under work stealing.  §3.1's Listing 5 hardcodes 100; this
/// is the next power of two up.  On 4 cores every capacity from 32 to
/// 2048 read the same throughput (EXPERIMENTS.md, "micro_ablation"), so
/// it is not a runtime knob; the constructors take it only so tests can
/// force the overflow path with tiny buffers.
inline constexpr std::size_t kPerCpuBufferCapacity = 256;

/// The synchronized scheduler surface the runtime's worker loop talks to.
/// `cpu` is the caller's logical CPU index within the runtime's Topology;
/// implementations use it to select the caller's own SPSC buffer, deque
/// or DTLock slot.
/// `getReadyTask` is non-blocking: nullptr means "nothing ready now".
///
/// Every scheduler optionally carries a §5 Tracer.  The contract for
/// emission sites (kept by all four designs here):
///   * null-guard every emit, so the untraced configuration's hot paths
///     compile to exactly what they were before the instr layer;
///   * emit into the CALLER's stream (`cpu`) only — streams are
///     single-writer;
///   * emit only on bounded-frequency transitions (a successful serve,
///     a non-empty drain, a contended add).  Never on per-poll outcomes:
///     idle workers poll continuously and would saturate their rings
///     with noise the analyzer then mistakes for the whole story.
class Scheduler {
 public:
  explicit Scheduler(Tracer* tracer = nullptr) : tracer_(tracer) {}
  virtual ~Scheduler() = default;

  /// Failure-domain audit (all four kinds): a scheduler only ever moves
  /// opaque Task pointers — it never reads task state that depends on
  /// the body having run, and it never learns whether a task it handed
  /// out executed, failed, or was skipped by a cancellation drain.  The
  /// one obligation the drain adds is already the base contract: every
  /// task accepted by addReadyTask is handed out exactly once (none
  /// dropped, none duplicated), because the runtime's skip path still
  /// needs to dequeue the task to release its dependencies.
  virtual void addReadyTask(Task* task, std::size_t cpu) = 0;
  virtual Task* getReadyTask(std::size_t cpu) = 0;

 protected:
  /// The one way drains are traced, shared by every buffered scheduler
  /// so the event's semantics (caller's stream, payload = tasks moved,
  /// silent when nothing moved) cannot drift per call site.  Feed it
  /// the drain's return value:
  /// `emitDrain(cpu, addBuffers_.drainBurstInto(queue_))`.
  void emitDrain(std::size_t cpu, std::size_t drained) {
    if (tracer_ != nullptr && drained != 0)
      tracer_->emit(cpu, TraceEvent::SchedDrain, drained);
  }

  Tracer* tracer_;  ///< null = untraced (the common case)
};

}  // namespace ats
