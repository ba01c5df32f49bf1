#pragma once

#include <cstddef>
#include <cstdint>

namespace ats {

/// What happened at a trace point (§5).  Each value names the layer that
/// emits it: Task*/WorkerIdle* come from the runtime's execution loops,
/// Sched* from the scheduler implementations, KernelIrq* from whatever
/// feeds the tracer's kernel stream (the KernelNoiseInjector here; a
/// perf/ftrace bridge on a real deployment).
enum class TraceEvent : std::uint16_t {
  TaskStart = 1,       ///< payload: task descriptor address
  TaskEnd = 2,         ///< payload: task descriptor address
  SchedServe = 3,      ///< lock holder answered delegated waiters; payload: tasks handed off in the batch, each waiter's extras included (a waiter may take up to eight per serve).  Format v5 — v3/v4 packed a local/remote split into it.
  SchedDrain = 4,      ///< add-buffers drained into the ready queue; payload: tasks moved
  SchedLockContended = 5,  ///< an ADD found the central lock busy; payload: CPU
  WorkerIdleBegin = 6,     ///< first empty poll of an idle streak
  WorkerIdleEnd = 7,       ///< a task arrived after an idle streak
  KernelIrqEnter = 8,      ///< payload: displaced CPU
  KernelIrqExit = 9,       ///< payload: displaced CPU
  SchedSteal = 10,         ///< a thief's steal succeeded; payload: victim slot.  Emitted into the THIEF's stream (work_steal scheduler).  Trace format note: a new event value, not a payload redefinition — v2 readers that predate it render "Unknown" but parse the file fine, so no version bump.
  TaskFailed = 11,         ///< a task body threw; payload: the firing failpoint's id, its FailpointId + 1 (0 = a non-injected exception).  Replaces TaskEnd for that task — the busy interval it closes is real execution time.  Format v4; fixed ids since v6.
  TaskSkipped = 12,        ///< a ready task was drained without running (graph poisoned); payload: task descriptor address (the TaskStart correlation key it will never get).  Format v4.
  GraphCancelled = 13,     ///< the graph's cancellation token flipped; payload: 0 = first captured task failure, 1 = caller-initiated cancel().  Emitted once per poisoning, in the poisoning thread's stream.  Format v4.
};

constexpr const char* eventName(TraceEvent event) {
  switch (event) {
    case TraceEvent::TaskStart: return "TaskStart";
    case TraceEvent::TaskEnd: return "TaskEnd";
    case TraceEvent::SchedServe: return "SchedServe";
    case TraceEvent::SchedDrain: return "SchedDrain";
    case TraceEvent::SchedLockContended: return "SchedLockContended";
    case TraceEvent::WorkerIdleBegin: return "WorkerIdleBegin";
    case TraceEvent::WorkerIdleEnd: return "WorkerIdleEnd";
    case TraceEvent::KernelIrqEnter: return "KernelIrqEnter";
    case TraceEvent::KernelIrqExit: return "KernelIrqExit";
    case TraceEvent::SchedSteal: return "SchedSteal";
    case TraceEvent::TaskFailed: return "TaskFailed";
    case TraceEvent::TaskSkipped: return "TaskSkipped";
    case TraceEvent::GraphCancelled: return "GraphCancelled";
  }
  return "Unknown";
}

/// One trace point, 24 bytes fixed — the record size is part of the
/// binary format (TraceWriter), so this layout may only change together
/// with a format version bump.
///
/// `timeNs` dual use: inside a Tracer ring it holds the raw TSC sample
/// the emitter took (`tscNow()`, one register read); `Tracer::collect()`
/// rescales it to nanoseconds since the tracer's construction using the
/// construction/collection calibration pair.  Every consumer (writer,
/// analyzer, timeline) sees only the rescaled form.
struct TraceRecord {
  std::uint64_t timeNs;    ///< ns since trace epoch (raw TSC while in-ring)
  std::uint64_t payload;   ///< event-specific (see TraceEvent)
  TraceEvent event;
  std::uint16_t stream;    ///< emitting stream: CPU slot, spawner, or kernel
  std::uint32_t reserved;  ///< zero; keeps the record 8-byte aligned at 24B
};

static_assert(sizeof(TraceRecord) == 24,
              "TraceRecord is a serialized format; see TraceWriter");

}  // namespace ats
