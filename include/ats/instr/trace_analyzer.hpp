#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "instr/trace_event.hpp"

namespace ats {

/// Per-worker numbers derived from one thread's stream.
struct ThreadTraceStats {
  std::uint64_t tasksExecuted = 0;
  std::uint64_t steals = 0;  ///< SchedSteal events this thread emitted
  double busyUs = 0;  ///< inside TaskStart..TaskEnd
  double idleUs = 0;  ///< inside WorkerIdleBegin..WorkerIdleEnd
  double idlePct = 0;  ///< idleUs / trace span (starvation %)
};

/// What fig10/fig11 quote from a trace: how starved the workers were,
/// how much delegation/drain traffic the scheduler saw, and how serve
/// activity correlates with kernel noise.
struct TraceAnalysis {
  std::vector<ThreadTraceStats> threads;
  double spanUs = 0;          ///< first..last record timestamp
  std::uint64_t recordCount = 0;
  double meanIdlePct = 0;     ///< mean starvation over worker streams

  std::uint64_t serveCount = 0;    ///< SchedServe events (serve bursts)
  std::uint64_t servedTasks = 0;   ///< sum of SchedServe payloads (hand-offs)
  std::uint64_t drainCount = 0;    ///< SchedDrain events
  std::uint64_t drainedTasks = 0;  ///< sum of SchedDrain payloads
  std::uint64_t contendedCount = 0;  ///< SchedLockContended events

  /// Work-stealing traffic: SchedSteal events across ALL streams (the
  /// spawner steals too) and the TaskStart count they are a fraction
  /// of.  stealRatio = stealCount / taskStartCount — how much of the
  /// executed work arrived by theft rather than a local pop.
  std::uint64_t stealCount = 0;
  std::uint64_t taskStartCount = 0;  ///< TaskStart events, all streams
  double stealRatio = 0;

  /// Failure-domain counters (trace format v4).  taskFailedCount are
  /// bodies that threw (their busy interval is closed by TaskFailed,
  /// not TaskEnd); taskSkippedCount are ready tasks drained unrun after
  /// the graph poisoned; graphCancelledCount counts poisonings (>1 when
  /// one Runtime ran several batches through one tracer).  Conservation
  /// under failure reads as: starts == ends + fails, and starts + skips
  /// == spawns.
  std::uint64_t taskFailedCount = 0;
  std::uint64_t taskSkippedCount = 0;
  std::uint64_t graphCancelledCount = 0;

  /// Longest gap between consecutive SchedServe events — the fig11
  /// signal: a displaced lock holder shows up as one huge serve gap.
  double maxServeGapUs = 0;
  /// Longest serve gap that overlaps a KernelIrqEnter..Exit interval.
  double maxServeGapDuringIrqUs = 0;
  std::uint64_t irqCount = 0;
  double irqTotalUs = 0;
};

/// Derive the analysis from a merged record vector (Tracer::collect or
/// TraceWriter::readBinary output; re-sorted internally so hand-built
/// sequences work too).  `numThreads` is the worker-stream count —
/// streams >= numThreads (spawner, kernel) contribute their scheduler
/// and irq events but not to the starvation statistics.
TraceAnalysis analyzeTrace(const std::vector<TraceRecord>& records,
                           std::size_t numThreads);

/// Multi-line human-readable rendering of an analysis.
std::string formatAnalysis(const TraceAnalysis& analysis);

/// Fixed-width ASCII timeline, one row per worker stream plus a kernel
/// row: '#' running a task, '.' idle-spinning, 'I' displaced by a
/// kernel burst, ' ' unknown.  The fig10/fig11 "figure".
std::string renderTimeline(const std::vector<TraceRecord>& records,
                           std::size_t numThreads);

}  // namespace ats
