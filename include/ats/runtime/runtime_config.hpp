#pragma once

#include <cstddef>

#include "common/topology.hpp"
#include "deps/dependency_system.hpp"  // DepsKind lives in the deps layer

namespace ats {

class Tracer;  // instr layer; runtime_config stays header-light

/// Which scheduler design the runtime instantiates (fig_common's curves).
enum class SchedulerKind {
  CentralMutex,    ///< one OS mutex (serial-insertion / GOMP-like base)
  PTLockCentral,   ///< PTLock-protected central queue ("w/o DTLock")
  SyncDelegation,  ///< SPSC add-buffers + DTLock delegation (the paper's)
  WorkStealing,    ///< per-CPU Chase–Lev deques + stealing (LLVM-family)
};

/// Stable short name per kind (bench labels and the watchdog report use
/// it).
constexpr const char* schedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::CentralMutex: return "central_mutex";
    case SchedulerKind::PTLockCentral: return "ptlock_central";
    case SchedulerKind::SyncDelegation: return "sync_dtlock";
    case SchedulerKind::WorkStealing: return "work_steal";
  }
  return "unknown";
}

/// Everything a Runtime needs to construct itself.  The fig benches build
/// these through the factory functions below, one per curve.
struct RuntimeConfig {
  Topology topo;
  SchedulerKind scheduler = SchedulerKind::SyncDelegation;
  DepsKind deps = DepsKind::WaitFreeAsm;

  /// Thread-caching pool allocator for task descriptors (§4's jemalloc
  /// role); false = plain system malloc.
  bool usePoolAllocator = true;

  /// Immediate successor (Nanos6's per-CPU slot): a worker runs the last
  /// task its own completion readied next, in place of handing it to the
  /// scheduler, so a chain step keeps the predecessor's core and cache.
  /// At most one such task per worker; the others the release readies go
  /// to the scheduler as usual.  On in the Nanos6-shaped configs; off in
  /// the GOMP/LLVM stand-ins, whose own designs lack or already provide
  /// that locality (DESIGN.md, "Immediate successor").
  bool immediateSuccessor = false;

  /// Stall watchdog (failure domains): 0 disables; a positive value
  /// starts one watchdog thread in the Runtime.  When tasks are in
  /// flight but none has retired for this many milliseconds, it prints
  /// the runtime's state report to stderr and dies through ats::fatal,
  /// whose hook dumps the attached tracer's rings.  Idle is not a
  /// stall.  Set it to a bound no healthy task should ever exceed; the
  /// false-positive analysis lives in DESIGN.md "Failure domains".
  std::size_t watchdogTimeoutMs = 0;

  /// Instrumentation backend (§5): the per-CPU ring tracer the runtime
  /// and scheduler emit into, or nullptr (the default) for the untraced
  /// fast path — every emission site is null-guarded, so this field
  /// being null costs one predictable branch per site.  Not owned; the
  /// tracer must outlive the Runtime (declare it first) and carry
  /// EXACTLY `topo.numCpus` CPU streams — its constructor adds the
  /// spawner and kernel streams on top, and the Runtime aborts loudly
  /// on a mismatch (misrouted streams would otherwise corrupt the
  /// single-writer rings silently).  micro_instr and fig10/fig11 set it.
  Tracer* tracer = nullptr;
};

/// Fully optimized runtime — every paper technique on ("nanos6" curve).
RuntimeConfig optimizedConfig(const Topology& topo);

/// Ablations of Figures 4-6: one technique off at a time.
RuntimeConfig withoutJemallocConfig(const Topology& topo);
RuntimeConfig withoutWaitFreeDepsConfig(const Topology& topo);
RuntimeConfig withoutDTLockConfig(const Topology& topo);
RuntimeConfig withoutImmediateSuccessorConfig(const Topology& topo);

/// Architectural stand-ins of Figures 7-9.
RuntimeConfig centralMutexRuntimeConfig(const Topology& topo);
RuntimeConfig workStealingRuntimeConfig(const Topology& topo);

}  // namespace ats
