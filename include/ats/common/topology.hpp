#pragma once

#include <cstddef>

namespace ats {

/// Where a topology's CPU count comes from.  Only the host we run on:
/// every figure sizes itself from it (or from ATS_THREADS).
enum class MachinePreset {
  Host,  ///< whatever std::thread::hardware_concurrency reports
};

/// CPU shape the runtime layers size themselves from: one SPSC
/// add-buffer, one DTLock result slot and one deque per scheduler slot.
struct Topology {
  std::size_t numCpus = 1;

  /// Extra per-thread scheduler slots beyond the real CPUs — the
  /// Runtime reserves one for the spawner.  Kept OUT of numCpus, which
  /// is the worker count: a reserved slot is not a core.
  std::size_t reservedSlots = 0;

  /// Per-thread structure count schedulers size from (SPSC buffers,
  /// DTLock result slots): every worker plus every reserved slot.
  std::size_t slotCount() const { return numCpus + reservedSlots; }
};

/// Build a topology of `numCpus` CPUs; `numCpus == 0` takes the host's
/// hardware concurrency (at least 1).
Topology makeTopology(MachinePreset preset, std::size_t numCpus = 0);

/// Pin the calling thread to host CPU `cpu` modulo the hardware
/// concurrency.  Best effort: a refused affinity (cpuset restrictions,
/// non-Linux) leaves the thread where it is, since pinning is a
/// performance hint, never a correctness requirement.
void pinCallingThread(std::size_t cpu);

}  // namespace ats
