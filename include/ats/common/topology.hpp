#pragma once

#include <cstddef>

namespace ats {

/// The machines of the paper's evaluation (§6.1) plus the host we happen
/// to run on.  Presets fix the CPU count so figure output is comparable
/// across hosts; `Host` adapts to the current machine.
enum class MachinePreset {
  Host,      ///< whatever std::thread::hardware_concurrency reports
  Xeon,      ///< 2x Intel Xeon Platinum 8160 (24c each)
  Rome,      ///< 2x AMD EPYC 7742 (64c each)
  Graviton,  ///< AWS Graviton2, 64 cores
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

/// Build a topology for `preset`.  `numCpus == 0` keeps the preset's
/// native core count; any other value overrides it (the ATS_THREADS
/// knob).
Topology makeTopology(MachinePreset preset, std::size_t numCpus = 0);

/// Lower-case preset tag used in figure headers ("host", "xeon", ...).
const char* presetName(MachinePreset preset);

}  // namespace ats
