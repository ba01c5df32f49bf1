// The per-task cost ledger: a workload's task stream replayed in one
// thread through the public API of each layer, timing every call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/runtime_config.hpp"
#include "workloads.hpp"

namespace suite {

/// Raw per-call durations (ns, timer floor included) of one replay.
struct ReplaySamples {
  std::vector<std::uint32_t> alloc, registration, add, get, release, free;
  std::uint64_t readyAtRegister = 0;  ///< tasks the sink readied in-call
  std::uint64_t registered = 0;
};

/// Replays `stream` `passes` times: allocate -> placement Task -> deps
/// register -> scheduler add (as tasks become ready) -> scheduler get ->
/// release + dropRef -> deallocate.  Up to `window` tasks stay registered
/// but unreleased, so registrations meet pending predecessors the way
/// they do under a live runtime.  Must run on the spawner CPU.
ReplaySamples replayLayers(const ats::RuntimeConfig& config,
                           const ReplayStream& stream, std::size_t passes,
                           std::size_t window);

/// Median cost of two back-to-back nowNanos() reads.
double timerFloorNs();

}  // namespace suite
