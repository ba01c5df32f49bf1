// The four closed-loop workloads of ats_suite.  A batch spawns its whole
// graph from the calling (spawner) thread and then taskwaits; the suite
// times batches from outside and checks conservation around them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "deps/access.hpp"
#include "runtime/runtime.hpp"

namespace suite {

/// Per-call spawn timing for the layers run.  One lane per spawning
/// context (lane 0 = the spawner; nested's generators own one lane
/// each), so concurrent generator bodies never share a vector.
struct SpawnLanes {
  std::vector<std::vector<std::uint32_t>> ns;
  std::uint64_t lastSpawnEndNs = 0;    ///< the spawner's last spawn returned
  std::uint64_t taskwaitEndNs = 0;     ///< the batch's taskwait returned
};

/// Optional instrumentation around a batch.  `beforeUnit`/`afterUnit`
/// bracket each parallel region (a whole synthetic batch, or one app
/// run), which is where the traced run resets and collects its tracer.
struct BatchHooks {
  SpawnLanes* spawns = nullptr;
  std::function<void()> beforeUnit;
  std::function<void(std::uint64_t tasks)> afterUnit;
};

struct BatchOutcome {
  std::uint64_t spawned = 0;  ///< tasks the batch spawned (conservation)
  double seconds = 0;         ///< spawn..taskwait wall, or Σ timed app runs
  std::size_t checks = 0;     ///< app verifications attempted
  std::size_t failedChecks = 0;
  /// apps_knee only: (index into kneeAppNames(), seconds) per app run.
  std::vector<std::pair<std::size_t, double>> appRuns;
};

/// The single-thread layer replay's input: `tasks` descriptors with
/// `perTask` accesses each, laid out flat.
struct ReplayStream {
  std::size_t tasks = 0;
  std::size_t perTask = 0;
  std::span<const ats::Access> accesses;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual BatchOutcome run(ats::Runtime& rt, const BatchHooks& hooks) = 0;

  /// False when the spawns happen inside code the suite does not own
  /// (the apps), so spawn timing and the layer replay do not apply.
  virtual bool syntheticSpawns() const { return true; }
  virtual ReplayStream replayStream() const { return {}; }
};

/// Valid names: see workloadNames().  `smoke` shrinks every batch so a
/// whole smoke run of one workload stays well under two seconds.  Builds
/// every input the workload needs (apps: construction and the serial
/// reference), so constructing one is part of the measured set-up.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool smoke);

const std::vector<std::string>& workloadNames();

/// The apps apps_knee runs, in the order `BatchOutcome::appRuns` indexes.
const std::vector<std::string>& kneeAppNames();

}  // namespace suite
