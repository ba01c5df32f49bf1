#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common/topology.hpp"
#include "runtime/runtime_config.hpp"

namespace ats::bench {

/// One runtime variant (a curve in a paper figure).
struct Variant {
  std::string label;
  RuntimeConfig (*make)(const Topology&);
};

/// The four ablation curves of Figures 4-6, plus `wo_immediate_successor`
/// (the optimized runtime without Nanos6's immediate-successor slot).
const std::vector<Variant>& ablationVariants();

/// The runtime-comparison curves of Figures 7-9.  "nanos6" is the fully
/// optimized runtime; "gcc-like" and "llvm-like" are the architectural
/// stand-ins for GOMP and the LLVM-family runtimes (the paper notes
/// Intel's and AMD AOCC's runtimes are LLVM-based, and measures AOCC
/// tying LLVM): a central-mutex scheduler and the real Chase–Lev
/// work-stealing scheduler respectively.
const std::vector<Variant>& runtimeComparisonVariants();

/// Worker threads of every figure harness: ATS_THREADS when set,
/// otherwise one fewer than the host's CPUs (at least 1), so the thread
/// that spawns and waits keeps a core of its own.
std::size_t figureWorkers();

/// Pin the calling thread, the one that spawns and waits, to the last
/// allowed CPU when figureWorkers() leaves one free: the Runtime pins
/// worker i to CPU i, so the spawner then has a core no worker runs on,
/// as in ats_suite.  Call it before the first Runtime is built.  Returns
/// "spawner on CPU n", or "spawner unpinned", for the harness header.
std::string pinSpawner();

/// Sweep parameters resolved from the environment:
///   ATS_THREADS  worker threads   (see figureWorkers)
///   ATS_FULL     paper-sized problems and full grids (default: quick)
///   ATS_REPS     repetitions      (default: 2 quick / 5 full)
struct SweepConfig {
  Topology topo;
  std::size_t reps = 2;
  AppScale scale = AppScale::Quick;
  std::size_t maxPoints = 5;  ///< granularity points per curve (quick cap)
};

SweepConfig resolveSweepConfig();

/// Run one paper figure over all eight apps: for each app, sweep block
/// sizes on every variant, compute the paper's efficiency metric
/// (percent of the peak performance observed across the app's whole
/// grid), and print one table per app.  Each cell is the median over the
/// reps, with the IQR in efficiency points after it; the peak is the
/// highest cell median:
///
///   # fig_ablation lulesh
///   grain_work_units  optimized     wo_jemalloc  ...
///   2.1e6             100.0 (1.2)   97.3 (3.0)   ...
///   ...
///
/// Every run is verified against the app's serial reference; a
/// verification failure aborts the figure (a benchmark that computes the
/// wrong answer measures nothing).
void runFigure(const std::string& figure, const std::vector<Variant>& variants);

}  // namespace ats::bench
