// Ablation sweeps for the design choices DESIGN.md calls out beyond the
// paper's three headline optimizations:
//
//  * SPSC add-buffer capacity (paper Listing 5 hardcodes 100; we default
//    to 256 — how sensitive is throughput to it, including the overflow
//    help-drain path at tiny capacities?)
//  * the scheduler design itself on identical deps/alloc
//
// Each configuration runs the same fine-grained chain workload through
// the full runtime; items/sec = tasks executed per second.
#include <benchmark/benchmark.h>

#include "runtime/runtime.hpp"

namespace {

using namespace ats;

constexpr std::size_t kThreads = 4;
constexpr int kBatch = 2000;

void runWorkload(benchmark::State& state, const RuntimeConfig& cfg) {
  Runtime rt(cfg);
  long long vars[32] = {};
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      long long& v = vars[i % 32];
      rt.spawn({inout(v)}, [&v] { ++v; });
    }
    rt.taskwait();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_SpscCapacity(benchmark::State& state) {
  RuntimeConfig cfg = optimizedConfig(makeTopology(MachinePreset::Host,
                                                   kThreads));
  cfg.spscCapacity = static_cast<std::size_t>(state.range(0));
  runWorkload(state, cfg);
}
BENCHMARK(BM_SpscCapacity)
    ->Arg(4)->Arg(32)->Arg(100)->Arg(256)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_SchedulerKind(benchmark::State& state) {
  // The scheduler architectures on identical deps/alloc.  WorkStealing
  // is the real per-deque Chase–Lev design as of PR 6 (micro_steal digs
  // into its internals); the old "Hierarchical" (§7) spelling named a
  // design this repo never grew and is dropped from the sweep.
  RuntimeConfig cfg = optimizedConfig(makeTopology(MachinePreset::Host,
                                                   kThreads));
  cfg.scheduler = static_cast<SchedulerKind>(state.range(0));
  runWorkload(state, cfg);
}
BENCHMARK(BM_SchedulerKind)
    ->Arg(int(SchedulerKind::SyncDelegation))
    ->Arg(int(SchedulerKind::PTLockCentral))
    ->Arg(int(SchedulerKind::WorkStealing))
    ->Arg(int(SchedulerKind::CentralMutex))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
