// Prices the failure-domain machinery:
//
//   * BM_FailpointUnarmed: one ATS_FAILPOINT pass with the site never
//     armed — the price every production chokepoint pays forever.  The
//     macro compiles to one relaxed load of the row's armed flag; the
//     acceptance bar is <1ns/check.
//   * BM_FailpointArmedMiss: the same site armed at probability 0 — the
//     full evaluate() slow path (counter bump, RNG draw, threshold
//     compare) without firing.  This is the worst steady-state cost an
//     ATS_FAILPOINTS drill adds to a chokepoint it never trips.
//   * BM_CancelDrainDepth: cancel() latency — how long taskwait()
//     takes to drain an already-built inout chain of depth N once the
//     graph is poisoned.  Skipped tasks still pay dequeue + release,
//     so this scales with depth; the number bounds how long a
//     cancelled graph holds its workers.
//
// The catch frame + skip check + unarmed task_invoke failpoint that
// executeTask wraps every body in has no bench here: every body runs
// through them, so micro_spawn's BM_SpawnRoundTripReused prices them.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <span>

#include "common/failpoint.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace ats;

constexpr int kBatch = 2000;

/// The unarmed fast path: what every planted chokepoint costs when no
/// drill is running.  ClobberMemory keeps the relaxed load inside the
/// loop — without it the compiler may hoist the (legitimately
/// hoistable) load and price zero checks.
void BM_FailpointUnarmed(benchmark::State& state) {
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      ATS_FAILPOINT(closure_spill);
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

/// The armed slow path that never fires: probability 0 forces every
/// pass through evaluate()'s counter + RNG + compare and back.
void BM_FailpointArmedMiss(benchmark::State& state) {
  Failpoint& site = failpoint(FailpointId::closure_spill);
  site.arm(FailpointMode::Throw, /*prob=*/0.0, /*count=*/0);
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      ATS_FAILPOINT(closure_spill);
      benchmark::ClobberMemory();
    }
  }
  site.disarm();
  state.SetItemsProcessed(state.iterations() * kBatch);
}

/// Cancellation drain: build an inout chain of `depth` tasks behind a
/// gate task, poison the graph, open the gate, and time how long
/// taskwait() takes to skip-and-release the whole chain.  Manual time:
/// only the drain is on the clock, not the chain construction.
void BM_CancelDrainDepth(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kThreads = 4;
  RuntimeConfig cfg =
      optimizedConfig(makeTopology(MachinePreset::Host, kThreads));
  Runtime rt(cfg);
  long long var = 0;
  for (auto _ : state) {
    std::atomic<bool> started{false};
    std::atomic<bool> gate{false};
    rt.spawn(std::span<const Access>(), [&] {
      started.store(true, std::memory_order_release);
      while (!gate.load(std::memory_order_acquire)) {
      }
    });
    for (std::size_t i = 0; i < depth; ++i) rt.spawn({inout(var)}, [] {});
    // The gate task must be RUNNING (already dequeued) before cancel():
    // otherwise the skip-at-dequeue check would drop it too and the
    // depth chain might partially execute before the poison lands.
    while (!started.load(std::memory_order_acquire)) {
    }
    rt.cancel();
    gate.store(true, std::memory_order_release);
    const auto begin = std::chrono::steady_clock::now();
    rt.taskwait();
    const auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(end - begin).count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(depth));
}

}  // namespace

BENCHMARK(BM_FailpointUnarmed);
BENCHMARK(BM_FailpointArmedMiss);
BENCHMARK(BM_CancelDrainDepth)
    ->ArgName("depth")
    ->Arg(256)->Arg(1024)->Arg(4096)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
