// The work-stealing scheduler's §3-style claims, measured at its three
// levels:
//
//  * ChaseLevDeque owner fast path: push+pop with no thief anywhere —
//    the no-shared-RMW cost the design exists for (compare
//    BM_SpscPushPop / BM_MutexDequePushPop in micro_spsc)
//  * steal throughput while 1..8 thieves gang up on one victim deque —
//    the CAS-contention profile of the top end
//  * the full runtime on an independent-tasks shape, WorkStealing vs
//    SyncDelegation: the workload with no dependency chain is where
//    decentralized deques should at least match central delegation
//
// All numbers compress toward noise on a 1-core host (see
// EXPERIMENTS.md "micro_steal"); the shapes are still CI-smokable.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "containers/chase_lev_deque.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace ats;

constexpr std::size_t kThreads = 4;
constexpr int kBatch = 2000;

// Owner-only push+pop round trip: one relaxed slot store + one release
// store (push), one bottom store + one fence + one top load (pop).  No
// RMW on this path — regressions here mean the fast path picked one up.
void BM_ChaseLevPushPop(benchmark::State& state) {
  ChaseLevDeque<std::uint64_t> deque(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    deque.push(1);
    deque.pop(v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChaseLevPushPop);

// Owner push + batch of pops, LIFO depth-first order: amortizes the
// per-op fence differently than strict alternation.
void BM_ChaseLevPushPopBatch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  ChaseLevDeque<std::uint64_t> deque(2 * batch);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) deque.push(i);
    std::uint64_t v = 0;
    while (deque.pop(v)) sink += v;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ChaseLevPushPopBatch)->Arg(8)->Arg(64)->Arg(512);

// One owner refilling its deque while thread_index != 0 thieves steal:
// stolen items/sec as the thief count grows is the top-CAS contention
// curve.  Every thread runs the same iteration count, so the owner
// pushes (threads-1) elements per iteration and each thief steals one —
// supply equals demand and every variant terminates with the deque
// empty.  (Static for the same cross-variant reuse reason as
// BM_SpscCrossThread; ownership migrates to each variant's thread 0
// through google-benchmark's join barrier.)
void BM_ChaseLevStealThroughput(benchmark::State& state) {
  static ChaseLevDeque<std::uint64_t> deque(4096);
  const int thieves = state.threads() - 1;
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      for (int i = 0; i < thieves; ++i) deque.push(1);
      // Keep the deque shallow so thieves continuously hit the
      // few-element contention window, not a deep backlog.
      while (deque.sizeApprox() > 64) std::this_thread::yield();
    } else {
      std::uint64_t v = 0;
      while (deque.steal(v) !=
             ChaseLevDeque<std::uint64_t>::StealResult::Success) {
        if (deque.emptyApprox()) std::this_thread::yield();
      }
      benchmark::DoNotOptimize(v);
    }
  }
  // Count each crossed element once (on the owner's row).
  state.SetItemsProcessed(
      state.thread_index() == 0
          ? state.iterations() * static_cast<std::size_t>(thieves)
          : 0);
}
// Threads(n) = 1 owner + (n-1) thieves.
BENCHMARK(BM_ChaseLevStealThroughput)
    ->Threads(2)->Threads(3)->Threads(5)->Threads(9)
    ->UseRealTime();

// Full runtime, independent tasks (no dependency edges): every spawn is
// immediately ready, so throughput measures pure scheduling — the shape
// where per-CPU deques need no serialization at all while the
// delegation design still funnels through the DTLock.
void runIndependentTasks(benchmark::State& state, SchedulerKind kind) {
  RuntimeConfig cfg =
      optimizedConfig(makeTopology(MachinePreset::Host, kThreads));
  cfg.scheduler = kind;
  Runtime rt(cfg);
  std::atomic<std::uint64_t> ran{0};
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      rt.spawn({}, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    rt.taskwait();
  }
  benchmark::DoNotOptimize(ran.load());
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_RuntimeIndependent_WorkSteal(benchmark::State& state) {
  runIndependentTasks(state, SchedulerKind::WorkStealing);
}
BENCHMARK(BM_RuntimeIndependent_WorkSteal)->Unit(benchmark::kMillisecond);

void BM_RuntimeIndependent_SyncDelegation(benchmark::State& state) {
  runIndependentTasks(state, SchedulerKind::SyncDelegation);
}
BENCHMARK(BM_RuntimeIndependent_SyncDelegation)
    ->Unit(benchmark::kMillisecond);

// The spawn-chain shape (inout chain serializes execution): work
// stealing has no batching lever here, so this is its worst case
// against batched delegation — reported for honesty, not victory.
void runChain(benchmark::State& state, SchedulerKind kind) {
  RuntimeConfig cfg =
      optimizedConfig(makeTopology(MachinePreset::Host, kThreads));
  cfg.scheduler = kind;
  Runtime rt(cfg);
  long long chain = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      rt.spawn({inout(chain)}, [&chain] { ++chain; });
    }
    rt.taskwait();
  }
  benchmark::DoNotOptimize(chain);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_RuntimeChain_WorkSteal(benchmark::State& state) {
  runChain(state, SchedulerKind::WorkStealing);
}
BENCHMARK(BM_RuntimeChain_WorkSteal)->Unit(benchmark::kMillisecond);

void BM_RuntimeChain_SyncDelegation(benchmark::State& state) {
  runChain(state, SchedulerKind::SyncDelegation);
}
BENCHMARK(BM_RuntimeChain_SyncDelegation)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
