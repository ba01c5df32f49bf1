// §3.4 claim: "In microbenchmarks, we found a fourfold speedup on task
// scheduling using a DTLock compared to a PTLock, and a twelvefold
// speedup compared to serial task insertion thanks to the SPSC queues."
//
// This harness measures end-to-end scheduler throughput (tasks added and
// retrieved per second) for the three designs on the paper's
// single-creator pattern: one producer floods the scheduler with ready
// tasks while the other threads continuously request work.
//
//   serial_mutex  — every add and get under one OS mutex, tasks inserted
//                   serially by the creator (the "serial insertion" base)
//   ptlock        — PTLock-protected central scheduler ("w/o DTLock")
//   dtlock_spsc   — SPSC add-buffers + DTLock delegation with the §8
//                   flat-combining batched serve
//
// On a many-core host the ratios should approach the paper's 4x / 12x;
// on a timeshared single-core host the gaps compress (EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <memory>

#include "common/topology.hpp"
#include "sched/central_mutex_scheduler.hpp"
#include "sched/policies.hpp"
#include "sched/ptlock_scheduler.hpp"
#include "sched/sync_scheduler.hpp"
#include "runtime/task.hpp"

namespace {

using namespace ats;

constexpr std::size_t kConsumers = 3;  // + 1 producer

/// Thread 0 produces; others consume.  items_processed counts retrievals.
void schedulerFlood(benchmark::State& state, Scheduler& sched,
                    std::vector<Task>& pool) {
  const std::size_t self = static_cast<std::size_t>(state.thread_index());
  std::size_t produced = 0;
  std::size_t got = 0;
  for (auto _ : state) {
    if (self == 0) {
      sched.addReadyTask(&pool[produced++ % pool.size()], 0);
    } else {
      if (sched.getReadyTask(self) != nullptr) ++got;
    }
  }
  if (self != 0) {
    state.SetItemsProcessed(static_cast<std::int64_t>(got));
  } else {
    // Drain what consumers did not take so the next repetition starts
    // from an empty scheduler.  A dtlock_spsc consumer's stash (at most
    // seven tasks) is not reachable from here; that consumer's next
    // repetition returns it first.
    while (sched.getReadyTask(0) != nullptr) {
    }
  }
}

Topology benchTopo() {
  return makeTopology(MachinePreset::Host, kConsumers + 1);
}

void BM_Sched_SerialMutex(benchmark::State& state) {
  static CentralMutexScheduler sched(std::make_unique<FifoPolicy>());
  static std::vector<Task> pool(4096);
  schedulerFlood(state, sched, pool);
}

void BM_Sched_PTLock(benchmark::State& state) {
  static PTLockScheduler sched(benchTopo(),
                               std::make_unique<FifoPolicy>());
  static std::vector<Task> pool(4096);
  schedulerFlood(state, sched, pool);
}

void BM_Sched_DTLockSpsc(benchmark::State& state) {
  static SyncScheduler sched(benchTopo(),
                             std::make_unique<FifoPolicy>());
  static std::vector<Task> pool(4096);
  schedulerFlood(state, sched, pool);
}

}  // namespace

BENCHMARK(BM_Sched_SerialMutex)->Threads(kConsumers + 1)->UseRealTime();
BENCHMARK(BM_Sched_PTLock)->Threads(kConsumers + 1)->UseRealTime();
BENCHMARK(BM_Sched_DTLockSpsc)->Threads(kConsumers + 1)->UseRealTime();

BENCHMARK_MAIN();
