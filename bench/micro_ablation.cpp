// The scheduler designs on identical deps/alloc: the runtime-level
// comparison behind §3.4's ordering.  Each kind runs the same
// fine-grained inout-chain workload through the full runtime; items/sec
// = tasks executed per second.
#include <benchmark/benchmark.h>

#include "runtime/runtime.hpp"

namespace {

using namespace ats;

constexpr std::size_t kThreads = 4;
constexpr int kBatch = 2000;

void BM_SchedulerKind(benchmark::State& state) {
  // WorkStealing is the real per-deque Chase–Lev design (micro_steal
  // digs into its internals).
  RuntimeConfig cfg = optimizedConfig(makeTopology(MachinePreset::Host,
                                                   kThreads));
  cfg.scheduler = static_cast<SchedulerKind>(state.range(0));
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
BENCHMARK(BM_SchedulerKind)
    ->Arg(int(SchedulerKind::SyncDelegation))
    ->Arg(int(SchedulerKind::PTLockCentral))
    ->Arg(int(SchedulerKind::WorkStealing))
    ->Arg(int(SchedulerKind::CentralMutex))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
