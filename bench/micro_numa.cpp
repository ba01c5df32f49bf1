// The NUMA-locality hot-path claims, measured at the two layers the
// domain sharding touches:
//
//  * AddBufferSet drain: a flat everything-pass over 128+1 Rome rings
//    vs a drainDomain pass over the 16 rings that actually hold work —
//    the cache-line-touch reduction the shards exist for
//  * pool depot churn with every thread on one shared shard vs each
//    thread bound to its own domain shard — the depot-lock contention
//    curve from 1 to 8 threads
//
// The drain pair is single-threaded and keeps its shape on any host;
// the depot pair needs real cores for its contention curve (see
// EXPERIMENTS.md "micro_numa").
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "memory/pool_allocator.hpp"
#include "runtime/task.hpp"
#include "sched/add_buffer_set.hpp"
#include "sched/policies.hpp"

namespace {

using namespace ats;

// ------------------------------------------------ add-buffer drain pair
//
// Producers live on domain 0 only (the batched serve's common case: a
// waiter group's whole domain published work, the other 7 domains'
// rings are empty).  The flat drain still walks all 129 Rome slots;
// drainDomain walks the 16 (+ the folded spawner slot) that can hold
// anything.

constexpr std::size_t kDrainFill = 256;

void drainPair(benchmark::State& state, bool sharded) {
  const Topology topo = makeTopology(MachinePreset::Rome);  // 128c / 8d
  AddBufferSet buffers(topo, 64);
  FifoPolicy sink;
  std::vector<Task> pool(kDrainFill);
  Task* out = nullptr;
  for (auto _ : state) {
    state.PauseTiming();
    // Spread the refill across domain 0's rings (16 producers' worth).
    for (std::size_t i = 0; i < kDrainFill; ++i) {
      benchmark::DoNotOptimize(
          buffers.tryPush(&pool[i], i % topo.cpusPerDomain()));
    }
    state.ResumeTiming();
    const std::size_t drained = sharded ? buffers.drainDomain(sink, 0)
                                        : buffers.drainInto(sink);
    benchmark::DoNotOptimize(drained);
    state.PauseTiming();
    while ((out = sink.getTask(0)) != nullptr) benchmark::DoNotOptimize(out);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDrainFill));
}

void BM_AddBufferDrainFlat(benchmark::State& state) {
  drainPair(state, /*sharded=*/false);
}
BENCHMARK(BM_AddBufferDrainFlat);

void BM_AddBufferDrainOwnDomain(benchmark::State& state) {
  drainPair(state, /*sharded=*/true);
}
BENCHMARK(BM_AddBufferDrainOwnDomain);

// ------------------------------------------------- depot contention pair
//
// Each thread churns enough live blocks to overflow its magazine every
// round, so every round takes the depot lock.  Shared: everyone on
// shard 0 (the pre-shard world).  Per-domain: thread i on shard i — the
// locks never meet.  A class no other bench traffic uses keeps the
// depots ours.

constexpr std::size_t kDepotClassSize = 3000;

void depotChurn(benchmark::State& state, bool perDomainShards) {
  PoolAllocator& pool = PoolAllocator::instance();
  pool.setThreadDomain(
      perDomainShards ? static_cast<std::size_t>(state.thread_index()) : 0);
  constexpr std::size_t kLive = PoolAllocator::kMagazineCapacity + 8;
  std::vector<void*> live(kLive);
  for (auto _ : state) {
    for (void*& p : live) p = pool.allocate(kDepotClassSize);
    for (void* p : live) pool.deallocate(p, kDepotClassSize);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLive));
}

void BM_DepotChurnSharedShard(benchmark::State& state) {
  depotChurn(state, /*perDomainShards=*/false);
}
BENCHMARK(BM_DepotChurnSharedShard)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

void BM_DepotChurnPerDomainShard(benchmark::State& state) {
  depotChurn(state, /*perDomainShards=*/true);
}
BENCHMARK(BM_DepotChurnPerDomainShard)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
