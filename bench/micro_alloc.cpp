// §4 claim: a thread-caching scalable allocator removes the memory-
// management bottleneck that surfaces once the scheduler and dependency
// contention are gone.  Task-descriptor-sized churn (alloc+free) per
// second, pool vs system, same-thread and cross-thread (producer/consumer)
// patterns, at 1..8 threads.
#include <benchmark/benchmark.h>

#include <thread>

#include "containers/spsc_queue.hpp"
#include "memory/pool_allocator.hpp"
#include "memory/system_allocator.hpp"

namespace {

using namespace ats;

// Typical task descriptor size: Task + a few accesses + a small lambda.
constexpr std::size_t kTaskSize = 256;

void churn(benchmark::State& state, Allocator& alloc) {
  for (auto _ : state) {
    void* p = alloc.allocate(kTaskSize);
    benchmark::DoNotOptimize(p);
    alloc.deallocate(p, kTaskSize);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Alloc_Pool(benchmark::State& state) {
  churn(state, PoolAllocator::instance());
}
void BM_Alloc_System(benchmark::State& state) {
  churn(state, SystemAllocator::instance());
}

// Batched lifetime: allocate a window of objects, then free them — the
// task-churn shape (tasks live until their successors release them).
void windowChurn(benchmark::State& state, Allocator& alloc) {
  constexpr std::size_t kWindow = 128;
  void* live[kWindow] = {};
  std::size_t head = 0;
  for (auto _ : state) {
    if (live[head] != nullptr) alloc.deallocate(live[head], kTaskSize);
    live[head] = alloc.allocate(kTaskSize);
    head = (head + 1) % kWindow;
  }
  for (void* p : live)
    if (p != nullptr) alloc.deallocate(p, kTaskSize);
  state.SetItemsProcessed(state.iterations());
}

void BM_AllocWindow_Pool(benchmark::State& state) {
  windowChurn(state, PoolAllocator::instance());
}
void BM_AllocWindow_System(benchmark::State& state) {
  windowChurn(state, SystemAllocator::instance());
}

// Cross-thread free: thread 0 allocates and ships; thread 1 frees — the
// pattern task disposal creates (a successor's releasing thread frees the
// predecessor's descriptor).  The pool stashes each freed block in thread
// 1's own magazine; full magazines flush to the depot's pointer array and
// thread 0's empty ones refill from it, one lock hold per batch.
void crossFree(benchmark::State& state, Allocator& alloc) {
  static SpscQueue<void*> pipe(1024);
  if (state.thread_index() == 0) {
    for (auto _ : state) {
      void* p = alloc.allocate(kTaskSize);
      while (!pipe.push(p)) std::this_thread::yield();
    }
  } else {
    for (auto _ : state) {
      void* p = nullptr;
      while (!pipe.pop(p)) std::this_thread::yield();
      alloc.deallocate(p, kTaskSize);
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_AllocCrossThread_Pool(benchmark::State& state) {
  crossFree(state, PoolAllocator::instance());
}
void BM_AllocCrossThread_System(benchmark::State& state) {
  crossFree(state, SystemAllocator::instance());
}

}  // namespace

BENCHMARK(BM_Alloc_Pool)->ThreadRange(1, 8)->UseRealTime();
BENCHMARK(BM_Alloc_System)->ThreadRange(1, 8)->UseRealTime();
BENCHMARK(BM_AllocWindow_Pool)->ThreadRange(1, 4)->UseRealTime();
BENCHMARK(BM_AllocWindow_System)->ThreadRange(1, 4)->UseRealTime();
BENCHMARK(BM_AllocCrossThread_Pool)->Threads(2)->UseRealTime();
BENCHMARK(BM_AllocCrossThread_System)->Threads(2)->UseRealTime();

BENCHMARK_MAIN();
