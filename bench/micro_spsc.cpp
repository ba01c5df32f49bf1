// §3.1 claim: the bounded wait-free SPSC queue is a cheap decoupling
// buffer.  Single-thread round-trip cost, batch drain via consumeN, and
// a comparison against a mutex-guarded deque (serial insertion) on the
// same 1-producer/1-consumer traffic.
#include <benchmark/benchmark.h>

#include <deque>
#include <mutex>
#include <thread>

#include "containers/spsc_queue.hpp"

namespace {

using namespace ats;

void BM_SpscPushPop(benchmark::State& state) {
  SpscQueue<std::uint64_t> q(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    q.push(1);
    q.pop(v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscPushPop);

void BM_SpscConsumeAllBatch(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  SpscQueue<std::uint64_t> q(2 * batch);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) q.push(i);
    q.consumeN(batch, [&](std::uint64_t v) { sink += v; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SpscConsumeAllBatch)->Arg(8)->Arg(64)->Arg(512);

void BM_MutexDequePushPop(benchmark::State& state) {
  std::mutex mu;
  std::deque<std::uint64_t> q;
  std::uint64_t v = 0;
  for (auto _ : state) {
    {
      std::lock_guard<std::mutex> g(mu);
      q.push_back(1);
    }
    {
      std::lock_guard<std::mutex> g(mu);
      v = q.front();
      q.pop_front();
    }
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexDequePushPop);

// Cross-thread stream: producer in thread 0, consumer in thread 1.
void BM_SpscCrossThread(benchmark::State& state) {
  static SpscQueue<std::uint64_t> q(4096);  // shared by both roles
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      while (!q.push(1)) std::this_thread::yield();
    } else {
      std::uint64_t v;
      while (!q.pop(v)) std::this_thread::yield();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscCrossThread)->Threads(2)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
