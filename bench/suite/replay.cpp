#include "replay.hpp"

#include <memory>
#include <new>
#include <stdexcept>

#include "common/timing.hpp"
#include "deps/dependency_system.hpp"
#include "memory/pool_allocator.hpp"
#include "percentile.hpp"
#include "runtime/scheduler_factory.hpp"
#include "runtime/task.hpp"

namespace suite {

namespace {

using ats::DepTask;
using ats::Task;

void collectReady(void* ctx, DepTask* task, std::size_t /*cpu*/) {
  static_cast<std::vector<DepTask*>*>(ctx)->push_back(task);
}

// DepTask::onLastRef carries no context, and the replay is one thread.
thread_local std::vector<Task*>* tlsFreed = nullptr;

void collectFreed(DepTask& task) {
  tlsFreed->push_back(static_cast<Task*>(&task));
}

void noopBody(void* /*arg*/) {}

std::uint32_t since(std::uint64_t t0) {
  return static_cast<std::uint32_t>(ats::nowNanos() - t0);
}

}  // namespace

ReplaySamples replayLayers(const ats::RuntimeConfig& config,
                           const ReplayStream& stream, std::size_t passes,
                           std::size_t window) {
  ats::PoolAllocator& pool = ats::PoolAllocator::instance();
  std::vector<DepTask*> ready;
  std::vector<Task*> freed;
  tlsFreed = &freed;

  std::unique_ptr<ats::DependencySystem> deps = ats::makeDependencySystem(
      config.deps, ats::ReadySink{&collectReady, &ready});
  // Same slot layout as the Runtime's: workers plus the spawner's slot.
  ats::RuntimeConfig schedConfig = config;
  schedConfig.topo.reservedSlots += 1;
  std::unique_ptr<ats::Scheduler> sched = ats::makeScheduler(schedConfig);
  const std::size_t cpu = config.topo.numCpus;

  ReplaySamples s;
  const std::size_t total = passes * stream.tasks;
  for (auto* v : {&s.alloc, &s.registration, &s.add, &s.get, &s.release,
                  &s.free})
    v->reserve(total + total / 4);

  std::uint64_t t0 = 0;
  auto submitReady = [&] {
    for (DepTask* task : ready) {
      t0 = ats::nowNanos();
      sched->addReadyTask(static_cast<Task*>(task), cpu);
      s.add.push_back(since(t0));
    }
    ready.clear();
  };
  auto reclaim = [&] {
    for (Task* task : freed) {
      task->~Task();
      t0 = ats::nowNanos();
      pool.deallocate(task, sizeof(Task));
      s.free.push_back(since(t0));
    }
    freed.clear();
  };
  auto retireOne = [&] {
    t0 = ats::nowNanos();
    Task* task = sched->getReadyTask(cpu);
    s.get.push_back(since(t0));
    // The oldest unreleased task has every predecessor released, so a
    // non-empty window always holds a ready task.
    if (task == nullptr)
      throw std::logic_error("replay: scheduler empty with tasks pending");
    t0 = ats::nowNanos();
    deps->release(task, cpu);
    task->dropRef();
    s.release.push_back(since(t0));
    submitReady();
    reclaim();
  };

  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::size_t pending = 0;
    for (std::size_t i = 0; i < stream.tasks; ++i) {
      t0 = ats::nowNanos();
      void* mem = pool.allocate(sizeof(Task));
      s.alloc.push_back(since(t0));
      Task* task = ::new (mem) Task;
      task->body = &noopBody;
      task->refCount.store(1, std::memory_order_relaxed);
      task->onLastRef = &collectFreed;

      const ats::Access* accesses =
          stream.perTask != 0 ? &stream.accesses[i * stream.perTask] : nullptr;
      t0 = ats::nowNanos();
      deps->registerTask(task, accesses, stream.perTask, cpu);
      s.registration.push_back(since(t0));
      ++s.registered;
      if (!ready.empty()) ++s.readyAtRegister;
      submitReady();
      reclaim();

      if (++pending > window) {
        retireOne();
        --pending;
      }
    }
    for (; pending > 0; --pending) retireOne();
    deps->reset();  // drops the chains' last-write references
    reclaim();
  }
  tlsFreed = nullptr;
  return s;
}

double timerFloorNs() {
  std::vector<std::uint32_t> samples(100000);
  for (std::uint32_t& sample : samples) {
    const std::uint64_t t0 = ats::nowNanos();
    sample = since(t0);
  }
  return median(std::move(samples));
}

}  // namespace suite
