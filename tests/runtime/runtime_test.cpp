#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "deps/fine_grained_locks.hpp"
#include "deps/waitfree_asm.hpp"
#include "memory/pool_allocator.hpp"
#include "memory/system_allocator.hpp"
#include "sched/sync_scheduler.hpp"

namespace ats {
namespace {

RuntimeConfig testConfig(DepsKind deps, SchedulerKind sched,
                         std::size_t workers, bool usePool = true) {
  RuntimeConfig config = optimizedConfig(
      makeTopology(MachinePreset::Host, workers));
  config.deps = deps;
  config.scheduler = sched;
  config.usePoolAllocator = usePool;
  return config;
}

std::string kindName(DepsKind kind) {
  return kind == DepsKind::WaitFreeAsm ? "WaitFreeAsm" : "FineGrainedLocks";
}

std::string schedName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::CentralMutex: return "CentralMutex";
    case SchedulerKind::PTLockCentral: return "PTLockCentral";
    case SchedulerKind::SyncDelegation: return "SyncDelegation";
    case SchedulerKind::WorkStealing: return "WorkStealing";
  }
  return "unknown";
}

using Matrix = std::tuple<DepsKind, SchedulerKind, bool>;

/// The full deps x scheduler x allocator matrix under 8 worker threads —
/// the ISSUE's conservation shape, run under the same TSan job as
/// everything else.  The allocator dimension reruns every shape with
/// `usePoolAllocator` on and off, so both §4 paths keep the exactly-once
/// and ordering contracts.
class RuntimeMatrixTest : public ::testing::TestWithParam<Matrix> {};

INSTANTIATE_TEST_SUITE_P(
    Configs, RuntimeMatrixTest,
    ::testing::Combine(::testing::Values(DepsKind::WaitFreeAsm,
                                         DepsKind::FineGrainedLocks),
                       ::testing::Values(SchedulerKind::SyncDelegation,
                                         SchedulerKind::PTLockCentral,
                                         SchedulerKind::CentralMutex,
                                         SchedulerKind::WorkStealing),
                       ::testing::Bool()),
    [](const auto& info) {
      return kindName(std::get<0>(info.param)) + "_" +
             schedName(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_PoolAlloc" : "_SystemAlloc");
    });

TEST_P(RuntimeMatrixTest, SpawnTaskwaitConservesEveryTaskExactlyOnce) {
  constexpr int kTasks = 2000;
  const auto [deps, sched, usePool] = GetParam();
  Runtime rt(testConfig(deps, sched, 8, usePool));

  // Two batches through the same runtime so the second one exercises
  // descriptor recycling and dependency-chain reset.
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<std::atomic<int>> ran(kTasks);
    std::atomic<int> total{0};
    for (int i = 0; i < kTasks; ++i) {
      rt.spawn({}, [&ran, &total, i] {
        ran[static_cast<std::size_t>(i)].fetch_add(
            1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
    rt.taskwait();
    EXPECT_EQ(total.load(), kTasks) << "batch " << batch;
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
          << "task " << i << " in batch " << batch
          << " ran zero or multiple times";
    }
  }
}

TEST_P(RuntimeMatrixTest, InoutChainObservesStrictlyIncreasingValues) {
  constexpr int kLinks = 300;
  const auto [deps, sched, usePool] = GetParam();
  Runtime rt(testConfig(deps, sched, 8, usePool));

  // The counter is deliberately NOT atomic: only a correct inout chain
  // makes these bodies mutually exclusive and ordered, and TSan will
  // flag any overlap the dependency system lets through.
  long long counter = 0;
  std::vector<long long> observed(kLinks, -1);
  for (int i = 0; i < kLinks; ++i) {
    rt.spawn({inout(counter)}, [&counter, &observed, i] {
      observed[static_cast<std::size_t>(i)] = counter;
      ++counter;
    });
  }
  rt.taskwait();

  EXPECT_EQ(counter, kLinks);
  for (int i = 0; i < kLinks; ++i) {
    ASSERT_EQ(observed[static_cast<std::size_t>(i)], i)
        << "chain link " << i << " ran out of order";
  }
}

TEST_P(RuntimeMatrixTest, ReadFanNeverObservesTornWriter) {
  constexpr int kRounds = 40;
  constexpr int kReadersPerRound = 8;
  const auto [deps, sched, usePool] = GetParam();
  Runtime rt(testConfig(deps, sched, 8, usePool));

  // The writer bumps both halves non-atomically; a reader overlapping
  // the writer (or another round's readers overlapping a later writer)
  // sees a != b — and TSan sees a plain-memory race.
  struct Pair {
    long long a = 0;
    long long b = 0;
  } pair;
  std::atomic<int> torn{0};
  std::atomic<int> reads{0};
  for (int round = 0; round < kRounds; ++round) {
    rt.spawn({inout(pair)}, [&pair] {
      ++pair.a;
      ++pair.b;
    });
    for (int r = 0; r < kReadersPerRound; ++r) {
      rt.spawn({in(pair)}, [&pair, &torn, &reads] {
        if (pair.a != pair.b) torn.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  rt.taskwait();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(reads.load(), kRounds * kReadersPerRound);
  EXPECT_EQ(pair.a, kRounds);
  EXPECT_EQ(pair.b, kRounds);
}

TEST_P(RuntimeMatrixTest, TaskBodiesSpawningChildrenAreAllAwaited) {
  // taskwait reads quiescence from per-slot spawned/retired stripes, and
  // its no-false-zero argument rests on this shape: a task spawned from
  // a body is counted before that body's task retires.  An early return
  // would leave some descendant unrun when the checks below look.  Each
  // generator's children also chain through an inout on a per-generator
  // counter, so dependency registration from worker threads is checked
  // for order too.
  constexpr int kBatches = 50;
  constexpr int kGenerators = 8;
  constexpr int kChildren = 12;
  constexpr int kGrandchildEvery = 3;
  constexpr int kGrandchildren = 2;
  constexpr int kPerGenerator =
      1 + kChildren + (kChildren / kGrandchildEvery) * kGrandchildren;
  constexpr int kTotal = kGenerators * kPerGenerator;
  const auto [deps, sched, usePool] = GetParam();
  Runtime rt(testConfig(deps, sched, 8, usePool));

  for (int batch = 0; batch < kBatches; ++batch) {
    // Task index layout per generator: itself, its children, then the
    // grandchildren of every kGrandchildEvery-th child.
    std::vector<std::atomic<int>> ran(kTotal);
    std::vector<long long> chain(kGenerators, 0);
    const std::uint64_t retiredBefore = rt.tasksRetired();
    for (int g = 0; g < kGenerators; ++g) {
      rt.spawn({}, [&rt, &ran, &chain, g] {
        const int base = g * kPerGenerator;
        ran[static_cast<std::size_t>(base)].fetch_add(1);
        for (int c = 0; c < kChildren; ++c) {
          long long& link = chain[static_cast<std::size_t>(g)];
          rt.spawn({inout(link)}, [&rt, &ran, &link, base, c] {
            ran[static_cast<std::size_t>(base + 1 + c)].fetch_add(1);
            ++link;
            if (c % kGrandchildEvery != 0) return;
            const int first = base + 1 + kChildren +
                              (c / kGrandchildEvery) * kGrandchildren;
            for (int k = 0; k < kGrandchildren; ++k) {
              rt.spawn({}, [&ran, index = first + k] {
                ran[static_cast<std::size_t>(index)].fetch_add(1);
              });
            }
          });
        }
      });
    }
    rt.taskwait();

    for (int i = 0; i < kTotal; ++i) {
      ASSERT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
          << "task " << i << " in batch " << batch
          << " ran zero or multiple times before taskwait returned";
    }
    for (int g = 0; g < kGenerators; ++g)
      ASSERT_EQ(chain[static_cast<std::size_t>(g)], kChildren);
    ASSERT_EQ(rt.tasksRetired() - retiredBefore,
              static_cast<std::uint64_t>(kTotal))
        << "batch " << batch;
    ASSERT_EQ(rt.liveDescriptors(), 0u) << "batch " << batch;
  }
}

/// The SyncDelegation scheduler (FIFO ready queue) across worker counts on
/// the optimized WaitFreeAsm runtime: 8 workers (many concurrent
/// delegating getters, so serve batches run deep), 16 (twice as many
/// getters, oversubscribing any small host) and 2 (the spawner is a
/// large share of the traffic).  The batched serve must keep the
/// conservation and ordering laws at every width.
using SchedShape = std::tuple<MachinePreset, std::size_t>;

class SchedMatrixTest : public ::testing::TestWithParam<SchedShape> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedMatrixTest,
    ::testing::Values(SchedShape{MachinePreset::Host, 8},
                      SchedShape{MachinePreset::Host, 16},
                      SchedShape{MachinePreset::Host, 2}),
    [](const auto& info) {
      const std::size_t workers = std::get<1>(info.param);
      return "Host" + (workers == 8 ? "" : std::to_string(workers)) +
             "_Fifo";
    });

RuntimeConfig schedMatrixConfig(const SchedShape& shape) {
  const auto [preset, workers] = shape;
  return optimizedConfig(makeTopology(preset, workers));
}

TEST_P(SchedMatrixTest, SpawnTaskwaitConservesEveryTaskExactlyOnce) {
  constexpr int kTasks = 2000;
  Runtime rt(schedMatrixConfig(GetParam()));

  // Two batches so the second exercises descriptor recycling through the
  // pool depot too.
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<std::atomic<int>> ran(kTasks);
    std::atomic<int> total{0};
    for (int i = 0; i < kTasks; ++i) {
      rt.spawn({}, [&ran, &total, i] {
        ran[static_cast<std::size_t>(i)].fetch_add(
            1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
    rt.taskwait();
    EXPECT_EQ(total.load(), kTasks) << "batch " << batch;
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
          << "task " << i << " in batch " << batch
          << " ran zero or multiple times";
    }
  }
}

TEST_P(SchedMatrixTest, InoutChainStaysStrictlyOrdered) {
  constexpr int kLinks = 300;
  Runtime rt(schedMatrixConfig(GetParam()));

  // Dependency order must survive the batched serve: the chain admits
  // one ready task at a time, and a served waiter must never start a
  // link before its predecessor's release publishes the chain.  TSan
  // would flag overlap if a task were handed out twice.
  long long counter = 0;
  std::vector<long long> observed(kLinks, -1);
  for (int i = 0; i < kLinks; ++i) {
    rt.spawn({inout(counter)}, [&counter, &observed, i] {
      observed[static_cast<std::size_t>(i)] = counter;
      ++counter;
    });
  }
  rt.taskwait();

  EXPECT_EQ(counter, kLinks);
  for (int i = 0; i < kLinks; ++i) {
    ASSERT_EQ(observed[static_cast<std::size_t>(i)], i)
        << "chain link " << i << " ran out of order";
  }
}

/// Non-matrix runtime behaviors, default (optimized) configuration.
TEST(RuntimeTest, LargeClosureSpillsToHeapAndStillRuns) {
  Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 2)));
  std::array<long long, 32> payload{};  // 256 bytes: > inline capacity
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<long long>(i);
  static_assert(sizeof(payload) > Task::kInlineClosureBytes);

  long long sum = 0;
  rt.spawn({out(sum)}, [payload, &sum] {
    for (long long v : payload) sum += v;
  });
  rt.taskwait();
  EXPECT_EQ(sum, 31 * 32 / 2);
}

TEST(RuntimeTest, TaskwaitWithNothingSpawnedIsANoOp) {
  Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 2)));
  rt.taskwait();
  rt.taskwait();
}

TEST(RuntimeTest, MixedObjectsRespectCrossObjectJoin) {
  Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 4)));
  long long x = 0, y = 0, joined = -1;
  rt.spawn({out(x)}, [&x] { x = 21; });
  rt.spawn({out(y)}, [&y] { y = 21; });
  rt.spawn({in(x), in(y), out(joined)},
           [&x, &y, &joined] { joined = x + y; });
  rt.taskwait();
  EXPECT_EQ(joined, 42);
}

/// §4 eager reclamation: a spawn-heavy dependency chain with NO taskwait
/// must keep live descriptor memory bounded by the in-flight window —
/// completed descriptors go back to the allocator as soon as the chains
/// can no longer reach them, not at the next quiescent point.  Run for
/// both allocator settings (the refcount protocol is allocator-agnostic).
class EagerReclamationTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Allocators, EagerReclamationTest,
                         ::testing::Bool(), [](const auto& info) {
                           return info.param ? std::string("PoolAlloc")
                                             : std::string("SystemAlloc");
                         });

TEST_P(EagerReclamationTest, NoTaskwaitChainKeepsDescriptorsBounded) {
  constexpr int kWaves = 25;
  constexpr int kTasksPerWave = 400;
  // Post-wave settle target: the final write of the chain stays pinned
  // by the deps layer's lastWrite reference, and a straggler can still
  // be inside its completion path — anything beyond a handful means
  // completed descriptors are accumulating like the old slab did.
  constexpr std::size_t kSettledBound = 4;

  Runtime rt(testConfig(DepsKind::WaitFreeAsm,
                        SchedulerKind::SyncDelegation, 4, GetParam()));
  long long x = 0;
  std::atomic<int> done{0};
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int i = 0; i < kTasksPerWave; ++i) {
      rt.spawn({inout(x)}, [&x, &done] {
        ++x;
        done.fetch_add(1, std::memory_order_release);
      });
    }
    // Wait for the wave to finish WITHOUT a taskwait, then for the
    // reclamation drops (which trail the done counter) to settle.
    const int target = (wave + 1) * kTasksPerWave;
    while (done.load(std::memory_order_acquire) < target)
      std::this_thread::yield();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (rt.liveDescriptors() > kSettledBound &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    ASSERT_LE(rt.liveDescriptors(), kSettledBound)
        << "wave " << wave << ": completed descriptors are not being "
        << "reclaimed eagerly";
  }

  rt.taskwait();
  EXPECT_EQ(x, kWaves * kTasksPerWave);
  EXPECT_EQ(rt.liveDescriptors(), 0u)
      << "taskwait quiescence left descriptors live";
}

/// Both allocator settings must produce a working runtime that runs on
/// the allocator the knob selects.
TEST(RuntimeConfigTest, BothAllocatorSettingsProduceAWorkingRuntime) {
  for (const bool usePool : {true, false}) {
    RuntimeConfig config =
        optimizedConfig(makeTopology(MachinePreset::Host, 2));
    config.usePoolAllocator = usePool;
    Runtime rt(config);
    if (usePool) {
      EXPECT_NE(dynamic_cast<PoolAllocator*>(&rt.allocator()), nullptr);
    } else {
      EXPECT_NE(dynamic_cast<SystemAllocator*>(&rt.allocator()), nullptr);
    }
    std::atomic<int> hits{0};
    for (int i = 0; i < 200; ++i) {
      rt.spawn({}, [&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
    }
    rt.taskwait();
    EXPECT_EQ(hits.load(), 200);
  }
}

/// The slot belongs to the Nanos6-shaped configs (the optimized runtime
/// and its ablations, bar the one that removes it); the GOMP and LLVM
/// stand-ins keep their own designs' locality.
TEST(RuntimeConfigTest, ImmediateSuccessorIsOnInTheNanos6ShapesOnly) {
  const Topology topo = makeTopology(MachinePreset::Host, 2);
  EXPECT_FALSE(RuntimeConfig{}.immediateSuccessor);
  EXPECT_TRUE(optimizedConfig(topo).immediateSuccessor);
  EXPECT_TRUE(withoutJemallocConfig(topo).immediateSuccessor);
  EXPECT_TRUE(withoutWaitFreeDepsConfig(topo).immediateSuccessor);
  EXPECT_TRUE(withoutDTLockConfig(topo).immediateSuccessor);
  EXPECT_FALSE(withoutImmediateSuccessorConfig(topo).immediateSuccessor);
  EXPECT_FALSE(centralMutexRuntimeConfig(topo).immediateSuccessor);
  EXPECT_FALSE(workStealingRuntimeConfig(topo).immediateSuccessor);
}

/// An inout chain whose head spins until the spawner has registered
/// every link behind it, so each link's release readies exactly one
/// task: the next link.
struct GatedChain {
  static constexpr int kLinks = 200;

  std::atomic<bool> gate{false};
  std::thread::id head;
  long long counter = 0;  // non-atomic: only the chain orders the links
  std::vector<long long> observed = std::vector<long long>(kLinks, -1);
  std::vector<std::thread::id> ranOn = std::vector<std::thread::id>(kLinks);

  /// Spawns the head and the links, then opens the gate, then waits.
  /// Returns how many tasks retired.
  std::uint64_t run(Runtime& rt) {
    const std::uint64_t retiredBefore = rt.tasksRetired();
    rt.spawn({inout(counter)}, [this] {
      while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
      head = std::this_thread::get_id();
    });
    for (int i = 0; i < kLinks; ++i) {
      rt.spawn({inout(counter)}, [this, i] {
        const auto link = static_cast<std::size_t>(i);
        ranOn[link] = std::this_thread::get_id();
        observed[link] = counter;
        ++counter;
      });
    }
    gate.store(true, std::memory_order_release);
    rt.taskwait();
    return rt.tasksRetired() - retiredBefore;
  }

  void expectInOrder() const {
    EXPECT_EQ(counter, kLinks);
    for (int i = 0; i < kLinks; ++i) {
      ASSERT_EQ(observed[static_cast<std::size_t>(i)], i)
          << "chain link " << i << " ran out of order";
    }
  }
};

// With the slot on, every release keeps the one link it readied, so the
// whole chain runs on whichever thread ran the head — never through the
// scheduler, whatever the other workers are doing.
TEST(ImmediateSuccessorTest, GatedChainRunsOnTheHeadsThread) {
  Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 4)));
  GatedChain chain;
  EXPECT_EQ(chain.run(rt), std::uint64_t{GatedChain::kLinks + 1});
  EXPECT_EQ(rt.tasksKept(), std::uint64_t{GatedChain::kLinks});
  chain.expectInOrder();
  for (int i = 0; i < GatedChain::kLinks; ++i) {
    ASSERT_EQ(chain.ranOn[static_cast<std::size_t>(i)], chain.head)
        << "chain link " << i << " left the head's thread";
  }
  EXPECT_EQ(rt.liveDescriptors(), 0u);
  EXPECT_EQ(rt.tasksFailed() + rt.tasksSkipped(), 0u);
}

TEST(ImmediateSuccessorTest, GatedChainWithoutTheSlotRunsInOrder) {
  RuntimeConfig config =
      optimizedConfig(makeTopology(MachinePreset::Host, 4));
  config.immediateSuccessor = false;
  Runtime rt(config);
  GatedChain chain;
  EXPECT_EQ(chain.run(rt), std::uint64_t{GatedChain::kLinks + 1});
  EXPECT_EQ(rt.tasksKept(), 0u);
  chain.expectInOrder();
  EXPECT_EQ(rt.liveDescriptors(), 0u);
  EXPECT_EQ(rt.tasksFailed() + rt.tasksSkipped(), 0u);
}

TEST(RuntimeTest, SpanSpawnOrdersVariableArityAccessLists) {
  // The apps layer's halo idiom: arity decided at run time (boundary
  // blocks drop a neighbor), accesses passed through the span overload.
  // A double-buffered 1D stencil's cross-step ordering only holds if the
  // span-registered accesses carry the same dependency semantics as the
  // braced-list overload.
  constexpr std::size_t kBlocks = 8;
  constexpr int kSteps = 20;
  Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 4)));
  std::vector<long long> bufA(kBlocks, 0), bufB(kBlocks, 0);
  std::vector<long long>* src = &bufA;
  std::vector<long long>* dst = &bufB;
  for (int t = 0; t < kSteps; ++t) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::array<Access, 4> acc;
      std::size_t na = 0;
      if (b > 0) acc[na++] = in((*src)[b - 1]);
      acc[na++] = in((*src)[b]);
      if (b + 1 < kBlocks) acc[na++] = in((*src)[b + 1]);
      acc[na++] = out((*dst)[b]);
      rt.spawn(std::span<const Access>(acc.data(), na), [src, dst, b] {
        const long long left = b > 0 ? (*src)[b - 1] : 0;
        const long long right = b + 1 < kBlocks ? (*src)[b + 1] : 0;
        (*dst)[b] = (*src)[b] + left + right + 1;
      });
    }
    std::swap(src, dst);
  }
  rt.taskwait();

  // Serial replay must agree exactly (TSan additionally proves the span
  // accesses made the parallel version race-free).
  std::vector<long long> refA(kBlocks, 0), refB(kBlocks, 0);
  std::vector<long long>*rs = &refA, *rd = &refB;
  for (int t = 0; t < kSteps; ++t) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const long long left = b > 0 ? (*rs)[b - 1] : 0;
      const long long right = b + 1 < kBlocks ? (*rs)[b + 1] : 0;
      (*rd)[b] = (*rs)[b] + left + right + 1;
    }
    std::swap(rs, rd);
  }
  EXPECT_EQ(*src, *rs);
}

TEST(RuntimeTest, SchedulerAndDepsMatchConfig) {
  RuntimeConfig config = withoutWaitFreeDepsConfig(
      makeTopology(MachinePreset::Host, 2));
  Runtime rt(config);
  EXPECT_NE(dynamic_cast<FineGrainedLocksDeps*>(&rt.deps()), nullptr);
  EXPECT_NE(dynamic_cast<SyncScheduler*>(&rt.scheduler()), nullptr);

  Runtime rtOpt(optimizedConfig(makeTopology(MachinePreset::Host, 2)));
  EXPECT_NE(dynamic_cast<WaitFreeAsmDeps*>(&rtOpt.deps()), nullptr);
}

// Every field a 0-access task's spawn, run and reclaim touch lies in the
// descriptor's first kTaskHeadBytes, ahead of the access slots; with the
// pool's 16-byte header that head is one 128-byte line pair.  Measured on
// an object: base order is an ABI property, and offsetof on the
// non-standard-layout Task is not allowed.
TEST(TaskLayoutTest, ZeroAccessFieldsLieInTheTwoLineHead) {
  Task task;
  const auto* start = reinterpret_cast<const unsigned char*>(&task);
  auto span = [start](const auto& field) {
    const auto* at = reinterpret_cast<const unsigned char*>(&field);
    return std::pair<std::size_t, std::size_t>(at - start,
                                               at - start + sizeof field);
  };
  const std::pair<const char*, std::pair<std::size_t, std::size_t>>
      fields[] = {
          {"body", span(task.body)},
          {"arg", span(task.arg)},
          {"closureBuf", span(task.closureBuf)},
          {"closureDestroy", span(task.closureDestroy)},
          {"runtime", span(task.runtime)},
          {"pendingDeps", span(task.pendingDeps)},
          {"refCount", span(task.refCount)},
          {"onLastRef", span(task.onLastRef)},
          {"numAccesses", span(task.numAccesses)},
      };
  for (const auto& [name, bytes] : fields) {
    EXPECT_LE(bytes.second, kTaskHeadBytes)
        << name << " at bytes [" << bytes.first << ", " << bytes.second
        << ")";
  }
  EXPECT_EQ(kTaskHeadBytes, 112u);
  EXPECT_EQ(span(task.accessNodes).first, kTaskHeadBytes);
  EXPECT_EQ(sizeof(Task), 752u);
  EXPECT_EQ(PoolAllocator::kHeaderBytes + kTaskHeadBytes,
            PoolAllocator::kChunkAlignment);
}

}  // namespace
}  // namespace ats
