#include "runtime/scheduler_factory.hpp"
#include "sched/central_mutex_scheduler.hpp"
#include "sched/ptlock_scheduler.hpp"
#include "sched/ready_queue.hpp"
#include "sched/sync_scheduler.hpp"
#include "sched/work_stealing_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/failpoint.hpp"
#include "instr/tracer.hpp"
#include "runtime/task.hpp"

namespace ats {
namespace {

Topology testTopo(std::size_t cpus) {
  return makeTopology(MachinePreset::Host, cpus);
}

/// Slots of the "_wide" variants: well past the 64-entry floor the lock
/// constructors apply to their waiting arrays.
constexpr std::size_t kWideSlots = 96;

std::unique_ptr<Scheduler> makeByName(
    const std::string& which, std::size_t cpus,
    std::size_t spscCapacity = kPerCpuBufferCapacity,
    Tracer* tracer = nullptr) {
  const Topology topo = testTopo(cpus);
  if (which == "central_mutex")
    return std::make_unique<CentralMutexScheduler>();
  if (which == "ptlock")
    return std::make_unique<PTLockScheduler>(topo, spscCapacity, tracer);
  if (which == "work_steal")
    return std::make_unique<WorkStealingScheduler>(topo, spscCapacity);
  // Wide variants size the scheduler for kWideSlots slots while the test
  // only ever touches the first `cpus`: every drain and refill walks a
  // ring array that is almost all empty.
  if (which == "sync_dtlock_wide")
    return std::make_unique<SyncScheduler>(testTopo(kWideSlots),
                                           spscCapacity);
  if (which == "ptlock_wide")
    return std::make_unique<PTLockScheduler>(testTopo(kWideSlots),
                                             spscCapacity);
  return std::make_unique<SyncScheduler>(topo, spscCapacity, tracer);
}

class EverySchedulerTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Designs, EverySchedulerTest,
                         ::testing::Values("central_mutex", "ptlock",
                                           "ptlock_wide", "sync_dtlock",
                                           "sync_dtlock_wide", "work_steal"));

TEST_P(EverySchedulerTest, EmptySchedulerReturnsNull) {
  auto sched = makeByName(GetParam(), 4);
  EXPECT_EQ(sched->getReadyTask(0), nullptr);
  EXPECT_EQ(sched->getReadyTask(3), nullptr);
}

TEST_P(EverySchedulerTest, SingleThreadFifoRoundTrip) {
  auto sched = makeByName(GetParam(), 4);
  std::vector<Task> pool(100);
  for (auto& t : pool) sched->addReadyTask(&t, 0);
  for (auto& t : pool) {
    // A single producer's adds must come back in insertion order from
    // the FIFO ready queue, whichever CPU asks.
    EXPECT_EQ(sched->getReadyTask(1), &t);
  }
  EXPECT_EQ(sched->getReadyTask(1), nullptr);
}

/// One producer on CPU 0, `kConsumers` getters on CPUs 1..kConsumers:
/// every enqueued task pointer must come back exactly once.
constexpr int kConsumers = 3;

/// When the conservation loops stop polling.  A lost task then fails the
/// count assertion after the loop, which says how many came back,
/// instead of spinning until ctest's timeout.
class Deadline {
 public:
  bool passed() const { return std::chrono::steady_clock::now() >= at_; }

 private:
  std::chrono::steady_clock::time_point at_ =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
};

void floodConservesExactlyOnce(Scheduler& sched) {
  constexpr std::size_t kTasks = 20000;
  std::vector<Task> pool(kTasks);

  std::atomic<std::size_t> retrieved{0};
  std::vector<std::vector<Task*>> got(kConsumers);

  const Deadline deadline;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (auto& t : pool) sched.addReadyTask(&t, 0);
  });
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t cpu = static_cast<std::size_t>(c) + 1;
      while (retrieved.load(std::memory_order_relaxed) < kTasks &&
             !deadline.passed()) {
        Task* t = sched.getReadyTask(cpu);
        if (t != nullptr) {
          got[static_cast<std::size_t>(c)].push_back(t);
          retrieved.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<Task*> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kTasks);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(all[i], &pool[i]) << "a task was lost or handed out twice";
  }
  EXPECT_EQ(sched.getReadyTask(0), nullptr);
}

TEST_P(EverySchedulerTest, FloodConservesTasksExactlyOnce) {
  floodConservesExactlyOnce(*makeByName(GetParam(), kConsumers + 1));
}

/// The add-buffer overflow path under the tracer: with 4-slot buffers
/// the producer's adds overflow constantly while three getters run.
/// Every task must come back exactly once, and the trace must show the
/// add-buffers being drained into the ready queue.
class TinyBufferTracedFloodTest
    : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Buffered, TinyBufferTracedFloodTest,
                         ::testing::Values("ptlock", "sync_dtlock"));

TEST_P(TinyBufferTracedFloodTest, ConservesExactlyOnceAndTracesDrains) {
  Tracer tracer(kConsumers + 1, 1u << 16);
  floodConservesExactlyOnce(
      *makeByName(GetParam(), kConsumers + 1, /*spscCapacity=*/4, &tracer));
  std::size_t drains = 0;
  for (const TraceRecord& r : tracer.collect())
    if (r.event == TraceEvent::SchedDrain) ++drains;
  EXPECT_GE(drains, 1u);
}

/// The one drain rule, on both buffered designs: a lock hold's drain
/// moves at most `AddBufferSet::kDrainBurst` tasks, and what it leaves in
/// the rings comes back through later holds, none stranded.  The tasks
/// go round-robin over four worker slots and the reserved spawner slot,
/// so the first burst stops partway through the rings.
class DrainRuleTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Buffered, DrainRuleTest,
                         ::testing::Values("ptlock", "sync_dtlock"));

TEST_P(DrainRuleTest, EachHoldDrainsAtMostOneBurstAndStrandsNothing) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kBurst = AddBufferSet::kDrainBurst;
  constexpr std::size_t kTasks = 2 * kBurst + 3;
  Topology topo = testTopo(kWorkers);
  topo.reservedSlots = 1;  // slot kWorkers: the spawner, as in the Runtime
  Tracer tracer(kWorkers, 1u << 10);
  std::unique_ptr<Scheduler> sched;
  if (GetParam() == "ptlock")
    sched = std::make_unique<PTLockScheduler>(topo, kPerCpuBufferCapacity,
                                              &tracer);
  else
    sched = std::make_unique<SyncScheduler>(topo, kPerCpuBufferCapacity,
                                            &tracer);
  std::vector<Task> pool(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i)
    sched->addReadyTask(&pool[i], i % (kWorkers + 1));

  auto drains = [&] {
    std::vector<std::uint64_t> payloads;
    for (const TraceRecord& r : tracer.collect())
      if (r.event == TraceEvent::SchedDrain) payloads.push_back(r.payload);
    return payloads;
  };
  std::vector<Task*> got;
  got.push_back(sched->getReadyTask(0));
  ASSERT_NE(got.back(), nullptr);
  EXPECT_EQ(drains(), std::vector<std::uint64_t>{kBurst})
      << "the first hold drains exactly one burst";

  while (Task* t = sched->getReadyTask(0)) got.push_back(t);
  ASSERT_EQ(got.size(), kTasks) << "tasks were stranded in the rings";
  std::sort(got.begin(), got.end());
  for (std::size_t i = 0; i < kTasks; ++i)
    ASSERT_EQ(got[i], &pool[i]) << "a task was lost or handed out twice";
  std::uint64_t drained = 0;
  for (const std::uint64_t payload : drains()) {
    EXPECT_LE(payload, kBurst);
    drained += payload;
  }
  EXPECT_EQ(drained, kTasks);
}

TEST(SyncSchedulerTest, OverflowDrainLosesNothingAndKeepsOrder) {
  // Buffer of 8 while 1000 tasks pour in from one thread with no
  // consumer: the overflow help-drain path runs ~125 times.
  auto sched = std::make_unique<SyncScheduler>(testTopo(2), 8);
  std::vector<Task> pool(1000);
  for (auto& t : pool) sched->addReadyTask(&t, 0);
  for (auto& t : pool) {
    ASSERT_EQ(sched->getReadyTask(1), &t);
  }
  EXPECT_EQ(sched->getReadyTask(1), nullptr);
}

TEST(SyncSchedulerTest, PerCpuBuffersDrainFromAnyGetter) {
  auto sched = std::make_unique<SyncScheduler>(testTopo(4), 64);
  std::vector<Task> pool(8);
  // Adds from several different CPUs sit in distinct SPSC buffers...
  for (std::size_t i = 0; i < pool.size(); ++i) {
    sched->addReadyTask(&pool[i], i % 4);
  }
  // ...and one getter on yet another CPU sees all of them.
  std::vector<Task*> got;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Task* t = sched->getReadyTask(3);
    ASSERT_NE(t, nullptr);
    got.push_back(t);
  }
  EXPECT_EQ(sched->getReadyTask(3), nullptr);
  std::sort(got.begin(), got.end());
  for (std::size_t i = 0; i < pool.size(); ++i) EXPECT_EQ(got[i], &pool[i]);
}

/// Arms the `serve_batch` failpoint for one test.  `serveWaiters` runs
/// it once per lock hold, from every get that takes the lock and every
/// overflowing add, so the site can pin a holder (delay mode) or count
/// holds (probability 0: `evaluations()` grows and nothing fires).  On
/// exit the site gets back what ATS_FAILPOINTS gave it, or is disarmed:
/// CI's perturbed run arms it from the environment and runs these tests
/// in one process, in shuffled order.
class ServeBatchFailpoint {
 public:
  ServeBatchFailpoint(double prob, std::uint64_t delayUs)
      : site_(failpoint(FailpointId::serve_batch)) {
    site_.arm(FailpointMode::DelayUs, prob, 0, delayUs);
  }
  ~ServeBatchFailpoint() { restore(); }
  ServeBatchFailpoint(const ServeBatchFailpoint&) = delete;
  ServeBatchFailpoint& operator=(const ServeBatchFailpoint&) = delete;

  /// Lock holds so far, as a running count: tests read deltas.
  std::uint64_t holds() const { return site_.evaluations(); }

  void restore() {
    site_.disarm();
    const std::string env = envString("ATS_FAILPOINTS", "");
    for (std::size_t start = 0; start < env.size();) {
      const std::size_t comma = std::min(env.find(',', start), env.size());
      const std::string spec = env.substr(start, comma - start);
      if (spec.rfind("serve_batch:", 0) == 0)
        armFailpointSpec(spec);
      start = comma + 1;
    }
  }

 private:
  Failpoint& site_;
};

/// More concurrent getters than one combining batch answers.  The first
/// lock holder sleeps 200 ms in `serve_batch` while every other getter
/// queues a delegation request behind it.  Each getter parks after its
/// first get; if `serve_batch` ran once by then, one hold answered every
/// waiter, so its serve loop ran past one `kServeBurst` batch.  Then the
/// getters drain the queue, and every task must come back exactly once.
TEST(SyncSchedulerTest, DelegationQueueDeeperThanOneBatchConservesExactlyOnce) {
  constexpr std::size_t kGetters = SyncScheduler::kServeBurst + 4;
  constexpr std::size_t kTasks = 20000;
  SyncScheduler sched(testTopo(kGetters));
  // Fill before arming, since overflowing adds take the lock too.  A
  // deep queue keeps every batch of the pinned hold from running short.
  std::vector<Task> pool(kTasks);
  for (auto& t : pool) sched.addReadyTask(&t, 0);

  ServeBatchFailpoint serveBatch(/*prob=*/1.0, /*delayUs=*/200000);
  const std::uint64_t holdsBefore = serveBatch.holds();
  std::atomic<bool> start{false};
  std::atomic<std::size_t> parked{0};
  std::atomic<bool> drain{false};
  std::atomic<std::size_t> retrieved{0};
  std::vector<std::vector<Task*>> got(kGetters);
  const Deadline deadline;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kGetters; ++c) {
    threads.emplace_back([&, c] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      bool first = true;
      while (retrieved.load(std::memory_order_relaxed) < kTasks &&
             !deadline.passed()) {
        Task* t = sched.getReadyTask(c);
        if (t != nullptr) {
          got[c].push_back(t);
          retrieved.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
        if (first) {
          first = false;
          parked.fetch_add(1, std::memory_order_release);
          while (!drain.load(std::memory_order_acquire))
            std::this_thread::yield();
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  while (parked.load(std::memory_order_acquire) < kGetters)
    std::this_thread::yield();
  EXPECT_EQ(serveBatch.holds() - holdsBefore, 1u)
      << "the first gets took more than one lock hold";
  serveBatch.restore();
  drain.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  std::vector<Task*> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kTasks);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(all[i], &pool[i]) << "a task was lost or handed out twice";
  }
  EXPECT_EQ(sched.getReadyTask(0), nullptr);
}

/// Deep queue (far more than two tasks per slot): one get takes the lock
/// once and a full share, and that slot's next kMaxShare - 1 gets return
/// the following tasks in FIFO order from its stash without taking it.
TEST(SyncSchedulerTest, DeepQueueGetTakesAShareTheNextGetsPopWithoutTheLock) {
  constexpr std::size_t kShare = SyncScheduler::kMaxShare;
  // A small add-buffer overflows into the queue while the tasks pour in,
  // so the queue is deep before the first get.
  SyncScheduler sched(testTopo(4), 8);
  std::vector<Task> pool(4 * kShare * 4);
  for (auto& t : pool) sched.addReadyTask(&t, 0);

  ServeBatchFailpoint lockHolds(/*prob=*/0.0, /*delayUs=*/0);
  std::size_t next = 0;
  while (next < 2 * kShare) {
    const std::uint64_t before = lockHolds.holds();
    ASSERT_EQ(sched.getReadyTask(1), &pool[next++]);
    EXPECT_EQ(lockHolds.holds() - before, 1u)
        << "the share's first get takes the lock once";
    for (std::size_t k = 1; k < kShare; ++k) {
      const std::uint64_t stashed = lockHolds.holds();
      ASSERT_EQ(sched.getReadyTask(1), &pool[next++]);
      EXPECT_EQ(lockHolds.holds(), stashed)
          << "get " << next - 1 << " took the lock";
    }
  }
}

/// Shallow queue (fewer than two tasks per slot): every get takes the
/// lock and comes back with one task, so no slot sits on work another
/// could run.
TEST(SyncSchedulerTest, ShallowQueueDealsOneTaskPerGet) {
  constexpr std::size_t kSlots = 4;
  SyncScheduler sched(testTopo(kSlots));
  std::vector<Task> pool(2 * kSlots - 1);
  for (auto& t : pool) sched.addReadyTask(&t, 0);

  ServeBatchFailpoint lockHolds(/*prob=*/0.0, /*delayUs=*/0);
  for (auto& t : pool) {
    const std::uint64_t before = lockHolds.holds();
    ASSERT_EQ(sched.getReadyTask(2), &t);
    EXPECT_EQ(lockHolds.holds() - before, 1u)
        << "a get was served from a stash";
  }
  EXPECT_EQ(sched.getReadyTask(2), nullptr);
}

/// Shaped like the nested workload: the spawner slot adds generator
/// tasks, and whichever getter takes a generator adds its children from
/// its own slot while every slot keeps getting — so stashes fill from
/// delegated answers and from the holder's own share while adds overflow
/// small add-buffers.  Every task must come back exactly once.
TEST(SyncSchedulerTest, NestedAddersAndStashedSharesConserveExactlyOnce) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kGenerators = 16;
  constexpr std::size_t kChildren = 1000;
  constexpr std::size_t kTotal = kGenerators * (1 + kChildren);
  Topology topo = testTopo(kWorkers);
  topo.reservedSlots = 1;  // slot kWorkers: the spawner, as in the Runtime
  SyncScheduler sched(topo, 32);
  std::vector<Task> pool(kTotal);

  std::atomic<std::size_t> retrieved{0};
  std::vector<std::vector<Task*>> got(kWorkers + 1);
  const Deadline deadline;
  auto run = [&](std::size_t slot) {
    while (retrieved.load(std::memory_order_relaxed) < kTotal &&
           !deadline.passed()) {
      Task* t = sched.getReadyTask(slot);
      if (t == nullptr) {
        std::this_thread::yield();
        continue;
      }
      got[slot].push_back(t);
      const auto index = static_cast<std::size_t>(t - pool.data());
      if (index < kGenerators) {
        Task* children = &pool[kGenerators + index * kChildren];
        for (std::size_t c = 0; c < kChildren; ++c)
          sched.addReadyTask(&children[c], slot);
      }
      retrieved.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) threads.emplace_back(run, w);
  threads.emplace_back([&] {
    for (std::size_t g = 0; g < kGenerators; ++g)
      sched.addReadyTask(&pool[g], kWorkers);
    run(kWorkers);
  });
  for (auto& t : threads) t.join();

  std::vector<Task*> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kTotal);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(all[i], &pool[i]) << "a task was lost or handed out twice";
  }
  for (std::size_t slot = 0; slot <= kWorkers; ++slot)
    EXPECT_EQ(sched.getReadyTask(slot), nullptr) << "slot " << slot;
}

TEST(AddBufferSetTest, CappedDrainStopsAtTheCapInSlotOrder) {
  static_assert(AddBufferSet::kDrainBurst == 16,
                "the ring loads below are sized for a 16-task burst");
  Topology topo = testTopo(4);
  topo.reservedSlots = 1;  // slot 4: the Runtime's spawner
  AddBufferSet buffers(topo, 32);
  EXPECT_EQ(buffers.numCpus(), 5u);

  // Ten tasks on slot 0, ten on slot 2, three on the reserved slot 4.
  ReadyQueue queue;
  std::vector<Task> pool(43);
  std::size_t next = 0;
  for (const std::size_t slot : {0, 2, 4})
    for (std::size_t k = 0; k < (slot == 4 ? 3 : 10); ++k)
      ASSERT_TRUE(buffers.tryPush(&pool[next++], slot));

  // A burst takes exactly the cap, rings in slot order, stopping partway
  // through slot 2's ring; the next takes the rest, the reserved slot's
  // included.
  EXPECT_EQ(buffers.drainBurstInto(queue), 16u);
  EXPECT_EQ(buffers.drainBurstInto(queue), 7u);
  EXPECT_EQ(buffers.drainBurstInto(queue), 0u);
  // The overflow drain is not capped: it empties every ring at once.
  for (const std::size_t slot : {1, 3})
    for (std::size_t k = 0; k < 10; ++k)
      ASSERT_TRUE(buffers.tryPush(&pool[next++], slot));
  EXPECT_EQ(buffers.drainAllInto(queue), 20u);

  for (Task& expected : pool) EXPECT_EQ(queue.pop(), &expected);
  EXPECT_EQ(queue.pop(), nullptr);
}

TEST(SchedulerFactoryTest, BuildsTheConfiguredDesign) {
  const Topology topo = testTopo(4);
  EXPECT_NE(dynamic_cast<CentralMutexScheduler*>(
                makeScheduler(centralMutexRuntimeConfig(topo)).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<PTLockScheduler*>(
                makeScheduler(withoutDTLockConfig(topo)).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<SyncScheduler*>(
                makeScheduler(optimizedConfig(topo)).get()),
            nullptr);
  // The real work-stealing design, not the former SyncScheduler alias.
  EXPECT_NE(dynamic_cast<WorkStealingScheduler*>(
                makeScheduler(workStealingRuntimeConfig(topo)).get()),
            nullptr);
}

TEST(WorkStealingSchedulerTest, SpawnerSlotDequeIsStealOnlyIngress) {
  // Adds submitted from the reserved spawner slot (slot == numCpus) land
  // in that slot's own deque and are reachable from any worker via the
  // steal path — the external-submission story.
  Topology topo = testTopo(4);
  topo.reservedSlots = 1;  // what the Runtime does before construction
  WorkStealingScheduler sched(topo);
  std::vector<Task> pool(10);
  for (auto& t : pool) sched.addReadyTask(&t, topo.numCpus);
  for (auto& t : pool) EXPECT_EQ(sched.getReadyTask(2), &t);
  EXPECT_EQ(sched.getReadyTask(2), nullptr);
}

TEST(WorkStealingSchedulerTest, LocalPopIsLifoThenStealsAreFifo) {
  // The owner drains its own deque newest-first (depth-first fast
  // path); a different slot then steals oldest-first.
  WorkStealingScheduler sched(testTopo(4));
  std::vector<Task> pool(6);
  for (auto& t : pool) sched.addReadyTask(&t, 1);
  EXPECT_EQ(sched.getReadyTask(1), &pool[5]);
  EXPECT_EQ(sched.getReadyTask(1), &pool[4]);
  EXPECT_EQ(sched.getReadyTask(2), &pool[0]);
  EXPECT_EQ(sched.getReadyTask(2), &pool[1]);
  EXPECT_EQ(sched.getReadyTask(1), &pool[3]);
  EXPECT_EQ(sched.getReadyTask(1), &pool[2]);
  EXPECT_EQ(sched.getReadyTask(1), nullptr);
  EXPECT_EQ(sched.getReadyTask(2), nullptr);
}

// ---------------------------------------------------------- ready queue

TEST(ReadyQueueTest, IsPlainFifo) {
  ReadyQueue queue;
  std::vector<Task> pool(5);
  EXPECT_EQ(queue.pop(), nullptr);
  for (auto& t : pool) queue.push(&t);
  for (auto& t : pool) EXPECT_EQ(queue.pop(), &t);
  EXPECT_EQ(queue.pop(), nullptr);
}

TEST(ReadyQueueTest, PopNMatchesRepeatedPop) {
  // The bulk form must deliver the same multiset in the same order as
  // N pop calls.
  std::vector<Task> pool(10);
  ReadyQueue queue;
  for (auto& t : pool) queue.push(&t);
  Task* out[16] = {};
  // Ask for more than available: got reports the true count.
  EXPECT_EQ(queue.popN(out, 16), pool.size());
  std::vector<Task*> bulk(out, out + pool.size());

  for (auto& t : pool) queue.push(&t);
  std::vector<Task*> oneByOne;
  while (Task* t = queue.pop()) oneByOne.push_back(t);
  EXPECT_EQ(bulk, oneByOne);
  EXPECT_EQ(queue.popN(out, 4), 0u);
}

}  // namespace
}  // namespace ats
