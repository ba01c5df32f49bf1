#include "runtime/scheduler_factory.hpp"
#include "sched/central_mutex_scheduler.hpp"
#include "sched/policies.hpp"
#include "sched/ptlock_scheduler.hpp"
#include "sched/sync_scheduler.hpp"
#include "sched/work_stealing_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/task.hpp"

namespace ats {
namespace {

Topology testTopo(std::size_t cpus) {
  return makeTopology(MachinePreset::Host, cpus);
}

std::unique_ptr<Scheduler> makeByName(const std::string& which,
                                      std::size_t cpus,
                                      std::size_t spscCapacity = 256) {
  const Topology topo = testTopo(cpus);
  if (which == "central_mutex")
    return std::make_unique<CentralMutexScheduler>(topo);
  if (which == "ptlock")
    return std::make_unique<PTLockScheduler>(
        topo, std::make_unique<FifoPolicy>());
  if (which == "work_steal")
    return std::make_unique<WorkStealingScheduler>(topo, spscCapacity);
  // Rome-preset variants pin the multi-domain paths: `cpus` CPUs shrink
  // the 8-domain preset to one CPU per domain, so every waiter group and
  // add-buffer shard is its own domain and the NumaFifo policy's queues
  // are maximally split.
  if (which == "sync_dtlock_rome") {
    const Topology rome = makeTopology(MachinePreset::Rome, cpus);
    return std::make_unique<SyncScheduler>(
        rome, std::make_unique<NumaFifoPolicy>(rome), spscCapacity);
  }
  if (which == "ptlock_rome") {
    const Topology rome = makeTopology(MachinePreset::Rome, cpus);
    return std::make_unique<PTLockScheduler>(
        rome, std::make_unique<NumaFifoPolicy>(rome), spscCapacity);
  }
  return std::make_unique<SyncScheduler>(
      topo, std::make_unique<FifoPolicy>(), spscCapacity);
}

class EverySchedulerTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Designs, EverySchedulerTest,
                         ::testing::Values("central_mutex", "ptlock",
                                           "ptlock_rome",
                                           "sync_dtlock",
                                           "sync_dtlock_rome",
                                           "work_steal"));

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
    // A single producer's adds must come back in insertion order under
    // the FIFO policy, whichever CPU asks.
    EXPECT_EQ(sched->getReadyTask(1), &t);
  }
  EXPECT_EQ(sched->getReadyTask(1), nullptr);
}

/// One producer, three consumers: every enqueued task pointer must come
/// back exactly once — the conservation law the micro_dtlock flood
/// assumes.  Runs the exact thread shape of the bench.
TEST_P(EverySchedulerTest, FloodConservesTasksExactlyOnce) {
  constexpr std::size_t kTasks = 20000;
  constexpr int kConsumers = 3;
  auto sched = makeByName(GetParam(), kConsumers + 1);
  std::vector<Task> pool(kTasks);

  std::atomic<std::size_t> retrieved{0};
  std::vector<std::vector<Task*>> got(kConsumers);

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (auto& t : pool) sched->addReadyTask(&t, 0);
  });
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t cpu = static_cast<std::size_t>(c) + 1;
      while (retrieved.load(std::memory_order_relaxed) < kTasks) {
        Task* t = sched->getReadyTask(cpu);
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
  EXPECT_EQ(sched->getReadyTask(0), nullptr);
}

TEST(SyncSchedulerTest, OverflowDrainLosesNothingAndKeepsOrder) {
  // Buffer of 8 while 1000 tasks pour in from one thread with no
  // consumer: the overflow help-drain path runs ~125 times.
  auto sched = std::make_unique<SyncScheduler>(
      testTopo(2), std::make_unique<FifoPolicy>(), 8);
  std::vector<Task> pool(1000);
  for (auto& t : pool) sched->addReadyTask(&t, 0);
  for (auto& t : pool) {
    ASSERT_EQ(sched->getReadyTask(1), &t);
  }
  EXPECT_EQ(sched->getReadyTask(1), nullptr);
}

TEST(SyncSchedulerTest, PerCpuBuffersDrainFromAnyGetter) {
  auto sched = std::make_unique<SyncScheduler>(
      testTopo(4), std::make_unique<FifoPolicy>(), 64);
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

/// More concurrent getters than one combining batch answers.  A gate in
/// the policy pins the first lock holder until every getter has started
/// and had time to queue a delegation request behind it, so that one
/// hold must answer the queue in more than one `kServeBurst` batch.
/// Every task must still come back exactly once.
TEST(SyncSchedulerTest, DelegationQueueDeeperThanOneBatchConservesExactlyOnce) {
  constexpr std::size_t kGetters = SyncScheduler::kServeBurst + 4;
  constexpr std::size_t kTasks = 20000;

  // Every policy call runs under the scheduler's DTLock, so the plain
  // fields below are ordered by the lock's hand-offs.
  struct GatedFifo : SchedulerPolicy {
    FifoPolicy inner;
    std::atomic<std::size_t>* started = nullptr;
    bool gated = false;
    std::thread::id holder;       // the thread that took the gated hold
    std::size_t holderPulls = 0;  // getTasks calls on that thread

    void addTask(Task* t, std::size_t cpu) override { inner.addTask(t, cpu); }
    Task* getTask(std::size_t cpu) override {
      if (!gated) {
        gated = true;
        holder = std::this_thread::get_id();
        while (started->load(std::memory_order_acquire) < kGetters)
          std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      return inner.getTask(cpu);
    }
    std::size_t getTasks(Task** out, std::size_t n,
                         std::size_t cpu) override {
      if (std::this_thread::get_id() == holder) ++holderPulls;
      return inner.getTasks(out, n, cpu);
    }
    const char* policyName() const override { return "gated_fifo"; }
  };

  std::atomic<std::size_t> started{0};
  auto gatedPolicy = std::make_unique<GatedFifo>();
  GatedFifo& policy = *gatedPolicy;
  policy.started = &started;
  SyncScheduler sched(testTopo(kGetters), std::move(gatedPolicy));
  // Fill before any getter runs, so every batch of the gated hold finds
  // enough tasks and the serve loop does not stop at a short batch.
  std::vector<Task> pool(kTasks);
  for (auto& t : pool) sched.addReadyTask(&t, 0);

  std::atomic<std::size_t> retrieved{0};
  std::vector<std::vector<Task*>> got(kGetters);
  std::size_t pullsInFirstHold = 0;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kGetters; ++c) {
    threads.emplace_back([&, c] {
      bool first = true;
      started.fetch_add(1, std::memory_order_release);
      while (retrieved.load(std::memory_order_relaxed) < kTasks) {
        Task* t = sched.getReadyTask(c);
        // Only the gated holder's own thread ever bumps holderPulls, so
        // its first return reads a value no other thread writes.
        if (first && std::this_thread::get_id() == policy.holder)
          pullsInFirstHold = policy.holderPulls;
        first = false;
        if (t != nullptr) {
          got[c].push_back(t);
          retrieved.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // One domain (Host preset), so each batch is one bulk pull: two or more
  // pulls in the first hold means the serve loop ran past one batch.
  EXPECT_GE(pullsInFirstHold, 2u);
  std::vector<Task*> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kTasks);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(all[i], &pool[i]) << "a task was lost or handed out twice";
  }
  EXPECT_EQ(sched.getReadyTask(0), nullptr);
}

TEST(AddBufferSetTest, DomainDrainIsShardedAndBounded) {
  Topology topo;
  topo.numCpus = 4;
  topo.numNumaDomains = 2;  // slots 0,1 -> domain 0; 2,3 -> domain 1
  topo.reservedSlots = 1;   // slot 4 folds into domain 0's shard
  AddBufferSet buffers(topo, 16);
  EXPECT_EQ(buffers.numCpus(), 5u);
  EXPECT_EQ(buffers.numDomains(), 2u);

  FifoPolicy fifo;
  std::vector<Task> pool(5);
  ASSERT_TRUE(buffers.tryPush(&pool[0], 0));
  ASSERT_TRUE(buffers.tryPush(&pool[1], 1));
  ASSERT_TRUE(buffers.tryPush(&pool[2], 4));  // reserved slot, domain 0
  ASSERT_TRUE(buffers.tryPush(&pool[3], 2));
  ASSERT_TRUE(buffers.tryPush(&pool[4], 3));

  // Domain 0's drain covers slots 0, 1 and the folded spawner slot —
  // and leaves domain 1's rings untouched.
  EXPECT_EQ(buffers.drainDomain(fifo, 0), 3u);
  // Bounded drain takes exactly the cap and leaves the rest published.
  EXPECT_EQ(buffers.drainDomain(fifo, 1, 1), 1u);
  EXPECT_EQ(buffers.drainDomain(fifo, 1), 1u);
  EXPECT_EQ(buffers.drainInto(fifo), 0u);

  std::vector<Task*> got;
  while (Task* t = fifo.getTask(0)) got.push_back(t);
  ASSERT_EQ(got.size(), pool.size());
  std::sort(got.begin(), got.end());
  for (std::size_t i = 0; i < pool.size(); ++i) EXPECT_EQ(got[i], &pool[i]);
}

/// The starvation guarantee behind the domain-first drains: a domain
/// with producers but NO getters must still drain.  The batched serve
/// prefers the waiters' own shards, but when the policy runs dry
/// the flat fallback reaches every ring, and NumaFifo's round-robin
/// fallback then hands the tasks across domains.
TEST(SyncSchedulerTest, ProducerOnlyDomainStillDrainsCrossDomain) {
  Topology topo;
  topo.numCpus = 4;
  topo.numNumaDomains = 2;  // CPUs 0-1 -> domain 0; 2-3 -> domain 1
  SyncScheduler sched(topo, std::make_unique<NumaFifoPolicy>(topo));
  std::vector<Task> pool(100);
  for (auto& t : pool) sched.addReadyTask(&t, 0);  // domain-0 producer only
  // Only domain-1 CPUs ever ask; every domain-0 task must reach them,
  // in order (single producer, FIFO within its domain queue).
  for (auto& t : pool) ASSERT_EQ(sched.getReadyTask(2), &t);
  EXPECT_EQ(sched.getReadyTask(3), nullptr);
}

TEST(SchedulerFactoryTest, BuildsTheConfiguredDesign) {
  const Topology topo = testTopo(4);
  EXPECT_STREQ(makeScheduler(centralMutexRuntimeConfig(topo))->name(),
               "central_mutex");
  EXPECT_STREQ(makeScheduler(withoutDTLockConfig(topo))->name(),
               "ptlock_central");
  EXPECT_STREQ(makeScheduler(optimizedConfig(topo))->name(), "sync_dtlock");
  // The real work-stealing design, not the former SyncScheduler alias.
  EXPECT_STREQ(makeScheduler(workStealingRuntimeConfig(topo))->name(),
               "work_steal");
}

TEST(SchedulerFactoryTest, KindNamesMatchSchedulerNames) {
  // schedulerKindName is the label benches and error paths print; it
  // must agree with what the constructed scheduler calls itself.
  const Topology topo = testTopo(4);
  for (const SchedulerKind kind :
       {SchedulerKind::CentralMutex, SchedulerKind::PTLockCentral,
        SchedulerKind::SyncDelegation, SchedulerKind::WorkStealing}) {
    RuntimeConfig config = optimizedConfig(topo);
    config.scheduler = kind;
    EXPECT_STREQ(makeScheduler(config)->name(), schedulerKindName(kind));
  }
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

// ------------------------------------------------------------- policies

TEST(PolicyTest, FifoIsPlainFifo) {
  FifoPolicy fifo;
  std::vector<Task> pool(5);
  EXPECT_EQ(fifo.getTask(0), nullptr);
  for (auto& t : pool) fifo.addTask(&t, 0);
  for (auto& t : pool) EXPECT_EQ(fifo.getTask(2), &t);
  EXPECT_EQ(fifo.getTask(0), nullptr);
  EXPECT_STREQ(fifo.policyName(), "fifo");
}

TEST(PolicyTest, LifoReturnsNewestFirst) {
  LifoPolicy lifo;
  std::vector<Task> pool(5);
  EXPECT_EQ(lifo.getTask(0), nullptr);
  for (auto& t : pool) lifo.addTask(&t, 0);
  for (std::size_t i = pool.size(); i-- > 0;) {
    EXPECT_EQ(lifo.getTask(1), &pool[i]);
  }
  EXPECT_EQ(lifo.getTask(0), nullptr);
  EXPECT_STREQ(lifo.policyName(), "lifo");
}

TEST(PolicyTest, BulkGetTasksMatchesRepeatedGetTask) {
  // The bulk form must deliver the same multiset in the same order as
  // N getTask calls — for the overriding policies AND the base-class
  // default loop (exercised through a minimal adapter).
  struct DefaultLoopFifo : SchedulerPolicy {
    FifoPolicy inner;
    void addTask(Task* t, std::size_t cpu) override { inner.addTask(t, cpu); }
    Task* getTask(std::size_t cpu) override { return inner.getTask(cpu); }
    // getTasks NOT overridden: runs SchedulerPolicy's default loop.
    const char* policyName() const override { return "default_loop"; }
  };

  std::vector<Task> pool(10);
  const auto fill = [&](SchedulerPolicy& p) {
    for (auto& t : pool) p.addTask(&t, 0);
  };

  FifoPolicy fifo;
  LifoPolicy lifo;
  NumaFifoPolicy numa(testTopo(4));
  DefaultLoopFifo defaulted;
  for (SchedulerPolicy* p :
       {static_cast<SchedulerPolicy*>(&fifo),
        static_cast<SchedulerPolicy*>(&lifo),
        static_cast<SchedulerPolicy*>(&numa),
        static_cast<SchedulerPolicy*>(&defaulted)}) {
    fill(*p);
    Task* out[16] = {};
    // Ask for more than available: got reports the true count.
    EXPECT_EQ(p->getTasks(out, 16, 0), pool.size()) << p->policyName();
    std::vector<Task*> bulk(out, out + pool.size());

    fill(*p);
    std::vector<Task*> oneByOne;
    while (Task* t = p->getTask(0)) oneByOne.push_back(t);
    EXPECT_EQ(bulk, oneByOne) << p->policyName();
    EXPECT_EQ(p->getTasks(out, 4, 0), 0u) << p->policyName();
  }
}

TEST(PolicyTest, NumaFifoPrefersLocalDomainThenFallsBack) {
  // Rome-shaped 8-CPU topology: 8 domains collapse to min(8, ...) per
  // makeTopology; build an explicit 2-domain shape instead so the
  // domain math is known: CPUs 0-1 -> domain 0, CPUs 2-3 -> domain 1.
  Topology topo;
  topo.numCpus = 4;
  topo.numNumaDomains = 2;
  NumaFifoPolicy numa(topo);

  std::vector<Task> pool(4);
  numa.addTask(&pool[0], 0);  // domain 0
  numa.addTask(&pool[1], 1);  // domain 0
  numa.addTask(&pool[2], 2);  // domain 1
  numa.addTask(&pool[3], 3);  // domain 1

  // A domain-1 CPU drains its own domain (FIFO within it) first...
  EXPECT_EQ(numa.getTask(2), &pool[2]);
  EXPECT_EQ(numa.getTask(3), &pool[3]);
  // ...then falls back to the remote domain instead of idling.
  EXPECT_EQ(numa.getTask(2), &pool[0]);
  EXPECT_EQ(numa.getTask(2), &pool[1]);
  EXPECT_EQ(numa.getTask(2), nullptr);
  EXPECT_STREQ(numa.policyName(), "numa_fifo");
}

TEST(PolicyTest, NumaFifoConservesAcrossDomainsExactlyOnce) {
  Topology topo;
  topo.numCpus = 8;
  topo.numNumaDomains = 4;
  NumaFifoPolicy numa(topo);
  std::vector<Task> pool(200);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    numa.addTask(&pool[i], i % topo.numCpus);
  }
  std::vector<Task*> all;
  // Mix single and bulk pulls from rotating CPUs.
  Task* out[8];
  std::size_t cpu = 0;
  for (;;) {
    const std::size_t got = numa.getTasks(out, 3, cpu);
    all.insert(all.end(), out, out + got);
    if (Task* t = numa.getTask(cpu)) all.push_back(t);
    else if (got == 0) break;
    cpu = (cpu + 5) % topo.numCpus;
  }
  ASSERT_EQ(all.size(), pool.size());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < pool.size(); ++i) EXPECT_EQ(all[i], &pool[i]);
}

TEST(PolicyTest, NumaFifoConcurrentAddGetConservesWithoutOuterLock) {
  // ISSUE-9: the per-domain lock hierarchy IS the serialization now —
  // hammer the policy from concurrent producers and consumers pinned to
  // different domains, with NO outer lock, and require exactly-once
  // delivery.  (Every other policy still needs the scheduler's mutual
  // exclusion; NumaFifo must stand alone.)
  Topology topo;
  topo.numCpus = 8;
  topo.numNumaDomains = 4;  // CPUs 2d, 2d+1 -> domain d
  NumaFifoPolicy numa(topo);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::size_t kPerProducer = 5000;
  std::vector<Task> pool(kProducers * kPerProducer);
  std::vector<std::atomic<int>> popped(pool.size());

  std::atomic<std::size_t> producersLive{kProducers};
  std::atomic<std::size_t> consumed{0};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      // Producer p feeds domain p through CPU 2p; single and bulk adds
      // land interleaved with every consumer's pulls.
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        numa.addTask(&pool[p * kPerProducer + i], 2 * p);
      }
      producersLive.fetch_sub(1, std::memory_order_release);
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      // Consumer c is homed on domain c (CPU 2c+1) but drains remote
      // domains too once its own runs dry — the cross-domain fallback
      // path under real concurrency.
      Task* out[8];  // 7 bulk + 1 single per round
      while (consumed.load(std::memory_order_relaxed) < pool.size()) {
        std::size_t got = numa.getTasks(out, 7, 2 * c + 1);
        if (Task* t = numa.getTask(2 * c + 1)) out[got++] = t;
        for (std::size_t i = 0; i < got; ++i) {
          const auto index = static_cast<std::size_t>(out[i] - pool.data());
          popped[index].fetch_add(1, std::memory_order_relaxed);
        }
        if (got != 0) {
          consumed.fetch_add(got, std::memory_order_relaxed);
        } else if (producersLive.load(std::memory_order_acquire) == 0 &&
                   consumed.load(std::memory_order_relaxed) == pool.size()) {
          break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(consumed.load(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ASSERT_EQ(popped[i].load(), 1) << "task " << i
                                   << " delivered zero or multiple times";
  }
}

TEST(PolicyTest, NumaFifoToleratesDegenerateTopology) {
  // A hand-built zero-domain topology must degrade to one global FIFO,
  // not divide by zero inside the domain math.
  Topology topo;
  topo.numCpus = 0;
  topo.numNumaDomains = 0;
  NumaFifoPolicy numa(topo);
  std::vector<Task> pool(3);
  for (auto& t : pool) numa.addTask(&t, 0);
  for (auto& t : pool) EXPECT_EQ(numa.getTask(0), &t);
  EXPECT_EQ(numa.getTask(0), nullptr);
}

TEST(PolicyTest, MakePolicyBuildsEveryKind) {
  const Topology topo = testTopo(4);
  EXPECT_STREQ(makePolicy(PolicyKind::Fifo, topo)->policyName(), "fifo");
  EXPECT_STREQ(makePolicy(PolicyKind::Lifo, topo)->policyName(), "lifo");
  EXPECT_STREQ(makePolicy(PolicyKind::NumaFifo, topo)->policyName(),
               "numa_fifo");
  EXPECT_STREQ(policyKindName(PolicyKind::Fifo), "fifo");
  EXPECT_STREQ(policyKindName(PolicyKind::Lifo), "lifo");
  EXPECT_STREQ(policyKindName(PolicyKind::NumaFifo), "numa_fifo");
}

/// Every policy under the batched SyncScheduler at the bench's thread
/// shape: the conservation law is policy-independent.
class PolicyUnderSchedulerTest
    : public ::testing::TestWithParam<PolicyKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, PolicyUnderSchedulerTest,
                         ::testing::Values(PolicyKind::Fifo, PolicyKind::Lifo,
                                           PolicyKind::NumaFifo),
                         [](const auto& info) {
                           switch (info.param) {
                             case PolicyKind::Fifo: return std::string("Fifo");
                             case PolicyKind::Lifo: return std::string("Lifo");
                             case PolicyKind::NumaFifo:
                               return std::string("NumaFifo");
                           }
                           return std::string("Unknown");
                         });

TEST_P(PolicyUnderSchedulerTest, FloodConservesTasksExactlyOnce) {
  constexpr std::size_t kTasks = 10000;
  constexpr int kConsumers = 3;
  const Topology topo = testTopo(kConsumers + 1);
  SyncScheduler sched(topo, makePolicy(GetParam(), topo));
  std::vector<Task> pool(kTasks);

  std::atomic<std::size_t> retrieved{0};
  std::vector<std::vector<Task*>> got(kConsumers);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (auto& t : pool) sched.addReadyTask(&t, 0);
  });
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t cpu = static_cast<std::size_t>(c) + 1;
      while (retrieved.load(std::memory_order_relaxed) < kTasks) {
        if (Task* t = sched.getReadyTask(cpu); t != nullptr) {
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

}  // namespace
}  // namespace ats
