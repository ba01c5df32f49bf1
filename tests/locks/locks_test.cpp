#include "locks/locks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace ats {
namespace {

constexpr int kThreads = 8;
constexpr std::uint64_t kIncrementsPerThread = 20000;

/// The §3.2 correctness bar: 8 threads hammering a plain (non-atomic)
/// counter under the lock.  Any lost update or missing fence shows up as
/// a wrong total; TSan additionally checks the happens-before edges.
/// With `kPollOddThreads`, odd threads take the lock by polling tryLock
/// while even threads queue, so the two paths must interoperate.
template <bool kPollOddThreads = false, typename LockT>
void contendedIncrement(LockT& lock) {
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kIncrementsPerThread; ++i) {
        if constexpr (kPollOddThreads) {
          if (t % 2 != 0) {
            SpinWait w;
            while (!lock.tryLock()) w.spin();  // polling path
          } else {
            lock.lock();  // FIFO path
          }
        } else {
          lock.lock();
        }
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) *
                         kIncrementsPerThread);
}

TEST(Locks, SpinLockContendedIncrement) {
  SpinLock lock;
  contendedIncrement(lock);
}

TEST(Locks, TicketLockContendedIncrement) {
  TicketLock lock;
  contendedIncrement(lock);
}

TEST(Locks, McsLockContendedIncrement) {
  McsLock lock;
  contendedIncrement(lock);
}

TEST(Locks, TWALockContendedIncrement) {
  TWALock lock;
  contendedIncrement(lock);
}

TEST(Locks, PTLockContendedIncrement) {
  PTLock lock(64);
  contendedIncrement(lock);
}

TEST(Locks, PTLockTinyWaitingArrayStillCorrect) {
  PTLock lock(8);  // exactly the contender count: every slot recycles
  contendedIncrement(lock);
}

TEST(Locks, DTLockPlainLockContendedIncrement) {
  DTLock lock(64);
  contendedIncrement(lock);
}

TEST(Locks, SpinLockTryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.tryLock());
  EXPECT_FALSE(lock.tryLock());
  lock.unlock();
  EXPECT_TRUE(lock.tryLock());
  lock.unlock();
}

TEST(Locks, PTLockTryLock) {
  // DTLock inherits lock/tryLock/unlock, so it walks the same path.
  PTLock ptlock(8);
  DTLock dtlock(8);
  for (PTLock* lock : {&ptlock, static_cast<PTLock*>(&dtlock)}) {
    EXPECT_TRUE(lock->tryLock());
    EXPECT_FALSE(lock->tryLock());  // held
    lock->unlock();
    EXPECT_TRUE(lock->tryLock());
    lock->unlock();
    lock->lock();  // FIFO and try paths interoperate
    EXPECT_FALSE(lock->tryLock());
    lock->unlock();
    EXPECT_TRUE(lock->tryLock());
    lock->unlock();
  }
}

TEST(Locks, PTLockMixedLockAndTryLockContendedIncrement) {
  PTLock ptlock(16);
  contendedIncrement</*kPollOddThreads=*/true>(ptlock);
  DTLock dtlock(16);  // inherits both paths
  contendedIncrement</*kPollOddThreads=*/true>(dtlock);
}

TEST(Locks, DTLockSingleThreadServeProtocol) {
  DTLock lock(8);
  lock.lock();
  std::uint64_t cpus[4] = {};
  EXPECT_EQ(lock.popWaiters(cpus, 4), 0u);  // nobody queued
  lock.unlock();

  // Re-acquire through the delegating entry point with no holder: the
  // caller must get the lock, not a delegation, so nothing is queued.
  std::uintptr_t items[DTLock::kMaxItems] = {};
  std::size_t n = 0;
  EXPECT_TRUE(lock.lockOrDelegate(3, items, n));
  EXPECT_EQ(lock.popWaiters(cpus, 4), 0u);
  lock.unlock();
}

/// Deterministic batched-serve protocol walk: a holder pins the lock,
/// known delegators queue behind it, and the holder answers them with
/// popWaiters snapshots smaller than the queue — exercising batch
/// boundaries (a burst split across two serveBatch calls) without any
/// scheduling luck involved.
TEST(Locks, DTLockPopWaitersSnapshotsAndServesInTicketOrder) {
  constexpr std::uint64_t kWaiters = 4;
  DTLock lock(16);
  lock.lock();

  std::uint64_t cpus[kWaiters] = {};
  EXPECT_EQ(lock.popWaiters(cpus, kWaiters), 0u);  // nobody queued

  std::atomic<std::uint64_t> results[kWaiters];
  for (auto& r : results) r.store(0, std::memory_order_relaxed);
  std::vector<std::thread> waiters;
  for (std::uint64_t t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&, t] {
      std::uintptr_t items[DTLock::kMaxItems] = {};
      std::size_t n = 0;
      // The lock is held for the whole queuing phase, so every waiter
      // must be served (never acquire).
      ASSERT_FALSE(lock.lockOrDelegate(t, items, n));
      ASSERT_EQ(n, 1u);
      results[t].store(items[0], std::memory_order_relaxed);
    });
  }

  // popWaiters does not consume: poll until the snapshot covers all
  // four queued requests, then check re-reading returns the same run.
  SpinWait w;
  while (lock.popWaiters(cpus, kWaiters) < kWaiters) w.spin();
  std::uint64_t again[kWaiters] = {};
  ASSERT_EQ(lock.popWaiters(again, kWaiters), kWaiters);
  for (std::uint64_t i = 0; i < kWaiters; ++i) EXPECT_EQ(again[i], cpus[i]);

  // Serve in two batches of two: the split must not lose, reorder, or
  // double-serve anyone.
  std::uint64_t batch[2] = {};
  std::uintptr_t items[2] = {};
  const std::size_t counts[2] = {1, 1};
  for (int half = 0; half < 2; ++half) {
    ASSERT_EQ(lock.popWaiters(batch, 2), 2u);
    for (int i = 0; i < 2; ++i) items[i] = 100 + batch[i];
    lock.serveBatch(batch, items, counts, 2);
  }
  EXPECT_EQ(lock.popWaiters(cpus, kWaiters), 0u);  // everyone answered
  lock.unlock();
  for (auto& t : waiters) t.join();

  for (std::uint64_t t = 0; t < kWaiters; ++t) {
    EXPECT_EQ(results[t].load(std::memory_order_relaxed), 100 + t)
        << "waiter " << t << " got someone else's result";
  }
}

/// The result line carries extras.  Waiters queue one at a time, so
/// waiter i holds ticket i; the holder answers waiter i with one item
/// plus (i mod kMaxItems) extras, and the last waiter with 0.  Each
/// waiter must read exactly its own items, in order, and the one
/// answered 0 must read none — even though the slot it reuses held a
/// full line of extras from an earlier answer.
TEST(Locks, DTLockAnswersCarryEachWaitersOwnExtrasInOrder) {
  constexpr std::uint64_t kServed = DTLock::kMaxItems + 2;
  constexpr std::uint64_t kWaiters = kServed + 1;  // the last gets 0
  constexpr std::uint64_t kZeroCpu = kWaiters - 1;
  DTLock lock(32);
  lock.lock();

  // Fill the zero-answered waiter's slot with a full line first, so a
  // reader that ignored the 0 answer would find stale extras there.
  std::vector<std::uintptr_t> full(DTLock::kMaxItems);
  for (std::size_t j = 0; j < full.size(); ++j) full[j] = 7000 + j;
  {
    std::thread early([&] {
      std::uintptr_t items[DTLock::kMaxItems] = {};
      std::size_t n = 0;
      ASSERT_FALSE(lock.lockOrDelegate(kZeroCpu, items, n));
      ASSERT_EQ(n, DTLock::kMaxItems);
      for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(items[j], full[j]);
    });
    std::uint64_t cpu = 0;
    SpinWait w;
    while (lock.popWaiters(&cpu, 1) < 1) w.spin();
    ASSERT_EQ(cpu, kZeroCpu);
    const std::size_t count = DTLock::kMaxItems;
    lock.serveBatch(&cpu, full.data(), &count, 1);
    early.join();
  }

  std::vector<std::vector<std::uintptr_t>> got(kWaiters);
  std::vector<std::thread> waiters;
  std::uint64_t cpus[kWaiters] = {};
  for (std::uint64_t t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&, t] {
      std::uintptr_t items[DTLock::kMaxItems] = {};
      std::size_t n = 0;
      ASSERT_FALSE(lock.lockOrDelegate(t, items, n));
      got[t].assign(items, items + n);
    });
    // Ticket order = thread order: wait for this request to queue
    // before starting the next.
    SpinWait w;
    while (lock.popWaiters(cpus, kWaiters) < t + 1) w.spin();
  }
  for (std::uint64_t i = 0; i < kWaiters; ++i) ASSERT_EQ(cpus[i], i);

  std::vector<std::uintptr_t> items;
  std::size_t counts[kWaiters] = {};
  for (std::uint64_t i = 0; i < kServed; ++i) {
    counts[i] = 1 + i % DTLock::kMaxItems;
    for (std::size_t j = 0; j < counts[i]; ++j)
      items.push_back(1000 * (i + 1) + j);
  }
  counts[kZeroCpu] = 0;
  lock.serveBatch(cpus, items.data(), counts, kWaiters);
  EXPECT_EQ(lock.popWaiters(cpus, kWaiters), 0u);  // everyone answered
  lock.unlock();
  for (auto& t : waiters) t.join();

  for (std::uint64_t i = 0; i < kServed; ++i) {
    ASSERT_EQ(got[i].size(), counts[i]) << "waiter " << i;
    for (std::size_t j = 0; j < counts[i]; ++j)
      EXPECT_EQ(got[i][j], 1000 * (i + 1) + j)
          << "waiter " << i << " item " << j;
  }
  EXPECT_TRUE(got[kZeroCpu].empty()) << "a 0 answer carried extras";
}

/// The hold counter after a serve: once a holder has served n queued
/// delegators, its unlock() must grant the plain lock() caller queued
/// behind them, which then sees the holder's writes.  `next_` counts the
/// tickets, so every thread is known to be queued before the serve.
TEST(Locks, DTLockPlainLockerBehindServedDelegatorsAcquiresOnUnlock) {
  struct CountingDTLock : DTLock {
    using DTLock::DTLock;
    std::uint64_t tickets() const { return next_.load(); }
  };
  constexpr std::uint64_t kWaiters = 3;
  CountingDTLock lock(16);
  lock.lock();  // ticket 0
  int written = 0;  // plain data, guarded by the lock
  int seen = 0;
  std::vector<std::thread> threads;
  SpinWait w;
  for (std::uint64_t t = 0; t < kWaiters; ++t) {  // waiter t: ticket t + 1
    threads.emplace_back([&, t] {
      std::uintptr_t items[DTLock::kMaxItems] = {};
      std::size_t n = 0;
      ASSERT_FALSE(lock.lockOrDelegate(t, items, n));
      EXPECT_EQ(n, 1u);
      EXPECT_EQ(items[0], 100 + t);
    });
    while (lock.tickets() < t + 2) w.spin();
  }
  threads.emplace_back([&] {  // ticket kWaiters + 1
    lock.lock();
    seen = written;
    lock.unlock();
  });
  while (lock.tickets() < kWaiters + 2) w.spin();

  // The snapshot stops at the plain locker: it wants the lock itself.
  std::uint64_t cpus[kWaiters + 1] = {};
  while (lock.popWaiters(cpus, kWaiters + 1) < kWaiters) w.spin();
  ASSERT_EQ(lock.popWaiters(cpus, kWaiters + 1), kWaiters);
  const std::uintptr_t items[kWaiters] = {100, 101, 102};  // ticket order
  const std::size_t counts[kWaiters] = {1, 1, 1};
  lock.serveBatch(cpus, items, counts, kWaiters);
  EXPECT_EQ(lock.popWaiters(cpus, kWaiters + 1), 0u);  // tickets consumed
  written = 42;
  lock.unlock();
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen, 42);  // granted by unlock(), after the holder's write
  EXPECT_TRUE(lock.tryLock());  // and left the lock free, nobody queued
  lock.unlock();
}

/// Mirrors the SyncScheduler usage under the §3.2 8-thread stress shape:
/// every thread asks for "the next ticket number" via delegation.  The
/// holder mints numbers for itself and answers queued waiters through
/// popWaiters/serveBatch with a snapshot cap of 3 — far below the
/// contender count, so batch boundaries land mid-queue constantly and
/// served waiters requeue while the holder is still serving.  Mutual
/// exclusion and exactly-once delivery = the multiset is 1..N.
TEST(Locks, DTLockBatchedServeDeliversExactlyOnce) {
  constexpr int kOps = 2000;
  constexpr std::size_t kBatchCap = 3;
  DTLock lock(64);
  std::uint64_t counter = 0;  // guarded by lock
  std::vector<std::vector<std::uintptr_t>> got(kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = got[static_cast<std::size_t>(t)];
      std::uint64_t cpus[kBatchCap];
      std::uintptr_t items[kBatchCap];
      const std::size_t counts[kBatchCap] = {1, 1, 1};
      while (mine.size() < static_cast<std::size_t>(kOps)) {
        std::uintptr_t answer[DTLock::kMaxItems] = {};
        std::size_t got = 0;
        if (lock.lockOrDelegate(static_cast<std::uint64_t>(t), answer,
                                got)) {
          mine.push_back(++counter);  // holder serves itself...
          std::size_t n;
          while ((n = lock.popWaiters(cpus, kBatchCap)) != 0) {
            for (std::size_t i = 0; i < n; ++i) {
              items[i] = static_cast<std::uintptr_t>(++counter);
            }
            // ...and batches of waiters
            lock.serveBatch(cpus, items, counts, n);
          }
          lock.unlock();
        } else {
          ASSERT_EQ(got, 1u);
          mine.push_back(answer[0]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<std::uintptr_t> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kOps);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i + 1) << "batched delegation lost or duplicated";
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kOps);
}

}  // namespace
}  // namespace ats
