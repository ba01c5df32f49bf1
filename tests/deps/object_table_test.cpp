// The ObjectTable + TLS entry cache behind both dependency systems.
// The laws under test:
//
//   * exactly-one-Entry pin: every thread racing lookupOrCreate on the
//     same address gets the SAME Entry pointer (an insert that finds
//     the address published under the lock returns that one), and
//     distinct addresses get distinct entries;
//   * pointer stability: entries never move, not across growth past the
//     first segment;
//   * TLS cache soundness: a hit returns the same pointer a probe
//     would, and two tables never answer each other's lookups.  The
//     reset half (a cached pair survives a deps reset) is in deps_test.
#include "deps/object_table.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace ats {
namespace {

struct Payload {
  std::uint64_t value = 0;
};

void* key(std::uintptr_t index) {
  // Table keys are addresses; synthesize well-spread, never-dereferenced
  // ones (aligned like heap pointers so the low-bit shift in the mixer
  // sees realistic input).
  return reinterpret_cast<void*>((index + 1) << 6);
}

TEST(ObjectTableTest, LookupIsIdempotentAndDistinctPerAddress) {
  ObjectTable<Payload> table;
  Payload& a = table.lookupOrCreate(key(1));
  Payload& b = table.lookupOrCreate(key(2));
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&table.lookupOrCreate(key(1)), &a);
  EXPECT_EQ(&table.lookupOrCreate(key(2)), &b);
  EXPECT_EQ(table.entryCount(), 2u);
}

TEST(ObjectTableTest, SameAddressInsertRaceYieldsExactlyOneEntry) {
  // N threads race the first touch of the same addresses: the locked
  // insert must publish exactly one Entry per address, and every thread
  // that missed it in its find must get that one.  Threads only COLLECT
  // pointers (entry mutation is the deps layer's serialization
  // contract, not the table's).
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kAddrs = 512;
  ObjectTable<Payload> table;

  std::vector<std::vector<Payload*>> got(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].reserve(kAddrs);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (std::size_t i = 0; i < kAddrs; ++i) {
        got[t].push_back(&table.lookupOrCreate(key(i)));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 1; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kAddrs; ++i) {
      ASSERT_EQ(got[t][i], got[0][i])
          << "thread " << t << " pinned a different entry for address " << i;
    }
  }
  std::set<Payload*> distinct(got[0].begin(), got[0].end());
  EXPECT_EQ(distinct.size(), kAddrs);
  EXPECT_EQ(table.entryCount(), kAddrs);
}

TEST(ObjectTableTest, DistinctAddressInsertRaceKeepsEveryEntryApart) {
  // Disjoint per-thread address sets racing into the same segments:
  // no thread's insert may clobber or alias another's.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 400;
  ObjectTable<Payload> table;

  std::vector<std::vector<Payload*>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        got[t].push_back(
            &table.lookupOrCreate(key(t * kPerThread + i)));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<Payload*> distinct;
  for (const auto& mine : got) distinct.insert(mine.begin(), mine.end());
  EXPECT_EQ(distinct.size(), kThreads * kPerThread);
  EXPECT_EQ(table.entryCount(), kThreads * kPerThread);

  // Every pointer still resolves to itself after the dust settles.
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(&table.lookupOrCreate(key(t * kPerThread + i)), got[t][i]);
    }
  }
}

TEST(ObjectTableTest, GrowthPastFirstSegmentKeepsPointersStable) {
  // Push well past the first segment's capacity (1024 slots, 16-probe
  // windows overflow earlier than that) and require (a) extra segments
  // actually appeared, (b) every previously returned pointer survives
  // re-lookup — growth appends, never rehashes.
  constexpr std::size_t kAddrs = 4000;
  ObjectTable<Payload> table;
  EXPECT_EQ(table.segmentCount(), 1u);

  std::vector<Payload*> first;
  first.reserve(kAddrs);
  for (std::size_t i = 0; i < kAddrs; ++i) {
    first.push_back(&table.lookupOrCreate(key(i)));
    first.back()->value = i;
  }
  EXPECT_GE(table.segmentCount(), 2u);
  EXPECT_EQ(table.entryCount(), kAddrs);

  for (std::size_t i = 0; i < kAddrs; ++i) {
    Payload& again = table.lookupOrCreate(key(i));
    ASSERT_EQ(&again, first[i]) << "entry " << i << " moved during growth";
    ASSERT_EQ(again.value, i);
  }
}

TEST(ObjectTableTest, AdjacentDoublesDoNotEvictEachOtherInTheThreadCache) {
  // Adjacent 8-byte scalars are the smallest dependency objects the apps
  // register.  If the address mixer dropped their distinguishing bit,
  // each pair would share one direct-mapped slot and evict each other
  // on every pass, so the warm hit rate would collapse to zero.
  constexpr std::size_t kObjects = 64;
  constexpr int kWarmPasses = 20;
  ObjectTable<Payload> table;
  std::vector<double> objects(kObjects);
  for (double& object : objects) table.lookupOrCreate(&object);

  const auto before = objectTableThreadCacheCounters();
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    for (double& object : objects) table.lookupOrCreate(&object);
  }
  const auto after = objectTableThreadCacheCounters();
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t lookups = hits + (after.misses - before.misses);
  ASSERT_EQ(lookups, kObjects * kWarmPasses);
  EXPECT_GE(hits * 100, lookups * 99)
      << hits << " warm hits out of " << lookups << " lookups";
}

TEST(ObjectTableTest, TwoTablesNeverAliasInTheSharedThreadCache) {
  // The TLS cache is shared by every table in the process; the epoch
  // stamp is what keeps one table's entries from answering another's
  // lookups for the same address.
  ObjectTable<Payload> one;
  ObjectTable<Payload> two;
  Payload& inOne = one.lookupOrCreate(key(3));
  Payload& inTwo = two.lookupOrCreate(key(3));
  EXPECT_NE(&inOne, &inTwo);
  // Alternate lookups: each table keeps resolving to its own entry.
  EXPECT_EQ(&one.lookupOrCreate(key(3)), &inOne);
  EXPECT_EQ(&two.lookupOrCreate(key(3)), &inTwo);
  EXPECT_EQ(&one.lookupOrCreate(key(3)), &inOne);
}

TEST(ObjectTableTest, ForEachVisitsEveryEntryOnce) {
  ObjectTable<Payload> table;
  constexpr std::size_t kAddrs = 300;
  for (std::size_t i = 0; i < kAddrs; ++i) {
    table.lookupOrCreate(key(i)).value = 1;
  }
  std::size_t visited = 0;
  table.forEach([&](Payload& p) {
    visited += p.value;  // 1 per entry; a double-visit would overshoot
  });
  EXPECT_EQ(visited, kAddrs);
}

TEST(ObjectTableTest, EntriesNeverShareACacheLine) {
  // An entry is written by whichever thread registers or releases on its
  // object, so each one owns a 64-byte line: a neighbour on the same line
  // would make two objects' bookkeeping contend for one coherence unit.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 1000;
  constexpr std::uintptr_t kLineBytes = 64;
  ObjectTable<Payload> table;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        table.lookupOrCreate(key(t * kPerThread + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<std::uintptr_t> lines;
  std::size_t entries = 0;
  std::size_t straddling = 0;
  table.forEach([&](Payload& p) {
    const auto first = reinterpret_cast<std::uintptr_t>(&p);
    const auto last = first + sizeof(Payload) - 1;
    if (first / kLineBytes != last / kLineBytes) ++straddling;
    lines.insert(first / kLineBytes);
    ++entries;
  });
  EXPECT_EQ(entries, kThreads * kPerThread);
  EXPECT_EQ(straddling, 0u) << "entries straddle a line boundary";
  EXPECT_EQ(lines.size(), entries) << "entries share a line";
}

}  // namespace
}  // namespace ats
