#include "deps/dependency_system.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "deps/object_table.hpp"
#include "memory/pool_allocator.hpp"
#include "runtime/task.hpp"

namespace ats {
namespace {

/// Records every ready callback so tests can assert both order and the
/// exactly-once contract.
struct SinkRecorder {
  std::vector<DepTask*> order;
  std::map<DepTask*, int> counts;

  static void onReady(void* ctx, DepTask* task, std::size_t /*cpu*/) {
    auto* self = static_cast<SinkRecorder*>(ctx);
    self->order.push_back(task);
    self->counts[task] += 1;
  }

  ReadySink sink() { return ReadySink{&SinkRecorder::onReady, this}; }

  bool ready(DepTask* task) const { return counts.count(task) != 0; }
};

/// Single-threaded driver: registrations and releases issued in program
/// order, so every test assertion is about the protocol's bookkeeping,
/// not about races (the runtime tests cover those under TSan).
class EveryDepsSystemTest : public ::testing::TestWithParam<DepsKind> {
 protected:
  void SetUp() override {
    deps_ = makeDependencySystem(GetParam(), rec_.sink());
    ASSERT_NE(deps_, nullptr);
  }

  void reg(DepTask& task, std::initializer_list<Access> accesses) {
    deps_->registerTask(&task, accesses.begin(), accesses.size(), 0);
  }

  SinkRecorder rec_;
  std::unique_ptr<DependencySystem> deps_;
};

INSTANTIATE_TEST_SUITE_P(Kinds, EveryDepsSystemTest,
                         ::testing::Values(DepsKind::WaitFreeAsm,
                                           DepsKind::FineGrainedLocks),
                         [](const auto& info) {
                           return info.param == DepsKind::WaitFreeAsm
                                      ? std::string("WaitFreeAsm")
                                      : std::string("FineGrainedLocks");
                         });

TEST_P(EveryDepsSystemTest, NoAccessesReadyImmediately) {
  DepTask task;
  reg(task, {});
  EXPECT_EQ(rec_.order, std::vector<DepTask*>{&task});
  deps_->release(&task, 0);
  EXPECT_EQ(rec_.counts[&task], 1);
}

TEST_P(EveryDepsSystemTest, WriteChainReadiesInOrderExactlyOnce) {
  long long x = 0;
  DepTask t0, t1, t2;
  reg(t0, {inout(x)});
  reg(t1, {inout(x)});
  reg(t2, {inout(x)});
  ASSERT_EQ(rec_.order, std::vector<DepTask*>{&t0});

  deps_->release(&t0, 0);
  ASSERT_EQ(rec_.order, (std::vector<DepTask*>{&t0, &t1}));
  deps_->release(&t1, 0);
  ASSERT_EQ(rec_.order, (std::vector<DepTask*>{&t0, &t1, &t2}));
  deps_->release(&t2, 0);

  for (DepTask* t : {&t0, &t1, &t2}) EXPECT_EQ(rec_.counts[t], 1);
}

TEST_P(EveryDepsSystemTest, WriteAfterWriteWithNoInterveningReads) {
  // Exercises the write's chain edge alone: the predecessor's read group
  // is empty, so only the predecessor's completion may ready t1.
  long long x = 0;
  DepTask t0, t1;
  reg(t0, {out(x)});
  reg(t1, {out(x)});
  EXPECT_FALSE(rec_.ready(&t1));
  deps_->release(&t0, 0);
  EXPECT_TRUE(rec_.ready(&t1));
  EXPECT_EQ(rec_.counts[&t1], 1);
}

TEST_P(EveryDepsSystemTest, ReadersRunTogetherWriterWaitsForAll) {
  long long x = 0;
  DepTask writer1, r0, r1, r2, writer2;
  reg(writer1, {inout(x)});
  reg(r0, {in(x)});
  reg(r1, {in(x)});
  reg(r2, {in(x)});
  reg(writer2, {inout(x)});
  // Only the first writer may run.
  EXPECT_EQ(rec_.order, std::vector<DepTask*>{&writer1});

  // Its completion releases the whole read group at once...
  deps_->release(&writer1, 0);
  EXPECT_EQ(rec_.order,
            (std::vector<DepTask*>{&writer1, &r0, &r1, &r2}));

  // ...and the second writer needs every reader, not just the last.
  deps_->release(&r0, 0);
  deps_->release(&r2, 0);
  EXPECT_FALSE(rec_.ready(&writer2));
  deps_->release(&r1, 0);
  EXPECT_TRUE(rec_.ready(&writer2));
  deps_->release(&writer2, 0);

  for (DepTask* t : {&writer1, &r0, &r1, &r2, &writer2})
    EXPECT_EQ(rec_.counts[t], 1);
}

// The immediate-successor hand-back: the last task a release readies
// comes back to the caller, and each one readied before it goes to the
// sink as the next one displaces it.  release() sinks that last one too,
// so its callers see the same sink order as ever.
TEST_P(EveryDepsSystemTest, ReleaseKeepsTheLastReadiedSuccessor) {
  long long x = 0, y = 0;
  DepTask writer, r1, r2, r3;
  reg(writer, {inout(x)});
  reg(r1, {in(x)});
  reg(r2, {in(x)});
  reg(r3, {in(x)});
  ASSERT_EQ(rec_.order, std::vector<DepTask*>{&writer});

  EXPECT_EQ(deps_->releaseKeepingLast(&writer, 0), &r3);
  EXPECT_EQ(rec_.order, (std::vector<DepTask*>{&writer, &r1, &r2}));

  // A release that readies nothing keeps nothing.
  EXPECT_EQ(deps_->releaseKeepingLast(&r1, 0), nullptr);
  EXPECT_EQ(deps_->releaseKeepingLast(&r2, 0), nullptr);
  EXPECT_EQ(deps_->releaseKeepingLast(&r3, 0), nullptr);
  EXPECT_EQ(rec_.order.size(), 3u);

  // The same graph through release(): all three readers reach the sink,
  // in registration order.
  DepTask writerY, s1, s2, s3;
  reg(writerY, {inout(y)});
  reg(s1, {in(y)});
  reg(s2, {in(y)});
  reg(s3, {in(y)});
  rec_.order.clear();
  deps_->release(&writerY, 0);
  EXPECT_EQ(rec_.order, (std::vector<DepTask*>{&s1, &s2, &s3}));
  for (DepTask* t : {&s1, &s2, &s3}) deps_->release(t, 0);
  EXPECT_EQ(rec_.order.size(), 3u);
}

TEST_P(EveryDepsSystemTest, ReadsBeforeAnyWriteReadyImmediately) {
  long long x = 0;
  DepTask r0, r1, writer;
  reg(r0, {in(x)});
  reg(r1, {in(x)});
  EXPECT_EQ(rec_.order, (std::vector<DepTask*>{&r0, &r1}));
  reg(writer, {out(x)});
  EXPECT_FALSE(rec_.ready(&writer));
  deps_->release(&r0, 0);
  deps_->release(&r1, 0);
  EXPECT_TRUE(rec_.ready(&writer));
  deps_->release(&writer, 0);
}

TEST_P(EveryDepsSystemTest, IndependentObjectsDoNotInterfere) {
  long long x = 0, y = 0;
  DepTask tx, ty;
  reg(tx, {out(x)});
  reg(ty, {out(y)});
  EXPECT_EQ(rec_.order, (std::vector<DepTask*>{&tx, &ty}));
  deps_->release(&ty, 0);
  deps_->release(&tx, 0);
}

TEST_P(EveryDepsSystemTest, MultiAccessTaskWaitsForEveryObject) {
  long long x = 0, y = 0;
  DepTask writerX, writerY, joiner;
  reg(writerX, {out(x)});
  reg(writerY, {out(y)});
  reg(joiner, {in(x), inout(y)});
  EXPECT_FALSE(rec_.ready(&joiner));
  deps_->release(&writerX, 0);
  EXPECT_FALSE(rec_.ready(&joiner));
  deps_->release(&writerY, 0);
  EXPECT_TRUE(rec_.ready(&joiner));
  deps_->release(&joiner, 0);
  EXPECT_EQ(rec_.counts[&joiner], 1);
}

TEST_P(EveryDepsSystemTest, ResetAllowsDescriptorReuse) {
  long long x = 0;
  DepTask t0, t1;
  reg(t0, {inout(x)});
  deps_->release(&t0, 0);
  deps_->reset();

  // Same descriptors, same object, fresh chains: t0 must be ready at
  // registration again instead of chaining behind its stale former self.
  reg(t0, {inout(x)});
  EXPECT_EQ(rec_.counts[&t0], 2);
  reg(t1, {inout(x)});
  EXPECT_FALSE(rec_.ready(&t1));
  deps_->release(&t0, 0);
  EXPECT_TRUE(rec_.ready(&t1));
  deps_->release(&t1, 0);
}

// An entry lives as long as its table, so a reset keeps every thread's
// cached address->entry pair: re-registering a known object afterwards
// is a thread-cache hit, on the very entry the reset cleared — the task
// is ready at once, and the next access on the object chains behind it.
TEST_P(EveryDepsSystemTest, ReregistrationAfterResetHitsTheThreadCache) {
  long long x = 0;
  DepTask t0, t1;
  reg(t0, {inout(x)});
  deps_->release(&t0, 0);
  deps_->reset();

  const auto before = objectTableThreadCacheCounters();
  reg(t0, {inout(x)});
  const auto after = objectTableThreadCacheCounters();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(rec_.counts[&t0], 2);

  reg(t1, {inout(x)});
  EXPECT_FALSE(rec_.ready(&t1));
  deps_->release(&t0, 0);
  EXPECT_TRUE(rec_.ready(&t1));
  deps_->release(&t1, 0);
}

// A descriptor's node slots are raw storage: neither constructing the
// Task nor registering k accesses may write the slots past k.  A freed
// pool block comes back from the LIFO magazine poisoned, so any such
// store shows up as a byte that no longer reads kPoisonByte.
TEST_P(EveryDepsSystemTest, UndeclaredNodeSlotsStayUnwritten) {
  PoolAllocator& pool = PoolAllocator::instance();
  const bool wasPoisoning = pool.poisoningEnabled();
  pool.setPoisoning(true);
  long long x = 0, y = 0;
  const Access accesses[] = {inout(x), in(y)};
  for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
    void* mem = pool.allocate(sizeof(Task));
    pool.deallocate(mem, sizeof(Task));
    ASSERT_EQ(pool.allocate(sizeof(Task)), mem);
    Task* task = ::new (mem) Task;  // exactly as Runtime::allocateTask
    deps_->registerTask(task, accesses, k, 0);

    const std::byte* rest = task->accessNodes[k];
    for (std::size_t i = 0; i < (kMaxAccessesPerTask - k) * kAccessNodeBytes;
         ++i) {
      ASSERT_EQ(rest[i], std::byte{PoolAllocator::kPoisonByte})
          << k << " accesses wrote slot " << k + i / kAccessNodeBytes
          << " at byte " << i % kAccessNodeBytes;
    }
    deps_->release(task, 0);
    deps_->reset();
    task->~Task();
    pool.deallocate(mem, sizeof(Task));
  }
  pool.setPoisoning(wasPoisoning);
}

TEST_P(EveryDepsSystemTest, ReportsItsName) {
  EXPECT_STREQ(depsKindName(GetParam()), GetParam() == DepsKind::WaitFreeAsm
                                             ? "waitfree_asm"
                                             : "fine_grained_locks");
}

}  // namespace
}  // namespace ats
