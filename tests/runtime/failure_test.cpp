// Failure-domain coverage: the catch frame, graph poisoning and the
// skip-don't-run drain, taskwaitChecked rethrow, failpoint-driven spawn
// failures, the watchdog, and the fatal path — across every scheduler
// and deps kind.  The invariant under test everywhere: a failing graph
// DRAINS (descriptors return to the allocator, chains reset) and the
// runtime stays usable for the next batch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/failpoint.hpp"
#include "instr/trace_analyzer.hpp"
#include "instr/trace_writer.hpp"
#include "instr/tracer.hpp"
#include "runtime/runtime.hpp"

namespace ats {
namespace {

RuntimeConfig testConfig(DepsKind deps, SchedulerKind sched,
                         std::size_t workers) {
  RuntimeConfig config =
      optimizedConfig(makeTopology(MachinePreset::Host, workers));
  config.deps = deps;
  config.scheduler = sched;
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

using Matrix = std::tuple<DepsKind, SchedulerKind>;

class FailureMatrixTest : public ::testing::TestWithParam<Matrix> {};

INSTANTIATE_TEST_SUITE_P(
    Configs, FailureMatrixTest,
    ::testing::Combine(::testing::Values(DepsKind::WaitFreeAsm,
                                         DepsKind::FineGrainedLocks),
                       ::testing::Values(SchedulerKind::SyncDelegation,
                                         SchedulerKind::PTLockCentral,
                                         SchedulerKind::CentralMutex,
                                         SchedulerKind::WorkStealing)),
    [](const auto& info) {
      return kindName(std::get<0>(info.param)) + "_" +
             schedName(std::get<1>(info.param));
    });

// A body throwing mid-graph must not terminate the process, must surface
// through taskwaitChecked, must conserve every descriptor, and must
// leave the runtime fully usable.
TEST_P(FailureMatrixTest, ThrowingTaskPoisonsDrainsAndRethrows) {
  constexpr int kTasks = 500;
  const auto [deps, sched] = GetParam();
  Runtime rt(testConfig(deps, sched, 8));

  const std::uint64_t failedBefore = rt.tasksFailed();
  const std::uint64_t skippedBefore = rt.tasksSkipped();
  std::atomic<int> executed{0};
  for (int i = 0; i < kTasks; ++i) {
    rt.spawn({}, [&executed, i] {
      if (i == kTasks / 2) throw std::runtime_error("boom");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(rt.taskwaitChecked(), std::runtime_error);

  // Conservation under failure: every spawned descriptor either ran to
  // completion, threw, or was skipped by the drain — and all of them
  // went back to the allocator.
  const std::uint64_t failed = rt.tasksFailed() - failedBefore;
  const std::uint64_t skipped = rt.tasksSkipped() - skippedBefore;
  EXPECT_GE(failed, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(executed.load()) + failed + skipped,
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(rt.liveDescriptors(), 0u);

  // The failure state was consumed: the next batch starts clean and a
  // checked wait returns normally.
  std::atomic<int> secondBatch{0};
  for (int i = 0; i < kTasks; ++i) {
    rt.spawn({}, [&secondBatch] {
      secondBatch.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_NO_THROW(rt.taskwaitChecked());
  EXPECT_EQ(secondBatch.load(), kTasks);
  EXPECT_EQ(rt.liveDescriptors(), 0u);
}

// A deep inout chain: everything after the throwing link must be
// SKIPPED, never run — the successor-observes-the-token ordering
// guarantee, deterministic because the chain is totally ordered.
TEST_P(FailureMatrixTest, DeepInoutChainCancelsAllSuccessors) {
  constexpr int kDepth = 400;
  constexpr int kFailAt = 100;
  const auto [deps, sched] = GetParam();
  Runtime rt(testConfig(deps, sched, 8));

  const std::uint64_t skippedBefore = rt.tasksSkipped();
  long long counter = 0;  // non-atomic: the chain serializes access
  for (int i = 0; i < kDepth; ++i) {
    rt.spawn({inout(counter)}, [&counter, i] {
      if (i == kFailAt) throw std::runtime_error("chain link failed");
      ++counter;
    });
  }
  EXPECT_THROW(rt.taskwaitChecked(), std::runtime_error);

  EXPECT_EQ(counter, kFailAt)
      << "a successor of the failed link ran its body";
  EXPECT_EQ(rt.tasksSkipped() - skippedBefore,
            static_cast<std::uint64_t>(kDepth - kFailAt - 1));
  EXPECT_EQ(rt.liveDescriptors(), 0u);
}

// taskwait() (unchecked) drains a poisoned graph too, discarding the
// error instead of rethrowing — the documented legacy/destructor path.
TEST_P(FailureMatrixTest, UncheckedTaskwaitDiscardsTheError) {
  const auto [deps, sched] = GetParam();
  Runtime rt(testConfig(deps, sched, 4));
  rt.spawn({}, [] { throw std::runtime_error("dropped"); });
  EXPECT_NO_THROW(rt.taskwait());
  EXPECT_EQ(rt.liveDescriptors(), 0u);
  EXPECT_NO_THROW(rt.taskwaitChecked()) << "error must not leak forward";
}

// Caller-initiated cancel: the graph drains without running everything,
// and taskwaitChecked returns NORMALLY (cancellation the caller asked
// for is not a failure).
TEST_P(FailureMatrixTest, CancelDrainsWithoutError) {
  constexpr int kDepth = 300;
  const auto [deps, sched] = GetParam();
  Runtime rt(testConfig(deps, sched, 4));

  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  std::atomic<int> executed{0};
  long long chain = 0;
  rt.spawn({inout(chain)}, [&started, &gate, &executed] {
    started.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire))
      std::this_thread::yield();
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 1; i < kDepth; ++i) {
    rt.spawn({inout(chain)}, [&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Cancel only once the head of the chain is demonstrably RUNNING: an
  // in-flight body is never interrupted, so it must complete; every
  // successor observes the token at dequeue and is skipped.
  while (!started.load(std::memory_order_acquire))
    std::this_thread::yield();
  rt.cancel();
  gate.store(true, std::memory_order_release);
  EXPECT_NO_THROW(rt.taskwaitChecked());
  // The gate task was already running when the token flipped; every
  // successor became ready only after it completed and must be skipped.
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(rt.liveDescriptors(), 0u);

  // cancel() is consumed by the wait: the runtime runs normally after.
  std::atomic<int> after{0};
  for (int i = 0; i < 64; ++i)
    rt.spawn({}, [&after] { after.fetch_add(1, std::memory_order_relaxed); });
  rt.taskwait();
  EXPECT_EQ(after.load(), 64);
}

// Failpoint-injected spawn failure: deps_register sits BEFORE any
// mutation, so the throw surfaces at the spawn() call site, the
// descriptor is reclaimed, and the graph that was already registered
// still drains normally.  One site serves both deps kinds.
TEST_P(FailureMatrixTest, SpawnFailureAtDepsRegisterIsClean) {
  const auto [deps, sched] = GetParam();
  Runtime rt(testConfig(deps, sched, 4));
  std::atomic<int> executed{0};
  for (int i = 0; i < 100; ++i) {
    rt.spawn({}, [&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  Failpoint& site = failpoint(FailpointId::deps_register);
  ASSERT_TRUE(site.arm(FailpointMode::Throw, 1.0, 1));
  long long obj = 0;
  EXPECT_THROW(rt.spawn({inout(obj)}, [] {}), FailpointError);
  site.disarm();

  EXPECT_NO_THROW(rt.taskwaitChecked())
      << "a spawn-side failure must not poison the graph";
  EXPECT_EQ(executed.load(), 100);
  EXPECT_EQ(rt.liveDescriptors(), 0u);
}

// A lookup that throws mid-registration: `known` hits the spawner's
// thread cache, filled by its first spawn, and `fresh` misses into the
// armed table_insert.  Registration looks every object up before it
// writes anything, so the failed spawn leaves no node in `known`'s
// chain and no reference armed in its descriptor.  The latched task
// holds the freed block, so a node left behind in it would stay linked
// ahead of the increments; the deadline turns that hang into a failure.
TEST_P(FailureMatrixTest, SpawnFailureAtTableInsertIsClean) {
  constexpr int kIncrements = 64;
  const auto [deps, sched] = GetParam();
  struct Shared {
    long long known = 0;
    long long fresh = 0;
    std::atomic<bool> latch{false};
  };
  auto shared = std::make_unique<Shared>();
  auto rt = std::make_unique<Runtime>(testConfig(deps, sched, 4));
  Shared& s = *shared;

  rt->spawn({inout(s.known)}, [&s] { ++s.known; });
  Failpoint& site = failpoint(FailpointId::table_insert);
  ASSERT_TRUE(site.arm(FailpointMode::Throw, 1.0, 1));
  EXPECT_THROW(rt->spawn({inout(s.known), inout(s.fresh)}, [] {}),
               FailpointError);
  site.disarm();

  rt->spawn({}, [&s] {
    while (!s.latch.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  for (int i = 0; i < kIncrements; ++i)
    rt->spawn({inout(s.known)}, [&s] { ++s.known; });
  s.latch.store(true, std::memory_order_release);

  const std::uint64_t expected = kIncrements + 2;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt->tasksRetired() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (rt->tasksRetired() < expected) {
    ADD_FAILURE() << "stuck at " << rt->tasksRetired() << " of " << expected
                  << " retired";
    // Its destructor would wait forever; leak it with what it reaches.
    (void)rt.release();
    (void)shared.release();
    return;
  }
  EXPECT_NO_THROW(rt->taskwaitChecked());
  EXPECT_EQ(s.known, kIncrements + 1);
  EXPECT_EQ(rt->liveDescriptors(), 0u);
}

// closure_spill guards the heap-spill allocation: a large-capture spawn
// fails cleanly at the call site, conservation intact.
TEST(FailpointSpawnTest, ClosureSpillFailureReclaimsTheDescriptor) {
  Runtime rt(testConfig(DepsKind::WaitFreeAsm,
                        SchedulerKind::SyncDelegation, 4));
  struct BigCapture {
    char bytes[128] = {};
  } big;
  Failpoint& site = failpoint(FailpointId::closure_spill);
  ASSERT_TRUE(site.arm(FailpointMode::Throw, 1.0, 1));
  EXPECT_THROW(rt.spawn({}, [big] { (void)big; }), FailpointError);
  site.disarm();
  rt.taskwait();
  EXPECT_EQ(rt.liveDescriptors(), 0u);

  std::atomic<int> ran{0};
  rt.spawn({}, [big, &ran] {
    (void)big;
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  rt.taskwait();
  EXPECT_EQ(ran.load(), 1);
}

// The CI smoke shape: assertions that hold under ANY ATS_FAILPOINTS
// arming of task_invoke (and pass unarmed too).  Everything here is
// injection-invariant: lifetime-counter conservation, drain-to-zero,
// and a usable runtime afterwards — NOT "all bodies ran".
TEST(FaultSmokeTest, ConservationHoldsUnderTaskInvokeInjection) {
  constexpr int kTasks = 3000;
  Runtime rt(testConfig(DepsKind::WaitFreeAsm,
                        SchedulerKind::SyncDelegation, 8));
  const std::uint64_t failedBefore = rt.tasksFailed();
  const std::uint64_t skippedBefore = rt.tasksSkipped();
  const std::uint64_t retiredBefore = rt.tasksRetired();
  std::atomic<int> executed{0};
  for (int i = 0; i < kTasks; ++i) {
    rt.spawn({}, [&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  rt.taskwait();  // drains poisoned or clean alike
  const std::uint64_t failed = rt.tasksFailed() - failedBefore;
  const std::uint64_t skipped = rt.tasksSkipped() - skippedBefore;
  EXPECT_EQ(static_cast<std::uint64_t>(executed.load()) + failed + skipped,
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(rt.liveDescriptors(), 0u);
  EXPECT_EQ(rt.tasksRetired() - retiredBefore,
            static_cast<std::uint64_t>(kTasks));
}

TEST(FaultSmokeTest, InoutChainsSurviveInjectionAcrossBatches) {
  constexpr int kLinks = 200;
  constexpr int kBatches = 5;
  Runtime rt(testConfig(DepsKind::WaitFreeAsm,
                        SchedulerKind::WorkStealing, 8));
  const std::uint64_t failedBefore = rt.tasksFailed();
  const std::uint64_t skippedBefore = rt.tasksSkipped();
  std::atomic<long long> executed{0};
  for (int batch = 0; batch < kBatches; ++batch) {
    long long chain = 0;
    for (int i = 0; i < kLinks; ++i) {
      rt.spawn({inout(chain)}, [&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    rt.taskwait();
  }
  const std::uint64_t failed = rt.tasksFailed() - failedBefore;
  const std::uint64_t skipped = rt.tasksSkipped() - skippedBefore;
  EXPECT_EQ(static_cast<std::uint64_t>(executed.load()) + failed + skipped,
            static_cast<std::uint64_t>(kLinks) * kBatches);
  EXPECT_EQ(rt.liveDescriptors(), 0u);
}

// Watchdog: silent at idle and on a healthy retiring graph.  A stall
// dies through ats::fatal, so a false fire here aborts the test process
// (the stall itself is FatalDeathTest.WatchdogStallPrintsTheReportAndDies).
TEST(WatchdogTest, StaysQuietWhenIdleOrRetiring) {
  RuntimeConfig config = testConfig(DepsKind::WaitFreeAsm,
                                    SchedulerKind::SyncDelegation, 4);
  config.watchdogTimeoutMs = 50;
  Runtime rt(config);

  // Idle is not a stall: with nothing in flight the clock must not run
  // out no matter how long we sit.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // And a busy runtime whose tasks retire constantly is making progress.
  std::atomic<int> ran{0};
  for (int i = 0; i < 2000; ++i)
    rt.spawn({}, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  rt.taskwait();
  EXPECT_EQ(ran.load(), 2000);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(rt.tasksRetired(), 2000u);
}

// Traced failure: the v4 events land in the right streams and the
// analyzer's failure counters obey conservation (starts == ends + fails,
// starts + skips == spawns).
TEST(TracedFailureTest, AnalyzerCountsFailuresSkipsAndCancellation) {
  constexpr int kDepth = 120;
  constexpr int kFailAt = 40;
  constexpr std::size_t kWorkers = 4;
  Tracer tracer(kWorkers, 1u << 14);
  RuntimeConfig config = testConfig(DepsKind::WaitFreeAsm,
                                    SchedulerKind::SyncDelegation, kWorkers);
  config.tracer = &tracer;
  {
    Runtime rt(config);
    long long chain = 0;
    for (int i = 0; i < kDepth; ++i) {
      rt.spawn({inout(chain)}, [&chain, i] {
        if (i == kFailAt) throw std::runtime_error("traced failure");
        ++chain;
      });
    }
    EXPECT_THROW(rt.taskwaitChecked(), std::runtime_error);
  }
  const auto records = tracer.collect();
  const TraceAnalysis analysis = analyzeTrace(records, kWorkers);

  EXPECT_EQ(analysis.taskFailedCount, 1u);
  EXPECT_EQ(analysis.taskSkippedCount,
            static_cast<std::uint64_t>(kDepth - kFailAt - 1));
  EXPECT_EQ(analysis.graphCancelledCount, 1u);
  // Conservation in the trace itself: every started body ended or
  // failed, and starts + skips cover the whole spawn set.
  std::uint64_t starts = 0;
  std::uint64_t ends = 0;
  for (const TraceRecord& record : records) {
    if (record.event == TraceEvent::TaskStart) ++starts;
    if (record.event == TraceEvent::TaskEnd) ++ends;
  }
  EXPECT_EQ(starts, ends + analysis.taskFailedCount);
  EXPECT_EQ(starts + analysis.taskSkippedCount,
            static_cast<std::uint64_t>(kDepth));
}

// Caller-initiated cancel traces as GraphCancelled payload 1.
TEST(TracedFailureTest, CallerCancelEmitsDistinctPayload) {
  constexpr std::size_t kWorkers = 2;
  Tracer tracer(kWorkers, 1u << 12);
  RuntimeConfig config = testConfig(DepsKind::WaitFreeAsm,
                                    SchedulerKind::SyncDelegation, kWorkers);
  config.tracer = &tracer;
  {
    Runtime rt(config);
    rt.cancel();
    rt.taskwait();
  }
  bool sawCallerCancel = false;
  for (const TraceRecord& record : tracer.collect()) {
    if (record.event == TraceEvent::GraphCancelled && record.payload == 1)
      sawCallerCancel = true;
  }
  EXPECT_TRUE(sawCallerCancel);
}

// TaskFailed payload carries the injecting failpoint's id, so trace
// readers can name the chokepoint without string matching.
TEST(TracedFailureTest, InjectedFailureStampsFailpointIdIntoPayload) {
  constexpr std::size_t kWorkers = 2;
  Tracer tracer(kWorkers, 1u << 12);
  RuntimeConfig config = testConfig(DepsKind::WaitFreeAsm,
                                    SchedulerKind::SyncDelegation, kWorkers);
  config.tracer = &tracer;
  Failpoint& site = failpoint(FailpointId::task_invoke);
  const std::uint32_t expectId = site.id();
  {
    Runtime rt(config);
    ASSERT_TRUE(site.arm(FailpointMode::Throw, 1.0, 1));
    rt.spawn({}, [] {});
    EXPECT_THROW(rt.taskwaitChecked(), FailpointError);
    site.disarm();
  }
  bool sawStampedFailure = false;
  for (const TraceRecord& record : tracer.collect()) {
    if (record.event == TraceEvent::TaskFailed &&
        record.payload == expectId)
      sawStampedFailure = true;
  }
  EXPECT_TRUE(sawStampedFailure);
}

// ---- death tests: the ats::fatal paths ------------------------------

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define ATS_RUN_FATAL_DEATH_TESTS 1
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#undef ATS_RUN_FATAL_DEATH_TESTS
#define ATS_RUN_FATAL_DEATH_TESTS 0
#endif
#endif
#else
#define ATS_RUN_FATAL_DEATH_TESTS 0
#endif

#if ATS_RUN_FATAL_DEATH_TESTS

TEST(FatalDeathTest, MakeSchedulerRejectsUnknownKindWithFileLine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RuntimeConfig config = testConfig(DepsKind::WaitFreeAsm,
                                    SchedulerKind::SyncDelegation, 1);
  config.scheduler = static_cast<SchedulerKind>(99);
  // fatal() prints dir/file:line before the message.
  EXPECT_DEATH((void)makeScheduler(config),
               "ats: FATAL runtime/scheduler_factory\\.cpp:[0-9]+: "
               "makeScheduler: unknown SchedulerKind 99");
}

TEST(FatalDeathTest, MakeDependencySystemRejectsUnknownKind) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A null deps system would only crash the Runtime at its first spawn.
  EXPECT_DEATH((void)makeDependencySystem(static_cast<DepsKind>(99),
                                          ReadySink{}),
               "ats: FATAL deps/dependency_system\\.cpp:[0-9]+: "
               "makeDependencySystem: unknown DepsKind 99");
}

TEST(FatalDeathTest, TaskwaitInsideTaskBodyDiesNamingTheRoadmapItem) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(testConfig(DepsKind::WaitFreeAsm,
                              SchedulerKind::SyncDelegation, 2));
        rt.spawn({}, [&rt] { rt.taskwait(); });
        rt.taskwait();
      },
      "called from inside a task.*multi-tenant service mode");
}

// The release-mode guard is all that stops a spawn from writing past the
// descriptor's node storage.
TEST(FatalDeathTest, SpawnWithTooManyAccessesDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(testConfig(DepsKind::WaitFreeAsm,
                              SchedulerKind::SyncDelegation, 1));
        long long objects[kMaxAccessesPerTask + 1] = {};
        Access accesses[kMaxAccessesPerTask + 1];
        for (std::size_t i = 0; i <= kMaxAccessesPerTask; ++i)
          accesses[i] = inout(objects[i]);
        rt.spawn(std::span<const Access>(accesses), [] {});
      },
      "declares 9 accesses, the descriptor holds at most 8");
}

// The tracer's format limits die through fatal like the rest of the
// runtime: file:line first, then the hook.
TEST(FatalDeathTest, TracerRejectsZeroCapacity) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(Tracer(1, 0), "ats: FATAL .*Tracer");
}

// The crash-evidence pipeline end to end: a fatal inside a traced
// runtime dumps the rings to ATS_TRACE_DIR, and the file reads back as
// a valid v4 trace with the activity leading up to the death.
TEST(FatalDeathTest, FatalHookDumpsReadableTraceFile) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ats_fatal_dump_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ::setenv("ATS_TRACE_DIR", dir.c_str(), 1);

  EXPECT_DEATH(
      {
        constexpr std::size_t kWorkers = 2;
        Tracer tracer(kWorkers, 1u << 12);
        RuntimeConfig config = testConfig(
            DepsKind::WaitFreeAsm, SchedulerKind::SyncDelegation, kWorkers);
        config.tracer = &tracer;
        Runtime rt(config);
        std::atomic<int> ran{0};
        for (int i = 0; i < 32; ++i)
          rt.spawn({}, [&ran] {
            ran.fetch_add(1, std::memory_order_relaxed);
          });
        rt.taskwait();
        rt.spawn({}, [&rt] { rt.taskwait(); });  // fatal in the child
        rt.taskwait();
      },
      "fatal hook wrote [0-9]+ trace records");

  bool foundDump = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ats") continue;
    std::vector<TraceRecord> records;
    ASSERT_TRUE(TraceWriter::readBinary(entry.path().string(), records))
        << "dump exists but does not read back: " << entry.path();
    EXPECT_FALSE(records.empty());
    foundDump = true;
  }
  EXPECT_TRUE(foundDump) << "no fatal-<pid>.ats landed in " << dir;
  ::unsetenv("ATS_TRACE_DIR");
  fs::remove_all(dir);
}

// A genuine stall (one task held in flight, nothing retiring) prints the
// state report, with the summary line and each slot's failure and skip
// counts, and then dies through ats::fatal, whose hook is the one
// FatalHookDumpsReadableTraceFile covers.
TEST(FatalDeathTest, WatchdogStallPrintsTheReportAndDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RuntimeConfig config = testConfig(DepsKind::WaitFreeAsm,
                                          SchedulerKind::SyncDelegation, 2);
        config.watchdogTimeoutMs = 50;
        std::atomic<bool> gate{false};
        Runtime rt(config);
        rt.spawn({}, [&gate] {
          while (!gate.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
        // The watchdog should have fired long before this returns; the
        // gate opens only so a watchdog that never fires lets the
        // Runtime drain and the death test fail instead of hanging.
        std::this_thread::sleep_for(std::chrono::seconds(10));
        gate.store(true, std::memory_order_release);
      },
      "inFlight=1 .*failed=0 skipped=0\n.*ats: FATAL .*watchdog: no "
      "completion progress for 50 ms");
}

#endif  // ATS_RUN_FATAL_DEATH_TESTS

}  // namespace
}  // namespace ats
