#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "instr/noise_injector.hpp"
#include "instr/trace_analyzer.hpp"
#include "instr/trace_writer.hpp"
#include "instr/tracer.hpp"
#include "runtime/runtime.hpp"

namespace ats {
namespace {

// ---------------------------------------------------------------- Tracer

TEST(TracerTest, StreamLayoutProvisionsSpawnerAndKernelStreams) {
  Tracer tracer(4, 16);
  EXPECT_EQ(tracer.numCpuStreams(), 4u);
  EXPECT_EQ(tracer.numStreams(), 6u);
  EXPECT_EQ(tracer.spawnerStream(), 4u);
  EXPECT_EQ(tracer.kernelStream(), 5u);
  EXPECT_EQ(tracer.capacityPerStream(), 16u);
}

TEST(TracerTest, RingKeepsOldestRecordsAndCountsDrops) {
  Tracer tracer(1, 4);
  for (std::uint64_t i = 0; i < 7; ++i)
    tracer.emit(0, TraceEvent::TaskStart, i);

  // Keep-oldest, drop-newest: the first `capacity` payloads survive —
  // the head of the window an analyzer reasons from stays trustworthy.
  const std::vector<TraceRecord> records = tracer.collect();
  ASSERT_EQ(records.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].payload, i);
    EXPECT_EQ(records[i].event, TraceEvent::TaskStart);
    EXPECT_EQ(records[i].stream, 0u);
  }
  EXPECT_EQ(tracer.dropped(), 3u);

  // Saturated ring: further emits only move the drop counter.
  tracer.emit(0, TraceEvent::TaskEnd, 99);
  EXPECT_EQ(tracer.dropped(), 4u);
  EXPECT_EQ(tracer.collect().size(), 4u);
}

TEST(TracerTest, ResetRewindsRingsAndDropCountersForReuse) {
  Tracer tracer(1, 4);
  for (std::uint64_t i = 0; i < 6; ++i)
    tracer.emit(0, TraceEvent::TaskStart, i);
  EXPECT_EQ(tracer.dropped(), 2u);

  tracer.reset();
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.collect().empty());

  tracer.emit(0, TraceEvent::TaskEnd, 41);
  tracer.emit(0, TraceEvent::TaskEnd, 42);
  const std::vector<TraceRecord> records = tracer.collect();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, 41u);
  EXPECT_EQ(records[1].payload, 42u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, MisdirectedEmitCountsAsDroppedNotCrash) {
  Tracer tracer(1, 4);
  tracer.emit(42, TraceEvent::TaskStart);  // no such stream
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_TRUE(tracer.collect().empty());
}

TEST(TracerTest, CollectMergesStreamsInGlobalTimestampOrder) {
  Tracer tracer(3, 128);
  // Interleave across streams from one thread; the TSC is monotonic
  // here, so the merged order must interleave by time, not by stream.
  for (int round = 0; round < 30; ++round) {
    tracer.emit(static_cast<std::size_t>(round % 3), TraceEvent::TaskStart,
                static_cast<std::uint64_t>(round));
  }
  const std::vector<TraceRecord> records = tracer.collect();
  ASSERT_EQ(records.size(), 30u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].timeNs, records[i - 1].timeNs)
        << "record " << i << " out of order";
  }
  // With strictly increasing emission times the merged payload sequence
  // is exactly the emission sequence; ties (coarse clocks) can only
  // reorder *across* streams, never within one — check per-stream order
  // instead of the full sequence to stay robust on any clock.
  std::uint64_t lastPerStream[3] = {0, 0, 0};
  bool seen[3] = {false, false, false};
  for (const TraceRecord& r : records) {
    if (seen[r.stream]) {
      EXPECT_GT(r.payload, lastPerStream[r.stream]);
    }
    lastPerStream[r.stream] = r.payload;
    seen[r.stream] = true;
  }
}

TEST(TracerTest, ConcurrentEmittersOnDistinctStreamsAreRaceFree) {
  // The single-writer-per-stream contract under TSan: 4 worker threads
  // plus the kernel-stream injector emitting simultaneously, collect()
  // racing the tail of the emission from the main thread.
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  Tracer tracer(kThreads, kPerThread + 8);

  std::vector<std::thread> emitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        tracer.emit(t, TraceEvent::TaskStart, i);
    });
  }
  {
    KernelNoiseInjector noise(tracer, /*periodUs=*/500, /*burstUs=*/100,
                              /*targetCpu=*/0);
    (void)tracer.collect();  // mid-emission snapshot must be safe
    for (std::thread& e : emitters) e.join();
    // The emitters can outrun the injector's first period; hold the
    // window open until at least one burst lands so the kernel-stream
    // assertions below are deterministic.
    while (noise.burstsInjected() == 0) std::this_thread::yield();
    noise.stop();
    EXPECT_GE(noise.burstsInjected(), 1u);
  }

  const std::vector<TraceRecord> records = tracer.collect();
  std::uint64_t perStream[kThreads] = {};
  std::uint64_t kernelEvents = 0;
  for (const TraceRecord& r : records) {
    if (r.stream < kThreads)
      ++perStream[r.stream];
    else if (r.stream == tracer.kernelStream())
      ++kernelEvents;
  }
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(perStream[t], kPerThread) << "stream " << t;
  EXPECT_GE(kernelEvents, 2u);  // at least one Enter/Exit pair
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ---------------------------------------------------------- TraceWriter

TEST(TraceWriterTest, BinaryRoundTripIsBitExact) {
  Tracer tracer(2, 32);
  tracer.emit(0, TraceEvent::TaskStart, 7);
  tracer.emit(1, TraceEvent::SchedServe, 0);
  tracer.emit(tracer.kernelStream(), TraceEvent::KernelIrqEnter, 1);
  tracer.emit(0, TraceEvent::TaskEnd, 7);
  const std::vector<TraceRecord> written = tracer.collect();

  const std::string path =
      testing::TempDir() + "instr_round_trip.ats";
  ASSERT_TRUE(TraceWriter::writeBinary(path, written));
  std::vector<TraceRecord> reread;
  ASSERT_TRUE(TraceWriter::readBinary(path, reread));
  ASSERT_EQ(reread.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(reread[i].timeNs, written[i].timeNs);
    EXPECT_EQ(reread[i].payload, written[i].payload);
    EXPECT_EQ(reread[i].event, written[i].event);
    EXPECT_EQ(reread[i].stream, written[i].stream);
  }
  std::remove(path.c_str());
}

TEST(TraceWriterTest, ReadRejectsMissingAndCorruptFiles) {
  std::vector<TraceRecord> out;
  EXPECT_FALSE(TraceWriter::readBinary("/nonexistent/nope.ats", out));

  const std::string path = testing::TempDir() + "instr_corrupt.ats";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a trace", f);
  std::fclose(f);
  EXPECT_FALSE(TraceWriter::readBinary(path, out));
  EXPECT_TRUE(out.empty());

  // Valid header whose record count disagrees with the file's actual
  // size (truncation / bit flip) must fail cleanly, not allocate.
  TraceWriter::BinaryHeader header{};
  std::memcpy(header.magic, TraceWriter::kMagic, sizeof(header.magic));
  header.version = TraceWriter::kVersion;
  header.recordBytes = sizeof(TraceRecord);
  header.recordCount = ~std::uint64_t{0} / sizeof(TraceRecord);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&header, sizeof(header), 1, f), 1u);
  std::fclose(f);
  EXPECT_FALSE(TraceWriter::readBinary(path, out));
  EXPECT_TRUE(out.empty());

  // Stale format versions must be rejected loudly: v3 and v4 packed a
  // local/remote split into every SchedServe payload, which a v6 reader
  // would misread as one huge hand-off count, and a v5 TaskFailed id
  // followed the writer's first-touch order, so its name would be wrong.
  static_assert(TraceWriter::kVersion == 6);
  for (const std::uint32_t stale : {3u, 4u, 5u}) {
    header.version = stale;
    header.recordCount = 0;
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&header, sizeof(header), 1, f), 1u);
    std::fclose(f);
    EXPECT_FALSE(TraceWriter::readBinary(path, out)) << "version " << stale;
    EXPECT_TRUE(out.empty());
  }
  std::remove(path.c_str());
}

TEST(TraceWriterTest, TextRenderingNamesEveryEvent) {
  std::vector<TraceRecord> records;
  records.push_back({1000, 42, TraceEvent::SchedServe, 2, 0});
  const std::uint32_t taskInvoke = failpoint(FailpointId::task_invoke).id();
  records.push_back({2000, taskInvoke, TraceEvent::TaskFailed, 1, 0});
  records.push_back({3000, 0, TraceEvent::TaskFailed, 1, 0});
  const std::string text = TraceWriter::renderText(records);
  EXPECT_NE(text.find("SchedServe"), std::string::npos);
  EXPECT_NE(text.find("s02"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("  " + std::to_string(taskInvoke) + " (task_invoke)\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  0\n"), std::string::npos)
      << "an exception from the body names no failpoint\n"
      << text;
}

// -------------------------------------------------------- TraceAnalyzer

/// Hand-built 1000us trace, 2 worker threads.  Layout (all times us):
///   t0: idle [100, 300], task [400, 500]
///   t1: idle [0, 1000]                      (fully starved)
///   serves at 100, 200, 700 -> gaps 100 and 500
///   irq [600, 650] -> overlaps only the [200, 700] gap
///   drains: payloads 3 and 4
std::vector<TraceRecord> handBuiltTrace() {
  const auto us = [](std::uint64_t v) { return v * 1000; };
  std::vector<TraceRecord> r;
  r.push_back({us(0), 0, TraceEvent::WorkerIdleBegin, 1, 0});
  r.push_back({us(100), 0, TraceEvent::WorkerIdleBegin, 0, 0});
  r.push_back({us(100), 1, TraceEvent::SchedServe, 2, 0});  // spawner stream
  r.push_back({us(150), 3, TraceEvent::SchedDrain, 2, 0});
  r.push_back({us(200), 0, TraceEvent::SchedServe, 2, 0});
  r.push_back({us(300), 0, TraceEvent::WorkerIdleEnd, 0, 0});
  r.push_back({us(400), 0xAB, TraceEvent::TaskStart, 0, 0});
  r.push_back({us(500), 0xAB, TraceEvent::TaskEnd, 0, 0});
  r.push_back({us(600), 0, TraceEvent::KernelIrqEnter, 3, 0});
  r.push_back({us(650), 0, TraceEvent::KernelIrqExit, 3, 0});
  r.push_back({us(700), 1, TraceEvent::SchedServe, 2, 0});
  r.push_back({us(800), 4, TraceEvent::SchedDrain, 2, 0});
  r.push_back({us(1000), 0, TraceEvent::WorkerIdleEnd, 1, 0});
  return r;
}

TEST(TraceAnalyzerTest, ServeGapAndIrqCorrelationMath) {
  const TraceAnalysis a = analyzeTrace(handBuiltTrace(), 2);
  EXPECT_DOUBLE_EQ(a.spanUs, 1000.0);
  EXPECT_EQ(a.recordCount, 13u);
  EXPECT_EQ(a.serveCount, 3u);
  EXPECT_EQ(a.servedTasks, 2u);  // payloads 1 + 0 + 1 (hand-off counts)
  EXPECT_EQ(a.drainCount, 2u);
  EXPECT_EQ(a.drainedTasks, 7u);
  EXPECT_EQ(a.irqCount, 1u);
  EXPECT_DOUBLE_EQ(a.irqTotalUs, 50.0);
  // Gaps: 100..200 (no irq) and 200..700 (contains the 600..650 irq).
  EXPECT_DOUBLE_EQ(a.maxServeGapUs, 500.0);
  EXPECT_DOUBLE_EQ(a.maxServeGapDuringIrqUs, 500.0);
}

TEST(TraceAnalyzerTest, SumsServePayloadsAsHandOffCounts) {
  const auto us = [](std::uint64_t v) { return v * 1000; };
  std::vector<TraceRecord> r;
  // Three batched serves handing off 4, 2 and 2 tasks.
  r.push_back({us(0), 4, TraceEvent::SchedServe, 0, 0});
  r.push_back({us(10), 2, TraceEvent::SchedServe, 1, 0});
  r.push_back({us(20), 2, TraceEvent::SchedServe, 0, 0});

  const TraceAnalysis a = analyzeTrace(r, 2);
  EXPECT_EQ(a.serveCount, 3u);
  EXPECT_EQ(a.servedTasks, 8u);

  const std::string summary = formatAnalysis(a);
  EXPECT_NE(summary.find("serves=3 served_tasks=8 drains="),
            std::string::npos);
}

TEST(TraceAnalyzerTest, PerThreadIdleAndTaskAccounting) {
  const TraceAnalysis a = analyzeTrace(handBuiltTrace(), 2);
  ASSERT_EQ(a.threads.size(), 2u);
  EXPECT_DOUBLE_EQ(a.threads[0].idleUs, 200.0);
  EXPECT_DOUBLE_EQ(a.threads[0].busyUs, 100.0);
  EXPECT_EQ(a.threads[0].tasksExecuted, 1u);
  EXPECT_DOUBLE_EQ(a.threads[0].idlePct, 20.0);
  EXPECT_DOUBLE_EQ(a.threads[1].idleUs, 1000.0);
  EXPECT_DOUBLE_EQ(a.threads[1].idlePct, 100.0);
  EXPECT_EQ(a.threads[1].tasksExecuted, 0u);
  EXPECT_DOUBLE_EQ(a.meanIdlePct, 60.0);
}

TEST(TraceAnalyzerTest, UnclosedIdleIntervalChargesToTraceEnd) {
  const auto us = [](std::uint64_t v) { return v * 1000; };
  std::vector<TraceRecord> r;
  r.push_back({us(0), 0, TraceEvent::SchedDrain, 1, 0});
  r.push_back({us(200), 0, TraceEvent::WorkerIdleBegin, 0, 0});
  r.push_back({us(1000), 0, TraceEvent::SchedDrain, 1, 0});
  const TraceAnalysis a = analyzeTrace(r, 1);
  EXPECT_DOUBLE_EQ(a.threads[0].idleUs, 800.0);
  EXPECT_DOUBLE_EQ(a.threads[0].idlePct, 80.0);
}

TEST(TraceAnalyzerTest, EmptyTraceYieldsZeroedAnalysis) {
  const TraceAnalysis a = analyzeTrace({}, 3);
  EXPECT_EQ(a.threads.size(), 3u);
  EXPECT_DOUBLE_EQ(a.spanUs, 0.0);
  EXPECT_DOUBLE_EQ(a.meanIdlePct, 0.0);
  EXPECT_EQ(a.serveCount, 0u);
}

TEST(TraceAnalyzerTest, CountsStealsPerThreadAndOverall) {
  const auto us = [](std::uint64_t v) { return v * 1000; };
  std::vector<TraceRecord> r;
  // Worker 0 runs two tasks it stole (victim slots 1 and 2); worker 1
  // runs one local task; the spawner (stream 2) steals once — counted
  // in the total but not attributed to any worker row.
  r.push_back({us(0), 1, TraceEvent::SchedSteal, 0, 0});
  r.push_back({us(10), 0xA, TraceEvent::TaskStart, 0, 0});
  r.push_back({us(20), 0xA, TraceEvent::TaskEnd, 0, 0});
  r.push_back({us(30), 2, TraceEvent::SchedSteal, 0, 0});
  r.push_back({us(40), 0xB, TraceEvent::TaskStart, 0, 0});
  r.push_back({us(50), 0xB, TraceEvent::TaskEnd, 0, 0});
  r.push_back({us(60), 0xC, TraceEvent::TaskStart, 1, 0});
  r.push_back({us(70), 0xC, TraceEvent::TaskEnd, 1, 0});
  r.push_back({us(80), 0, TraceEvent::SchedSteal, 2, 0});
  r.push_back({us(90), 0xD, TraceEvent::TaskStart, 2, 0});
  r.push_back({us(100), 0xD, TraceEvent::TaskEnd, 2, 0});

  const TraceAnalysis a = analyzeTrace(r, 2);
  EXPECT_EQ(a.stealCount, 3u);
  EXPECT_EQ(a.taskStartCount, 4u);
  EXPECT_DOUBLE_EQ(a.stealRatio, 0.75);
  ASSERT_EQ(a.threads.size(), 2u);
  EXPECT_EQ(a.threads[0].steals, 2u);
  EXPECT_EQ(a.threads[1].steals, 0u);

  const std::string summary = formatAnalysis(a);
  EXPECT_NE(summary.find("steals=3"), std::string::npos);
  EXPECT_NE(summary.find("steal_ratio=75.0%"), std::string::npos);
}

TEST(TraceAnalyzerTest, FormatAndTimelineRenderTheHandBuiltTrace) {
  const std::vector<TraceRecord> records = handBuiltTrace();
  const std::string summary = formatAnalysis(analyzeTrace(records, 2));
  EXPECT_NE(summary.find("cpu00"), std::string::npos);
  EXPECT_NE(summary.find("serves=3"), std::string::npos);
  EXPECT_NE(summary.find("max_serve_gap=500.0us"), std::string::npos);

  const std::string timeline = renderTimeline(records, 2);
  EXPECT_NE(timeline.find('#'), std::string::npos);  // t0's task
  EXPECT_NE(timeline.find('.'), std::string::npos);  // idle stretches
  EXPECT_NE(timeline.find('I'), std::string::npos);  // the kernel burst
  EXPECT_NE(timeline.find("kern"), std::string::npos);
}

// ------------------------------------------------- Runtime integration

TEST(TracedRuntimeTest, TracedAndUntracedRunsExecuteTheSameTaskCount) {
  constexpr int kTasks = 2000;
  constexpr std::size_t kWorkers = 4;

  const auto runBatch = [&](Tracer* tracer) {
    RuntimeConfig cfg =
        optimizedConfig(makeTopology(MachinePreset::Host, kWorkers));
    cfg.tracer = tracer;
    Runtime rt(cfg);
    std::atomic<int> ran{0};
    long long chain = 0;
    for (int i = 0; i < kTasks; ++i) {
      if (i % 4 == 0) {
        rt.spawn({inout(chain)}, [&chain, &ran] {
          ++chain;
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      } else {
        rt.spawn({}, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    rt.taskwait();
    return ran.load();
  };

  const int untraced = runBatch(nullptr);
  Tracer tracer(kWorkers, 1u << 16);
  const int traced = runBatch(&tracer);
  EXPECT_EQ(untraced, kTasks);
  EXPECT_EQ(traced, kTasks);

  // The trace itself must balance: every started task ended, on the
  // stream it started on (workers and the helping spawner alike).
  const std::vector<TraceRecord> records = tracer.collect();
  EXPECT_EQ(tracer.dropped(), 0u);
  std::uint64_t starts = 0, ends = 0;
  for (const TraceRecord& r : records) {
    if (r.event == TraceEvent::TaskStart) ++starts;
    if (r.event == TraceEvent::TaskEnd) ++ends;
  }
  EXPECT_EQ(starts, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(ends, static_cast<std::uint64_t>(kTasks));

  const TraceAnalysis a = analyzeTrace(records, kWorkers);
  std::uint64_t tasksSeen = 0;
  for (const ThreadTraceStats& t : a.threads) tasksSeen += t.tasksExecuted;
  // Worker streams cover everything except what the spawner helped run.
  EXPECT_LE(tasksSeen, static_cast<std::uint64_t>(kTasks));
  EXPECT_GT(a.recordCount, 0u);
}

TEST(TracedRuntimeTest, EverySchedulerKindEmitsUnderTracing) {
  constexpr int kTasks = 400;
  for (const SchedulerKind kind :
       {SchedulerKind::SyncDelegation, SchedulerKind::PTLockCentral,
        SchedulerKind::CentralMutex, SchedulerKind::WorkStealing}) {
    Tracer tracer(2, 1u << 14);
    RuntimeConfig cfg = optimizedConfig(makeTopology(MachinePreset::Host, 2));
    cfg.scheduler = kind;
    cfg.tracer = &tracer;
    {
      Runtime rt(cfg);
      std::atomic<int> ran{0};
      for (int i = 0; i < kTasks; ++i)
        rt.spawn({}, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      rt.taskwait();
      EXPECT_EQ(ran.load(), kTasks);
    }
    std::uint64_t starts = 0;
    for (const TraceRecord& r : tracer.collect())
      if (r.event == TraceEvent::TaskStart) ++starts;
    EXPECT_EQ(starts, static_cast<std::uint64_t>(kTasks))
        << "scheduler kind " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace ats
