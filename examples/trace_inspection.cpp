// Offline reader for the CTF-lite `.ats` traces fig10/fig11 (and any
// Tracer user) write with TraceWriter::writeBinary: validates the file,
// prints the event listing, the analyzer summary, and the ASCII
// timeline — the inspection loop promised by fig10_trace_locks.cpp.
//
//   trace_inspection <trace.ats> [numThreads]
//   trace_inspection --selftest
//
// `numThreads` defaults to one past the highest stream id that carries
// worker events (streams above that are the spawner/kernel aux streams).
// `--selftest` runs the full pipeline against itself: emit a known
// sequence through a live Tracer (kernel stream included), write the
// binary form into ATS_TRACE_DIR, read it back, and verify the
// round-trip is bit-exact — the ctest entry examples/CMakeLists.txt
// registers.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "instr/noise_injector.hpp"
#include "instr/trace_analyzer.hpp"
#include "instr/trace_writer.hpp"
#include "instr/tracer.hpp"

using namespace ats;

namespace {

/// Worker streams are the ones that log idle streaks — the spawner
/// helps tasks but never idles, and the kernel stream only carries
/// irqs, so neither may widen (and thereby dilute) the starvation
/// stats.  Traces with no idle events at all (every worker saturated
/// end to end) fall back to counting every non-kernel stream, which
/// can include the spawner — pass numThreads explicitly in that case.
std::size_t inferNumThreads(const std::vector<TraceRecord>& records) {
  std::size_t threads = 0;
  for (const TraceRecord& r : records) {
    if (r.event == TraceEvent::WorkerIdleBegin ||
        r.event == TraceEvent::WorkerIdleEnd) {
      threads = std::max(threads, static_cast<std::size_t>(r.stream) + 1);
    }
  }
  if (threads != 0) return threads;
  for (const TraceRecord& r : records) {
    if (r.event == TraceEvent::KernelIrqEnter ||
        r.event == TraceEvent::KernelIrqExit) {
      continue;
    }
    threads = std::max(threads, static_cast<std::size_t>(r.stream) + 1);
  }
  return std::max<std::size_t>(threads, 1);
}

int inspect(const std::string& path, std::size_t numThreadsArg) {
  std::vector<TraceRecord> records;
  if (!TraceWriter::readBinary(path, records)) {
    std::fprintf(stderr,
                 "error: %s is not a readable version-%u ats trace\n",
                 path.c_str(), TraceWriter::kVersion);
    return 1;
  }
  const std::size_t numThreads =
      numThreadsArg != 0 ? numThreadsArg : inferNumThreads(records);
  std::printf("# %s: %zu records, %zu threads\n\n", path.c_str(),
              records.size(), numThreads);
  std::printf("%s\n", TraceWriter::renderText(records).c_str());
  std::printf("%s\n", formatAnalysis(analyzeTrace(records, numThreads))
                          .c_str());
  std::printf("%s", renderTimeline(records, numThreads).c_str());
  return 0;
}

int selftest() {
  const std::string path =
      envString("ATS_TRACE_DIR", ".") + "/trace_inspection_selftest.ats";

  // A miniature fig11-shaped trace: two workers, scheduler traffic, and
  // one kernel burst.  Emitted through a real Tracer so the round trip
  // covers the TSC rescale, not just the file format.
  Tracer tracer(2, 64);
  tracer.emit(0, TraceEvent::WorkerIdleBegin);
  tracer.emit(1, TraceEvent::SchedDrain, 3);
  tracer.emit(0, TraceEvent::WorkerIdleEnd);
  tracer.emit(0, TraceEvent::TaskStart, 0x1000);
  tracer.emit(tracer.kernelStream(), TraceEvent::KernelIrqEnter, 0);
  tracer.emit(1, TraceEvent::SchedServe, 2);  // payload: tasks handed off
  tracer.emit(tracer.kernelStream(), TraceEvent::KernelIrqExit, 0);
  tracer.emit(0, TraceEvent::TaskEnd, 0x1000);
  tracer.emit(1, TraceEvent::SchedSteal, 0);  // payload: victim slot
  tracer.emit(tracer.spawnerStream(), TraceEvent::TaskStart, 0x2000);
  tracer.emit(tracer.spawnerStream(), TraceEvent::TaskEnd, 0x2000);

  const std::vector<TraceRecord> written = tracer.collect();
  if (written.size() != 11 || tracer.dropped() != 0) {
    std::fprintf(stderr, "selftest: expected 11 records 0 drops, got "
                         "%zu/%llu\n",
                 written.size(),
                 static_cast<unsigned long long>(tracer.dropped()));
    return 1;
  }
  if (!TraceWriter::writeBinary(path, written)) {
    std::fprintf(stderr, "selftest: cannot write %s\n", path.c_str());
    return 1;
  }
  std::vector<TraceRecord> reread;
  if (!TraceWriter::readBinary(path, reread)) {
    std::fprintf(stderr, "selftest: cannot re-read %s\n", path.c_str());
    return 1;
  }
  if (reread.size() != written.size() ||
      std::memcmp(reread.data(), written.data(),
                  written.size() * sizeof(TraceRecord)) != 0) {
    std::fprintf(stderr, "selftest: round trip is not bit-exact\n");
    return 1;
  }

  // The analyzer must read the serve payload back from the re-read
  // records as a plain hand-off count.
  const TraceAnalysis analysis = analyzeTrace(reread, 2);
  if (analysis.serveCount != 1 || analysis.servedTasks != 2) {
    std::fprintf(stderr,
                 "selftest: serve payload mismatch (serves=%llu "
                 "served_tasks=%llu)\n",
                 static_cast<unsigned long long>(analysis.serveCount),
                 static_cast<unsigned long long>(analysis.servedTasks));
    return 1;
  }

  const int rc = inspect(path, 2);
  if (rc != 0) return rc;
  std::remove(path.c_str());
  std::printf("\nSELFTEST OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--selftest") == 0)
    return selftest();
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: %s <trace.ats> [numThreads]\n       %s --selftest\n",
                 argv[0], argv[0]);
    return 2;
  }
  const std::size_t numThreads =
      argc == 3 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
                : 0;
  return inspect(argv[1], numThreads);
}
