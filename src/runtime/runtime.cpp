#include "runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>

#include "common/fatal.hpp"
#include "common/topology.hpp"
#include "instr/trace_writer.hpp"
#include "instr/tracer.hpp"
#include "memory/pool_allocator.hpp"
#include "memory/system_allocator.hpp"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace ats {

namespace {

constexpr std::size_t kNoCpu = static_cast<std::size_t>(-1);

/// Worker threads stamp their slot here; any thread without a stamp is
/// treated as the spawner.  Thread-local (not per-Runtime) is fine: a
/// thread works for at most one runtime at a time, and worker threads die
/// with their runtime.
thread_local std::size_t tlsCpu = kNoCpu;

/// Depth of task bodies on this thread's stack — nonzero exactly while
/// executeTask is inside a body.  Lets taskwait reject the
/// spawner-helps case (a task body the SPAWNER is executing calls
/// taskwait: callerCpu() alone cannot tell it from the real spawner).
thread_local int tlsInTaskDepth = 0;

/// Fatal hook: dump the runtime's tracer rings to a binary trace so a
/// crash leaves per-worker activity right up to the abort on disk.
/// Installed only while a traced Runtime is alive; collect() tolerates
/// concurrent emitters (it snapshots published prefixes), which is the
/// best any crash path can do.
void dumpTracerOnFatal(void* ctx) {
  const Runtime* runtime = static_cast<const Runtime*>(ctx);
  Tracer* tracer = runtime->config().tracer;
  if (tracer == nullptr) return;
  const char* dir = std::getenv("ATS_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') dir = ".";
  long pid = 0;
#if defined(__linux__)
  pid = static_cast<long>(::getpid());
#endif
  const std::string path =
      std::string(dir) + "/fatal-" + std::to_string(pid) + ".ats";
  const std::vector<TraceRecord> records = tracer->collect();
  if (TraceWriter::writeBinary(path, records)) {
    std::fprintf(stderr, "ats: fatal hook wrote %zu trace records to %s\n",
                 records.size(), path.c_str());
  } else {
    std::fprintf(stderr, "ats: fatal hook failed to write %s\n",
                 path.c_str());
  }
}

}  // namespace

Runtime::Runtime(RuntimeConfig config) : config_(std::move(config)) {
  // Checked in release builds too (the submit/taskwait idiom): a tracer
  // whose CPU-stream count disagrees with the topology misroutes
  // emissions across the stream boundary — with fewer streams, worker
  // slots land on the spawner/KERNEL streams and a live noise injector
  // then shares a single-writer ring with a worker (a real data race);
  // with more, the spawner slot lands in a worker stream and skews the
  // starvation stats.  Tracer::emit only drop-counts out-of-range
  // streams, so nothing downstream would fail loudly.
  if (config_.tracer != nullptr &&
      config_.tracer->numCpuStreams() != config_.topo.numCpus) {
    fatal("ats::Runtime: tracer has %zu CPU streams but the topology has "
          "%zu CPUs — construct the Tracer with exactly topo.numCpus "
          "streams",
          config_.tracer->numCpuStreams(), config_.topo.numCpus);
  }
  // From here any ats::fatal (watchdog stall, access overflow, nested
  // taskwait) flushes this runtime's tracer rings to ATS_TRACE_DIR
  // before aborting.  Last-installed-wins is fine: concurrent Runtimes
  // sharing a process are a test-only pattern, and the hook is cleared
  // in the destructor.
  if (config_.tracer != nullptr)
    installFatalHook(&dumpTracerOnFatal, this);
  // §4: descriptors come from the configured allocator — the
  // thread-caching pool for the optimized runtime, plain operator new
  // for the "w/o jemalloc" ablation.
  alloc_ = config_.usePoolAllocator
               ? static_cast<Allocator*>(&PoolAllocator::instance())
               : static_cast<Allocator*>(&SystemAllocator::instance());

  // The scheduler gets one slot per worker plus the reserved spawner
  // slot, so every thread that touches it is a distinct SPSC producer
  // and DTLock delegator.  Reserved via Topology::reservedSlots, NOT by
  // inflating numCpus: numCpus is the worker count (threads started,
  // tracer streams, pinning), and the spawner is not a worker.
  spawnerCpu_ = config_.topo.numCpus;
  slots_ = std::make_unique<SlotCounters[]>(config_.topo.numCpus + 1);
  RuntimeConfig schedConfig = config_;
  schedConfig.topo.reservedSlots = config_.topo.reservedSlots + 1;
  sched_ = makeScheduler(schedConfig);
  deps_ = makeDependencySystem(config_.deps, ReadySink{&readyThunk, this});

  workers_.reserve(config_.topo.numCpus);
  for (std::size_t cpu = 0; cpu < config_.topo.numCpus; ++cpu) {
    workers_.emplace_back([this, cpu] { workerLoop(cpu); });
  }

  if (config_.watchdogTimeoutMs > 0) {
    watchdog_ = std::jthread(
        [this](std::stop_token stop) { watchdogLoop(std::move(stop)); });
  }
}

Runtime::~Runtime() {
  // Watchdog first: its loop reads members this destructor is about to
  // tear down, so it must be gone before any of them are.
  if (watchdog_.joinable()) {
    watchdog_.request_stop();
    watchdog_.join();
  }
  taskwait();
  stop_.store(true, std::memory_order_release);
  for (std::thread& worker : workers_) worker.join();
  if (config_.tracer != nullptr) installFatalHook(nullptr, nullptr);
}

std::size_t Runtime::callerCpu() const {
  return tlsCpu == kNoCpu ? spawnerCpu_ : tlsCpu;
}

Task* Runtime::allocateTask() {
  static_assert(alignof(Task) <= Allocator::kAlignment);
  // Default-init, not value-init: the access-node storage has no
  // initializer, so this writes none of it; registration constructs
  // each node it uses.
  Task* task = ::new (alloc_->allocate(sizeof(Task))) Task;
  task->runtime = this;
  // One execution reference, dropped after the completion path releases
  // the task's dependencies; the deps layer adds its own for every way
  // a chain can still reach the access nodes.  Whoever drops the last
  // one hands the descriptor straight back to the allocator.
  task->refCount.store(1, std::memory_order_relaxed);
  task->onLastRef = &reclaimThunk;
  bumpOwned(callerSlot().descriptors, +1);
  return task;
}

void Runtime::reclaimThunk(DepTask& dep) {
  Task& task = static_cast<Task&>(dep);
  Runtime* self = static_cast<Runtime*>(task.runtime);
  task.~Task();
  self->alloc_->deallocate(&task, sizeof(Task));
  bumpOwned(self->callerSlot().descriptors, -1);
}

void Runtime::registerAndSubmit(Task* task,
                                std::span<const Access> accesses) {
  // Checked in release builds too: overflowing the fixed access array
  // would silently corrupt the descriptor, and this layer's contract is
  // that misconfigured spawns fail loudly.
  if (accesses.size() > kMaxAccessesPerTask) {
    fatal("ats::Runtime::spawn(): task declares %zu accesses, the "
          "descriptor holds at most %zu",
          accesses.size(), kMaxAccessesPerTask);
  }
  // Count the task in before registering: the sink can hand it to a
  // worker that runs and completes it before registerTask even returns,
  // and the quiescence argument (SlotCounters) needs this bump to
  // happen-before that retirement.
  const std::size_t cpu = callerCpu();
  std::atomic<std::int64_t>& spawned = slots_[cpu].spawned;
  bumpOwned(spawned, +1);
  try {
    deps_->registerTask(task, accesses.data(), accesses.size(), cpu);
  } catch (...) {
    // registerTask throws only before the deps layer writes anything
    // (its failpoint, or a lookup) — so the descriptor is still wholly
    // ours: undo the spawn count in place, destroy the closure, and
    // reclaim it so conservation holds for the caller.
    bumpOwned(spawned, -1);
    task->closureDestroy(*task);
    task->dropRef();
    throw;
  }
}

Task* Runtime::complete(Task* task) {
  task->closureDestroy(*task);
  const std::size_t cpu = callerCpu();
  // The kept successor skips the scheduler entirely: no add-buffer push,
  // no DTLock drain, no stash — the caller runs it next, while this
  // task's outputs are still in its cache.  It is spawned and not yet
  // retired, so quiescence waits for it like any queued task.
  Task* kept = nullptr;
  if (config_.immediateSuccessor)
    kept = static_cast<Task*>(deps_->releaseKeepingLast(task, cpu));
  else
    deps_->release(task, cpu);
  // Execution reference: from here the descriptor lives only as long as
  // dependency chains can still reach it — often this drop reclaims it
  // on the spot.  Must precede the retire store so a taskwait'er seeing
  // the sums agree knows every drop but the deps layer's own is done.
  task->dropRef();
  // Bumps on EVERY retirement — run, failed, or skipped — so it doubles
  // as the watchdog's progress probe (a cancelling graph draining is
  // visibly making progress).  Release order: the taskwait'er acquiring
  // this stripe must see the body's side effects.
  bumpOwned(slots_[cpu].retired, +1, std::memory_order_release);
  if (kept != nullptr) bumpOwned(slots_[cpu].kept, +1);
  return kept;
}

void Runtime::readyThunk(void* ctx, DepTask* task, std::size_t cpu) {
  Runtime* self = static_cast<Runtime*>(ctx);
  self->sched_->addReadyTask(static_cast<Task*>(task), cpu);
}

Task* Runtime::executeTask(Task* task, std::size_t cpu) {
  Tracer* const tracer = config_.tracer;
  if (graph_.cancelled()) [[unlikely]] {
    // Skip path: the body never runs, but complete() still destroys the
    // closure, releases the dependencies (readying successors, which
    // will observe the token themselves) and drops the execution
    // reference — the graph DRAINS under cancellation, it is never
    // abandoned with descriptors in flight.
    bumpOwned(slots_[cpu].skipped, +1);
    if (tracer != nullptr)
      tracer->emit(cpu, TraceEvent::TaskSkipped,
                   reinterpret_cast<std::uintptr_t>(task));
    return complete(task);
  }
  if (tracer != nullptr)
    tracer->emit(cpu, TraceEvent::TaskStart,
                 reinterpret_cast<std::uintptr_t>(task));
  std::exception_ptr error;
  std::uint64_t failPayload = 0;
  ++tlsInTaskDepth;
  try {
    ATS_FAILPOINT(task_invoke);
    task->body(task->arg);
  } catch (const FailpointError& caught) {
    failPayload = caught.id();
    error = std::current_exception();
  } catch (...) {
    error = std::current_exception();
  }
  --tlsInTaskDepth;
  if (error) [[unlikely]] {
    // Poison BEFORE complete(): complete() is what releases successors,
    // and the scheduler's release/acquire hand-off is what lets a
    // successor's skip check observe the token (graph_status.hpp,
    // ordering note).  TaskFailed closes the busy interval TaskStart
    // opened; its payload names the firing failpoint (0 = an organic
    // exception from the body).
    bumpOwned(slots_[cpu].failed, +1);
    if (graph_.poison(std::move(error)) && tracer != nullptr)
      tracer->emit(cpu, TraceEvent::GraphCancelled, 0);
    if (tracer != nullptr)
      tracer->emit(cpu, TraceEvent::TaskFailed, failPayload);
  } else if (tracer != nullptr) {
    // The descriptor may already be reclaimed; the payload is the
    // pointer VALUE (a correlation key for Start/End), never followed.
    tracer->emit(cpu, TraceEvent::TaskEnd,
                 reinterpret_cast<std::uintptr_t>(task));
  }
  return complete(task);
}

void Runtime::workerLoop(std::size_t cpu) {
  tlsCpu = cpu;
  // Pin only when the host has a core per worker: pinning an
  // oversubscribed runtime (CI boxes) just fences threads onto one
  // another.
  if (std::thread::hardware_concurrency() >= config_.topo.numCpus)
    pinCallingThread(cpu);
  // §5 emissions are edge-triggered (idle streak begin/end, task
  // start/end), never per-poll, so a traced worker's event volume is
  // O(tasks) — and every site is null-guarded, so the untraced loop is
  // the PR-2 hot path unchanged.  Idle events carry a short hysteresis:
  // a single missed poll between back-to-back fine-grained tasks is
  // scheduling jitter, not starvation, and logging it would both drown
  // the analyzer's idle statistics in sub-microsecond blips and double
  // the traced run's event volume (the §5 overhead bound in
  // EXPERIMENTS.md is measured with this in place).
  constexpr std::size_t kIdleEmitStreak = 8;
  Tracer* const tracer = config_.tracer;
  SpinWait waiter;
  std::size_t idleStreak = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    Task* task = sched_->getReadyTask(cpu);
    if (task != nullptr) {
      if (tracer != nullptr && idleStreak >= kIdleEmitStreak)
        tracer->emit(cpu, TraceEvent::WorkerIdleEnd);
      waiter.reset();
      idleStreak = 0;
      while (task != nullptr) task = executeTask(task, cpu);
    } else {
      ++idleStreak;
      if (tracer != nullptr && idleStreak == kIdleEmitStreak)
        tracer->emit(cpu, TraceEvent::WorkerIdleBegin);
      waiter.spin();
      // Long-idle workers back off to a short sleep so oversubscribed
      // hosts (single-core CI) spend their timeslices on the threads
      // that still have work.
      if (idleStreak > 4096) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
  if (tracer != nullptr && idleStreak >= kIdleEmitStreak)
    tracer->emit(cpu, TraceEvent::WorkerIdleEnd);
  tlsCpu = kNoCpu;
}

void Runtime::drainAndHelp() {
  // Checked in release builds too: a task body calling taskwait would
  // wait on its own completion (guaranteed hang).  Two shapes of the
  // same bug: a WORKER-run body (callerCpu() is a worker slot), and a
  // body the spawner itself is helping with during an outer taskwait
  // (same thread, so only the task-depth counter can tell).  Nested
  // taskwait / taskwait-in-task belongs to the "multi-tenant service
  // mode" entry ROADMAP.md parks; until that returns, fail loudly.
  if (callerCpu() != spawnerCpu_ || tlsInTaskDepth > 0) {
    fatal("ats::Runtime::taskwait(): called from inside a task (slot %zu, "
          "task depth %d) — a task waiting on its own completion can "
          "never finish; nested taskwait belongs to the parked ROADMAP "
          "entry \"multi-tenant service mode\"",
          callerCpu(), tlsInTaskDepth);
  }
  const std::size_t cpu = spawnerCpu_;
  // The spawner emits into its reserved stream (Tracer::spawnerStream).
  // The analyzer's per-thread stats cover WORKER streams only, so
  // spawner-helped tasks appear in the raw record listing (and the
  // collected TaskStart/End totals) but not in any ThreadTraceStats —
  // worker tasksExecuted summing below the spawn count is expected.
  // Quiescence is polled only when the scheduler has nothing for us:
  // tasksInFlight() loads every slot's counter lines, which the workers
  // write on each retirement.
  SpinWait waiter;
  for (;;) {
    Task* task = sched_->getReadyTask(cpu);
    if (task != nullptr) {
      waiter.reset();
      while (task != nullptr) task = executeTask(task, cpu);
    } else if (tasksInFlight() == 0) {
      break;
    } else {
      waiter.spin();
    }
  }
  quiesce();
}

void Runtime::taskwait() {
  drainAndHelp();
  // This variant DISCARDS any captured failure (documented on the
  // declaration): legacy callers and the destructor get drain-and-reset
  // semantics; taskwaitChecked() is the observing variant.
  graph_.reset();
}

void Runtime::taskwaitChecked() {
  drainAndHelp();
  // Quiescence first (drainAndHelp returned, so no poison() is in
  // flight), THEN surface the first captured error.  Descriptors are
  // already reclaimed and chains reset — conservation holds before the
  // throw reaches the caller.
  std::exception_ptr error = graph_.takeFirstError();
  graph_.reset();
  if (error) std::rethrow_exception(std::move(error));
}

void Runtime::cancel() {
  // First flip wins the trace event; payload 1 = caller-initiated (0 is
  // the task-failure poisoning in executeTask).
  if (graph_.cancel() && config_.tracer != nullptr)
    config_.tracer->emit(callerCpu(), TraceEvent::GraphCancelled, 1);
}

std::uint64_t Runtime::tasksInFlight() const {
  // Retired first, with acquire; spawned second.  Reversing the order
  // would let a task spawned and retired between the two passes count
  // as retired but not spawned, and hide a live sibling.
  const std::uint64_t retired = tasksRetired();
  const std::uint64_t spawned = sumSlots(&SlotCounters::spawned);
  return spawned > retired ? spawned - retired : 0;
}

void Runtime::quiesce() {
  // Forgetting the chains drops the deps layer's lastWrite references —
  // the only ones that can outlive their task's completion — so after
  // this, every descriptor is back in the allocator.
  deps_->reset();
  assert(liveDescriptors() == 0 && "descriptors leaked past quiescence");
}

void Runtime::watchdogLoop(std::stop_token stop) {
  using Clock = std::chrono::steady_clock;
  const std::chrono::milliseconds timeout(config_.watchdogTimeoutMs);
  // Poll at a quarter of the timeout so detection lands within
  // [timeout, timeout + poll] of the last retirement, clamped so a tiny
  // test timeout does not busy-poll and a huge production one still
  // notices destruction promptly.  The stop token wakes the wait, so
  // ~Runtime never waits out a poll.
  const auto poll = std::clamp(timeout / 4, std::chrono::milliseconds(10),
                               std::chrono::milliseconds(1000));
  std::mutex lock;
  std::condition_variable_any wake;
  std::unique_lock<std::mutex> guard(lock);
  std::uint64_t lastProgress = tasksRetired();
  Clock::time_point lastChange = Clock::now();
  while (!wake.wait_for(guard, stop, poll,
                        [&stop] { return stop.stop_requested(); })) {
    const std::uint64_t progress = tasksRetired();
    const Clock::time_point now = Clock::now();
    // Progress restarts the clock, and so does idle quiescence: an idle
    // runtime is not stalled, and the next batch gets a full timeout
    // from its first dequeue.
    if (progress != lastProgress || tasksInFlight() == 0) {
      lastProgress = progress;
      lastChange = now;
    } else if (now - lastChange >= timeout) {
      std::fprintf(stderr, "%s", watchdogReport().c_str());
      fatal("watchdog: no completion progress for %lld ms with work in "
            "flight — dumping state and aborting (see report above; the "
            "fatal hook flushes the attached tracer to ATS_TRACE_DIR)",
            static_cast<long long>(timeout.count()));
    }
  }
}

std::string Runtime::watchdogReport() const {
  // Plain snprintf assembly: this runs on the watchdog thread while the
  // runtime may be wedged, so it must not allocate through the pool or
  // touch any lock a stuck worker might hold.
  char line[256];
  std::string out = "ats watchdog report:\n";
  std::snprintf(line, sizeof(line),
                "  scheduler=%s deps=%s workers=%zu\n",
                schedulerKindName(config_.scheduler),
                depsKindName(config_.deps), config_.topo.numCpus);
  out += line;
  std::snprintf(
      line, sizeof(line),
      "  inFlight=%llu retired=%llu failed=%llu skipped=%llu cancelled=%d "
      "liveDescriptors=%zu\n",
      static_cast<unsigned long long>(tasksInFlight()),
      static_cast<unsigned long long>(tasksRetired()),
      static_cast<unsigned long long>(tasksFailed()),
      static_cast<unsigned long long>(tasksSkipped()),
      graph_.cancelled() ? 1 : 0, liveDescriptors());
  out += line;
  // One line per slot (the last is the spawner's): spawned and retired
  // show where work entered and left, the descriptor delta where it is
  // still held, kept how many of the slot's tasks bypassed the scheduler
  // as immediate successors, and failed and skipped which slots ran the
  // graph's failures and its cancelled drain.
  auto read = [](const std::atomic<std::int64_t>& counter) {
    return static_cast<long long>(counter.load(std::memory_order_relaxed));
  };
  for (std::size_t i = 0; i <= config_.topo.numCpus; ++i) {
    const SlotCounters& slot = slots_[i];
    std::snprintf(line, sizeof(line),
                  "  slot %zu: spawned=%lld retired=%lld descriptors=%lld "
                  "kept=%lld failed=%lld skipped=%lld\n",
                  i, read(slot.spawned), read(slot.retired),
                  read(slot.descriptors), read(slot.kept), read(slot.failed),
                  read(slot.skipped));
    out += line;
  }
  return out;
}

}  // namespace ats
