// ats_suite: end-to-end task throughput of the runtime on four closed-loop
// workloads, plus a per-layer cost ledger, all measured from outside the
// library through its public API.
//
//   ats_suite --workload <flood|nested|deps_rw|apps_knee> [--seed N]
//             [--seconds S] [--mode e2e|layers] [--out DIR] [--smoke]
//
// The last line of standard output is one JSON object: context, checks
// and metrics (each with its unit).  See README.md for what every metric
// means and which layer metric should move which end-to-end metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "deps/object_table.hpp"
#include "instr/trace_analyzer.hpp"
#include "instr/trace_writer.hpp"
#include "instr/tracer.hpp"
#include "percentile.hpp"
#include "replay.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

#ifndef ATS_SUITE_GIT_SHA
#define ATS_SUITE_GIT_SHA "unknown"
#endif
#ifndef ATS_SUITE_BUILD_TYPE
#define ATS_SUITE_BUILD_TYPE "unknown"
#endif

namespace {

using namespace suite;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kE2eMetrics[] = {
    {"tasks_per_s", "1/s"},  {"batch_ms_p50", "ms"}, {"batch_ms_p90", "ms"},
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},  {"failed_ratio", "ratio"},
};

constexpr MetricSpec kLayerMetrics[] = {
    {"runtime.spawn_ns_p50", "ns"},
    {"runtime.spawn_ns_p99", "ns"},
    {"runtime.spawn_busy_pct", "%"},
    {"runtime.taskwait_tail_us_p50", "us"},
    {"runtime.worker_idle_pct", "%"},
    {"runtime.overhead_ns_per_task", "ns"},
    {"memory.alloc_ns_p50", "ns"},
    {"memory.free_ns_p50", "ns"},
    {"deps.register_ns_p50", "ns"},
    {"deps.register_ns_p99", "ns"},
    {"deps.release_ns_p50", "ns"},
    {"deps.release_ns_p99", "ns"},
    {"deps.ready_at_register_pct", "%"},
    {"deps.table_cache_hit_pct", "%"},
    {"sched.add_ns_p50", "ns"},
    {"sched.get_ns_p50", "ns"},
    {"sched.serves_per_ktask", "count"},
    {"sched.tasks_per_serve", "count"},
    {"sched.drained_per_drain", "count"},
    {"sched.contended_per_ktask", "count"},
    {"sched.steal_ratio_pct", "%"},
    {"sched.max_serve_gap_us", "us"},
    {"instr.trace_overhead_pct", "%"},
    {"instr.dropped_records", "count"},
    {"ledger.timer_floor_ns", "ns"},
    {"ledger.stage_sum_ns", "ns"},
    {"ledger.cpu_ns_per_task", "ns"},
    {"ledger.residual_pct", "%"},
};

/// Batch counts per run.  The e2e run sets up `instances` times, each a
/// fresh workload and Runtime whose cold batch is set-up time (setup_s is
/// their median); each instance then warms up and times batches for its
/// share of --seconds.  One Runtime's throughput settles into a mode that
/// differs from the next instance's by a few percent on a 4-vCPU VM, so a
/// run pools its batches over several.  The layers run is fixed-size:
/// `layerBatches` plain, spawn-timed and traced batches, then the replay.
struct Plan {
  std::size_t instances = 4;
  std::size_t warmups = 2;
  std::size_t minTimedPerInstance = 3;
  std::size_t layerBatches = 5;
  std::size_t replayPasses = 3;
};

constexpr std::size_t kReplayWindow = 256;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode = "e2e";
  std::string out = ".";
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ats_suite: %s\nusage: ats_suite --workload "
               "<flood|nested|deps_rw|apps_knee> [--seed N] [--seconds S] "
               "[--mode e2e|layers] [--out DIR] [--smoke]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("--seconds must be > 0");
    } else if (flag == "--mode") {
      args.mode = value;
      if (args.mode != "e2e" && args.mode != "layers")
        usage("--mode is e2e or layers");
    } else if (flag == "--out") {
      args.out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : workloadNames())
    known |= name == args.workload;
  if (!known) usage("--workload names one of the four workloads");
  return args;
}

[[noreturn]] void refuse(const char* why) {
  std::fprintf(stderr, "ats_suite: refusing to run: %s\n", why);
  std::exit(3);
}

/// Timing a debug or sanitized build measures the checks, not the runtime.
void refuseUnfitBuild() {
#ifndef NDEBUG
  refuse("built without NDEBUG (configure with CMAKE_BUILD_TYPE=Release)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  refuse("built with a sanitizer");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  refuse("built with a sanitizer");
#endif
#endif
}

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

void pinSelf(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    refuse("cannot pin the spawner thread to its CPU");
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Ordered JSON object writer for the flat report this program prints.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += jsonString(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jsonString(v));
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, jsonNumber(v));
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Conservation and verification tally across every batch of a run.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void expect(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 8)
        std::fprintf(stderr, "ats_suite: check failed: %s\n", what);
    }
  }
};

/// One batch with its conservation checks: every spawned task retired,
/// none failed or skipped, every descriptor reclaimed.
BatchOutcome checkedBatch(ats::Runtime& rt, Workload& workload,
                          const BatchHooks& hooks, Checks& checks) {
  const std::uint64_t retired = rt.tasksRetired();
  const std::uint64_t failed = rt.tasksFailed();
  const std::uint64_t skipped = rt.tasksSkipped();
  BatchOutcome outcome = workload.run(rt, hooks);
  checks.expect(rt.tasksRetired() - retired == outcome.spawned,
                "tasks retired != tasks spawned");
  checks.expect(rt.tasksFailed() == failed && rt.tasksSkipped() == skipped,
                "a task failed or was skipped");
  checks.expect(rt.liveDescriptors() == 0,
                "descriptors alive after taskwait");
  checks.attempted += outcome.checks;
  checks.failed += outcome.failedChecks;
  if (outcome.failedChecks != 0)
    std::fprintf(stderr, "ats_suite: check failed: an app did not verify\n");
  return outcome;
}

struct Host {
  std::size_t workers = 0;
  int spawnerCpu = -1;
  std::string workerCpus;
  std::size_t nproc = 0;
};

Host claimHost() {
  const std::vector<int> cpus = allowedCpus();
  if (cpus.size() < 2)
    refuse("needs at least 2 CPUs: one worker plus the spawner, never "
           "oversubscribed");
  Host host;
  host.nproc = cpus.size();
  host.workers = cpus.size() - 1;
  host.spawnerCpu = cpus.back();
  // The Runtime pins worker i to CPU i; that is the layout we get only
  // when the allowed set is exactly 0..n-1.
  bool dense = true;
  for (std::size_t i = 0; i < cpus.size(); ++i)
    dense &= cpus[i] == static_cast<int>(i);
  host.workerCpus =
      dense ? "0-" + std::to_string(host.workers - 1) : "unpinned";
  pinSelf(host.spawnerCpu);
  return host;
}

using Values = std::map<std::string, double>;
using Specs = std::vector<std::pair<std::string, std::string>>;  // name, unit

Specs e2eSpecs() {
  Specs specs;
  for (const MetricSpec& m : kE2eMetrics) specs.emplace_back(m.name, m.unit);
  return specs;
}

Specs layerSpecs() {
  Specs specs;
  for (const MetricSpec& m : kLayerMetrics) specs.emplace_back(m.name, m.unit);
  for (const std::string& app : kneeAppNames())
    specs.emplace_back("apps." + app + ".ms_p50", "ms");
  return specs;
}

/// Every metric in `specs`, in order.  One the workload did not measure
/// reads 0 and is named in `notApplicable`.
std::string metricsJson(const Values& values, const Specs& specs,
                        std::vector<std::string>& notApplicable) {
  JsonObject metrics;
  for (const auto& [name, unit] : specs) {
    const auto it = values.find(name);
    if (it == values.end()) notApplicable.push_back(name);
    JsonObject m;
    m.num("value", it == values.end() ? 0.0 : it->second).str("unit", unit);
    metrics.raw(name, m.dump());
  }
  return metrics.dump();
}

void addAppMedians(const std::vector<std::vector<double>>& perApp,
                   Values& values) {
  for (std::size_t i = 0; i < perApp.size(); ++i)
    if (!perApp[i].empty())
      values["apps." + kneeAppNames()[i] + ".ms_p50"] =
          median(perApp[i]) * 1e3;
}

void collectAppRuns(const BatchOutcome& outcome,
                    std::vector<std::vector<double>>& perApp) {
  for (const auto& [index, seconds] : outcome.appRuns)
    perApp[index].push_back(seconds);
}

struct RunCounts {
  std::size_t setups = 0;
  std::size_t warmups = 0;
  std::size_t timed = 0;
  std::size_t traced = 0;
  std::size_t replayTasks = 0;
};

Values runE2e(const Args& args, const ats::RuntimeConfig& config,
              const Plan& plan, Checks& checks, RunCounts& counts) {
  std::vector<double> setupSeconds;
  std::vector<double> batchSeconds;
  std::vector<double> tasksPerSecond;
  const double shareNs =
      args.seconds * 1e9 / static_cast<double>(plan.instances);
  for (std::size_t k = 0; k < plan.instances; ++k) {
    const std::uint64_t t0 = ats::nowNanos();
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, args.seed, args.smoke);
    ats::Runtime rt(config);
    checkedBatch(rt, *workload, {}, checks);
    setupSeconds.push_back(static_cast<double>(ats::nowNanos() - t0) * 1e-9);

    for (std::size_t i = 0; i < plan.warmups; ++i)
      checkedBatch(rt, *workload, {}, checks);

    const std::uint64_t start = ats::nowNanos();
    for (std::size_t timed = 0;
         timed < plan.minTimedPerInstance ||
         (!args.smoke &&
          static_cast<double>(ats::nowNanos() - start) < shareNs);
         ++timed) {
      const BatchOutcome outcome = checkedBatch(rt, *workload, {}, checks);
      batchSeconds.push_back(outcome.seconds);
      tasksPerSecond.push_back(static_cast<double>(outcome.spawned) /
                               outcome.seconds);
    }
  }
  counts.setups = plan.instances;
  counts.warmups = plan.instances * plan.warmups;
  counts.timed = batchSeconds.size();

  Values values;
  values["tasks_per_s"] = median(tasksPerSecond);
  values["batch_ms_p50"] = percentile(batchSeconds, 50) * 1e3;
  values["batch_ms_p90"] = percentile(batchSeconds, 90) * 1e3;
  values["setup_s"] = median(setupSeconds);
  return values;
}

/// Sums of the analyzer's per-unit numbers over the traced batches.
struct TraceTotals {
  double workerSpanNs = 0;  ///< workers x span, summed over units
  double busyNs = 0;
  double idleNs = 0;
  std::uint64_t tasks = 0;
  std::uint64_t serves = 0, servedTasks = 0;
  std::uint64_t drains = 0, drainedTasks = 0;
  std::uint64_t contended = 0, steals = 0, starts = 0;
  std::uint64_t dropped = 0;
  std::vector<double> maxServeGapUs;

  void add(const ats::TraceAnalysis& a, std::size_t workers,
           std::uint64_t unitTasks) {
    workerSpanNs += static_cast<double>(workers) * a.spanUs * 1e3;
    for (const ats::ThreadTraceStats& t : a.threads) {
      busyNs += t.busyUs * 1e3;
      idleNs += t.idleUs * 1e3;
    }
    tasks += unitTasks;
    serves += a.serveCount;
    servedTasks += a.servedTasks;
    drains += a.drainCount;
    drainedTasks += a.drainedTasks;
    contended += a.contendedCount;
    steals += a.stealCount;
    starts += a.taskStartCount;
    maxServeGapUs.push_back(a.maxServeGapUs);
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Values runLayers(const Args& args, const ats::RuntimeConfig& config,
                 const Host& host, const Plan& plan, Checks& checks,
                 RunCounts& counts) {
  Values values;
  std::unique_ptr<Workload> workload =
      makeWorkload(args.workload, args.seed, args.smoke);
  const bool synthetic = workload->syntheticSpawns();
  std::vector<std::vector<double>> perApp(kneeAppNames().size());

  // Untraced: plain batches (the baseline for trace overhead and the
  // ledger's end-to-end side), then spawn-timed batches.
  std::vector<double> plainSeconds, plainTps;
  std::uint64_t tasksPerBatch = 0;
  {
    ats::Runtime rt(config);
    for (std::size_t i = 0; i < 1 + plan.warmups; ++i)
      checkedBatch(rt, *workload, {}, checks);
    const ats::ObjectTableCacheCounters before =
        ats::objectTableThreadCacheCounters();
    for (std::size_t i = 0; i < plan.layerBatches; ++i) {
      const BatchOutcome outcome = checkedBatch(rt, *workload, {}, checks);
      plainSeconds.push_back(outcome.seconds);
      plainTps.push_back(static_cast<double>(outcome.spawned) /
                         outcome.seconds);
      tasksPerBatch = outcome.spawned;
      collectAppRuns(outcome, perApp);
    }
    const ats::ObjectTableCacheCounters after =
        ats::objectTableThreadCacheCounters();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double lookups =
        hits + static_cast<double>(after.misses - before.misses);
    if (lookups > 0)
      values["deps.table_cache_hit_pct"] = 100.0 * hits / lookups;

    if (synthetic) {
      SpawnLanes lanes;
      BatchHooks hooks;
      hooks.spawns = &lanes;
      std::vector<std::uint32_t> spawnNs;
      std::vector<double> busyPct, tailUs;
      for (std::size_t i = 0; i < plan.layerBatches; ++i) {
        const BatchOutcome outcome = checkedBatch(rt, *workload, hooks, checks);
        double sumNs = 0;
        for (const auto& lane : lanes.ns) {
          spawnNs.insert(spawnNs.end(), lane.begin(), lane.end());
          for (std::uint32_t ns : lane) sumNs += ns;
        }
        busyPct.push_back(100.0 * sumNs / (outcome.seconds * 1e9));
        tailUs.push_back(
            static_cast<double>(lanes.taskwaitEndNs - lanes.lastSpawnEndNs) /
            1e3);
      }
      values["runtime.spawn_ns_p50"] = percentile(spawnNs, 50);
      values["runtime.spawn_ns_p99"] = percentile(spawnNs, 99);
      values["runtime.spawn_busy_pct"] = median(busyPct);
      values["runtime.taskwait_tail_us_p50"] = median(tailUs);
    }
  }
  addAppMedians(perApp, values);

  // Traced: the same batches with the §5 tracer attached, reset at
  // quiescence before every parallel region and analyzed after it.
  {
    ats::Tracer tracer(host.workers, kTraceCapacity);
    ats::RuntimeConfig traced = config;
    traced.tracer = &tracer;
    ats::Runtime rt(traced);
    TraceTotals totals;
    std::vector<ats::TraceRecord> lastUnit;
    bool measuring = false;
    BatchHooks hooks;
    hooks.beforeUnit = [&] { tracer.reset(); };
    hooks.afterUnit = [&](std::uint64_t tasks) {
      if (!measuring) return;
      std::vector<ats::TraceRecord> records = tracer.collect();
      totals.dropped += tracer.dropped();
      totals.add(ats::analyzeTrace(records, host.workers), host.workers,
                 tasks);
      lastUnit = std::move(records);
    };
    for (std::size_t i = 0; i < 1 + plan.warmups; ++i)
      checkedBatch(rt, *workload, hooks, checks);
    measuring = true;
    std::vector<double> tracedTps;
    for (std::size_t i = 0; i < plan.layerBatches; ++i) {
      const BatchOutcome outcome = checkedBatch(rt, *workload, hooks, checks);
      tracedTps.push_back(static_cast<double>(outcome.spawned) /
                          outcome.seconds);
    }
    counts.traced = plan.layerBatches;

    const double untracedRate = median(plainTps);
    values["instr.trace_overhead_pct"] =
        100.0 * (untracedRate - median(tracedTps)) / untracedRate;
    values["instr.dropped_records"] = static_cast<double>(totals.dropped);
    values["runtime.worker_idle_pct"] =
        100.0 * ratio(totals.idleNs, totals.workerSpanNs);
    values["runtime.overhead_ns_per_task"] =
        ratio(totals.workerSpanNs - totals.busyNs,
              static_cast<double>(totals.tasks));
    const auto tasks = static_cast<double>(totals.tasks);
    values["sched.serves_per_ktask"] =
        1e3 * ratio(static_cast<double>(totals.serves), tasks);
    values["sched.tasks_per_serve"] =
        ratio(static_cast<double>(totals.servedTasks),
              static_cast<double>(totals.serves));
    values["sched.drained_per_drain"] =
        ratio(static_cast<double>(totals.drainedTasks),
              static_cast<double>(totals.drains));
    values["sched.contended_per_ktask"] =
        1e3 * ratio(static_cast<double>(totals.contended), tasks);
    values["sched.steal_ratio_pct"] =
        100.0 * ratio(static_cast<double>(totals.steals),
                      static_cast<double>(totals.starts));
    values["sched.max_serve_gap_us"] = median(totals.maxServeGapUs);

    std::filesystem::create_directories(args.out);
    const std::string path = args.out + "/" + args.workload + ".ats";
    if (!ats::TraceWriter::writeBinary(path, lastUnit))
      std::fprintf(stderr, "ats_suite: could not write %s\n", path.c_str());
  }

  const double floorNs = timerFloorNs();
  values["ledger.timer_floor_ns"] = floorNs;
  values["ledger.cpu_ns_per_task"] =
      static_cast<double>(host.workers + 1) * median(plainSeconds) * 1e9 /
      static_cast<double>(tasksPerBatch);
  if (synthetic) {
    const ReplayStream stream = workload->replayStream();
    const ReplaySamples s =
        replayLayers(config, stream, plan.replayPasses, kReplayWindow);
    counts.replayTasks = s.registered;
    const double stages[] = {
        percentile(s.alloc, 50),   percentile(s.registration, 50),
        percentile(s.add, 50),     percentile(s.get, 50),
        percentile(s.release, 50), percentile(s.free, 50)};
    double stageSum = 0;
    for (double p50 : stages) stageSum += std::max(0.0, p50 - floorNs);
    values["memory.alloc_ns_p50"] = stages[0];
    values["deps.register_ns_p50"] = stages[1];
    values["deps.register_ns_p99"] = percentile(s.registration, 99);
    values["sched.add_ns_p50"] = stages[2];
    values["sched.get_ns_p50"] = stages[3];
    values["deps.release_ns_p50"] = stages[4];
    values["deps.release_ns_p99"] = percentile(s.release, 99);
    values["memory.free_ns_p50"] = stages[5];
    values["deps.ready_at_register_pct"] =
        100.0 * ratio(static_cast<double>(s.readyAtRegister),
                      static_cast<double>(s.registered));
    values["ledger.stage_sum_ns"] = stageSum;
    const double cpuNs = values["ledger.cpu_ns_per_task"];
    values["ledger.residual_pct"] = 100.0 * (cpuNs - stageSum) / cpuNs;
    std::fprintf(stderr,
                 "ledger (%s, p50 ns, timer floor %.1f included): alloc %.1f "
                 "register %.1f add %.1f get %.1f release %.1f free %.1f | "
                 "stage sum %.1f vs cpu/task %.1f -> residual %.1f%%\n",
                 args.workload.c_str(), floorNs, stages[0], stages[1],
                 stages[2], stages[3], stages[4], stages[5], stageSum, cpuNs,
                 values["ledger.residual_pct"]);
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  refuseUnfitBuild();
  const Host host = claimHost();

  Plan plan;
  if (args.smoke) {
    plan.instances = 1;
    plan.warmups = 1;
    plan.layerBatches = 2;
    plan.replayPasses = 1;
  }

  const ats::RuntimeConfig config =
      ats::optimizedConfig(ats::makeTopology(ats::MachinePreset::Host,
                                             host.workers));
  Checks checks;
  RunCounts counts;
  const bool e2e = args.mode == "e2e";
  Values values = e2e ? runE2e(args, config, plan, checks, counts)
                      : runLayers(args, config, host, plan, checks, counts);

  if (e2e) {
    values["peak_rss_mb"] = peakRssMb();
    values["failed_ratio"] = ratio(static_cast<double>(checks.failed),
                                   static_cast<double>(checks.attempted));
  }
  std::vector<std::string> notApplicable;
  const std::string metrics =
      metricsJson(values, e2e ? e2eSpecs() : layerSpecs(), notApplicable);

  std::string naJson = "[";
  for (const std::string& name : notApplicable) {
    if (naJson.size() > 1) naJson += ',';
    naJson += jsonString(name);
  }
  naJson += ']';

  JsonObject context;
  context.num("nproc", static_cast<double>(host.nproc))
      .str("cpu_model", cpuModel())
      .str("compiler", __VERSION__)
      .str("build_type", ATS_SUITE_BUILD_TYPE)
      .str("git_sha", ATS_SUITE_GIT_SHA)
      .num("seed", static_cast<double>(args.seed))
      .num("workers", static_cast<double>(host.workers))
      .str("worker_cpus", host.workerCpus)
      .num("spawner_cpu", host.spawnerCpu)
      .str("scheduler", ats::schedulerKindName(config.scheduler))
      .num("seconds", args.seconds)
      .raw("smoke", args.smoke ? "true" : "false")
      .num("setups", static_cast<double>(counts.setups))
      .num("warmup_batches", static_cast<double>(counts.warmups))
      .num("timed_batches", static_cast<double>(counts.timed))
      .num("traced_batches", static_cast<double>(counts.traced))
      .num("replay_tasks", static_cast<double>(counts.replayTasks));

  JsonObject report;
  report.str("workload", args.workload)
      .str("mode", args.mode)
      .raw("correct", checks.failed == 0 ? "true" : "false")
      .num("attempted", static_cast<double>(checks.attempted))
      .num("failed", static_cast<double>(checks.failed))
      .raw("metrics", metrics)
      .raw("not_applicable", naJson)
      .raw("context", context.dump());
  std::printf("%s\n", report.dump().c_str());
  return checks.failed == 0 ? 0 : 1;
}
