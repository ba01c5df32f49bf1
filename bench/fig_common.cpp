#include "bench/fig_common.hpp"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "runtime/runtime.hpp"

namespace ats::bench {

const std::vector<Variant>& ablationVariants() {
  static const std::vector<Variant> v = {
      {"optimized", &optimizedConfig},
      {"wo_jemalloc", &withoutJemallocConfig},
      {"wo_waitfree_deps", &withoutWaitFreeDepsConfig},
      {"wo_dtlock", &withoutDTLockConfig},
      {"wo_immediate_successor", &withoutImmediateSuccessorConfig},
  };
  return v;
}

const std::vector<Variant>& runtimeComparisonVariants() {
  static const std::vector<Variant> v = {
      {"nanos6", &optimizedConfig},
      {"gcc_like", &centralMutexRuntimeConfig},
      {"llvm_like", &workStealingRuntimeConfig},
  };
  return v;
}

std::size_t figureWorkers() {
  const std::size_t cpus = makeTopology(MachinePreset::Host).numCpus;
  return envSize("ATS_THREADS", cpus > 1 ? cpus - 1 : 1);
}

std::string pinSpawner() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 ||
      static_cast<std::size_t>(CPU_COUNT(&set)) <= figureWorkers())
    return "spawner unpinned";
  int last = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) last = cpu;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    return "spawner unpinned";
  return "spawner on CPU " + std::to_string(last);
}

SweepConfig resolveSweepConfig() {
  SweepConfig cfg;
  const bool full = envFlag("ATS_FULL");
  cfg.scale = full ? AppScale::Full : AppScale::Quick;
  cfg.topo = makeTopology(MachinePreset::Host, figureWorkers());
  cfg.reps = envSize("ATS_REPS", full ? 5 : 2);
  cfg.maxPoints = full ? 64 : 5;
  return cfg;
}

namespace {

/// Subsample a coarse->fine size list to at most `maxPoints`, always
/// keeping both endpoints.
std::vector<std::size_t> selectSizes(std::vector<std::size_t> sizes,
                                     std::size_t maxPoints) {
  if (sizes.size() <= maxPoints) return sizes;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < maxPoints; ++i)
    out.push_back(sizes[i * (sizes.size() - 1) / (maxPoints - 1)]);
  return out;
}

}  // namespace

void runFigure(const std::string& figure,
               const std::vector<Variant>& variants) {
  const SweepConfig cfg = resolveSweepConfig();
  const std::string spawner = pinSpawner();
  std::printf("# %s: %zu workers, %s, %zu reps, %s scale\n",
              figure.c_str(), cfg.topo.numCpus, spawner.c_str(), cfg.reps,
              cfg.scale == AppScale::Full ? "full" : "quick");
  std::printf("# efficiency = 100 * throughput / peak-throughput-per-app "
              "(paper §6.2); higher is better\n");
  std::printf("# cell = median efficiency over the reps (IQR in "
              "efficiency points)\n\n");

  for (const std::string& appName : appNames()) {
    auto app = makeApp(appName, cfg.scale);
    const auto sizes = selectSizes(app->defaultBlockSizes(), cfg.maxPoints);

    // grid[v][s] = throughput quartiles of variant v at size s.
    std::vector<std::vector<Quartiles>> grid(variants.size());
    std::vector<double> grains(sizes.size(), 0.0);
    double peak = 0.0;

    for (std::size_t v = 0; v < variants.size(); ++v) {
      Runtime rt(variants[v].make(cfg.topo));
      for (std::size_t s = 0; s < sizes.size(); ++s) {
        std::vector<double> throughputs;
        for (std::size_t rep = 0; rep < cfg.reps; ++rep) {
          const AppResult r = app->run(rt, sizes[s]);
          if (!r.verified) {
            std::fprintf(stderr,
                         "FATAL: %s failed verification (variant %s, "
                         "block %zu, checksum %.17g)\n",
                         appName.c_str(), variants[v].label.c_str(),
                         sizes[s], r.checksum);
            std::exit(1);
          }
          throughputs.push_back(r.throughput());
          grains[s] = r.grainWorkUnits();
        }
        grid[v].push_back(quartilesOf(std::move(throughputs)));
        peak = std::max(peak, grid[v].back().median);
      }
    }

    std::printf("# %s %s\n", figure.c_str(), appName.c_str());
    std::printf("%-18s", "grain_work_units");
    for (const Variant& v : variants) std::printf("  %-22s", v.label.c_str());
    std::printf("\n");
    const double scale = peak > 0 ? 100.0 / peak : 0.0;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::printf("%-18.3g", grains[s]);
      for (std::size_t v = 0; v < variants.size(); ++v) {
        char cell[48];
        std::snprintf(cell, sizeof(cell), "%.1f (%.1f)",
                      scale * grid[v][s].median, scale * grid[v][s].iqr());
        std::printf("  %-22s", cell);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
}

}  // namespace ats::bench
