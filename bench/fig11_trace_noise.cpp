// Figure 11 reproduction: the effect of operating-system noise on the
// delegation scheduler, observed through correlated kernel + runtime
// events on one timeline.
//
// The paper's trace shows a hardware interrupt stalling the thread that
// owns the scheduler lock: all other cores starve until it resumes, after
// which the accumulated surplus of ready tasks produces a long serve-free
// period.  We reproduce the scenario with the KernelNoiseInjector (a
// thread that burns the CPU in bursts and logs KernelIrqEnter/Exit into
// the tracer's kernel stream — see DESIGN.md for why this preserves the
// measurement) and report the analyzer's irq/serve-gap correlation.
#include <cstdio>
#include <string>

#include "apps/app.hpp"
#include "bench/fig_common.hpp"
#include "common/env.hpp"
#include "instr/noise_injector.hpp"
#include "instr/trace_analyzer.hpp"
#include "instr/trace_writer.hpp"
#include "instr/tracer.hpp"
#include "runtime/runtime.hpp"

using namespace ats;

int main() {
  const std::size_t threads = bench::figureWorkers();
  const std::string traceDir = envString("ATS_TRACE_DIR", ".");
  const std::string spawner = bench::pinSpawner();
  std::printf("# fig11: OS-noise effect on the scheduler "
              "(%zu workers, %s, synthetic irq bursts)\n\n",
              threads, spawner.c_str());

  Tracer tracer(threads, 1u << 18);
  RuntimeConfig cfg =
      optimizedConfig(makeTopology(MachinePreset::Host, threads));
  cfg.tracer = &tracer;

  auto app = makeApp("dotprod", envFlag("ATS_FULL") ? AppScale::Full
                                                    : AppScale::Quick);
  const auto sizes = app->defaultBlockSizes();
  {
    Runtime rt(cfg);
    // Noise: 2ms bursts every 10ms, attributed to CPU 0 — long enough to
    // displace whichever thread holds the DTLock on a loaded host.
    KernelNoiseInjector noise(tracer, /*periodUs=*/10000, /*burstUs=*/2000,
                              /*targetCpu=*/0);
    // Default rep count sized so the traced window spans many noise
    // periods even at quick scale (ATS_REPS raises it further).
    const std::size_t reps = envSize("ATS_REPS", 100);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const AppResult r = app->run(rt, sizes.back());
      if (!r.verified) {
        std::fprintf(stderr, "FATAL: dotprod failed verification\n");
        return 1;
      }
    }
    noise.stop();
    std::printf("injected %llu irq bursts\n\n",
                static_cast<unsigned long long>(noise.burstsInjected()));
  }

  const auto records = tracer.collect();
  const TraceAnalysis a = analyzeTrace(records, threads);
  TraceWriter::writeBinary(traceDir + "/fig11_noise.ats", records);
  TraceWriter::writeText(traceDir + "/fig11_noise.txt", records);

  std::printf("%s", formatAnalysis(a).c_str());
  std::printf("%s", renderTimeline(records, threads).c_str());
  std::printf("\n# paper claim: serve gaps spike while the serving thread "
              "is displaced by kernel activity\n");
  std::printf("max_serve_gap=%.1fus  max_serve_gap_during_irq=%.1fus  "
              "irq_time=%.1fus\n",
              a.maxServeGapUs, a.maxServeGapDuringIrqUs, a.irqTotalUs);
  return 0;
}
