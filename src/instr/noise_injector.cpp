#include "instr/noise_injector.hpp"

#include <chrono>

#include "common/timing.hpp"
#include "common/topology.hpp"

namespace ats {

KernelNoiseInjector::KernelNoiseInjector(Tracer& tracer,
                                         std::uint64_t periodUs,
                                         std::uint64_t burstUs,
                                         std::size_t targetCpu)
    : tracer_(tracer),
      periodUs_(periodUs > burstUs ? periodUs : burstUs + 1),
      burstUs_(burstUs),
      targetCpu_(targetCpu),
      thread_([this] { run(); }) {}

KernelNoiseInjector::~KernelNoiseInjector() { stop(); }

void KernelNoiseInjector::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void KernelNoiseInjector::run() {
  // Sharing the target worker's core is the whole point (the burst must
  // displace it), but a host that refuses affinity still produces usable
  // noise: the scheduler puts the burner *somewhere*, and on a loaded box
  // that still preempts workers.
  pinCallingThread(targetCpu_);
  const std::size_t stream = tracer_.kernelStream();
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(periodUs_ - burstUs_));
    if (stop_.load(std::memory_order_acquire)) break;
    tracer_.emit(stream, TraceEvent::KernelIrqEnter, targetCpu_);
    // Burn, never yield: an interrupt handler does not cpuRelax() or
    // sleep, and any politeness here would hand the core back to the
    // worker we are supposed to be displacing.
    const std::uint64_t until = nowNanos() + burstUs_ * 1000;
    while (nowNanos() < until) {
    }
    tracer_.emit(stream, TraceEvent::KernelIrqExit, targetCpu_);
    bursts_.fetch_add(1, std::memory_order_acq_rel);
  }
}

}  // namespace ats
