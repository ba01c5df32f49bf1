#pragma once

#include <chrono>
#include <cstdint>

namespace ats {

/// Nanoseconds on the monotonic clock.  All latency/throughput numbers in
/// the repo are derived from this single source so figures are comparable.
inline std::uint64_t nowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Raw cycle/tick counter for trace timestamps (§5): one unserialized
/// register read, no syscall, no vDSO branch — the cheapest "when" a
/// hot path can record.  Ticks are NOT nanoseconds and the rate varies
/// by machine; consumers must rescale against a (tsc, nowNanos) pair
/// sampled at two points (see Tracer::collect).  On x86 the TSC is
/// invariant and core-synchronized on every machine the paper targets;
/// on aarch64 cntvct_el0 is architecturally synchronized.  Hosts with
/// neither fall back to nowNanos(), trading emit cost for portability.
inline std::uint64_t tscNow() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  std::uint64_t ticks;
  asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
  return ticks;
#else
  return nowNanos();
#endif
}

/// Polite busy-wait hint: tells the core we are spinning so SMT siblings
/// (and, on x86, the memory-order machinery) can deprioritize us.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

/// Wall-clock stopwatch for coarse phase timing (figure sweeps, app runs).
class Stopwatch {
 public:
  Stopwatch() : start_(nowNanos()) {}

  std::uint64_t elapsedNanos() const { return nowNanos() - start_; }

  double elapsedSeconds() const {
    return static_cast<double>(elapsedNanos()) * 1e-9;
  }

 private:
  std::uint64_t start_;
};

}  // namespace ats
