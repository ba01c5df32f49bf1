#include "common/topology.hpp"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ats {

Topology makeTopology(MachinePreset /*preset*/, std::size_t numCpus) {
  Topology t;
  if (numCpus == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    numCpus = hw > 0 ? hw : 1;
  }
  t.numCpus = numCpus;
  return t;
}

void pinCallingThread(std::size_t cpu) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % hw), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace ats
