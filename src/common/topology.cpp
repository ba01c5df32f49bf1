#include "common/topology.hpp"

#include <thread>

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

}  // namespace ats
