#include "common/topology.hpp"

#include <thread>

namespace ats {

namespace {

std::size_t presetCpus(MachinePreset preset) {
  switch (preset) {
    case MachinePreset::Xeon:
      return 48;
    case MachinePreset::Rome:
      return 128;
    case MachinePreset::Graviton:
      return 64;
    case MachinePreset::Host:
      break;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

Topology makeTopology(MachinePreset preset, std::size_t numCpus) {
  Topology t;
  t.numCpus = numCpus > 0 ? numCpus : presetCpus(preset);
  return t;
}

const char* presetName(MachinePreset preset) {
  switch (preset) {
    case MachinePreset::Host:
      return "host";
    case MachinePreset::Xeon:
      return "xeon";
    case MachinePreset::Rome:
      return "rome";
    case MachinePreset::Graviton:
      return "graviton";
  }
  return "unknown";
}

}  // namespace ats
