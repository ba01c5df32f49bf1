#include "runtime/runtime_config.hpp"

namespace ats {

RuntimeConfig optimizedConfig(const Topology& topo) {
  RuntimeConfig config;
  config.topo = topo;
  config.scheduler = SchedulerKind::SyncDelegation;
  config.deps = DepsKind::WaitFreeAsm;
  config.usePoolAllocator = true;
  config.immediateSuccessor = true;
  return config;
}

RuntimeConfig withoutJemallocConfig(const Topology& topo) {
  RuntimeConfig config = optimizedConfig(topo);
  config.usePoolAllocator = false;
  return config;
}

RuntimeConfig withoutWaitFreeDepsConfig(const Topology& topo) {
  RuntimeConfig config = optimizedConfig(topo);
  config.deps = DepsKind::FineGrainedLocks;
  return config;
}

RuntimeConfig withoutDTLockConfig(const Topology& topo) {
  RuntimeConfig config = optimizedConfig(topo);
  config.scheduler = SchedulerKind::PTLockCentral;
  return config;
}

RuntimeConfig withoutImmediateSuccessorConfig(const Topology& topo) {
  RuntimeConfig config = optimizedConfig(topo);
  config.immediateSuccessor = false;
  return config;
}

RuntimeConfig centralMutexRuntimeConfig(const Topology& topo) {
  RuntimeConfig config;
  config.topo = topo;
  config.scheduler = SchedulerKind::CentralMutex;
  config.deps = DepsKind::FineGrainedLocks;
  config.usePoolAllocator = false;
  config.immediateSuccessor = false;
  return config;
}

RuntimeConfig workStealingRuntimeConfig(const Topology& topo) {
  RuntimeConfig config = optimizedConfig(topo);
  config.scheduler = SchedulerKind::WorkStealing;
  config.immediateSuccessor = false;
  return config;
}

}  // namespace ats
