#include "runtime/scheduler_factory.hpp"

#include "common/fatal.hpp"
#include "sched/central_mutex_scheduler.hpp"
#include "sched/ptlock_scheduler.hpp"
#include "sched/sync_scheduler.hpp"
#include "sched/work_stealing_scheduler.hpp"

namespace ats {

std::unique_ptr<Scheduler> makeScheduler(const RuntimeConfig& config) {
  switch (config.scheduler) {
    case SchedulerKind::CentralMutex:
      return std::make_unique<CentralMutexScheduler>(config.tracer);
    case SchedulerKind::PTLockCentral:
      return std::make_unique<PTLockScheduler>(
          config.topo, kPerCpuBufferCapacity, config.tracer);
    case SchedulerKind::SyncDelegation:
      return std::make_unique<SyncScheduler>(
          config.topo, kPerCpuBufferCapacity, config.tracer);
    case SchedulerKind::WorkStealing:
      return std::make_unique<WorkStealingScheduler>(
          config.topo, kPerCpuBufferCapacity, config.tracer);
  }
  // A value outside the enum can only come from memory corruption or a
  // missed case after adding a kind.  Returning nullptr would defer the
  // failure to a null deref inside the Runtime; fail loudly at the source
  // instead (ats::fatal also gives any attached tracer its last flush
  // through the fatal hook).
  fatal("makeScheduler: unknown SchedulerKind %d",
        static_cast<int>(config.scheduler));
}

}  // namespace ats
