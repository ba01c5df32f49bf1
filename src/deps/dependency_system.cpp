#include "deps/dependency_system.hpp"

#include "common/fatal.hpp"
#include "deps/fine_grained_locks.hpp"
#include "deps/waitfree_asm.hpp"

namespace ats {

std::unique_ptr<DependencySystem> makeDependencySystem(DepsKind kind,
                                                       ReadySink sink) {
  switch (kind) {
    case DepsKind::FineGrainedLocks:
      return std::make_unique<FineGrainedLocksDeps>(sink);
    case DepsKind::WaitFreeAsm:
      return std::make_unique<WaitFreeAsmDeps>(sink);
  }
  // Same reasoning as makeScheduler: a null deps_ would only crash the
  // Runtime at its first spawn, far from the cause.
  fatal("makeDependencySystem: unknown DepsKind %d", static_cast<int>(kind));
}

}  // namespace ats
