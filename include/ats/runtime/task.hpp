#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "deps/dep_task.hpp"

namespace ats {

/// Task descriptor.  The schedulers only ever move `Task*` around; the
/// dependency subsystem sees the DepTask base; the runtime owns the
/// closure and completion machinery on top.
///
/// A task body is either a raw function pointer (`body`/`arg` — what the
/// scheduler benches use) or a type-erased closure installed by
/// `Runtime::spawn` into `closureBuf` (or the heap when it does not fit),
/// invoked through `invoker`.
struct Task : DepTask {
  /// Raw body entry point (used when no closure is installed).
  void (*body)(void* arg) = nullptr;
  void* arg = nullptr;

  /// Inline closure storage; capture sets larger than this spill to the
  /// heap (Runtime::installClosure decides and sets the destroyer).
  static constexpr std::size_t kInlineClosureBytes = 48;
  alignas(alignof(std::max_align_t)) unsigned char
      closureBuf[kInlineClosureBytes];
  void (*invoker)(Task& task) = nullptr;
  void (*closureDestroy)(Task& task) = nullptr;

  /// Completion hook installed by the owning Runtime at spawn.
  void (*onComplete)(Task& task) = nullptr;
  void* runtime = nullptr;

  /// Execute the task to completion:
  ///
  ///   1. run the body exactly once (closure if installed, else the raw
  ///      function pointer);
  ///   2. run the completion hook, which destroys the closure, releases
  ///      the task's dependency accesses — readying successors into the
  ///      scheduler — and drops the execution reference.  The descriptor
  ///      is reclaimed EAGERLY the moment its refcount drains (see
  ///      DepTask::refCount): release-path code must never touch another
  ///      task's access nodes after resolving it.
  ///
  /// A task with neither closure nor raw body is a misconfigured bench or
  /// runtime bug; that used to no-op silently, now it fails loudly.
  void run() {
    if (invoker != nullptr) {
      invoker(*this);
    } else if (body != nullptr) {
      body(arg);
    } else {
      std::fprintf(stderr,
                   "ats::Task::run(): task %p has neither a closure nor a "
                   "raw body — misconfigured bench or spawn path\n",
                   static_cast<void*>(this));
      std::abort();
    }
    if (onComplete != nullptr) onComplete(*this);
  }
};

}  // namespace ats
