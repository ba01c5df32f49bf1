#pragma once

#include <cstddef>

#include "deps/dep_task.hpp"

namespace ats {

/// Task descriptor.  The schedulers only ever move `Task*` around; the
/// dependency subsystem sees the DepTask base; the runtime owns the
/// closure and completion machinery on top.
///
/// A task body is `body(arg)`: `Runtime::spawn` constructs the callable
/// in `closureBuf` (or on the heap when it does not fit), points `arg` at
/// it and `body` at the thunk that invokes it.
struct Task : DepTask {
  void (*body)(void* arg) = nullptr;
  void* arg = nullptr;

  /// Inline closure storage; capture sets larger than this spill to the
  /// heap (Runtime::installClosure decides and sets the destroyer).
  static constexpr std::size_t kInlineClosureBytes = 48;
  alignas(alignof(std::max_align_t)) unsigned char
      closureBuf[kInlineClosureBytes];
  void (*closureDestroy)(Task& task) = nullptr;

  /// The owning Runtime, set at allocation; the reclaim hook reads it.
  void* runtime = nullptr;
};

}  // namespace ats
