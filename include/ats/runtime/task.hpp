#pragma once

#include <cstddef>

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

  /// The owning Runtime, set at allocation; the reclaim hook reads it.
  void* runtime = nullptr;
};

}  // namespace ats
