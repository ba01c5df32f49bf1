#pragma once

#include <cstddef>

#include "deps/dep_task.hpp"

namespace ats {

struct Task;

/// The runtime's part of a task descriptor, the first base of Task so it
/// sits at bytes 0-79, ahead of the dependency counters.
///
/// A task body is `body(arg)`: `Runtime::spawn` constructs the callable
/// in `closureBuf` (or on the heap when it does not fit), points `arg` at
/// it and `body` at the thunk that invokes it.
struct TaskBody {
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

/// Task descriptor.  The schedulers only ever move `Task*` around; the
/// dependency subsystem sees the DepTask base; the runtime owns the
/// closure and completion machinery in the TaskBody base.
///
/// Base order is the layout: TaskBody, then DepTask's counters, then the
/// access slots.  Every field a 0-access task's spawn, hand-off, run and
/// reclaim touch lies in its first kTaskHeadBytes, which the pool's
/// 16-byte block header makes exactly one 128-byte line pair (DESIGN.md,
/// "Two-line descriptors, fetched ahead").  DepTask is not the first
/// base, so a `DepTask*` becomes a `Task*` only through `static_cast`,
/// which adjusts the pointer.
struct Task : TaskBody, DepTask {};

/// Bytes from a descriptor's start to its first access slot: the head
/// that SyncScheduler prefetches for a stashed task.
inline constexpr std::size_t kTaskHeadBytes =
    sizeof(TaskBody) + offsetof(DepTask, accessNodes);

static_assert(sizeof(Task) == sizeof(TaskBody) + sizeof(DepTask),
              "no padding between or after the two bases");
static_assert(kTaskHeadBytes == 112, "a 16-byte pool header + head = 128");

}  // namespace ats
