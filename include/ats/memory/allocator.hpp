#pragma once

#include <cstddef>

namespace ats {

/// The §4 memory-layer contract.  Both implementations hand out storage
/// suitable for any object with fundamental alignment; callers return
/// blocks with the same size they requested (sized deallocation is what
/// lets the pool find the size class without a lookup).
///
/// Thread model: allocate/deallocate are callable from any thread, and a
/// block allocated on one thread may be freed on another (the task-churn
/// shape: a successor's releasing thread frees the predecessor's
/// descriptor).
class Allocator {
 public:
  /// Every allocation is at least this aligned.
  static constexpr std::size_t kAlignment = alignof(std::max_align_t);

  virtual ~Allocator() = default;

  /// Storage for `size` bytes, aligned to kAlignment.  Never returns
  /// nullptr — allocation failure aborts, like the operator new it
  /// ultimately rests on.
  virtual void* allocate(std::size_t size) = 0;

  /// Return a block previously obtained from allocate(size) on any
  /// thread.  `size` must match the allocation request exactly.
  virtual void deallocate(void* ptr, std::size_t size) = 0;
};

}  // namespace ats
