#pragma once

#include <new>

#include "memory/allocator.hpp"

namespace ats {

/// Plain operator-new passthrough — the "w/o jemalloc" baseline of the
/// §4 ablation.  Whatever scalability the system malloc has is what the
/// benches measure; the point of the PoolAllocator is to beat this on
/// task-descriptor-sized churn.
class SystemAllocator final : public Allocator {
 public:
  static SystemAllocator& instance();

  void* allocate(std::size_t size) override {
    return ::operator new(size);
  }

  void deallocate(void* ptr, std::size_t size) override {
    ::operator delete(ptr, size);
  }
};

}  // namespace ats
