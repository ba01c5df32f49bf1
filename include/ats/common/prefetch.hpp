#pragma once

namespace ats {

/// Cache-line hints for a descriptor that is about to change cores
/// (DESIGN.md, "Two-line descriptors, fetched ahead").  A prefetch never
/// faults, whatever the address.

/// Starts fetching `p`'s line in exclusive state, for a thread that will
/// write it.  A read prefetch would fetch the line shared and the first
/// store would pay a second coherence transaction to upgrade it, so x86-64
/// issues PREFETCHW, which GCC emits from `__builtin_prefetch` only when
/// the target flags name it.
inline void prefetchForWrite(const void* p) {
#if defined(__x86_64__)
  asm volatile("prefetchw (%0)" : : "r"(p));
#else
  __builtin_prefetch(p, 1, 3);
#endif
}

/// Starts fetching `p`'s line for a thread that will read it first.
inline void prefetchForRead(const void* p) { __builtin_prefetch(p, 0, 3); }

}  // namespace ats
