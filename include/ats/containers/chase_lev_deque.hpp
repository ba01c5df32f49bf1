#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/failpoint.hpp"

namespace ats {

/// Chase–Lev work-stealing deque (dynamic circular array), in the
/// C11-memory-model formulation of Lê, Pop, Cohen & Nardelli (PPoPP'13).
/// One OWNER thread calls `push`/`pop` on the bottom end (LIFO — the
/// depth-first fast path); any number of THIEF threads call `steal` on
/// the top end (FIFO — thieves take the oldest, coldest task).
///
/// Why this container and not another SpscQueue: the owner's fast path
/// must involve NO shared read-modify-write at all — `push` is one slot
/// store plus one release store of `bottom`, and `pop` is one seq_cst
/// bottom store plus one seq_cst top load; the single CAS in the whole
/// protocol sits on the one-element race (owner's last `pop` vs a
/// thief's `steal`) and on the thief side, where contention is the
/// uncommon case by design.  The cached-index/cache-line-padding staging
/// proved out in SpscQueue reappears here as the padded top/bottom
/// lines.  The full memory-ordering argument lives in DESIGN.md
/// ("Chase–Lev protocol"); inline comments below mark the load-bearing
/// orderings only.
///
/// Concurrency contract: exactly one thread may call `push`/`pop` at any
/// moment (ownership may migrate between threads if the handoff is
/// ordered by a happens-before edge); `steal` is safe from any thread at
/// any time, including the owner.  Indices are signed and free-running:
/// `top` only ever grows, which is what rules ABA out of the steal CAS.
///
/// T must be trivially copyable (slots are read racily and validated by
/// the CAS afterwards; a torn non-trivial copy would be UB, a torn
/// trivially-copyable one is discarded with the failed CAS).
template <typename T>
class ChaseLevDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "racy slot reads require trivially copyable elements");

 public:
  enum class StealResult {
    Success,  ///< out holds the stolen element
    Empty,    ///< nothing to steal at the time of the probe
    Abort,    ///< lost the top CAS to the owner or another thief — the
              ///< element went to someone else; retrying is progress-safe
              ///< (every abort means somebody else completed a removal)
  };

  /// `minCapacity` is rounded up to a power of two.  The array grows
  /// (doubles) when a push finds it full, so this is a starting size,
  /// not a bound.
  explicit ChaseLevDeque(std::size_t minCapacity = 64) {
    buffers_.push_back(std::make_unique<Buffer>(minCapacity));
    buffer_.store(buffers_.back().get(), std::memory_order_relaxed);
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only.  Never fails: a full array grows (the only allocation
  /// in the protocol; amortized O(1), and the common case is one relaxed
  /// slot store + one release store of bottom — no RMW, no fence on x86
  /// beyond the release store's ordinary ordering).
  void push(T value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(buf->capacity)) {
      buf = grow(buf, t, b);
    }
    buf->slot(b).store(value, std::memory_order_relaxed);
    // Release: a thief acquiring a bottom value > b must see slot b's
    // content (and, transitively, the grown array pointer).
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only.  LIFO: takes the most recently pushed element.  False
  /// when the deque is empty or the last element was lost to a thief.
  bool pop(T& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    // Seq_cst store then seq_cst load: both sit in the single total
    // order S, which orders the bottom store before the top load (a
    // store-load ordering neither release nor acquire provides).
    // Without it, pop and a racing steal could both read the
    // pre-decrement/pre-increment index and take the same element.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Already empty: restore bottom and report so.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    out = buf->slot(b).load(std::memory_order_relaxed);
    if (t == b) {
      // Last element: the owner races thieves for it through the same
      // CAS on top the thieves use.  Losing means a thief took it.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  /// Any thread.  FIFO: takes the oldest element.  See StealResult for
  /// the three-way outcome; callers treat Abort as "work exists,
  /// somebody else got this one".
  StealResult steal(T& out) {
    // Seq_cst loads: S orders the top load before the bottom load.
    // Reading them in the other order could see a bottom from before an
    // owner pop and a top from after a competing steal, fabricating a
    // non-empty deque out of two stale halves.
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return StealResult::Empty;
    // Acquire pairs with grow's release store of buffer_: a thief that
    // observes the new array sees its fully copied contents.  (A thief
    // still holding the OLD array is fine too — grow never writes old
    // slots, so index t's cell is intact there; see DESIGN.md.)
    Buffer* buf = buffer_.load(std::memory_order_acquire);
    out = buf->slot(t).load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return StealResult::Abort;  // owner's last-element pop or another
                                  // thief advanced top first
    }
    return StealResult::Success;
  }

  /// Approximate under concurrency (two independent loads); exact when
  /// quiescent.
  std::size_t sizeApprox() const {
    const std::int64_t t = top_.load(std::memory_order_acquire);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  bool emptyApprox() const { return sizeApprox() == 0; }

  /// Current array capacity (grows over the deque's lifetime).
  std::size_t capacity() const {
    return buffer_.load(std::memory_order_acquire)->capacity;
  }

 private:
  struct Buffer {
    explicit Buffer(std::size_t minCapacity)
        : capacity(std::bit_ceil(minCapacity < 2 ? std::size_t{2}
                                                 : minCapacity)),
          mask(static_cast<std::int64_t>(capacity) - 1),
          slots(std::make_unique<std::atomic<T>[]>(capacity)) {}

    std::atomic<T>& slot(std::int64_t index) {
      return slots[static_cast<std::size_t>(index & mask)];
    }

    const std::size_t capacity;
    const std::int64_t mask;
    // Atomic slots: a thief may read a cell the owner concurrently
    // overwrites after a wrap; the stale value is discarded when the
    // thief's CAS fails, but the read itself must not be a data race.
    std::unique_ptr<std::atomic<T>[]> slots;
  };

  /// Owner only (from push).  Doubles the array, copies the live window
  /// [t, b), publishes the new array.  The old array is retired, NOT
  /// freed: a concurrent thief may still be reading it through a stale
  /// buffer_ load, so every array lives until the deque is destroyed
  /// (total retired memory is < 2x the final array — geometric series).
  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    // Failpoint: delay/abort drills only — a throw out of the owner's
    // push would lose the element mid-submission (DESIGN.md "Failure
    // domains" lists which sites tolerate throw mode).
    ATS_FAILPOINT(deque_grow);
    buffers_.push_back(std::make_unique<Buffer>(old->capacity * 2));
    Buffer* fresh = buffers_.back().get();
    for (std::int64_t i = t; i < b; ++i) {
      fresh->slot(i).store(old->slot(i).load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
    // Release so a thief acquiring this pointer sees the copied slots.
    buffer_.store(fresh, std::memory_order_release);
    return fresh;
  }

  // Thief-shared line: top is the only word thieves RMW.
  alignas(64) std::atomic<std::int64_t> top_{0};
  // Owner's line: bottom is stored on every push/pop; keeping it off
  // top_'s line means an owner-local operation never contends with a
  // thief's CAS for the same cache line.
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  // Rarely-written line: the array pointer (changes only on grow) and
  // the owner-only retire list.
  alignas(64) std::atomic<Buffer*> buffer_{nullptr};
  std::vector<std::unique_ptr<Buffer>> buffers_;  ///< owner/dtor only
};

}  // namespace ats
