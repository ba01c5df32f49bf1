#pragma once

#include <atomic>
#include <cassert>
#include <exception>

namespace ats {

/// Per-Runtime failure state for the current task graph (the window
/// between two quiescent points).
///
/// Two pieces, deliberately separate:
///
///   * the CANCELLATION TOKEN (`cancelled_`): one relaxed bool the
///     runtime's execute path loads per dequeued task.  Once set — by a
///     task body throwing or by Runtime::cancel() — subsequent ready
///     tasks are SKIPPED: body never runs, dependencies still release,
///     so the graph drains to quiescence instead of deadlocking on
///     successors that will never be satisfied.
///   * the STICKY FIRST-ERROR SLOT: a CAS-claimed exception_ptr holder.
///     Concurrent failures race one CAS; exactly one wins and stores
///     its exception_ptr, every later failure's error is dropped —
///     taskwaitChecked() rethrows the FIRST captured error, mirroring
///     what a serial execution of the graph would have surfaced first.
///
/// Ordering: the skip check is best-effort by design.  A task already
/// dequeued when the token flips still runs — but a task that becomes
/// ready BECAUSE a poisoned task completed observes the token: the
/// poison store is sequenced before the failing task's release, and
/// the successor is only reachable through the scheduler's own
/// release/acquire hand-off.  That is exactly the guarantee the
/// drain needs (no successor of a failed task runs), without any
/// fence on the non-failing fast path.
///
/// The failure and skip COUNTS are not here: the Runtime keeps them in
/// its per-slot stripes (Runtime::SlotCounters), so this line holds only
/// what every dequeue reads and what a failure writes once.
class GraphStatus {
 public:
  /// The per-dequeue check: one relaxed load.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Record a captured task failure: keep its error if it is the first,
  /// and flip the token.  Returns true when this call is the one that
  /// flipped it (the caller emits GraphCancelled).
  bool poison(std::exception_ptr error) {
    int expected = kEmpty;
    if (errorState_.compare_exchange_strong(expected, kClaiming,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      firstError_ = std::move(error);
      errorState_.store(kSet, std::memory_order_release);
    }
    return !cancelled_.exchange(true, std::memory_order_acq_rel);
  }

  /// Caller-initiated abort: poison without an error.  A later
  /// taskwaitChecked() returns normally — cancellation the caller asked
  /// for is not a failure.  Returns true when this call flipped the
  /// token.
  bool cancel() {
    return !cancelled_.exchange(true, std::memory_order_acq_rel);
  }

  /// Move the first captured error out (empty when the graph only ever
  /// saw cancel() or nothing at all).  Quiescence-only: the caller
  /// guarantees no poison() is in flight, so kClaiming cannot be
  /// observed here.
  std::exception_ptr takeFirstError() {
    const int state = errorState_.load(std::memory_order_acquire);
    assert(state != kClaiming &&
           "takeFirstError before the graph drained to quiescence");
    if (state != kSet) return nullptr;
    std::exception_ptr error = std::move(firstError_);
    firstError_ = nullptr;
    errorState_.store(kEmpty, std::memory_order_relaxed);
    return error;
  }

  /// Re-arm for the next batch (quiescence-only).  Clears the token and
  /// the error slot.
  void reset() {
    if (errorState_.load(std::memory_order_acquire) == kSet) {
      firstError_ = nullptr;
      errorState_.store(kEmpty, std::memory_order_relaxed);
    }
    cancelled_.store(false, std::memory_order_release);
  }

 private:
  static constexpr int kEmpty = 0;
  static constexpr int kClaiming = 1;
  static constexpr int kSet = 2;

  std::atomic<bool> cancelled_{false};
  std::atomic<int> errorState_{kEmpty};
  std::exception_ptr firstError_;
};

}  // namespace ats
